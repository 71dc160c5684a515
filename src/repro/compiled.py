"""The compiled scheduling engine: every production schedule runs here.

:func:`compile_instance` lowers an :class:`~repro.instance.Instance` once
into flat arrays (:class:`CompiledInstance`, cached on
``Instance.kernel``):

* the decode order (decreasing mean upward rank, topological tie-break)
  as integer task indices,
* a predecessor CSR (``pred_ptr``/``pred_idx``/``pred_cost``) whose
  per-edge entry is the edge's cost operand: the pair-independent
  constant of the uniform/zero link models, or — for every other
  model — the edge's data volume, priced per processor pair through
  the q×q latency and bandwidth tables the model's ``link()`` gives,
* the dense ETC matrix in canonical (task, machine-proc) order.

The passes walk those arrays with plain floats and per-processor
start/end lists: one static list pass (:meth:`~CompiledInstance.schedule_list`
for HEFT, CPOP, HCPT, PETS, HLFET, MCP and LMT and, every task pinned,
``decode_assignment``; :meth:`~CompiledInstance.schedule_onto` for the
online simulator's pre-occupied timelines), the DLS loop, the improved pass (the paper's
scheduler, LA-HEFT, DUP-HEFT) and the GA/SA decode.  Only the winner
becomes a :class:`~repro.schedule.schedule.Schedule`, as columns
(:meth:`CompiledInstance.materialize`); ``PlacementEngine.place`` and
``refine_schedule`` run on a given one (:meth:`CompiledInstance.place_task`,
:meth:`CompiledInstance.refine`).

The list and improved passes answer each slot search from a per-timeline
index of idle gaps (:func:`_first_fit`), which returns the float the
object path's :meth:`~repro.schedule.timeline.Timeline.find_slot`
helper (:func:`~repro.schedule.timeline.scan_slots`) returns, and is
tested equal to it; the GA/SA decode calls that helper itself.  Every
arithmetic operation replays the float sequence of the object
implementations exactly (``eft_placement``, ``placement_on`` and
the test-side ``tests/placement_reference.py``), so results are
bit-identical to them (``tests/core/test_compiled_executor.py``,
``tests/property/test_property_placement.py`` and others assert it,
against the reference engine of ``tests/object_path.py``).

Every fold that adds an edge cost adds either the uniform constant or
``lat[src][dst] + data / bw[src][dst]`` — the exact float
:meth:`~repro.machine.comm.CommunicationModel.time` returns.  Which of
the two a lowering uses is chosen once, in ``__init__``, as
``CompiledInstance._fold`` (and its twin ``_fold_dom``, which also
records each processor's dominant parent for duplicate planning): the
list, DLS and improved passes fold ready times through it without
testing the communication kind.  Every communication model prices a
transfer through ``link()``, so every instance lowers.

The passes skip work that provably cannot change a placement — the
gap index, dominance prunes (duplicate-aware in the duplicating
passes), the lookahead bound, positional undo of tentative duplicates,
cached ready vectors, O(1) refinement removal, per-task refinement
bounds and incremental DLS scoring (``docs/architecture.md``, "The
compiled executor", lists each with the condition that keeps it exact).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.exceptions import ScheduleError, SchedulingError, UnknownTaskError
from repro.obs import get_tracer
from repro.schedule.timeline import EPS as _TL_EPS
from repro.schedule.timeline import scan_slots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instance import Instance
    from repro.kernels import InstanceKernel
    from repro.schedule.schedule import Schedule, ScheduledTask
    from repro.types import ProcId, TaskId

__all__ = [
    "CompiledInstance",
    "CompiledSchedule",
    "compile_instance",
    "reset_schedule_counters",
    "schedule_counters",
]

_INF = float("inf")
_EPS = 1e-12  # placement tie tolerance (improved pass/eft_placement)
_TOL = 1e-9  # refinement acceptance / child-deadline tolerance

# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
# The compiled schedule executors are plain-int counted, traced or not:
# the counts cost one dict update per schedule, so they stay on even
# with the no-op tracer, and the service workers ship their deltas back
# to the engine for ``/metrics``.  ``fallbacks`` always reads 0 now that
# every instance lowers; it stays while the benchmark and ``/metrics``
# still report it.
_COUNTS = {
    "list_schedules": 0,
    "dls_schedules": 0,
    "improved_passes": 0,
    "online_schedules": 0,
    "fallbacks": 0,
}


def schedule_counters() -> dict[str, int]:
    """Snapshot of the compiled-executor counters (process-wide)."""
    return dict(_COUNTS)


def reset_schedule_counters() -> None:
    """Zero the compiled-executor counters (tests/benchmarks)."""
    for k in _COUNTS:
        _COUNTS[k] = 0


class CompiledSchedule:
    """Flat result of one compiled schedule build.

    Parallel lists indexed by canonical task position; ``dups`` holds
    committed duplicate placements as ``(task_idx, proc_idx, start,
    duration)`` tuples.  ``duration`` entries are the *exact* duration
    argument the object path would pass to ``Schedule.add`` — replaying
    them through :meth:`CompiledInstance.materialize` reproduces the
    object path's recorded floats bit for bit.  The list and improved
    passes also count their work: ``pruned`` probes skipped their slot
    search, ``planned`` applied a tentative duplicate (improved passes
    only) and ``walked`` slot searches walked the gap index (0 where a
    pass does not count).
    """

    __slots__ = ("makespan", "start", "darg", "proc", "dups", "pruned", "planned", "walked")

    def __init__(
        self,
        makespan: float,
        start: list[float],
        darg: list[float],
        proc: list[int],
        dups: list[tuple[int, int, float, float]],
        pruned: int = 0,
        planned: int = 0,
        walked: int = 0,
    ) -> None:
        self.makespan = makespan
        self.start = start
        self.darg = darg
        self.proc = proc
        self.dups = dups
        self.pruned = pruned
        self.planned = planned
        self.walked = walked


class CompiledInstance:
    """Flat-array lowering of one instance plus a reusable decoder.

    All arrays are fixed at construction; the decode scratch buffers are
    reused across calls, so — like :class:`~repro.kernels.InstanceKernel`
    — a ``CompiledInstance`` must only be used from one thread at a time
    (scheduling is single-threaded per instance everywhere in the
    library).
    """

    def __init__(self, kernel: "InstanceKernel") -> None:
        consts = kernel.out_const
        link = kernel.link_tables()
        if consts is None:
            # Per-link: the cost operand of an edge is its data volume.
            consts = {
                u: {v: float(d) for v, d in row.items()}
                for u, row in kernel.edge_data.items()
            }
        #: q×q per-link latency / bandwidth tables in canonical processor
        #: order; ``None`` on uniform/zero machines, whose edge operand is
        #: already the transfer cost.
        self._lat, self._bw = link if link is not None else (None, None)
        #: The data-arrival fold every pass calls, chosen once here, and
        #: its twin for the duplicating passes, which also records each
        #: processor's dominant parent.
        self._fold = self._const_fold if link is None else self._link_fold
        self._fold_dom = self._const_fold_dom if link is None else self._link_fold_dom
        self.tasks: list["TaskId"] = kernel.tasks
        self.procs: list["ProcId"] = kernel.procs
        self.n = n = len(self.tasks)
        self.q = len(self.procs)
        ti = kernel.ti
        self._ti = ti
        self._pi = kernel.pi

        # Decode order: decreasing mean upward rank, exactly the order
        # rank_order() hands the metaheuristics (cached on the kernel).
        self.order = np.array(
            [ti[t] for t in kernel.rank_order("mean")], dtype=np.intp
        )
        self.order.flags.writeable = False
        self._order_list: list[int] = self.order.tolist()

        # Predecessor CSR over canonical task indices, shared with the
        # kernel.  ``pred_cost[e]`` is the edge's cost operand: the
        # uniform/zero constant (the exact float the object path's
        # ready_time adds for a cross-processor transfer) or the per-link
        # data volume.
        self.pred_ptr, _, self.pred_idx, self.pred_cost = kernel.pred_csr()
        ptr = self.pred_ptr.tolist()
        idx = self.pred_idx.tolist()
        cost = self.pred_cost.tolist()

        # Python-level mirrors for the hot loop: per-task (parent index,
        # edge operand) pairs, and the ETC matrix as nested lists.
        self._preds: list[list[tuple[int, float]]] = [
            list(zip(idx[ptr[i] : ptr[i + 1]], cost[ptr[i] : ptr[i + 1]]))
            for i in range(n)
        ]
        self.etc = kernel.etc_arr  # shared read-only view
        self._etc_rows: list[list[float]] = kernel.etc_rows

        # Successor mirrors (the list executors and the improved pass
        # walk children for lookahead / deadline checks / ready sets):
        # per-task (child index, edge operand) pairs in successor-list
        # order, plus the same operands as per-task dicts for O(1)
        # (task, child) lookups.
        self._succs: list[list[tuple[int, float]]] = [
            [(ti[s], consts[t][s]) for s in kernel.succ[t]] for t in self.tasks
        ]
        self._succ_w: list[dict[int, float]] = [
            {ti[s]: consts[t][s] for s in kernel.succ[t]} for t in self.tasks
        ]
        # Topological position and display string per canonical index —
        # the exact tie-breakers the object path uses.
        self._pos: list[int] = [kernel.pos[t] for t in self.tasks]
        # The same positions plus one sentinel past every task, read at
        # index -1 by the dominant-parent folds before a processor has
        # a dominant parent.
        self._dom_pos: list[int] = self._pos + [n]
        self._str: list[str] = [str(t) for t in self.tasks]

        # Decode scratch (reused; every read is preceded by a same-decode
        # write because the decode order is topological).
        self._end_of: list[float] = [0.0] * n
        self._start_of: list[float] = [0.0] * n
        self._proc_of: list[int] = [-1] * n
        self._proc_starts: list[list[float]] = [[] for _ in range(self.q)]
        self._proc_ends: list[list[float]] = [[] for _ in range(self.q)]

    # ------------------------------------------------------------------
    # genome plumbing
    # ------------------------------------------------------------------
    def genome_of(self, assignment: Mapping["TaskId", "ProcId"]) -> np.ndarray:
        """Lower a ``{task: proc}`` mapping to a decode-order genome."""
        pi = self._pi
        tasks = self.tasks
        try:
            return np.array(
                [pi[assignment[tasks[t]]] for t in self._order_list], dtype=np.int64
            )
        except KeyError as exc:
            raise SchedulingError(f"assignment is missing {exc.args[0]!r}") from None

    def assignment_of(self, genome: Sequence[int]) -> dict["TaskId", "ProcId"]:
        """Raise a decode-order genome back to a ``{task: proc}`` mapping."""
        tasks, procs = self.tasks, self.procs
        return {tasks[t]: procs[int(g)] for t, g in zip(self._order_list, genome)}

    def _as_genome_list(self, assignment) -> list[int]:
        if isinstance(assignment, Mapping):
            genome = self.genome_of(assignment).tolist()
        else:
            genome = [int(g) for g in assignment]
            if len(genome) != self.n:
                raise SchedulingError(
                    f"genome length {len(genome)} != {self.n} tasks"
                )
        q = self.q
        for g in genome:
            if not 0 <= g < q:
                raise SchedulingError(f"processor index {g} out of range [0, {q})")
        return genome

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_span(self, genome: Sequence[int]) -> float:
        """Makespan of one decode-order genome (no validation, no copies).

        The SA inner loop calls this directly; GA populations go through
        :meth:`decode_batch`.

        Replays ``decode_assignment`` (the pinned list pass) float for
        float: per task, the
        ready time is the max over parents of ``end`` (same processor)
        or ``end + cost`` (cross processor); the start comes from the
        shared insertion scan; the busy interval is inserted in
        start-sorted order with `bisect_left` ties — exactly like
        ``Timeline.add``.
        """
        preds = self._preds
        lat, bw = self._lat, self._bw
        etc_rows = self._etc_rows
        end_of = self._end_of
        start_of = self._start_of
        proc_of = self._proc_of
        proc_starts = self._proc_starts
        proc_ends = self._proc_ends
        for lst in proc_starts:
            del lst[:]
        for lst in proc_ends:
            del lst[:]
        makespan = 0.0
        for k, t in enumerate(self._order_list):
            p = genome[k]
            duration = etc_rows[t][p]
            ready = 0.0
            for u, w in preds[t]:
                cand = end_of[u]
                pu = proc_of[u]
                if pu != p:
                    cand += w if lat is None else lat[pu][p] + w / bw[pu][p]
                if cand > ready:
                    ready = cand
            starts = proc_starts[p]
            ends = proc_ends[p]
            start = scan_slots(starts, ends, ready, duration)
            # The object path records ``start + ((start + duration) -
            # start)`` (Placement end minus start, re-added by
            # Schedule.add) — replay that double rounding so recorded
            # ends are bit-identical.
            end = start + duration
            end = start + (end - start)
            i = bisect_left(starts, start)
            starts.insert(i, start)
            ends.insert(i, end)
            start_of[t] = start
            end_of[t] = end
            proc_of[t] = p
            if end > makespan:
                makespan = end
        return makespan

    def decode_fast(
        self, assignment: Mapping["TaskId", "ProcId"] | Sequence[int]
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Decode one assignment into ``(makespan, starts, procs)``.

        ``assignment`` is either a ``{task: proc}`` mapping or a
        decode-order genome of processor indices.  ``starts``/``procs``
        are indexed by canonical task position (``self.tasks``); end
        times follow as ``starts + etc[task, proc]``.
        """
        genome = self._as_genome_list(assignment)
        makespan = self.decode_span(genome)
        starts = np.array(self._start_of, dtype=float)
        procs = np.array(self._proc_of, dtype=np.intp)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("compiled.decodes")
        return makespan, starts, procs

    def decode_batch(self, population: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        """Makespans of a whole population, one row per genome.

        This is the GA fitness evaluation: one call per generation
        instead of one object-path schedule per chromosome.
        """
        rows = np.asarray(population)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise SchedulingError(
                f"population must have shape (m, {self.n}), got {rows.shape}"
            )
        decode = self.decode_span
        tracer = get_tracer()
        if not tracer.enabled:
            return np.array([decode(genome) for genome in rows.tolist()], dtype=float)
        with tracer.span("compiled.decode_batch", genomes=len(rows), tasks=self.n):
            out = np.array([decode(genome) for genome in rows.tolist()], dtype=float)
        tracer.count("compiled.decodes", len(rows))
        return out

    # ------------------------------------------------------------------
    # compiled list-scheduling executor
    # ------------------------------------------------------------------
    def order_indices(self, order: Sequence["TaskId"]) -> list[int]:
        """Lower a task-id priority order to canonical indices."""
        ti = self._ti
        try:
            return [ti[t] for t in order]
        except KeyError as exc:
            raise SchedulingError(f"unknown task {exc.args[0]!r} in order") from None

    def schedule_list(
        self,
        order: Sequence[int],
        *,
        insertion: bool = True,
        policy: str = "eft",
        pinned: Sequence[int] | None = None,
    ) -> CompiledSchedule:
        """One static-priority list pass over canonical task indices.

        Replays the object path per task: batched data-ready times (max
        over parents of recorded ``end`` / ``end + cost``), the
        ``scan_slots`` answer from the gap index (or ``max(ready,
        end_time)`` without insertion), EFT (``end < best - 1e-12``) or
        EST (``start < best - 1e-12``) processor ties, and
        ``Schedule.add``'s double rounding of the recorded end.  ``pinned[t] >= 0`` forces task ``t`` onto
        that processor index (CPOP's critical path) with no comparison,
        exactly like ``placement_on``.
        """
        result = self._list_pass(order, insertion, policy, pinned=pinned)
        _COUNTS["list_schedules"] += 1
        return result

    def schedule_onto(
        self,
        order: Sequence[int],
        busy_starts: Sequence[Sequence[float]],
        busy_ends: Sequence[Sequence[float]],
        *,
        release: float = 0.0,
        insertion: bool = True,
        policy: str = "eft",
        etc_scale: Sequence[float] | None = None,
    ) -> CompiledSchedule:
        """The :meth:`schedule_list` pass against *pre-occupied* timelines.

        The online multi-tenant simulator (:mod:`repro.sim.online`)
        schedules each arriving job onto a cluster whose processors
        already carry residual load: ``busy_starts``/``busy_ends`` seed
        each processor's timeline with the cluster's current busy
        intervals (sorted by start, non-overlapping), and every task's
        data-ready time is floored at ``release`` (the job's arrival
        time), so no placement can begin in the past.  ``etc_scale``
        optionally multiplies task ``t``'s durations by ``etc_scale[t]``
        — the runtime-ETC-noise hook.  With empty seeds, ``release=0``
        and no scale this is :meth:`schedule_list` float for float.

        The lowering itself (CSR, ETC rows, rank order) is untouched —
        only the timeline seeds vary between arrivals, which is what
        makes the cached-lowering path cheap: one lowering per template,
        one dirty-suffix seed per arrival.
        """
        if len(busy_starts) != self.q or len(busy_ends) != self.q:
            raise SchedulingError(
                f"busy lists cover {len(busy_starts)} processors, machine has {self.q}"
            )
        result = self._list_pass(
            order,
            insertion,
            policy,
            busy=(busy_starts, busy_ends),
            release=release,
            etc_scale=etc_scale,
        )
        _COUNTS["online_schedules"] += 1
        return result

    def _list_pass(
        self,
        order: Sequence[int],
        insertion: bool,
        policy: str,
        *,
        busy: tuple[Sequence[Sequence[float]], Sequence[Sequence[float]]] | None = None,
        release: float = 0.0,
        etc_scale: Sequence[float] | None = None,
        pinned: Sequence[int] | None = None,
    ) -> CompiledSchedule:
        """The list pass behind :meth:`schedule_list` and :meth:`schedule_onto`.

        ``busy`` seeds the timelines, ``release`` floors every ready
        time, ``etc_scale[t]`` multiplies task ``t``'s ETC row (once per
        task) and ``pinned[t] >= 0`` makes that processor the task's only
        candidate.
        """
        if policy not in ("eft", "est"):
            raise SchedulingError(f"unknown placement policy {policy!r}")
        q = self.q
        qr = range(q)
        fold = self._fold
        preds = self._preds
        etc_rows = self._etc_rows
        n = self.n
        start_of = [0.0] * n
        end_of = [0.0] * n
        darg_of = [0.0] * n
        proc_of = [-1] * n
        # Each timeline keeps its gap index (:func:`_gap_index`): the
        # positive idle gaps as parallel start/end lists and ``tl_nz``,
        # the end of its last nonzero-width slot.  The slot search is
        # :meth:`_FlatState.find_slot`, inline.
        tl_starts: list[list[float]] = [[] for _ in qr]
        tl_ends: list[list[float]] = [[] for _ in qr]
        tl_max = [0.0] * q
        tl_nz = [0.0] * q
        gap_s: list[list[float]] = [[] for _ in qr]
        gap_e: list[list[float]] = [[] for _ in qr]
        if busy is not None:
            for j in qr:
                tl_starts[j] = list(busy[0][j])
                tl_ends[j] = list(busy[1][j])
                tl_max[j], gap_s[j], gap_e[j], tl_nz[j] = _gap_index(tl_starts[j], tl_ends[j])
        eft = policy == "eft"
        makespan = 0.0
        pruned = walked = 0
        for t in order:
            row = etc_rows[t]
            if etc_scale is not None:
                scale = etc_scale[t]
                row = [d * scale for d in row]
            ready_vec = fold([release] * q, preds[t], end_of, proc_of)
            # A pinned task probes its one processor, which always wins.
            cands = qr if pinned is None or pinned[t] < 0 else (pinned[t],)
            best_j = -1
            best_start = 0.0
            best_end = 0.0
            for j in cands:
                duration = row[j]
                ready = ready_vec[j]
                if best_j >= 0:
                    # Dominance prune: start >= ready, and float addition
                    # is monotone, so end >= ready + duration — a
                    # processor that already cannot beat the incumbent
                    # skips the slot search.
                    if eft:
                        if ready + duration >= best_end - _EPS:
                            pruned += 1
                            continue
                    elif ready >= best_start - _EPS:
                        pruned += 1
                        continue
                if not insertion:
                    m = tl_max[j]
                    start = ready if ready > m else m
                elif ready >= tl_nz[j]:
                    start = ready
                elif duration > _TL_EPS:
                    ge = gap_e[j]
                    if ge and ge[-1] > ready:
                        walked += 1
                        start = _first_fit(gap_s[j], ge, tl_nz[j], ready, duration)
                    else:
                        start = tl_nz[j]
                else:
                    start = scan_slots(tl_starts[j], tl_ends[j], ready, duration)
                end = start + duration
                if best_j < 0 or (
                    end < best_end - _EPS if eft else start < best_start - _EPS
                ):
                    best_j = j
                    best_start = start
                    best_end = end
            # Schedule.add replay: duration argument is ``end - start``,
            # the recorded end is ``start + (end - start)``.
            darg = best_end - best_start
            rend = best_start + darg
            start_of[t] = best_start
            end_of[t] = rend
            darg_of[t] = darg
            proc_of[t] = best_j
            starts = tl_starts[best_j]
            ends = tl_ends[best_j]
            i = bisect_left(starts, best_start)
            starts.insert(i, best_start)
            ends.insert(i, rend)
            if rend - best_start > _TL_EPS:
                # Only nonzero-width slots bound gaps.  One that starts
                # at or past the last nonzero end is appended and opens
                # at most one gap; any other splits the gap it lands in.
                nz = tl_nz[best_j]
                if best_start >= nz:
                    if best_start > nz:
                        gap_s[best_j].append(nz)
                        gap_e[best_j].append(best_start)
                    tl_nz[best_j] = rend
                else:
                    tl_nz[best_j] = _gap_insert(starts, ends, i, gap_s[best_j], gap_e[best_j], nz)
            if rend > tl_max[best_j]:
                tl_max[best_j] = rend
            if rend > makespan:
                makespan = rend
        return CompiledSchedule(makespan, start_of, darg_of, proc_of, [], pruned, 0, walked)

    def schedule_dls(
        self, sl: Sequence[float], wstar: Sequence[float]
    ) -> CompiledSchedule:
        """Compiled Dynamic Level Scheduling loop.

        Replays ``DLS.schedule``: per step the (ready task, processor)
        pair minimising ``(-dl, pos, j)`` wins, where ``dl = sl - start +
        (wstar - etc)``; placement appends at ``max(ready, end_time)``
        and records ``start + duration`` (single rounding — DLS passes
        the raw duration to ``Schedule.add``).  A task's ready vector is
        folded once, when its last parent is placed, like the object
        path.

        The pairing is incremental but exact: every ready task keeps its
        best ``(key, proc, start)``.  A placement raises only its own
        processor's ``tl_max``; ``start = max(ready, tl_max)`` and
        ``-dl`` are monotone in it (float subtraction and addition are
        monotone), so every key on that processor can only grow.  A task
        whose best sat elsewhere keeps it; only the tasks whose best sat
        on the processor just used are re-scored, and only when its
        ``tl_max`` grew.  Keys are a strict total order (``pos`` and
        ``j`` are distinct), so the smallest per-task best is the pair
        a full re-scan would pick.
        """
        n = self.n
        q = self.q
        preds = self._preds
        succs = self._succs
        etc_rows = self._etc_rows
        pos = self._pos
        indeg = [len(preds[t]) for t in range(n)]
        start_of = [0.0] * n
        end_of = [0.0] * n
        darg_of = [0.0] * n
        proc_of = [-1] * n
        tl_max = [0.0] * q
        qr = range(q)
        fold = self._fold
        #: ready task -> ready vector, folded once all parents are placed
        vecs: dict[int, list[float]] = {}
        #: ready task -> (-dl, pos, proc, start, task) of its best pair
        best: dict[int, tuple[float, int, int, float, int]] = {}

        def score(t: int) -> None:
            vec = vecs[t]
            slt = sl[t]
            wst = wstar[t]
            row = etc_rows[t]
            bk = 0.0
            bj = -1
            bs = 0.0
            for j in qr:
                dr = vec[j]
                m = tl_max[j]
                start = dr if dr > m else m
                delta = wst - row[j]
                dl = slt - start + delta
                k = -dl
                # One task's keys share ``pos``: the smallest -dl wins,
                # ties to the first processor, as in ``(-dl, pos, j)``.
                if bj < 0 or k < bk:
                    bk = k
                    bj = j
                    bs = start
            best[t] = (bk, pos[t], bj, bs, t)

        for t in range(n):
            if indeg[t] == 0:
                vecs[t] = fold([0.0] * q, preds[t], end_of, proc_of)
                score(t)
        makespan = 0.0
        while best:
            _k, _p, best_j, best_start, t = min(best.values())
            del best[t]
            del vecs[t]
            duration = etc_rows[t][best_j]
            rend = best_start + duration
            start_of[t] = best_start
            end_of[t] = rend
            darg_of[t] = duration
            proc_of[t] = best_j
            if rend > tl_max[best_j]:
                tl_max[best_j] = rend
                for u in [u for u, e in best.items() if e[2] == best_j]:
                    score(u)
            if rend > makespan:
                makespan = rend
            for c, _const in succs[t]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    vecs[c] = fold([0.0] * q, preds[c], end_of, proc_of)
                    score(c)
        _COUNTS["dls_schedules"] += 1
        return CompiledSchedule(makespan, start_of, darg_of, proc_of, [])

    def materialize(
        self, result: CompiledSchedule, machine, name: str
    ) -> "Schedule":
        """Turn a flat result into a :class:`Schedule`'s columns.

        Primaries in canonical task order, then the duplicates; every end
        is ``start + duration`` with the exact duration argument the
        object path passes to ``Schedule.add``, so the recorded floats
        (including the double-rounded ends) are bit-identical.  No
        placement objects are built until a caller asks for them.
        """
        from repro.schedule.schedule import Schedule, ScheduleColumns

        tasks = self.tasks
        procs = self.procs
        dups = result.dups
        task_idx = list(range(self.n))
        proc_idx = list(result.proc)
        start_col = list(result.start)
        end_col = [s + d for s, d in zip(result.start, result.darg)]
        for dt, dj, ds, dd in dups:
            task_idx.append(dt)
            proc_idx.append(dj)
            start_col.append(ds)
            end_col.append(ds + dd)
        columns = ScheduleColumns(
            [tasks[t] for t in task_idx],
            [procs[j] for j in proc_idx],
            start_col,
            end_col,
            [False] * self.n + [True] * len(dups),
        )
        return Schedule.from_columns(
            machine, columns, name=name, index=(self._ti, self._pi, task_idx, proc_idx)
        )

    # ------------------------------------------------------------------
    # compiled improved-scheduler pass
    # ------------------------------------------------------------------
    def schedule_improved(
        self,
        order: Sequence[int],
        ranks: Sequence[float],
        *,
        lookahead: bool,
        duplication: bool,
        insertion: bool,
        refinement: bool,
        refinement_rounds: int,
        max_duplications_per_task: int = 3,
    ) -> CompiledSchedule:
        """One full improved-scheduler pass (engine + refinement).

        Places each task (:meth:`_improved_place_pass`: critical-child
        lookahead, tentative duplicate planning with rollback, the
        strict ``(score, end, j)`` tuple key), then runs the refinement
        sweep (:meth:`_refine`: latest start first, child-deadline
        checks, ``1e-9`` acceptance) under a ``sched.refine`` span,
        whose ``visits``, ``probes`` and ``moves`` count the tasks it
        visited and probed and the moves it accepted.  The result
        carries the placement pass's probe counts and the slot searches
        of both passes that walked the gap index.
        """
        st = _FlatState(self.n, self.q)
        pruned, planned, walked = self._improved_place_pass(
            st,
            order,
            ranks,
            lookahead=lookahead,
            duplication=duplication,
            insertion=insertion,
            max_dups=max_duplications_per_task,
        )
        if refinement:
            with get_tracer().span("sched.refine") as span:
                visits, probes, moves = self._refine(st, refinement_rounds)
                span.set(visits=visits, probes=probes, moves=moves)
        makespan = 0.0
        dups: list[tuple[int, int, float, float]] = []
        for t in range(self.n):
            e = st.pend[t]
            if e > makespan:
                makespan = e
            for dj, ds, de, dd in st.dups[t]:
                dups.append((t, dj, ds, dd))
                if de > makespan:
                    makespan = de
        _COUNTS["improved_passes"] += 1
        return CompiledSchedule(
            makespan, st.pstart, st.pdarg, st.pproc, dups, pruned, planned, walked + st.walked
        )

    # ------------------------------------------------------------------
    # PlacementEngine.place and refine_schedule on a Schedule
    # ------------------------------------------------------------------
    def place_task(
        self, schedule: "Schedule", task: "TaskId", ranks: Mapping["TaskId", float], *,
        lookahead: bool, duplication: bool, insertion: bool, max_duplications_per_task: int = 3,
    ) -> "ScheduledTask":
        """Run :meth:`_improved_place_pass` for ``task`` alone on the
        placements of ``schedule`` (``ranks`` missing a task read 0.0),
        then add its winning duplicates in plan order and its primary to
        ``schedule``; returns the primary.  An unplaced parent or a
        placed ``task`` raises before anything changes."""
        t = self._ti.get(task)
        if t is None:
            raise UnknownTaskError(task)
        st = self._state_of(schedule)
        preds = self._preds[t]
        for u, _w in preds:
            if not st.placed[u]:
                raise SchedulingError(f"parent {self.tasks[u]!r} of {task!r} is unscheduled")
        if st.placed[t]:
            raise ScheduleError(f"task {task!r} already has a primary placement")
        # The planner copies parents by decreasing (arrival, -pos) and a
        # copy moves only its own parent's arrival, so the arrivals from
        # before the pass sort the new copies into plan order.
        dups = st.dups
        before = [(u, len(dups[u]), self._fold([0.0] * self.q, [(u, w)], st.pend, st.pproc, dups))
                  for u, w in preds] if duplication else []
        self._improved_place_pass(st, [t], [ranks.get(u, 0.0) for u in self.tasks],
                                  lookahead=lookahead, duplication=duplication,
                                  insertion=insertion, max_dups=max_duplications_per_task)
        j = st.pproc[t]
        plan = sorted(((a[j], -self._pos[u], u) for u, k, a in before if len(dups[u]) > k),
                      reverse=True)
        for _a, _p, u in plan:
            _j, ds, _de, dd = dups[u][-1]
            schedule.add(self.tasks[u], self.procs[j], ds, dd, duplicate=True)
        if plan:
            get_tracer().count("imp.duplicates", len(plan))
        return schedule.add(task, self.procs[j], st.pstart[t], st.pdarg[t])

    def refine(self, schedule: "Schedule", max_rounds: int) -> int:
        """Run :meth:`_refine` on the placements of ``schedule``; returns
        its move count.  Every primary that moved, or whose end a restore
        re-rounded, leaves before any is re-added (one at a time, a
        re-added task could overlap a slot not yet vacated)."""
        st = self._state_of(schedule)
        if max_rounds > 0 and not all(st.placed):
            raise ScheduleError(f"task {self.tasks[st.placed.index(False)]!r} is not scheduled")
        old = list(zip(st.pproc, st.pstart, st.pend))
        moves = self._refine(st, max_rounds)[2]
        moved = [t for t, now in enumerate(zip(st.pproc, st.pstart, st.pend)) if now != old[t]]
        for t in moved:
            schedule.remove(self.tasks[t])
        for t in moved:
            schedule.add(self.tasks[t], self.procs[st.pproc[t]], st.pstart[t], st.pdarg[t])
        return moves

    def _state_of(self, schedule: "Schedule") -> "_FlatState":
        """A :class:`_FlatState` of ``schedule``: every timeline's slots in
        timeline order (``-1`` for a task of another instance) with its
        gap index, and every primary and duplicate of this instance."""
        st = _FlatState(self.n, self.q)
        ti = self._ti
        for j, proc in enumerate(self.procs):
            slots = list(schedule.timeline(proc))
            starts = st.tl_starts[j] = [slot.start for slot in slots]
            ends = st.tl_ends[j] = [slot.end for slot in slots]
            st.tl_tasks[j] = [ti.get(slot.task, -1) for slot in slots]
            st.tl_max[j], st.gap_s[j], st.gap_e[j], st.tl_nz[j] = _gap_index(starts, ends)
        for p in schedule.all_placements():
            t = ti.get(p.task)
            if t is None:
                continue
            j = self._pi[p.proc]
            if p.duplicate:
                st.dups[t].append((j, p.start, p.end, p.end - p.start))
            else:
                st.pstart[t], st.pend[t], st.pdarg[t], st.pproc[t] = p.start, p.end, p.end - p.start, j
                st.placed[t] = True
        return st

    def _improved_place_pass(
        self,
        st: "_FlatState",
        order: Sequence[int],
        ranks: Sequence[float],
        *,
        lookahead: bool,
        duplication: bool,
        insertion: bool,
        max_dups: int,
    ) -> tuple[int, int, int]:
        """Place every task of ``order`` (the reference's ``place`` per task).

        Returns ``(pruned, planned, walked)``: the probes skipped before
        their slot search, those that applied a tentative duplicate and
        the plain slot searches that walked the gap index (those of
        :meth:`_FlatState.find_slot` count on ``st.walked``).

        Exact shortcuts, each skipping only work whose outcome is fixed:

        * duplicating passes fold the parents once into the ready vector
          and each processor's dominant parent, and run the first round
          of duplicate planning in the probe loop from it: the dominant
          arrival is ``> 1e-12``, the parent is not already on ``j``,
          and a copy ending at ``ds + dd`` (``dup_ready`` from the
          parent's cached ready vector ``st.rvec``, or :meth:`_ready_on`
          once that is dropped) beats the arrival by more than
          ``1e-12``.  Every earlier probe undid its duplicates, so these
          tests read the state the planner would.  Only a probe whose
          first duplicate applies enters :meth:`_plan_duplicates`;
        * a probe's tentative duplicates are undone by position
          (:meth:`_FlatState.tl_undo`);
        * the plain slot search runs :meth:`_FlatState.find_slot` inline:
          its O(1) answer, then the gap-index walk;
        * a processor skips its slot search when ``floor + duration``
          cannot beat the incumbent key (with a lookahead child, when
          ``floor + duration + min(child row)`` strictly exceeds the
          incumbent score).  The floor is ``ready``, or ``ds + dd`` when
          the first duplicate applies: the dominant parent's copy on
          ``j`` stays until the probe ends, so the ready time with the
          plan, and the start found from it, is at least ``ds + dd``,
          and a rejected plan falls back to the plain end, which is at
          least ``ready + duration``;
        * a probe skips its lookahead when ``p_end + min(child row)``
          strictly exceeds the incumbent score, and reuses the shared
          lookahead base unless a planned duplicate is a parent of the
          child.

        Each task's refinement bound ``st.lb[t]`` is the least end over
        processors of the insertion search taken before any tentative
        duplicate, or ``ready + duration`` for a pruned processor (not
        the floor: refinement never duplicates) and on every processor
        when the pass runs without insertion (:meth:`_refine` says why
        it holds).

        The bounds hold because a start is never before its ready time,
        ETC cells and transfer costs are ``>= 0``, every lookahead
        finish is ``r + row[k]`` with ``r >= p_end``, and float addition
        is monotone; a later processor with an equal key loses, since
        ``j`` is the key's last field.
        """
        q = self.q
        qr = range(q)
        fold = self._fold
        fold_dom = self._fold_dom
        preds = self._preds
        etc_rows = self._etc_rows
        succs = self._succs
        succ_w = self._succ_w
        pos = self._pos
        placed = st.placed
        pproc = st.pproc
        dups = st.dups
        lb = st.lb
        rvec = st.rvec
        tl_starts = st.tl_starts
        tl_ends = st.tl_ends
        tl_max = st.tl_max
        tl_nz = st.tl_nz
        gap_s = st.gap_s
        gap_e = st.gap_e
        find_slot = st.find_slot
        plan_first = duplication and max_dups > 0
        dom_vec: list[int] = []
        la_base: list[float] = []
        cmin = 0.0
        pruned = planned = walked = 0
        for t in order:
            row = etc_rows[t]
            child = -1
            if lookahead:
                child_key: tuple[float, int] | None = None
                for s, _const in succs[t]:
                    if placed[s]:
                        continue
                    k = (ranks[s], -pos[s])
                    if child_key is None or k > child_key:
                        child_key = k
                        child = s
            if duplication:
                dom_vec = [-1] * q
                ready_vec = fold_dom([0.0] * q, dom_vec, preds[t], st.pend, pproc, dups)
            else:
                ready_vec = fold([0.0] * q, preds[t], st.pend, pproc, dups)
            if child >= 0:
                la_base = self._lookahead_base(st, t, child)
                cmin = min(etc_rows[child])
            best_key: tuple[float, float, int] | None = None
            best_j = -1
            best_start = 0.0
            best_end = 0.0
            best_plans: list[tuple[int, float, float, int]] = []
            lo = _INF  # the refinement bound of t
            for j in qr:
                duration = row[j]
                ready = ready_vec[j]
                # Round one of duplicate planning: copy the dominant
                # parent ``first`` to [ds, ds + dd) on j.
                first = -1
                floor = ready  # <= every start this probe can find
                if plan_first and ready > _EPS:
                    u = dom_vec[j]
                    copies = dups[u]
                    # ``any`` would build a generator even for no copies.
                    if pproc[u] != j and not (
                        copies and any(dj == j for dj, _s, _e, _d in copies)
                    ):
                        vec = rvec[u]
                        dup_ready = self._ready_on(st, u, j) if vec is None else vec[j]
                        dd = etc_rows[u][j]
                        if dup_ready + dd < ready - _EPS:
                            ds = find_slot(j, dup_ready, dd, insertion)
                            if ds + dd < ready - _EPS:
                                first = u
                                floor = ds + dd
                if best_key is not None:
                    bound = floor + duration  # <= p_end
                    if (bound >= best_end) if child < 0 else (bound + cmin > best_key[0]):
                        pruned += 1
                        bound = ready + duration
                        if bound < lo:
                            lo = bound
                        continue
                # The plain slot search: find_slot, inline.
                if not insertion:
                    m = tl_max[j]
                    start = ready if ready > m else m
                elif ready >= tl_nz[j]:
                    start = ready
                elif duration > _TL_EPS:
                    ge = gap_e[j]
                    if ge and ge[-1] > ready:
                        walked += 1
                        start = _first_fit(gap_s[j], ge, tl_nz[j], ready, duration)
                    else:
                        start = tl_nz[j]
                else:
                    start = scan_slots(tl_starts[j], tl_ends[j], ready, duration)
                plain_end = start + duration
                if plain_end < lo:
                    lo = plain_end
                plans: list[tuple[int, float, float, int]] = []
                p_start = start
                p_end = plain_end
                if first >= 0:
                    planned += 1
                    plans = self._plan_duplicates(st, t, j, insertion, max_dups, first, ds, dd)
                    ready2 = self._ready_on(st, t, j)
                    s2 = find_slot(j, ready2, duration, insertion)
                    e2 = s2 + duration
                    if e2 < plain_end - _EPS:
                        p_start = s2
                        p_end = e2
                    else:
                        st.tl_undo(j, plans)
                        plans = []
                if child >= 0:
                    if best_key is not None and p_end + cmin > best_key[0]:
                        if plans:
                            st.tl_undo(j, plans)
                        continue
                    # A tentative duplicate that is also a parent of the
                    # child changes the child's arrivals: fold them anew.
                    base = la_base
                    for dt, _ds, _dd, _i in plans:
                        if child in succ_w[dt]:
                            base = self._lookahead_base(st, t, child)
                            break
                    score = self._lookahead(st, base, t, child, j, p_end)
                else:
                    score = p_end
                key = (score, p_end, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best_j = j
                    best_start = p_start
                    best_end = p_end
                    best_plans = plans
                if plans:
                    st.tl_undo(j, plans)
            if not insertion:
                # An appended start is no bound on an insertion search.
                lo = min([r + d for r, d in zip(ready_vec, row)])
            lb[t] = lo
            rvec[t] = ready_vec
            # Commit: winning duplicates re-applied in plan order, then
            # the primary (Schedule.add double rounding).  A new copy of
            # ``dt`` can bring its data to a child earlier, so the
            # children's bounds and ready vectors (``t``'s among them)
            # are dropped.
            for dt, ds, dd, _i in best_plans:
                dups[dt].append((best_j, ds, ds + dd, dd))
                st.tl_add(best_j, dt, ds, ds + dd)
                for c, _w in succs[dt]:
                    lb[c] = -_INF
                    rvec[c] = None
            darg = best_end - best_start
            rend = best_start + darg
            st.pstart[t] = best_start
            st.pend[t] = rend
            st.pdarg[t] = darg
            pproc[t] = best_j
            placed[t] = True
            st.tl_add(best_j, t, best_start, rend)
        return pruned, planned, walked

    def _const_fold(
        self,
        ready: list[float],
        edges: Sequence[tuple[int, float]],
        end_of: Sequence[float],
        proc_of: Sequence[int],
        dups: Sequence[list[tuple[int, float, float, float]]] | None = None,
    ) -> list[float]:
        """:meth:`_link_fold` for zero/uniform machines, whose edge operand
        is already the cross-processor transfer cost: a copy on another
        processor arrives at ``end + cost``."""
        qr = range(self.q)
        for u, const in edges:
            eu = end_of[u]
            pu = proc_of[u]
            ec = eu + const
            dlist = dups[u] if dups is not None else None
            if not dlist:
                for j in qr:
                    a = eu if j == pu else ec
                    if a > ready[j]:
                        ready[j] = a
            else:
                for j in qr:
                    a = eu if j == pu else ec
                    for dj, _ds, de, _dd in dlist:
                        c = de if dj == j else de + const
                        if c < a:
                            a = c
                    if a > ready[j]:
                        ready[j] = a
        return ready

    def _link_fold(
        self,
        ready: list[float],
        edges: Sequence[tuple[int, float]],
        end_of: Sequence[float],
        proc_of: Sequence[int],
        dups: Sequence[list[tuple[int, float, float, float]]] | None = None,
    ) -> list[float]:
        """Fold per-link data arrivals of ``edges`` into ``ready``, in place.

        Each ``(parent, data)`` edge arrives on processor ``j`` at the
        min over the parent's copies (primary, plus ``dups`` when given)
        of ``end`` on the same processor or ``end + (lat[src][j] + data /
        bw[src][j])`` — the exact float ``LinkCommunication.time`` adds —
        and ``ready[j]`` keeps the running max over parents, like
        ``ready_time``.
        """
        lat, bw = self._lat, self._bw
        qr = range(self.q)
        for u, data in edges:
            eu = end_of[u]
            pu = proc_of[u]
            lr = lat[pu]
            br = bw[pu]
            dlist = dups[u] if dups is not None else None
            if not dlist:
                for j in qr:
                    a = eu if j == pu else eu + (lr[j] + data / br[j])
                    if a > ready[j]:
                        ready[j] = a
            else:
                for j in qr:
                    a = eu if j == pu else eu + (lr[j] + data / br[j])
                    for dj, _ds, de, _dd in dlist:
                        c = de if dj == j else de + (lat[dj][j] + data / bw[dj][j])
                        if c < a:
                            a = c
                    if a > ready[j]:
                        ready[j] = a
        return ready

    def _const_fold_dom(
        self,
        ready: list[float],
        dom: list[int],
        edges: Sequence[tuple[int, float]],
        end_of: Sequence[float],
        proc_of: Sequence[int],
        dups: Sequence[list[tuple[int, float, float, float]]],
    ) -> list[float]:
        """:meth:`_const_fold` that also leaves in ``dom[j]`` the parent
        with the largest ``(arrival, -pos)`` on processor ``j`` — the
        dominant parent :meth:`_plan_duplicates` picks first
        (``-1`` only without parents).  ``dom`` starts at ``-1``."""
        qr = range(self.q)
        rank = self._dom_pos
        for u, const in edges:
            eu = end_of[u]
            pu = proc_of[u]
            ec = eu + const
            ru = rank[u]
            dlist = dups[u]
            if not dlist:
                for j in qr:
                    a = eu if j == pu else ec
                    if a >= ready[j] and (a > ready[j] or ru < rank[dom[j]]):
                        ready[j] = a
                        dom[j] = u
            else:
                for j in qr:
                    a = eu if j == pu else ec
                    for dj, _ds, de, _dd in dlist:
                        c = de if dj == j else de + const
                        if c < a:
                            a = c
                    if a >= ready[j] and (a > ready[j] or ru < rank[dom[j]]):
                        ready[j] = a
                        dom[j] = u
        return ready

    def _link_fold_dom(
        self,
        ready: list[float],
        dom: list[int],
        edges: Sequence[tuple[int, float]],
        end_of: Sequence[float],
        proc_of: Sequence[int],
        dups: Sequence[list[tuple[int, float, float, float]]],
    ) -> list[float]:
        """:meth:`_link_fold` that also records each processor's
        dominant parent, like :meth:`_const_fold_dom`."""
        lat, bw = self._lat, self._bw
        qr = range(self.q)
        rank = self._dom_pos
        for u, data in edges:
            eu = end_of[u]
            pu = proc_of[u]
            lr = lat[pu]
            br = bw[pu]
            ru = rank[u]
            dlist = dups[u]
            if not dlist:
                for j in qr:
                    a = eu if j == pu else eu + (lr[j] + data / br[j])
                    if a >= ready[j] and (a > ready[j] or ru < rank[dom[j]]):
                        ready[j] = a
                        dom[j] = u
            else:
                for j in qr:
                    a = eu if j == pu else eu + (lr[j] + data / br[j])
                    for dj, _ds, de, _dd in dlist:
                        c = de if dj == j else de + (lat[dj][j] + data / bw[dj][j])
                        if c < a:
                            a = c
                    if a >= ready[j] and (a > ready[j] or ru < rank[dom[j]]):
                        ready[j] = a
                        dom[j] = u
        return ready

    def _ready_on(self, st: "_FlatState", t: int, j: int) -> float:
        """Scalar ready time on one processor (ready_time replay)."""
        ready = 0.0
        lat, bw = self._lat, self._bw
        pend = st.pend
        pproc = st.pproc
        dups = st.dups
        for u, w in self._preds[t]:
            eu = pend[u]
            pu = pproc[u]
            if pu == j:
                arrival = eu
            elif lat is None:
                arrival = eu + w
            else:
                arrival = eu + (lat[pu][j] + w / bw[pu][j])
            for dj, _ds, de, _dd in dups[u]:
                if dj == j:
                    cand = de
                elif lat is None:
                    cand = de + w
                else:
                    cand = de + (lat[dj][j] + w / bw[dj][j])
                if cand < arrival:
                    arrival = cand
            if arrival > ready:
                ready = arrival
        return ready

    def _plan_duplicates(
        self,
        st: "_FlatState",
        t: int,
        j: int,
        insertion: bool,
        max_dups: int,
        dom: int,
        ds: float,
        dd: float,
    ) -> list[tuple[int, float, float, int]]:
        """Plan and tentatively apply duplicates of ``t``'s parents on ``j``.

        Round one ran in the probe loop of :meth:`_improved_place_pass`,
        which calls this only when it applies: its duplicate, ``dom`` on
        ``j`` at ``[ds, ds + dd)``, goes in first.  Rounds 2 to
        ``max_dups`` pick the dominant parent anew, since a duplicate on
        ``j`` moved one arrival, and price it with the scalar
        :meth:`_ready_on`: a tentative copy on ``j`` can be a parent of
        the next dominant parent.  Each applied duplicate is ``(task,
        start, duration, timeline position)``; before the first, ``j``'s
        end time and gap index are snapshotted for
        :meth:`_FlatState.tl_undo`.
        """
        preds = self._preds[t]
        pos = self._pos
        etc_rows = self._etc_rows
        lat, bw = self._lat, self._bw
        pend = st.pend
        pproc = st.pproc
        dups = st.dups
        st.tl_snapshot(j)
        applied: list[tuple[int, float, float, int]] = []
        for _ in range(max_dups):
            if applied:
                # Dominant parent: the largest (arrival, -pos).
                dom_key: tuple[float, int] | None = None
                for u, w in preds:
                    eu = pend[u]
                    pu = pproc[u]
                    if pu == j:
                        arrival = eu
                    elif lat is None:
                        arrival = eu + w
                    else:
                        arrival = eu + (lat[pu][j] + w / bw[pu][j])
                    for dj, _ds, de, _dd in dups[u]:
                        if dj == j:
                            cand = de
                        elif lat is None:
                            cand = de + w
                        else:
                            cand = de + (lat[dj][j] + w / bw[dj][j])
                        if cand < arrival:
                            arrival = cand
                    k = (arrival, -pos[u])
                    if dom_key is None or k > dom_key:
                        dom_key = k
                        dom = u
                        dom_arr = arrival
                if dom_arr <= _EPS:
                    break
                if pproc[dom] == j or (dups[dom] and any(dj == j for dj, _s, _e, _d in dups[dom])):
                    break  # already local
                dup_ready = self._ready_on(st, dom, j)
                dd = etc_rows[dom][j]
                if dup_ready + dd >= dom_arr - _EPS:
                    break  # ds >= dup_ready, so the acceptance test below
                    # could never pass; skip the slot search.
                ds = st.find_slot(j, dup_ready, dd, insertion)
                if ds + dd >= dom_arr - _EPS:
                    break
            de = ds + dd
            dups[dom].append((j, ds, de, dd))
            applied.append((dom, ds, dd, st.tl_add(j, dom, ds, de)))
        return applied

    def _lookahead_base(self, st: "_FlatState", t: int, child: int) -> list[float]:
        """Per-processor arrival fold of ``child``'s *other* placed parents.

        This part of the lookahead estimate (:meth:`_lookahead`) does not depend
        on where ``t`` is probed, so the placement pass computes it once
        per task and shares it across all processor probes.  All values
        are >= 0, so folding from 0.0 and taking the max against the
        probe-dependent terms later reproduces the original single fold
        exactly (max is order-independent).
        """
        placed = st.placed
        edges = [(u, w) for u, w in self._preds[child] if u != t and placed[u]]
        return self._fold([0.0] * self.q, edges, st.pend, st.pproc, st.dups)

    def _lookahead(
        self,
        st: "_FlatState",
        base: list[float],
        t: int,
        child: int,
        j_placed: int,
        placed_end: float,
    ) -> float:
        """Estimated earliest finish of ``child`` if ``t`` ends at
        ``placed_end`` on ``j_placed`` (the reference's lookahead)."""
        q = self.q
        w_tc = self._succ_w[t][child]
        base_tc = placed_end + w_tc
        lr = br = None
        if self._lat is not None:
            # Per-link: ``t``'s output costs lat + data / bw per target.
            lr = self._lat[j_placed]
            br = self._bw[j_placed]
        row = self._etc_rows[child]
        tl_max = st.tl_max
        best = _INF
        for j in range(q):
            if j == j_placed:
                r = placed_end
            elif lr is None:
                r = base_tc
            else:
                r = placed_end + (lr[j] + w_tc / br[j])
            b = base[j]
            if b > r:
                r = b
            avail = tl_max[j]
            if j == j_placed and placed_end > avail:
                avail = placed_end
            if avail > r:
                r = avail
            finish = r + row[j]
            if finish < best:
                best = finish
        return best

    def _refine(self, st: "_FlatState", max_rounds: int) -> tuple[int, int, int]:
        """The refinement sweep: latest start first, 1e-9 acceptance.

        Returns ``(visits, probes, moves)``: the tasks without
        duplicates the sweep visited, those it probed and the moves it
        accepted.  A visit skips the fold and
        probe loop when ``st.lb[t] >= pend[t] - 1e-9`` (every end the
        probe could find is at least ``lb[t]``, so the acceptance test
        cannot pass) and the restore's ``start + (end - start)`` replay
        would leave ``pend[t]`` and ``pdarg[t]`` unchanged: a probe
        would change nothing.  A probe that keeps its task in place
        refreshes ``lb[t]``, as the placement pass records it; its
        removal merged two gaps and its re-add splits them again, so
        the gap index is again the one from before the removal.

        ``scan_slots`` is monotone in the ready time and in the busy
        set, so only an event that lowers a ready time or frees busy
        time invalidates a bound: a committed duplicate of ``u`` drops
        the bounds of ``u``'s children (placement pass); a move of
        ``m`` off processor ``a`` drops the bounds of ``m`` and its
        children and lowers every other bound to ``min(lb[k], gap_lo +
        etc[k][a])``, since a search on ``a`` can only start earlier
        than before in the gap the removal merged, which starts at
        ``gap_lo`` (:meth:`_FlatState.tl_remove`); and a restore that
        changes a recorded float drops them all.
        """
        n = self.n
        q = self.q
        qr = range(q)
        fold = self._fold
        preds = self._preds
        succs = self._succs
        etc_rows = self._etc_rows
        strs = self._str
        pstart = st.pstart
        pend = st.pend
        pdarg = st.pdarg
        pproc = st.pproc
        dups = st.dups
        lb = st.lb
        find_slot = st.find_slot
        visits = probes = moves = 0
        for _ in range(max_rounds):
            changed = False
            order = sorted(range(n), key=lambda t: (-pstart[t], strs[t]))
            for t in order:
                if dups[t]:
                    continue  # duplicated tasks are pinned
                visits += 1
                old_start = pstart[t]
                old_end = pend[t]
                # Restore replays Schedule.add too: the recorded end
                # after re-adding can drift an ulp from the old one.
                darg = old_end - old_start
                rend = old_start + darg
                same = rend == old_end and darg == pdarg[t]
                if same and lb[t] >= old_end - _TOL:
                    continue  # the probe could only restore what is there
                probes += 1
                old_j = pproc[t]
                st.placed[t] = False
                gap_lo = st.tl_remove(old_j, t, old_start)
                ready_vec = fold([0.0] * q, preds[t], pend, pproc, dups)
                row = etc_rows[t]
                best_j = -1
                best_start = 0.0
                best_end = 0.0
                lo = _INF
                for j in qr:
                    duration = row[j]
                    ready = ready_vec[j]
                    # end >= ready + duration (monotone float add): a
                    # candidate that cannot beat the incumbent is
                    # skipped before the slot search.
                    if best_j >= 0:
                        bound = ready + duration
                        if bound >= best_end - _EPS:
                            if bound < lo:
                                lo = bound
                            continue
                    start = find_slot(j, ready, duration, True)
                    end = start + duration
                    if end < lo:
                        lo = end
                    if not self._children_deadline_ok(st, t, j, end):
                        continue
                    if best_j < 0 or end < best_end - _EPS:
                        best_j = j
                        best_start = start
                        best_end = end
                if best_j >= 0 and best_end < old_end - _TOL:
                    darg = best_end - best_start
                    rend = best_start + darg
                    pstart[t] = best_start
                    pend[t] = rend
                    pdarg[t] = darg
                    pproc[t] = best_j
                    st.tl_add(best_j, t, best_start, rend)
                    moves += 1
                    changed = True
                    for k in range(n):
                        v = gap_lo + etc_rows[k][old_j]
                        if v < lb[k]:
                            lb[k] = v
                    lb[t] = -_INF
                    for c, _w in succs[t]:
                        lb[c] = -_INF
                else:
                    pend[t] = rend
                    pdarg[t] = darg
                    st.tl_add(old_j, t, old_start, rend)
                    if same:
                        lb[t] = lo
                    else:
                        lb[:] = [-_INF] * n
                st.placed[t] = True
            if not changed:
                break
        return visits, probes, moves

    def _children_deadline_ok(
        self, st: "_FlatState", t: int, j_new: int, new_end: float
    ) -> bool:
        """Would every placed copy of ``t``'s children get its data in
        time if ``t`` ended at ``new_end`` on ``j_new`` (no duplicates)?"""
        placed = st.placed
        pstart = st.pstart
        pproc = st.pproc
        dups = st.dups
        lr = br = None
        if self._lat is not None:
            lr = self._lat[j_new]
            br = self._bw[j_new]
        for c, w in self._succs[t]:
            if not placed[c]:
                continue
            pc = pproc[c]
            if j_new == pc:
                arrival = new_end
            else:
                arrival = new_end + (w if lr is None else lr[pc] + w / br[pc])
            if arrival > pstart[c] + _TOL:
                return False
            for dj, ds, _de, _dd in dups[c]:
                if j_new == dj:
                    arrival = new_end
                else:
                    arrival = new_end + (w if lr is None else lr[dj] + w / br[dj])
                if arrival > ds + _TOL:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledInstance(tasks={self.n}, procs={self.q}, "
            f"edges={len(self.pred_idx)}, "
            f"comm={'uniform' if self._lat is None else 'per-link'})"
        )


class _FlatState:
    """Mutable flat mirror of Schedule + per-processor Timelines.

    The state of the improved pass, the one pass that removes placements
    (duplicate rollback, refinement) and records duplicates.  Timelines
    carry task ids so a removal finds the slot ``Timeline.remove`` would.
    Every timeline keeps its gap index exact (:func:`_gap_index`):
    :meth:`tl_add` splits the gap a slot lands in, :meth:`tl_remove`
    merges the two gaps around the slot it takes out, and a probe's
    tentative duplicates are undone by position with the index restored
    from the snapshot taken before the first of them (:meth:`tl_undo`).
    ``lb`` holds the per-task refinement bounds
    (:meth:`CompiledInstance._refine`) and ``rvec`` the placement
    pass's cached ready vectors.  The list pass only inserts, so it
    keeps the same per-processor lists as locals instead.
    """

    __slots__ = (
        "tl_starts",
        "tl_ends",
        "tl_tasks",
        "tl_max",
        "tl_nz",
        "gap_s",
        "gap_e",
        "undo",
        "walked",
        "pstart",
        "pend",
        "pdarg",
        "pproc",
        "placed",
        "dups",
        "lb",
        "rvec",
    )

    def __init__(self, n: int, q: int) -> None:
        self.tl_starts: list[list[float]] = [[] for _ in range(q)]
        self.tl_ends: list[list[float]] = [[] for _ in range(q)]
        self.tl_tasks: list[list[int]] = [[] for _ in range(q)]
        self.tl_max = [0.0] * q
        #: end of the last nonzero-width slot per processor (0.0 when
        #: none) — the exact ``scan_slots`` fallback value.
        self.tl_nz = [0.0] * q
        #: per-processor gap index: starts and ends of the positive idle
        #: gaps between consecutive nonzero-width slots.
        self.gap_s: list[list[float]] = [[] for _ in range(q)]
        self.gap_e: list[list[float]] = [[] for _ in range(q)]
        #: ``(tl_max, tl_nz, gap starts, gap ends)`` of the processor a
        #: probe's tentative duplicates sit on, from before the first.
        self.undo: tuple[float, float, list[float], list[float]] = (0.0, 0.0, [], [])
        #: :meth:`find_slot` searches that walked the gap index.
        self.walked = 0
        self.pstart = [0.0] * n
        self.pend = [0.0] * n
        self.pdarg = [0.0] * n
        self.pproc = [-1] * n
        self.placed = [False] * n
        #: per-task committed/tentative duplicates: (proc, start, end, duration)
        self.dups: list[list[tuple[int, float, float, float]]] = [[] for _ in range(n)]
        #: per-task lower bound on every end a refinement probe of the
        #: task can find (``-inf``: none known), kept by the placement
        #: pass and :meth:`CompiledInstance._refine`.
        self.lb = [-_INF] * n
        #: per-task ready vector of the task's own placement fold
        #: (``None``: not placed yet, or dropped), which round one of
        #: duplicate planning reads for a dominant parent.  During a
        #: placement pass placed tasks never move and tentative copies
        #: are undone, so a vector goes stale only when a parent of its
        #: task gains a committed duplicate; the pass then drops it.
        #: Refinement does not read them, so its moves drop none.
        self.rvec: list[list[float] | None] = [None] * n

    def tl_add(self, j: int, t: int, start: float, end: float) -> int:
        """Insert a slot ahead of equal starts; returns its position."""
        starts = self.tl_starts[j]
        ends = self.tl_ends[j]
        i = bisect_left(starts, start)
        starts.insert(i, start)
        ends.insert(i, end)
        self.tl_tasks[j].insert(i, t)
        if end > self.tl_max[j]:
            self.tl_max[j] = end
        if end - start > _TL_EPS:
            nz = self.tl_nz[j]
            if start >= nz:
                if start > nz:
                    self.gap_s[j].append(nz)
                    self.gap_e[j].append(start)
                self.tl_nz[j] = end
            else:
                self.tl_nz[j] = _gap_insert(starts, ends, i, self.gap_s[j], self.gap_e[j], nz)
        return i

    def tl_snapshot(self, j: int) -> None:
        """Remember ``j``'s end time and gap index for :meth:`tl_undo`."""
        self.undo = (self.tl_max[j], self.tl_nz[j], self.gap_s[j][:], self.gap_e[j][:])

    def tl_undo(self, j: int, plans: Sequence[tuple[int, float, float, int]]) -> None:
        """Undo one probe's tentative duplicates, all on ``j``.

        Newest first, each slot leaves from the position its
        :meth:`tl_add` returned and its duplicate record from the end of
        its task's list (one duplicate per task and processor), and the
        end time and gap index go back to :attr:`undo` — the timeline is
        again the one :meth:`tl_snapshot` saw.  Each snapshot is
        restored once: its lists become ``j``'s index.
        """
        starts = self.tl_starts[j]
        ends = self.tl_ends[j]
        tasks = self.tl_tasks[j]
        dups = self.dups
        for dt, _ds, _dd, i in reversed(plans):
            dups[dt].pop()
            del starts[i]
            del ends[i]
            del tasks[i]
        self.tl_max[j], self.tl_nz[j], self.gap_s[j], self.gap_e[j] = self.undo

    def tl_remove(self, j: int, t: int, start: float) -> float:
        """Remove task ``t``'s one slot on ``j``, which starts at ``start``.

        The slot is found by bisection (equal starts may precede it).
        A nonzero-width slot merges the gaps on either side of it
        (:func:`_gap_remove`); ``tl_max`` is recomputed only when the
        slot held it.

        Returns the start of the merged gap: the end of the previous
        nonzero-width slot (0.0 when none).  No slot search on ``j``
        can start earlier than before the removal unless it starts in
        that gap.  A zero-width slot merges none and returns ``inf``.
        """
        starts = self.tl_starts[j]
        ends = self.tl_ends[j]
        tasks = self.tl_tasks[j]
        i = bisect_left(starts, start)
        while tasks[i] != t:
            i += 1
        s = starts[i]
        e = ends[i]
        del starts[i]
        del ends[i]
        del tasks[i]
        if e - s > _TL_EPS:
            prev, self.tl_nz[j] = _gap_remove(
                starts, ends, i, s, e, self.gap_s[j], self.gap_e[j], self.tl_nz[j]
            )
        else:
            prev = _INF
        if e >= self.tl_max[j]:
            self.tl_max[j] = max(ends) if ends else 0.0
        return prev

    def find_slot(self, j: int, ready: float, duration: float, insertion: bool) -> float:
        """``scan_slots`` on ``j`` (``max(ready, tl_max)`` without
        insertion): ``ready`` when ``ready >= tl_nz[j]`` (no
        nonzero-width slot starts after ``ready``) and ``tl_nz[j]`` when
        no gap ends after ``ready``, both in O(1); else the gap-index
        walk (:func:`_first_fit`), or ``scan_slots`` itself when
        ``duration - EPS <= 0`` lets a zero-width gap fit."""
        if not insertion:
            m = self.tl_max[j]
            return ready if ready > m else m
        e = self.tl_nz[j]
        if ready >= e:
            return ready
        if duration > _TL_EPS:
            ge = self.gap_e[j]
            if ge and ge[-1] > ready:
                self.walked += 1
                return _first_fit(self.gap_s[j], ge, e, ready, duration)
            return e
        return scan_slots(self.tl_starts[j], self.tl_ends[j], ready, duration)


# ---------------------------------------------------------------------------
# the gap index
# ---------------------------------------------------------------------------
# ``scan_slots`` tests, in timeline order, the idle gap in front of every
# nonzero-width slot (``end - start > EPS``) that starts at or after the
# ready time: from the end of the previous nonzero-width slot (0.0 for
# the first) to the slot's start.  The gap index of a timeline holds
# those gaps whose end exceeds their start, as parallel start and end
# lists in timeline order, plus the end of the last nonzero-width slot
# (``tl_nz``, the search's fallback).  The ends of the held gaps rise
# strictly: a later nonzero-width slot with an equal start sits behind
# one that ends after that start, so its gap is not positive.  For
# ``ready < tl_nz`` and ``duration - EPS > 0`` a gap fits only where
# ``end - max(ready, start) >= duration - EPS > 0``, so every gap the
# index leaves out, and every gap ending at or before ``ready``, fails
# the test; walking the held gaps that end after ``ready`` returns the
# float ``scan_slots`` returns.  When ``duration - EPS <= 0`` a
# zero-width gap, or one whose slots overlap by less than EPS, can
# fit, and the searches call ``scan_slots``.


def _gap_index(
    starts: Sequence[float], ends: Sequence[float]
) -> tuple[float, list[float], list[float], float]:
    """``(end_time, gap starts, gap ends, last nonzero end)`` of one
    start-sorted timeline, in one walk over its slots."""
    gap_s: list[float] = []
    gap_e: list[float] = []
    prev = 0.0
    m = 0.0
    for s, e in zip(starts, ends):
        if e > m:
            m = e
        if e - s > _TL_EPS:
            if s > prev:
                gap_s.append(prev)
                gap_e.append(s)
            prev = e
    return m, gap_s, gap_e, prev


def _first_fit(
    gap_s: list[float], gap_e: list[float], nz: float, ready: float, duration: float
) -> float:
    """``scan_slots``' answer from the gap index, for ``ready < nz``
    (the last nonzero end) and ``duration - EPS > 0``: the first gap
    ending after ``ready`` that fits, with ``scan_slots``' own float
    tests, else ``nz``.  Every gap after the first of them starts after
    ``ready`` (at the end of a slot that starts after it), so its own
    start is the ``max(ready, gap start)`` the first one needs."""
    need = duration - _TL_EPS
    g = bisect_right(gap_e, ready)
    last = len(gap_e)
    if g < last:
        s = gap_s[g]
        start = ready if ready > s else s
        if gap_e[g] - start >= need:
            return start
        for g in range(g + 1, last):
            s = gap_s[g]
            if gap_e[g] - s >= need:
                return s
    return nz


def _nonzero_around(
    starts: list[float], ends: list[float], before: int, after: int
) -> tuple[float, int]:
    """``(end of the last nonzero-width slot at or before position
    before, or 0.0; position of the first one at or after after, or
    len(starts))``."""
    while before >= 0 and ends[before] - starts[before] <= _TL_EPS:
        before -= 1
    last = len(starts)
    while after < last and ends[after] - starts[after] <= _TL_EPS:
        after += 1
    return (ends[before] if before >= 0 else 0.0), after


def _gap_insert(
    starts: list[float],
    ends: list[float],
    i: int,
    gap_s: list[float],
    gap_e: list[float],
    nz: float,
) -> float:
    """Split the gap index for the nonzero-width slot just inserted at
    position ``i`` (ahead of equal starts, so every slot before it
    starts earlier); returns the new last nonzero end.  The gap from
    the previous nonzero end to the next nonzero start gives way to the
    parts on either side of the slot, each kept when positive."""
    s = starts[i]
    e = ends[i]
    prev, k = _nonzero_around(starts, ends, i - 1, i + 1)
    g = bisect_left(gap_e, s)
    if k < len(starts):
        nxt = starts[k]
        if nxt > prev:  # the gap the slot lands in
            del gap_s[g]
            del gap_e[g]
        if nxt > e:
            gap_s.insert(g, e)
            gap_e.insert(g, nxt)
    else:
        nz = e
    if s > prev:
        gap_s.insert(g, prev)
        gap_e.insert(g, s)
    return nz


def _gap_remove(
    starts: list[float],
    ends: list[float],
    i: int,
    s: float,
    e: float,
    gap_s: list[float],
    gap_e: list[float],
    nz: float,
) -> tuple[float, float]:
    """Merge the gap index for the nonzero-width slot ``[s, e)`` just
    removed from position ``i``; returns ``(end of the previous nonzero
    slot or 0.0, new last nonzero end)``.  The gaps on either side of
    the slot give way to the one from the previous nonzero end to the
    next nonzero start, kept when positive; each is found by its end,
    which no other held gap shares."""
    prev, k = _nonzero_around(starts, ends, i - 1, i)
    if s > prev:
        g = bisect_left(gap_e, s)
        del gap_s[g]
        del gap_e[g]
    if k < len(starts):
        nxt = starts[k]
        g = bisect_left(gap_e, nxt)
        if nxt > e:
            del gap_s[g]
            del gap_e[g]
        if nxt > prev:
            gap_s.insert(g, prev)
            gap_e.insert(g, nxt)
    else:
        nz = prev
    return prev, nz


def compile_instance(instance: "Instance") -> CompiledInstance:
    """The cached compiled form of ``instance``.

    Delegates to ``instance.kernel.compiled()`` — the lowering happens
    once per instance and is shared by every subsequent caller (the
    schedulers, the metaheuristics, the service workers, the online
    simulator).  Every instance lowers.
    """
    return instance.kernel.compiled()
