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
for HEFT, CPOP, HCPT, PETS, HLFET and MCP, and
:meth:`~CompiledInstance.schedule_onto` for the online simulator's
pre-occupied timelines), the DLS loop, the improved pass (the paper's
scheduler, LA-HEFT, DUP-HEFT) and the GA/SA decode.  Only the winner
becomes a :class:`~repro.schedule.schedule.Schedule`, as columns
(:meth:`CompiledInstance.materialize`).

The slot search is the *same* helper the object path's
:meth:`~repro.schedule.timeline.Timeline.find_slot` delegates to
(:func:`~repro.schedule.timeline.scan_slots`), and every arithmetic
operation replays the object-level primitives' float sequence exactly
(``eft_placement``, ``PlacementEngine.place``, ``refine_schedule``,
``decode_assignment``), so results are bit-identical to them
(``tests/core/test_compiled_executor.py`` and
``tests/core/test_compiled_decode.py`` assert it over the differential
corpus, against the reference engine of ``tests/object_path.py``).

Every fold that adds an edge cost adds either the uniform constant or
``lat[src][dst] + data / bw[src][dst]`` — the exact float
:meth:`~repro.machine.comm.CommunicationModel.time` returns.  Which of
the two a lowering uses is chosen once, in ``__init__``, as
``CompiledInstance._fold``: the list, DLS and improved passes fold
ready times through it without testing the communication kind.  Every
communication model prices a transfer through ``link()``, so every
instance lowers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.exceptions import SchedulingError
from repro.obs import get_tracer
from repro.schedule.timeline import EPS as _TL_EPS
from repro.schedule.timeline import scan_slots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instance import Instance
    from repro.kernels import InstanceKernel
    from repro.schedule.schedule import Schedule
    from repro.types import ProcId, TaskId

__all__ = [
    "CompiledInstance",
    "CompiledSchedule",
    "compile_instance",
    "reset_schedule_counters",
    "schedule_counters",
]

_INF = float("inf")
_EPS = 1e-12  # placement tie tolerance (PlacementEngine/eft_placement)
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
    object path's recorded floats bit for bit.
    """

    __slots__ = ("makespan", "start", "darg", "proc", "dups")

    def __init__(
        self,
        makespan: float,
        start: list[float],
        darg: list[float],
        proc: list[int],
        dups: list[tuple[int, int, float, float]],
    ) -> None:
        self.makespan = makespan
        self.start = start
        self.darg = darg
        self.proc = proc
        self.dups = dups


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
        #: The data-arrival fold every pass calls, chosen once here.
        self._fold = self._const_fold if link is None else self._link_fold
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

        Replays ``decode_assignment`` float-for-float: per task, the
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
        over parents of recorded ``end`` / ``end + cost``), the shared
        ``scan_slots`` gap scan (or ``max(ready, end_time)`` without
        insertion), EFT (``end < best - 1e-12``) or EST (``start < best -
        1e-12``) processor ties, and ``Schedule.add``'s double rounding
        of the recorded end.  ``pinned[t] >= 0`` forces task ``t`` onto
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
        if busy is None:
            tl_starts: list[list[float]] = [[] for _ in qr]
            tl_ends: list[list[float]] = [[] for _ in qr]
        else:
            tl_starts = [list(s) for s in busy[0]]
            tl_ends = [list(e) for e in busy[1]]
        # Gap-bound fast path: ``tl_gap[j]`` is an upper bound on the
        # widest idle gap of timeline ``j`` (between consecutive
        # nonzero-width slots, including the 0 -> first-slot gap) and
        # ``tl_nz[j]`` the end of its last nonzero-width slot.  When
        # ``duration - EPS > tl_gap[j]`` no gap check inside
        # ``scan_slots`` can succeed, so its result is exactly the
        # fallback ``max(ready, tl_nz[j])`` — the O(1) answer skips the
        # scan without changing a single float.
        tl_max = [0.0] * q
        tl_gap = [0.0] * q
        tl_nz = [0.0] * q
        for j in qr:
            tl_max[j], tl_gap[j], tl_nz[j] = _gap_bounds(tl_starts[j], tl_ends[j])
        eft = policy == "eft"
        makespan = 0.0
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
                            continue
                    elif ready >= best_start - _EPS:
                        continue
                if not insertion:
                    m = tl_max[j]
                    start = ready if ready > m else m
                elif duration - _TL_EPS > tl_gap[j]:
                    e = tl_nz[j]
                    start = ready if ready > e else e
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
            i = bisect_left(starts, best_start)
            starts.insert(i, best_start)
            tl_ends[best_j].insert(i, rend)
            if rend - best_start > _TL_EPS:
                # Only nonzero-width slots participate in gap scans.  A
                # slot appended past the last nonzero end opens a new gap
                # (a mid-gap insert only shrinks existing gaps, so the
                # bound stays valid without an update).
                nz = tl_nz[best_j]
                if best_start > nz and best_start - nz > tl_gap[best_j]:
                    tl_gap[best_j] = best_start - nz
                if rend > nz:
                    tl_nz[best_j] = rend
            if rend > tl_max[best_j]:
                tl_max[best_j] = rend
            if rend > makespan:
                makespan = rend
        return CompiledSchedule(makespan, start_of, darg_of, proc_of, [])

    def schedule_dls(
        self, sl: Sequence[float], wstar: Sequence[float]
    ) -> CompiledSchedule:
        """Compiled Dynamic Level Scheduling loop.

        Replays ``DLS.schedule``: per step the (ready task, processor)
        pair minimising ``(-dl, pos, j)`` wins, where ``dl = sl - start +
        (wstar - etc)``; placement appends at ``max(ready, end_time)``
        and records ``start + duration`` (single rounding — DLS passes
        the raw duration to ``Schedule.add``).  Per-task ready vectors
        are cached once all parents are placed, like the object path.
        """
        n = self.n
        q = self.q
        preds = self._preds
        succs = self._succs
        etc_rows = self._etc_rows
        pos = self._pos
        indeg = [len(preds[t]) for t in range(n)]
        ready_set = {t for t in range(n) if indeg[t] == 0}
        start_of = [0.0] * n
        end_of = [0.0] * n
        darg_of = [0.0] * n
        proc_of = [-1] * n
        tl_max = [0.0] * q
        ready_cache: dict[int, list[float]] = {}
        makespan = 0.0
        qr = range(q)
        fold = self._fold
        while ready_set:
            best_key: tuple[float, int, int] | None = None
            best_task = -1
            best_j = -1
            best_start = 0.0
            for t in ready_set:
                vec = ready_cache.get(t)
                if vec is None:
                    vec = ready_cache[t] = fold([0.0] * q, preds[t], end_of, proc_of)
                slt = sl[t]
                wst = wstar[t]
                row = etc_rows[t]
                pt = pos[t]
                for j in qr:
                    dr = vec[j]
                    m = tl_max[j]
                    start = dr if dr > m else m
                    delta = wst - row[j]
                    dl = slt - start + delta
                    key = (-dl, pt, j)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_task = t
                        best_j = j
                        best_start = start
            assert best_task >= 0
            t = best_task
            duration = etc_rows[t][best_j]
            rend = best_start + duration
            start_of[t] = best_start
            end_of[t] = rend
            darg_of[t] = duration
            proc_of[t] = best_j
            if rend > tl_max[best_j]:
                tl_max[best_j] = rend
            if rend > makespan:
                makespan = rend
            ready_set.discard(t)
            ready_cache.pop(t, None)
            for c, _const in succs[t]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready_set.add(c)
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

        Replays ``PlacementEngine.place`` per task — critical-child
        lookahead, tentative duplicate planning with rollback, the
        strict ``(score, end, j)`` tuple key — and the refinement sweep
        (latest start first, child-deadline checks, ``1e-9`` acceptance)
        over flat state, reproducing the object pass float for float.
        """
        st = _FlatState(self.n, self.q)
        self._improved_place_pass(
            st,
            order,
            ranks,
            lookahead=lookahead,
            duplication=duplication,
            insertion=insertion,
            max_dups=max_duplications_per_task,
        )
        if refinement:
            self._refine(st, refinement_rounds)
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
        return CompiledSchedule(makespan, st.pstart, st.pdarg, st.pproc, dups)

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
    ) -> None:
        q = self.q
        qr = range(q)
        fold = self._fold
        preds = self._preds
        etc_rows = self._etc_rows
        succs = self._succs
        pos = self._pos
        placed = st.placed
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
            ready_vec = fold([0.0] * q, preds[t], st.pend, st.pproc, st.dups)
            la_base = self._lookahead_base(st, t, child) if child >= 0 else None
            best_key: tuple[float, float, int] | None = None
            best_j = -1
            best_start = 0.0
            best_end = 0.0
            best_plans: list[tuple[int, int, float, float]] = []
            for j in qr:
                duration = row[j]
                start = st.find_slot(j, ready_vec[j], duration, insertion)
                plain_end = start + duration
                plans: list[tuple[int, int, float, float]] = []
                p_start = start
                p_end = plain_end
                if duplication:
                    plans = self._plan_duplicates(st, t, j, insertion, max_dups)
                    if plans:
                        ready2 = self._ready_on(st, t, j)
                        s2 = st.find_slot(j, ready2, duration, insertion)
                        e2 = s2 + duration
                        if e2 < plain_end - _EPS:
                            p_start = s2
                            p_end = e2
                        else:
                            self._rollback(st, plans)
                            plans = []
                if child >= 0:
                    # Tentative duplicates may themselves be parents of
                    # the lookahead child; the shared base is only valid
                    # for probes that applied no plans.
                    base = self._lookahead_base(st, t, child) if plans else la_base
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
                    self._rollback(st, plans)
            # Commit: winning duplicates re-applied in plan order, then
            # the primary (Schedule.add double rounding).
            for dt, dj, ds, dd in best_plans:
                st.dups[dt].append((dj, ds, ds + dd, dd))
                st.tl_add(dj, dt, ds, ds + dd)
            darg = best_end - best_start
            rend = best_start + darg
            st.pstart[t] = best_start
            st.pend[t] = rend
            st.pdarg[t] = darg
            st.pproc[t] = best_j
            placed[t] = True
            st.tl_add(best_j, t, best_start, rend)

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
        self, st: "_FlatState", t: int, j: int, insertion: bool, max_dups: int
    ) -> list[tuple[int, int, float, float]]:
        """PlacementEngine._plan_duplicates replay (tentatively applied)."""
        applied: list[tuple[int, int, float, float]] = []
        preds = self._preds[t]
        pos = self._pos
        etc_rows = self._etc_rows
        lat, bw = self._lat, self._bw
        pend = st.pend
        pproc = st.pproc
        dups = st.dups
        for _ in range(max_dups):
            if not preds:
                break
            # Dominant parent: max arrival, ties to the earlier parent in
            # predecessor-list order via the strict-> fold (== max()).
            dom = -1
            dom_arr = 0.0
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
            if pproc[dom] == j or any(dj == j for dj, _s, _e, _d in dups[dom]):
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
            st.tl_add(j, dom, ds, de)
            applied.append((dom, j, ds, dd))
        return applied

    @staticmethod
    def _rollback(st: "_FlatState", plans: list[tuple[int, int, float, float]]) -> None:
        for dt, dj, _ds, _dd in reversed(plans):
            lst = st.dups[dt]
            for i, (cp, cs, _ce, _cd) in enumerate(lst):
                if cp == dj:
                    del lst[i]
                    st.tl_remove(dj, dt, cs)
                    break

    def _lookahead_base(self, st: "_FlatState", t: int, child: int) -> list[float]:
        """Per-processor arrival fold of ``child``'s *other* placed parents.

        This part of ``PlacementEngine._lookahead_finish`` does not depend
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
        """PlacementEngine._lookahead_finish replay over flat state."""
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

    def _refine(self, st: "_FlatState", max_rounds: int) -> None:
        """refine_schedule replay: latest start first, 1e-9 acceptance."""
        n = self.n
        q = self.q
        fold = self._fold
        preds = self._preds
        etc_rows = self._etc_rows
        strs = self._str
        pstart = st.pstart
        pend = st.pend
        pdarg = st.pdarg
        pproc = st.pproc
        dups = st.dups
        for _ in range(max_rounds):
            changed = False
            order = sorted(range(n), key=lambda t: (-pstart[t], strs[t]))
            for t in order:
                if dups[t]:
                    continue  # duplicated tasks are pinned
                old_start = pstart[t]
                old_end = pend[t]
                old_j = pproc[t]
                st.placed[t] = False
                st.tl_remove(old_j, t, old_start)
                ready_vec = fold([0.0] * q, preds[t], pend, pproc, dups)
                best_j = -1
                best_start = 0.0
                best_end = 0.0
                for j in range(q):
                    duration = etc_rows[t][j]
                    # end >= ready + duration (monotone float add): a
                    # candidate that cannot beat the incumbent is
                    # skipped before the slot search.
                    if best_j >= 0 and ready_vec[j] + duration >= best_end - _EPS:
                        continue
                    start = st.find_slot(j, ready_vec[j], duration, True)
                    end = start + duration
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
                    changed = True
                else:
                    # Restore replays Schedule.add too: the recorded end
                    # after re-adding can drift an ulp from the old one.
                    darg = old_end - old_start
                    rend = old_start + darg
                    pend[t] = rend
                    pdarg[t] = darg
                    st.tl_add(old_j, t, old_start, rend)
                st.placed[t] = True
            if not changed:
                break

    def _children_deadline_ok(
        self, st: "_FlatState", t: int, j_new: int, new_end: float
    ) -> bool:
        """_children_deadline_ok replay (no surviving duplicates of t)."""
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
    carry task ids so removal replays ``Timeline.remove``'s first-match
    semantics, and each removal rebuilds ``tl_max``, ``tl_gap`` and
    ``tl_nz`` exactly with :func:`_gap_bounds`, the sweep the list pass
    runs over its seeds.  The list pass only inserts, so it keeps the
    same per-processor lists as locals instead.
    """

    __slots__ = (
        "tl_starts",
        "tl_ends",
        "tl_tasks",
        "tl_max",
        "tl_gap",
        "tl_nz",
        "pstart",
        "pend",
        "pdarg",
        "pproc",
        "placed",
        "dups",
    )

    def __init__(self, n: int, q: int) -> None:
        self.tl_starts: list[list[float]] = [[] for _ in range(q)]
        self.tl_ends: list[list[float]] = [[] for _ in range(q)]
        self.tl_tasks: list[list[int]] = [[] for _ in range(q)]
        self.tl_max = [0.0] * q
        #: upper bound on the widest idle gap per processor (see the
        #: list pass's gap-bound fast path); exact again after a removal.
        self.tl_gap = [0.0] * q
        #: end of the last nonzero-width slot per processor — the exact
        #: ``scan_slots`` fallback value.
        self.tl_nz = [0.0] * q
        self.pstart = [0.0] * n
        self.pend = [0.0] * n
        self.pdarg = [0.0] * n
        self.pproc = [-1] * n
        self.placed = [False] * n
        #: per-task committed/tentative duplicates: (proc, start, end, duration)
        self.dups: list[list[tuple[int, float, float, float]]] = [[] for _ in range(n)]

    def tl_add(self, j: int, t: int, start: float, end: float) -> None:
        starts = self.tl_starts[j]
        i = bisect_left(starts, start)
        starts.insert(i, start)
        self.tl_ends[j].insert(i, end)
        self.tl_tasks[j].insert(i, t)
        if end > self.tl_max[j]:
            self.tl_max[j] = end
        if end - start > _TL_EPS:
            nz = self.tl_nz[j]
            if start > nz and start - nz > self.tl_gap[j]:
                self.tl_gap[j] = start - nz
            if end > nz:
                self.tl_nz[j] = end

    def tl_remove(self, j: int, t: int, start: float) -> None:
        starts = self.tl_starts[j]
        tasks = self.tl_tasks[j]
        ends = self.tl_ends[j]
        for i in range(len(starts)):
            if tasks[i] == t and abs(starts[i] - start) <= 1e-9:
                del starts[i]
                del ends[i]
                del tasks[i]
                break
        # Removal merges gaps: rebuild the bounds exactly.
        self.tl_max[j], self.tl_gap[j], self.tl_nz[j] = _gap_bounds(starts, ends)

    def find_slot(self, j: int, ready: float, duration: float, insertion: bool) -> float:
        if not insertion:
            m = self.tl_max[j]
            return ready if ready > m else m
        if duration - _TL_EPS > self.tl_gap[j]:
            # No gap can fit: scan_slots' fallback, without the scan.
            e = self.tl_nz[j]
            return ready if ready > e else e
        return scan_slots(self.tl_starts[j], self.tl_ends[j], ready, duration)


def _gap_bounds(
    starts: Sequence[float], ends: Sequence[float]
) -> tuple[float, float, float]:
    """``(end_time, gap bound, last nonzero end)`` of one start-sorted
    timeline, exact: the widest idle gap counts from 0 to the first
    nonzero-width slot and between consecutive ones."""
    gap = 0.0
    prev = 0.0
    m = 0.0
    for s, e in zip(starts, ends):
        if e > m:
            m = e
        if e - s > _TL_EPS:
            g = s - prev
            if g > gap:
                gap = g
            prev = e
    return m, gap, prev


def compile_instance(instance: "Instance") -> CompiledInstance:
    """The cached compiled form of ``instance``.

    Delegates to ``instance.kernel.compiled()`` — the lowering happens
    once per instance and is shared by every subsequent caller (the
    schedulers, the metaheuristics, the service workers, the online
    simulator).  Every instance lowers.
    """
    return instance.kernel.compiled()
