"""Per-instance cost tables and the rank recurrences.

Every figure of the reconstructed protocol averages hundreds of
replications, and each replication runs every compared scheduler on the
same :class:`~repro.instance.Instance`.  :class:`InstanceKernel` is
built once per instance (lazily, via ``Instance.kernel``) and backs
every cost query the schedulers make:

* memoized successor/predecessor lists, per-edge data volumes, average
  communication costs, per-pair communication constants (for the
  uniform/zero link models every experiment uses), the q×q
  ``link()`` tables of every other model, and a dense ETC array in
  canonical (machine) processor order;
* per-task rank weights read from the ETC matrix's cached row
  aggregates, and the upward/downward rank recurrences — one scalar
  pass over the memoized adjacency, cached per aggregation so HEFT,
  CPOP and the improved scheduler's rank-variant search never recompute
  a rank for the same instance;
* the compiled flat-array lowering (:meth:`InstanceKernel.compiled`),
  which every instance has and every production scheduler runs on;
* :meth:`InstanceKernel.ready_times`, the all-processor data-ready
  vector of the object-level placement primitives.

The rank recurrences replay the ``*_scalar`` specifications in
:mod:`repro.schedulers.ranking` exactly — same weights, same additions
in the same order, an exact max fold — so ranks are bit-identical to
them (asserted by ``tests/core/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import (
    GraphError,
    SchedulingError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.machine.comm import UniformCommunication, ZeroCommunication
from repro.obs import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instance import Instance
    from repro.schedule.schedule import Schedule
    from repro.types import ProcId, TaskId

#: Rank aggregations the kernel understands (mirrors ranking.RankAggregation).
_AGGS = ("mean", "median", "best", "worst")


class InstanceKernel:
    """Precomputed arrays and caches for one (immutable) instance.

    The kernel snapshots the DAG/machine/ETC at construction; instances
    are treated as immutable bundles everywhere in the library (see
    ``docs/architecture.md``), so the snapshot never goes stale.  All
    returned lists/arrays are shared — callers must treat them as
    read-only.
    """

    def __init__(self, instance: "Instance") -> None:
        dag = instance.dag
        machine = instance.machine
        etc = instance.etc

        self.tasks: list["TaskId"] = list(dag.tasks())
        self.ti: dict["TaskId", int] = {t: i for i, t in enumerate(self.tasks)}
        self.procs: list["ProcId"] = machine.proc_ids()
        self.pi: dict["ProcId", int] = {p: j for j, p in enumerate(self.procs)}
        #: The instance's own parts, shared: enough to rebuild an
        #: equivalent instance from the kernel alone (the differential
        #: tests' object-level reference engine does).
        self.dag = dag
        self.machine = machine
        self.etc = etc
        self._comm = machine.comm

        # Dense ETC in canonical (task insertion, machine proc) order.
        # Reindexing copies the stored floats verbatim — no arithmetic.
        arr = etc.as_array()
        trow = {t: i for i, t in enumerate(etc.task_ids)}
        pcol = {p: j for j, p in enumerate(etc.proc_ids)}
        rows = [trow[t] for t in self.tasks]
        cols = [pcol[p] for p in self.procs]
        if arr.size:
            self.etc_arr = np.ascontiguousarray(arr[np.ix_(rows, cols)])
        else:
            self.etc_arr = np.zeros((len(self.tasks), len(self.procs)))
        self.etc_arr.flags.writeable = False
        #: The same cells as nested lists of Python floats (row = task).
        self.etc_rows: list[list[float]] = self.etc_arr.tolist()

        # Adjacency, memoized once instead of per networkx query.
        self.succ: dict["TaskId", list["TaskId"]] = {t: dag.successors(t) for t in self.tasks}
        self.pred: dict["TaskId", list["TaskId"]] = {t: dag.predecessors(t) for t in self.tasks}

        self.topo: list["TaskId"] = dag.topological_order()
        self.pos: dict["TaskId", int] = {t: i for i, t in enumerate(self.topo)}

        # Per-edge data volumes and machine-average communication times
        # (``edge_avg``: the c̄ of every rank recurrence).
        self.edge_data: dict["TaskId", dict["TaskId", float]] = {t: {} for t in self.tasks}
        self.edge_avg: dict["TaskId", dict["TaskId", float]] = {t: {} for t in self.tasks}
        for u, v in dag.edges():
            data = dag.data(u, v)
            self.edge_data[u][v] = data
            self.edge_avg[u][v] = machine.avg_comm_time(data)

        # Per-pair constants: with the uniform (or zero) link model the
        # cost of an edge is one constant for every distinct pair — the
        # exact float the model itself would return.  ``None`` for
        # every other model, which is priced per pair through
        # :meth:`link_tables`.
        self.out_const: dict["TaskId", dict["TaskId", float]] | None
        if isinstance(self._comm, ZeroCommunication):
            self.out_const = {u: {v: 0.0 for v in row} for u, row in self.edge_data.items()}
        elif isinstance(self._comm, UniformCommunication):
            lat, bw = self._comm.latency, self._comm.bandwidth
            self.out_const = {
                u: {v: lat + d / bw for v, d in row.items()}
                for u, row in self.edge_data.items()
            }
        else:
            self.out_const = None

        # Lazy per-aggregation caches.  Bounding policy: every keyed
        # cache is keyed by a rank aggregation, and :meth:`weights`
        # rejects any key outside ``_AGGS`` *before* inserting, so each
        # dict holds at most ``len(_AGGS)`` (= 4) entries for the life of
        # the instance; the unkeyed memos (exec table, compiled form) are
        # singletons.  Nothing here can grow with request volume —
        # :meth:`cache_info` exposes the sizes and caps so tests can
        # assert the bound.
        self._weights: dict[str, dict["TaskId", float]] = {}
        self._upward: dict[str, dict["TaskId", float]] = {}
        self._downward: dict[str, dict["TaskId", float]] = {}
        self._rank_order: dict[str, list["TaskId"]] = {}
        self._exec: dict["TaskId", dict["ProcId", float]] | None = None
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._compiled: object | None = None
        self._links = self._link_tables()

    # ------------------------------------------------------------------
    # memoized cost queries
    # ------------------------------------------------------------------
    def comm_time(self, parent: "TaskId", child: "TaskId", src: "ProcId", dst: "ProcId") -> float:
        """Edge transfer time between two placements (== Instance.comm_time)."""
        consts = self.out_const
        if consts is not None:
            try:
                const = consts[parent][child]
            except KeyError:
                raise GraphError(f"no edge {parent!r} -> {child!r}") from None
            if src not in self.pi:
                raise UnknownProcessorError(src)
            if dst not in self.pi:
                raise UnknownProcessorError(dst)
            return 0.0 if src == dst else const
        try:
            data = self.edge_data[parent][child]
        except KeyError:
            raise GraphError(f"no edge {parent!r} -> {child!r}") from None
        if src not in self.pi:
            raise UnknownProcessorError(src)
        if dst not in self.pi:
            raise UnknownProcessorError(dst)
        return self._comm.time(data, src, dst)

    def avg_comm(self, parent: "TaskId", child: "TaskId") -> float:
        """Machine-average transfer time of one edge (== Instance.avg_comm_time)."""
        try:
            return self.edge_avg[parent][child]
        except KeyError:
            raise GraphError(f"no edge {parent!r} -> {child!r}") from None

    def etc_row(self, task: "TaskId") -> np.ndarray:
        """Read-only per-processor execution times in machine proc order."""
        try:
            return self.etc_arr[self.ti[task]]
        except KeyError:
            raise UnknownTaskError(task) from None

    def exec_table(self) -> dict["TaskId", dict["ProcId", float]]:
        """Nested ``{task: {proc: time}}`` memo of the ETC lookups.

        Built lazily from :attr:`etc_rows`, whose cells are the ETC's
        stored floats copied verbatim, so each entry is the exact value
        ``ETCMatrix.time`` returns.
        """
        table = self._exec
        if table is None:
            procs = self.procs
            table = {t: dict(zip(procs, row)) for t, row in zip(self.tasks, self.etc_rows)}
            self._exec = table
        return table

    def weights(self, agg: str) -> dict["TaskId", float]:
        """Per-task scalar weight for one rank aggregation.

        Read from the ETC matrix's cached row aggregates, so the floats
        are exactly what ``ETCMatrix.mean`` … ``worst`` return.
        """
        cached = self._weights.get(agg)
        if cached is None:
            etc = self.etc
            cached = dict(zip(etc.task_ids, etc.row_aggregate(agg)))  # validates ``agg``
            self._weights[agg] = cached
        return cached

    # ------------------------------------------------------------------
    # rank recurrences
    # ------------------------------------------------------------------
    def upward(self, agg: str) -> dict["TaskId", float]:
        """Cached upward ranks (HEFT's ``rank_u``) for one aggregation:
        ``w + max(0, max_s(c̄ + rank_u(s)))`` in reverse topological
        order."""
        rank = self._upward.get(agg)
        if rank is None:
            w = self.weights(agg)
            succ = self.succ
            avg = self.edge_avg
            rank = {}
            for t in reversed(self.topo):
                tail = 0.0
                row = avg[t]
                for s in succ[t]:
                    cand = row[s] + rank[s]
                    if cand > tail:
                        tail = cand
                rank[t] = w[t] + tail
            self._upward[agg] = rank
        return rank

    def downward(self, agg: str) -> dict["TaskId", float]:
        """Cached downward ranks (CPOP's ``rank_d``) for one aggregation:
        ``max(0, max_p((rank_d(p) + w(p)) + c̄))`` in topological order."""
        rank = self._downward.get(agg)
        if rank is None:
            w = self.weights(agg)
            pred = self.pred
            avg = self.edge_avg
            rank = {}
            for t in self.topo:
                best = 0.0
                for p in pred[t]:
                    cand = (rank[p] + w[p]) + avg[p][t]
                    if cand > best:
                        best = cand
                rank[t] = best
            self._downward[agg] = rank
        return rank

    def rank_order(self, agg: str = "mean") -> list["TaskId"]:
        """Cached decode order: decreasing upward rank, ties by
        topological position — the order the metaheuristic decoder and
        the compiled core place tasks in.  Treat the list as read-only.
        """
        cached = self._rank_order.get(agg)
        if cached is None:
            ranks = self.upward(agg)  # validates ``agg`` before caching
            pos = self.pos
            cached = sorted(self.tasks, key=lambda t: (-ranks[t], pos[t]))
            self._rank_order[agg] = cached
        return cached

    # ------------------------------------------------------------------
    # compiled flat-array form
    # ------------------------------------------------------------------
    def pred_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Predecessor lists in CSR form over canonical task indices.

        ``ptr`` holds ``n + 1`` offsets into the per-edge arrays:
        ``child`` and ``parent`` (each task's parents in :attr:`pred`
        order) and ``operand``, each edge's cost operand — the
        uniform/zero constant of :attr:`out_const`, or the data volume,
        priced per pair through :meth:`link_tables`.  Built once,
        read-only.
        """
        csr = self._csr
        if csr is None:
            ti = self.ti
            consts = self.out_const if self.out_const is not None else self.edge_data
            ptr = [0]
            parent: list[int] = []
            for t in self.tasks:
                parent.extend(ti[u] for u in self.pred[t])
                ptr.append(len(parent))
            operand = np.array(
                [float(consts[u][t]) for t in self.tasks for u in self.pred[t]], dtype=float
            )
            ptr_arr = np.array(ptr, dtype=np.intp)
            child = np.arange(len(self.tasks), dtype=np.intp).repeat(np.diff(ptr_arr))
            csr = self._csr = (ptr_arr, child, np.array(parent, dtype=np.intp), operand)
            for arr in csr:
                arr.flags.writeable = False
        return csr

    def link_tables(self) -> tuple[list[list[float]], list[list[float]]] | None:
        """Per-pair ``(latency, bandwidth)`` tables of the machine.

        ``lat[i][j]``/``bw[i][j]`` are the floats ``link(procs[i],
        procs[j])`` returns, in canonical processor order (the diagonal
        is never read), so ``lat + data / bw`` is the exact float
        :meth:`CommunicationModel.time` returns.  ``None`` on zero and
        uniform machines, whose :attr:`out_const` already prices every
        edge.  Built with the kernel; shared.
        """
        return self._links

    def _link_tables(self) -> tuple[list[list[float]], list[list[float]]] | None:
        if self.out_const is not None:
            return None
        comm = self._comm
        q = len(self.procs)
        lat = [[0.0] * q for _ in range(q)]
        bw = [[1.0] * q for _ in range(q)]
        for i, src in enumerate(self.procs):
            for j, dst in enumerate(self.procs):
                if i != j:
                    lat[i][j], bw[i][j] = comm.link(src, dst)
        return lat, bw

    def compiled(self):
        """The :class:`~repro.compiled.CompiledInstance` lowering.

        Every instance lowers: zero and uniform machines through
        :attr:`out_const`, every other model through :meth:`link_tables`.
        Built once and shared — the service workers key their instance
        memo by fingerprint precisely so repeat requests reuse this.
        """
        tracer = get_tracer()
        if self._compiled is None:
            from repro.compiled import CompiledInstance  # lazy: avoids cycle

            with tracer.span("compiled.lower", tasks=len(self.tasks), procs=len(self.procs)):
                self._compiled = CompiledInstance(self)
            if tracer.enabled:
                tracer.count("kernel.compiled_build")
        elif tracer.enabled:
            tracer.count("kernel.compiled_hit")
        return self._compiled

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Sizes and caps of every lazy cache on this kernel.

        ``maxsize`` is a hard bound: aggregation-keyed caches reject
        unknown keys before inserting, singletons hold at most one
        entry.  Tests assert ``size <= maxsize`` stays invariant.
        """
        cap = len(_AGGS)
        return {
            "weights": {"size": len(self._weights), "maxsize": cap},
            "upward": {"size": len(self._upward), "maxsize": cap},
            "downward": {"size": len(self._downward), "maxsize": cap},
            "rank_order": {"size": len(self._rank_order), "maxsize": cap},
            "exec_table": {"size": int(self._exec is not None), "maxsize": 1},
            "pred_csr": {"size": int(self._csr is not None), "maxsize": 1},
            "compiled": {"size": int(self._compiled is not None), "maxsize": 1},
        }

    # ------------------------------------------------------------------
    # object-path placement scoring
    # ------------------------------------------------------------------
    def ready_times(self, schedule: "Schedule", task: "TaskId") -> list[float]:
        """Earliest data-ready time of ``task`` on *every* processor.

        Element ``j`` equals ``schedulers.base.ready_time`` on
        ``procs[j]`` bit for bit, for every communication model: per
        parent, the min over its placed copies of ``end + comm``; across
        parents, a running max starting at 0.  With a per-pair constant
        the far-copy arrival is one ``min(end) + const`` (adding a
        non-negative constant is monotone, so that is the min of the
        sums) and only the processors hosting a copy can see less.
        """
        procs = self.procs
        pi = self.pi
        q = len(procs)
        consts = self.out_const
        ready = [0.0] * q
        for parent in self.pred[task]:
            if parent not in schedule:
                raise SchedulingError(f"parent {parent!r} of {task!r} is unscheduled")
            copies = schedule.copies(parent)
            if consts is not None:
                arrival = [min(c.end for c in copies) + consts[parent][task]] * q
                for c in copies:
                    j = pi[c.proc]
                    if c.end < arrival[j]:
                        arrival[j] = c.end
            else:
                data = self.edge_data[parent][task]
                time = self._comm.time
                arrival = [float("inf")] * q
                for c in copies:
                    for j, dst in enumerate(procs):
                        cand = c.end + time(data, c.proc, dst)
                        if cand < arrival[j]:
                            arrival[j] = cand
            for j in range(q):
                if arrival[j] > ready[j]:
                    ready[j] = arrival[j]
        return ready

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstanceKernel(tasks={len(self.tasks)}, procs={len(self.procs)})"
