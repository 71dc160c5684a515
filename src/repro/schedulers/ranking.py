"""Machine-aware task ranks.

Unlike :mod:`repro.dag.analysis` (which works on nominal DAG costs),
these ranks average over the instance's ETC matrix and communication
model — the quantities list schedulers actually prioritise with.
"""

from __future__ import annotations

from typing import Callable, Literal

from repro.exceptions import ConfigurationError
from repro.instance import Instance
from repro.types import TaskId

#: How a task's heterogeneous execution times are collapsed to a scalar
#: when computing ranks.  ``mean`` is HEFT's choice; the alternatives are
#: the rank variants the improved scheduler can search over.
RankAggregation = Literal["mean", "median", "best", "worst"]


def _weight_fn(instance: Instance, agg: RankAggregation) -> Callable[[TaskId], float]:
    if agg == "mean":
        return instance.etc.mean
    if agg == "median":
        return instance.etc.median
    if agg == "best":
        return instance.etc.best
    if agg == "worst":
        return instance.etc.worst
    raise ConfigurationError(f"unknown rank aggregation {agg!r}")


def upward_ranks(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """HEFT's upward rank: ``rank_u(t) = w(t) + max_s (c̄(t,s) + rank_u(s))``.

    ``w`` is the per-task ETC aggregate chosen by ``agg``; ``c̄`` the
    machine's average communication time for the edge.  Exit tasks rank
    at their own weight.

    Served from the instance kernel's rank recurrence (cached per
    aggregation), bit-identical to :func:`upward_ranks_scalar`.
    """
    return dict(instance.kernel.upward(agg))


def upward_ranks_scalar(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """Reference scalar implementation of :func:`upward_ranks`.

    Kept as the specification the kernel's recurrence is differentially
    tested against (``tests/core/test_vectorized_equivalence.py``).
    """
    w = _weight_fn(instance, agg)
    dag = instance.dag
    rank: dict[TaskId, float] = {}
    for t in reversed(dag.topological_order()):
        tail = 0.0
        for s in dag.successors(t):
            cand = instance.avg_comm_time(t, s) + rank[s]
            if cand > tail:
                tail = cand
        rank[t] = w(t) + tail
    return rank


def downward_ranks(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """CPOP's downward rank: longest average path from an entry task to
    ``t`` excluding ``t``'s own weight.

    Served from the kernel's cached recurrence like :func:`upward_ranks`.
    """
    return dict(instance.kernel.downward(agg))


def downward_ranks_scalar(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """Reference scalar implementation of :func:`downward_ranks`."""
    w = _weight_fn(instance, agg)
    dag = instance.dag
    rank: dict[TaskId, float] = {}
    for t in dag.topological_order():
        best = 0.0
        for p in dag.predecessors(t):
            cand = rank[p] + w(p) + instance.avg_comm_time(p, t)
            if cand > best:
                best = cand
        rank[t] = best
    return rank


def machine_static_levels(instance: Instance, agg: RankAggregation = "median") -> dict[TaskId, float]:
    """Static level: upward rank *without* communication terms.

    DLS traditionally uses the median execution time, hence the default.
    """
    kernel = instance.kernel
    w = kernel.weights(agg)
    succ = kernel.succ
    level: dict[TaskId, float] = {}
    for t in reversed(kernel.topo):
        tail = max((level[s] for s in succ[t]), default=0.0)
        level[t] = w[t] + tail
    return level


def est_times(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """Machine-averaged earliest start times (unbounded processors).

    The same recurrence as CPOP's downward rank, so it is served from
    the kernel's cached :func:`downward_ranks`.
    """
    return dict(instance.kernel.downward(agg))


def alap_times(instance: Instance, agg: RankAggregation = "mean") -> dict[TaskId, float]:
    """As-late-as-possible start times against the average-cost critical
    path (MCP's priority).  Smaller ALAP = more urgent."""
    kernel = instance.kernel
    w = kernel.weights(agg)
    succ = kernel.succ
    avg = kernel.edge_avg
    # Longest average path length defines the deadline every exit task
    # must meet.
    horizon = max(kernel.upward(agg).values(), default=0.0)
    alap: dict[TaskId, float] = {}
    for t in reversed(kernel.topo):
        succs = succ[t]
        if not succs:
            alap[t] = horizon - w[t]
        else:
            row = avg[t]
            alap[t] = min(alap[s] - row[s] for s in succs) - w[t]
    return alap


def critical_path_tasks(instance: Instance, agg: RankAggregation = "mean") -> list[TaskId]:
    """The CPOP critical path: tasks with maximal rank_u + rank_d, chained
    from an entry to an exit, ties broken by topological position."""
    up = upward_ranks(instance, agg)
    down = downward_ranks(instance, agg)
    dag = instance.dag
    if instance.num_tasks == 0:
        return []
    total = {t: up[t] + down[t] for t in dag.tasks()}
    cp_value = max(total.values())
    order = dag.topological_order()
    pos = {t: i for i, t in enumerate(order)}

    def on_cp(t: TaskId) -> bool:
        return abs(total[t] - cp_value) <= 1e-9 * max(1.0, cp_value)

    entries = [t for t in dag.entry_tasks() if on_cp(t)]
    if not entries:
        # Numerical corner: fall back to the highest-priority entry.
        entries = sorted(dag.entry_tasks(), key=lambda t: (-total[t], pos[t]))[:1]
    current = min(entries, key=lambda t: pos[t])
    path = [current]
    while True:
        nxt = [s for s in dag.successors(current) if on_cp(s)]
        if not nxt:
            return path
        current = min(nxt, key=lambda s: pos[s])
        path.append(current)
