"""Shared list-scheduling machinery.

All list schedulers follow the same two-phase loop:

1. pick the next task according to a *priority policy*,
2. pick a processor and start time according to a *placement policy*.

This module supplies the placement side — duplication-aware ready times,
earliest-start/earliest-finish computation with or without insertion —
plus the :class:`Scheduler` interface and a :class:`ListScheduler`
template so each algorithm only spells out its policies.  Orders and
assignments fixed before placement run the compiled list pass
(:class:`ListScheduler`, :func:`decode_assignment`); the object
primitives serve schedulers whose next choice reads the partial
schedule, and user :meth:`ListScheduler.place` overrides.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ScheduleError, SchedulingError, UnknownProcessorError, UnknownTaskError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.types import ProcId, TaskId


class Scheduler(ABC):
    """A static scheduling algorithm.

    Subclasses set :attr:`name` (used in experiment tables) and implement
    :meth:`schedule`.  Schedulers must be deterministic for a given
    instance unless they explicitly take a seed.
    """

    #: Display name used by the registry and experiment reports.
    name: str = "scheduler"

    @abstractmethod
    def schedule(self, instance: Instance) -> Schedule:
        """Produce a complete, feasible schedule for ``instance``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def ready_time(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    proc: ProcId,
) -> float:
    """Earliest data-ready time of ``task`` on ``proc``.

    The maximum over parents of the earliest moment that parent's output
    can be present on ``proc``; each parent contributes the minimum over
    its placed copies (primary or duplicate) of ``end + comm``.  Raises
    :class:`SchedulingError` if some parent is not placed yet — priority
    policies must only submit ready tasks.
    """
    kern = instance.kernel
    consts = kern.out_const
    if consts is not None:
        preds = kern.pred[task]
        # The model-priced loop below only validates ``proc`` when there
        # is at least one parent; so does this one.
        if preds and proc not in kern.pi:
            raise UnknownProcessorError(proc)
        ready = 0.0
        for parent in preds:
            if parent not in schedule:
                raise SchedulingError(f"parent {parent!r} of {task!r} is unscheduled")
            const = consts[parent][task]
            arrival = float("inf")
            # copy.end + 0.0 == copy.end (times are >= 0), so the
            # same-processor branch matches the zero-comm case bit
            # for bit.
            for copy in schedule.copies(parent):
                cand = copy.end if copy.proc == proc else copy.end + const
                if cand < arrival:
                    arrival = cand
            if arrival > ready:
                ready = arrival
        return ready
    ready = 0.0
    for parent in instance.predecessors_of(task):
        if parent not in schedule:
            raise SchedulingError(f"parent {parent!r} of {task!r} is unscheduled")
        arrival = float("inf")
        for copy in schedule.copies(parent):
            cand = copy.end + instance.comm_time(parent, task, copy.proc, proc)
            if cand < arrival:
                arrival = cand
        if arrival > ready:
            ready = arrival
    return ready


@dataclass(frozen=True)
class Placement:
    """A candidate placement of one task."""

    proc: ProcId
    start: float
    end: float

    @property
    def finish(self) -> float:
        return self.end


def placement_on(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    proc: ProcId,
    insertion: bool = True,
) -> Placement:
    """Earliest placement of ``task`` on a specific processor."""
    duration = instance.exec_time(task, proc)
    ready = ready_time(schedule, instance, task, proc)
    start = schedule.timeline(proc).find_slot(ready, duration, insertion=insertion)
    return Placement(proc=proc, start=start, end=start + duration)


def _earliest_placement(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    insertion: bool,
    procs: Sequence[ProcId] | None,
    by_finish: bool,
) -> Placement:
    """Earliest-finish (``by_finish``) or earliest-start placement of
    ``task`` over ``procs`` (default: every processor); ties break by
    candidate order."""
    candidates = procs if procs is not None else instance.machine.proc_ids()
    if not candidates:
        raise SchedulingError("no candidate processors")
    ready = instance.kernel.ready_times(schedule, task)
    pi = instance.kernel.pi
    best: Placement | None = None
    for proc in candidates:
        duration = instance.exec_time(task, proc)
        start = schedule.timeline(proc).find_slot(
            ready[pi[proc]], duration, insertion=insertion
        )
        end = start + duration
        if best is None or (
            end < best.end - 1e-12 if by_finish else start < best.start - 1e-12
        ):
            best = Placement(proc=proc, start=start, end=end)
    assert best is not None
    return best


def eft_placement(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    insertion: bool = True,
    procs: Sequence[ProcId] | None = None,
) -> Placement:
    """Earliest-finish-time placement across processors (HEFT's rule).

    Ties on finish time break deterministically by processor order so
    runs are reproducible.
    """
    return _earliest_placement(schedule, instance, task, insertion, procs, by_finish=True)


def est_placement(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    insertion: bool = True,
    procs: Sequence[ProcId] | None = None,
) -> Placement:
    """Earliest-start-time placement across processors (ETF's rule)."""
    return _earliest_placement(schedule, instance, task, insertion, procs, by_finish=False)


def topological_by_priority(dag, key) -> list[TaskId]:
    """Kahn's algorithm driven by a priority key (smaller = earlier).

    Produces a valid topological order that follows ``key(task)`` as
    closely as precedence allows.  Use this when a priority metric can
    tie or invert across an edge (zero-cost chains), where naive sorting
    could emit a child before its parent.
    """
    import heapq

    indegree = {t: dag.in_degree(t) for t in dag.tasks()}
    heap = [(key(t), i, t) for i, t in enumerate(dag.tasks()) if indegree[t] == 0]
    heapq.heapify(heap)
    out: list[TaskId] = []
    while heap:
        _, _, task = heapq.heappop(heap)
        out.append(task)
        for child in dag.successors(task):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, (key(child), len(out), child))
    if len(out) != dag.num_tasks:
        raise SchedulingError("graph contains a cycle or disconnected bookkeeping")
    return out


def checked_order(instance: Instance, order: Sequence[TaskId], who: str) -> list[int]:
    """Canonical task indices of ``order``, checked before any placement.

    ``order`` must list every task once, each after all its parents: the
    compiled list pass trusts its order.  Raises :class:`SchedulingError`
    otherwise; for a task listed before a parent it names the pair the
    object loop's ready-time fold stops at (the first such task in
    ``order``, its first late parent in predecessor order).
    """
    kern = instance.kernel
    try:
        idx = [kern.ti[t] for t in order]
    except KeyError as exc:
        raise SchedulingError(f"{who}: unknown task {exc.args[0]!r} in order") from None
    at = np.full(len(kern.tasks), -1)
    at[idx] = np.arange(len(idx))
    if len(idx) != len(at) or (at < 0).any():
        raise SchedulingError(f"{who}: order lists {len(idx)} tasks, "
                              f"{(at >= 0).sum()} distinct of the instance's {len(at)}")
    _, child, parent, _ = kern.pred_csr()
    late = np.flatnonzero(at[parent] > at[child])
    if late.size:
        e = late[np.argmin(at[child[late]])]
        raise SchedulingError(f"{who}: parent {kern.tasks[parent[e]]!r} of "
                              f"{kern.tasks[child[e]]!r} is unscheduled")
    return idx


def decode_assignment(
    instance: Instance,
    assignment: Mapping[TaskId, ProcId],
    order: Sequence[TaskId] | None = None,
    name: str = "decoded",
) -> Schedule:
    """The schedule a fixed ``{task: processor}`` assignment induces.

    Tasks go in ``order`` (default: decreasing mean upward rank), each
    to its assigned processor's earliest insertion slot: the compiled
    list pass with every task pinned.  Raises ``KeyError`` for a task
    missing from ``assignment``, :class:`UnknownTaskError` or
    :class:`UnknownProcessorError` for an unknown id,
    :class:`ScheduleError` for a task listed twice and
    :class:`SchedulingError` for an order that omits a task or lists one
    before a parent.
    """
    kern = instance.kernel
    if order is None:
        order = kern.rank_order("mean")
    ti, pi = kern.ti, kern.pi
    pinned = [-1] * len(ti)
    for task in order:
        proc = assignment[task]
        t = ti.get(task)
        if t is None:
            raise UnknownTaskError(task)
        j = pi.get(proc)
        if j is None:
            raise UnknownProcessorError(proc)
        if pinned[t] >= 0:
            raise ScheduleError(f"task {task!r} already has a primary placement")
        pinned[t] = j
    idx = checked_order(instance, order, name)
    ci = kern.compiled()
    return ci.materialize(ci.schedule_list(idx, pinned=pinned), instance.machine, name)


class ListScheduler(Scheduler):
    """Template for static-priority list schedulers.

    Subclasses provide :meth:`priority_order` (a full topological-
    compatible task order, checked by :func:`checked_order` before any
    placement) and optionally override :meth:`place` (the default is
    EFT, or EST under the ``"est"`` policy).  A scheduler with a
    :attr:`compiled_policy` and the default :meth:`place` runs its list
    pass in the compiled executor; any other places each task through
    :meth:`place` over a real :class:`Schedule`.
    """

    #: Whether the placement phase may use idle-gap insertion.
    insertion: bool = True

    #: Placement policy of the compiled executor ("eft"/"est"); ``None``
    #: keeps the scheduler on the object loop (custom ``place``
    #: overrides the template cannot express in flat form).
    compiled_policy: str | None = None

    @abstractmethod
    def priority_order(self, instance: Instance) -> list[TaskId]:
        """Full task order; every task must appear after its parents."""

    def place(self, schedule: Schedule, instance: Instance, task: TaskId) -> Placement:
        """Choose a processor and start time for ``task``."""
        place = est_placement if self.compiled_policy == "est" else eft_placement
        return place(schedule, instance, task, insertion=self.insertion)

    def schedule(self, instance: Instance) -> Schedule:
        tracer = get_tracer()
        name = f"{self.name}:{instance.name}"
        with tracer.span("sched.run", alg=self.name, tasks=instance.num_tasks) as run:
            with tracer.span("sched.rank", alg=self.name):
                order = self.priority_order(instance)
            idx = checked_order(instance, order, self.name)
            compiled = (
                self.compiled_policy is not None and type(self).place is ListScheduler.place
            )
            with tracer.span("sched.place", alg=self.name) as place:
                if compiled:
                    ci = instance.kernel.compiled()
                    result = ci.schedule_list(
                        idx,
                        insertion=self.insertion,
                        policy=self.compiled_policy,
                    )
                    if tracer.enabled:
                        place.set(pruned=result.pruned, walked=result.walked)
                    schedule = ci.materialize(result, instance.machine, name)
                else:
                    schedule = Schedule(instance.machine, name=name)
                    for task in order:
                        placed = self.place(schedule, instance, task)
                        schedule.add(
                            task, placed.proc, placed.start, placed.end - placed.start
                        )
            if tracer.enabled:
                tracer.count("sched.tasks_placed", len(order))
                run.set(makespan=schedule.makespan)
        return schedule
