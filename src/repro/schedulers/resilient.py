"""Fault-tolerant (k-backup) scheduling and deadline schedulability.

FEST-style active replication on top of any base scheduler: every task
receives ``k + 1`` copies on distinct processors, placed append-only in
a topological order that follows the base scheduler's decisions.  All
copies always run (active replication — no failure detector in the
loop), so killing any ``<= k`` processors leaves at least one live copy
of every task, and because each processor's planned sequence agrees
with the topological placement order, the fault-time wait-for graph is
acyclic: every copy on a surviving processor completes.  Resilience is
pay-for-what-you-use: ``k = 0`` returns the base scheduler's schedule
object untouched.

The module also owns the *analysis* side of the contract:

* :func:`predict_degraded` — an independent heap-based replay of a
  schedule under a fail-stop fault plan.  It re-derives the degraded
  timeline from first principles (head-of-line processor queues +
  message arrivals) with the exact float operations of
  :func:`repro.sim.executor.execute`, so predicted and realised times
  agree bit-for-bit — asserted by the kill-k differential suite.
* :func:`schedulability_report` — worst-case analysis over every kill
  set of size ``k``.  Killing earlier and killing more is monotonically
  worse (fewer completed copies can only delay or starve consumers), so
  enumerating size-``k`` kill sets at time 0 covers all kill sets of
  size ``<= k`` at any time.
* :func:`schedulability_doc` — the structured planned-schedule verdict
  (met/missed, slack per task) the service attaches to results of
  deadline-annotated instances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from repro.exceptions import ScheduleError, SchedulingError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, eft_placement, topological_by_priority
from repro.types import ProcId, TaskId


class ResilientScheduler(Scheduler):
    """Wrap a base scheduler with k-backup active replication.

    For ``k >= 1`` the schedule is rebuilt from scratch: tasks are taken
    in a topological order that follows the base schedule's start times
    (so the base scheduler's priority decisions survive), and each task
    receives a primary plus ``k`` backups on pairwise-distinct
    processors, every copy placed by the *non-insertion* EFT rule (ties
    broken by processor order, as everywhere else).

    Append-only placement is load-bearing, not a simplification.  The
    simulator executes each processor's copies head-of-line in planned
    start order; a copy slotted into an idle gap *before* copies of
    topologically-earlier tasks can deadlock under faults — the
    surviving copy of a parent ends up queued behind a consumer that is
    waiting for that very parent.  Placing all copies of task ``i``
    before any copy of task ``i + 1``, append-only, makes every
    processor's sequence consistent with one global topological
    placement order, so the worst-case wait-for graph (any kill set,
    any kill times) is acyclic: every copy on a live processor runs,
    and with at most ``k`` dead processors every task — which owns
    ``k + 1`` copies on distinct processors — still completes.

    Placement goes through the shared ``ready_time``/``find_slot``
    primitives, so copies respect duplication-aware precedence and the
    result passes :func:`repro.schedule.validation.validate`.
    """

    def __init__(self, base: Scheduler | str, k: int = 1, strict: bool = False) -> None:
        if isinstance(base, str):
            from repro.schedulers.registry import get_scheduler  # lazy: avoids import cycle

            base = get_scheduler(base)
        if k < 0:
            raise SchedulingError(f"backup count k must be >= 0, got {k}")
        self.base = base
        self.k = k
        self.strict = strict
        self.name = f"FT-{base.name}-k{k}"

    def effective_k(self, instance: Instance) -> int:
        """Replication degree actually applied to ``instance``.

        ``k + 1`` disjoint copies need ``k + 1`` processors; no schedule
        can survive losing *every* processor, so on smaller machines the
        degree is capped at ``num_procs - 1`` (``strict=True`` raises
        instead — for callers that treat an unsatisfiable tolerance
        request as an error rather than a best-effort target).
        """
        if instance.num_procs < self.k + 1:
            if self.strict:
                raise SchedulingError(
                    f"{self.name}: {self.k + 1} disjoint copies need at least "
                    f"{self.k + 1} processors, machine has {instance.num_procs}"
                )
            return max(0, instance.num_procs - 1)
        return self.k

    def schedule(self, instance: Instance) -> Schedule:
        base = self.base.schedule(instance)
        k = self.effective_k(instance)
        if k == 0:
            # Bit-identical to the base scheduler: same object, same
            # floats, same fingerprintable payload.
            return base
        tracer = get_tracer()
        all_procs = instance.machine.proc_ids()
        # Follow the base scheduler's realised start order, repaired to a
        # valid topological order (start times can tie across an edge on
        # zero-cost chains).
        order = topological_by_priority(instance.dag, key=base.start_of)
        out = Schedule(instance.machine, name=f"{self.name}:{instance.name}")
        with tracer.span("sched.backup", alg=self.name, k=k):
            for task in order:
                hosting: set[ProcId] = set()
                for _ in range(k + 1):
                    candidates = [p for p in all_procs if p not in hosting]
                    placed = eft_placement(
                        out, instance, task, insertion=False, procs=candidates
                    )
                    out.add(
                        task, placed.proc, placed.start, placed.end - placed.start,
                        duplicate=bool(hosting),
                    )
                    hosting.add(placed.proc)
        return out


# ----------------------------------------------------------------------
# degraded-timeline prediction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegradedPrediction:
    """Predicted outcome of running a schedule under a fault plan."""

    makespan: float
    task_ends: dict[TaskId, float]
    completed_copies: int
    aborted_copies: int
    unstarted_copies: int
    faults: dict[ProcId, float] = field(default_factory=dict)

    def completed(self, task: TaskId) -> bool:
        return task in self.task_ends

    def all_completed(self, instance: Instance) -> bool:
        return all(t in self.task_ends for t in instance.dag.tasks())

    def meets_deadline(self, instance: Instance, deadline: float) -> bool:
        """Every task completes no later than ``deadline``."""
        return self.all_completed(instance) and all(
            end <= deadline for end in self.task_ends.values()
        )


def predict_degraded(
    schedule: Schedule,
    instance: Instance,
    faults: Mapping[ProcId, float] | None = None,
) -> DegradedPrediction:
    """Replay ``schedule`` under fail-stop ``faults`` analytically.

    An independent heap-based implementation of the simulator's
    semantics (planned per-processor sequences, head-of-line starts at
    ``max(now, proc_free)``, a consumer waits for *some* copy of each
    parent to arrive locally) under nominal durations and contention-free
    links.  The float sequence matches
    :func:`repro.sim.executor.execute` operation for operation, so the
    returned times equal the realised times bit-for-bit; the kill-k
    differential suite holds the two implementations against each other.
    """
    kill_at = {p: float(t) for p, t in (faults or {}).items()}
    dag = instance.dag
    sequences = {p: schedule.proc_entries(p) for p in schedule.machine.proc_ids()}
    key = lambda c: (c.task, c.proc, c.start)  # noqa: E731 - copy identity

    waiting: dict[tuple, set[TaskId]] = {}
    total_copies = 0
    for seq in sequences.values():
        for copy in seq:
            waiting[key(copy)] = set(dag.predecessors(copy.task))
            total_copies += 1
    queue_index = {p: 0 for p in sequences}
    proc_free_at = {p: 0.0 for p in sequences}
    started: set[tuple] = set()
    ends: dict[tuple, float] = {}
    aborted = 0

    heap: list[tuple] = []
    counter = 0

    def push(time: float, kind: str, payload) -> None:
        nonlocal counter
        heapq.heappush(heap, (time, counter, kind, payload))
        counter += 1

    def try_start(proc: ProcId, now: float) -> None:
        idx = queue_index[proc]
        seq = sequences[proc]
        if idx >= len(seq):
            return
        copy = seq[idx]
        k = key(copy)
        if k in started or waiting[k]:
            return
        start = max(now, proc_free_at[proc])
        kill = kill_at.get(proc)
        if kill is not None and start >= kill:
            return  # head-of-line: nothing behind it runs either
        started.add(k)
        queue_index[proc] += 1
        duration = copy.end - copy.start
        proc_free_at[proc] = start + duration
        push(start + duration, "finish", (copy, start))

    for p in sequences:
        try_start(p, 0.0)
    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        if kind == "finish":
            copy, _start = payload
            kill = kill_at.get(copy.proc)
            if kill is not None and now > kill:
                aborted += 1
            else:
                ends[key(copy)] = now
                for child in dag.successors(copy.task):
                    dests = {c.proc for c in schedule.copies(child)}
                    for dest in sorted(dests, key=lambda p: (str(type(p)), str(p))):
                        delay = instance.comm_time(copy.task, child, copy.proc, dest)
                        push(now + delay, "arrive", (copy.task, child, dest))
            try_start(copy.proc, now)
        else:
            parent, child, dest = payload
            for child_copy in schedule.copies(child):
                if child_copy.proc == dest:
                    waiting[key(child_copy)].discard(parent)
            try_start(dest, now)

    task_ends: dict[TaskId, float] = {}
    for (task, _proc, _start), end in ends.items():
        prev = task_ends.get(task)
        if prev is None or end < prev:
            task_ends[task] = end
    return DegradedPrediction(
        makespan=max(ends.values(), default=0.0),
        task_ends=task_ends,
        completed_copies=len(ends),
        aborted_copies=aborted,
        unstarted_copies=total_copies - len(started),
        faults=kill_at,
    )


# ----------------------------------------------------------------------
# worst-case schedulability analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulabilityReport:
    """Worst-case verdict of a schedule over all size-k kill sets."""

    k: int
    deadline: float | None
    schedulable: bool
    fault_free_makespan: float
    worst_makespan: float
    worst_task_ends: dict[TaskId, float]
    witness: tuple[ProcId, ...] | None

    def slack(self, task: TaskId) -> float:
        """Worst-case slack of one task (negative = deadline miss;
        ``-inf`` when some kill set starves the task entirely)."""
        if self.deadline is None:
            raise SchedulingError("instance has no deadline: slack is undefined")
        return self.deadline - self.worst_task_ends[task]


def schedulability_report(
    schedule: Schedule,
    instance: Instance,
    k: int,
    procs: Sequence[ProcId] | None = None,
) -> SchedulabilityReport:
    """Analyse ``schedule`` against every kill set of ``k`` processors.

    Fail-stop faults are monotone: killing a processor earlier, or
    killing more processors, removes completed copies and can only
    delay or starve downstream tasks.  The worst case over all kill
    sets of size ``<= k`` at any time is therefore attained by some
    size-``k`` set killed at time 0 — the finite family enumerated
    here.  ``schedulable`` means every such kill set leaves all tasks
    completed and (when the instance carries a deadline) all of them
    finished by it; ``witness`` is the first violating kill set in
    processor order, which the property suite replays through the
    simulator to confirm the miss is real.
    """
    if k < 0:
        raise SchedulingError(f"kill-set size k must be >= 0, got {k}")
    pool = list(procs) if procs is not None else instance.machine.proc_ids()
    if k > len(pool):
        raise SchedulingError(f"cannot kill {k} of {len(pool)} processors")
    deadline = instance.deadline
    baseline = predict_degraded(schedule, instance)
    worst_ends = dict(baseline.task_ends)
    worst_makespan = baseline.makespan
    schedulable = True
    witness: tuple[ProcId, ...] | None = None

    def violates(pred: DegradedPrediction) -> bool:
        if not pred.all_completed(instance):
            return True
        return deadline is not None and any(
            end > deadline for end in pred.task_ends.values()
        )

    if violates(baseline):
        schedulable = False
        witness = ()
    kill_sets = combinations(pool, k) if k > 0 else iter(())
    for kill_set in kill_sets:
        pred = predict_degraded(schedule, instance, {p: 0.0 for p in kill_set})
        worst_makespan = max(worst_makespan, pred.makespan)
        for t in instance.dag.tasks():
            end = pred.task_ends.get(t, float("inf"))
            if end > worst_ends.get(t, float("-inf")):
                worst_ends[t] = end
        if schedulable and violates(pred):
            schedulable = False
            witness = tuple(kill_set)
    return SchedulabilityReport(
        k=k,
        deadline=deadline,
        schedulable=schedulable,
        fault_free_makespan=baseline.makespan,
        worst_makespan=worst_makespan,
        worst_task_ends=worst_ends,
        witness=witness,
    )


# ----------------------------------------------------------------------
# planned-schedule verdict (the structured field on results)
# ----------------------------------------------------------------------
def schedulability_doc(schedule: Schedule, instance: Instance) -> dict:
    """Structured deadline verdict of a planned schedule.

    Per task: earliest planned finish over its copies, whether it meets
    the instance deadline, and the slack.  Keys are emitted in
    alphabetical order so the JSON wire path (which preserves insertion
    order) and the binary wire path (which stores the canonical
    sorted-keys JSON encoding) decode to byte-identical payloads.
    """
    deadline = instance.deadline
    if deadline is None:
        raise SchedulingError("instance has no deadline: schedulability is undefined")
    task_col, _, _, end_col, _ = schedule.columns()
    earliest: dict = {}
    for t, end in zip(task_col, end_col):
        if t not in earliest or end < earliest[t]:
            earliest[t] = end
    ends = {}
    for t in instance.dag.tasks():
        if t not in earliest:
            raise ScheduleError(f"task {t!r} is not scheduled")
        ends[t] = earliest[t]
    tasks = []
    for t in sorted(ends, key=lambda t: (str(type(t)), str(t))):
        end = ends[t]
        tasks.append({
            "end": end,
            "met": bool(end <= deadline),
            "slack": deadline - end,
            "task": str(t),
        })
    finish = max(ends.values(), default=0.0)
    return {
        "deadline": deadline,
        "makespan": finish,
        "schedulable": all(rec["met"] for rec in tasks),
        "slack": deadline - finish,
        "tasks": tasks,
    }
