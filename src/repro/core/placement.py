"""Processor-selection engine combining lookahead and duplication.

This is the placement half of the improved scheduler.  For each
candidate processor it (1) optionally plans idle-slot duplicates of the
parents that dominate the task's data-ready time, keeping them only when
they strictly lower the task's earliest finish on that processor, and
(2) scores the resulting placement either by the task's own EFT (HEFT's
rule) or by a one-level *lookahead*: the estimated earliest finish of
the task's most critical unscheduled child given this placement.

Duplicates never extend the makespan: a duplicate's finish time bounds
the task's data-ready time from below, so it always completes before the
task it serves starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule, ScheduledTask
from repro.schedulers.base import Placement, placement_on, ready_time
from repro.schedulers.ranking import RankAggregation, upward_ranks
from repro.types import ProcId, TaskId

_EPS = 1e-12


@dataclass(frozen=True)
class _DupPlan:
    """One tentative duplicate placement."""

    task: TaskId
    proc: ProcId
    start: float
    duration: float


class PlacementEngine:
    """Stateful-free placement policy used by the improved schedulers."""

    def __init__(
        self,
        lookahead: bool = True,
        duplication: bool = True,
        insertion: bool = True,
        max_duplications_per_task: int = 3,
    ) -> None:
        self.lookahead = lookahead
        self.duplication = duplication
        self.insertion = insertion
        self.max_duplications_per_task = max_duplications_per_task

    # ------------------------------------------------------------------
    # duplication planning
    # ------------------------------------------------------------------
    def _arrivals(
        self, schedule: Schedule, instance: Instance, task: TaskId, proc: ProcId
    ) -> dict[TaskId, float]:
        """Per-parent earliest data arrival on ``proc``."""
        out: dict[TaskId, float] = {}
        for parent in instance.predecessors_of(task):
            arrival = float("inf")
            for c in schedule.copies(parent):
                cand = c.end + instance.comm_time(parent, task, c.proc, proc)
                if cand < arrival:
                    arrival = cand
            out[parent] = arrival
        return out

    def _plan_duplicates(
        self, schedule: Schedule, instance: Instance, task: TaskId, proc: ProcId
    ) -> list[_DupPlan]:
        """Tentatively add parent duplicates on ``proc``; return the plans.

        The duplicates are *applied to the schedule* so the subsequent
        placement probe sees them; the caller must roll them back with
        :meth:`_rollback` unless it commits to this processor.
        """
        applied: list[_DupPlan] = []
        pos = instance.kernel.pos
        for _ in range(self.max_duplications_per_task):
            arrivals = self._arrivals(schedule, instance, task, proc)
            if not arrivals:
                break
            # The parent whose data arrives last constrains the task.
            dominant = max(arrivals, key=lambda p: (arrivals[p], -pos[p]))
            if arrivals[dominant] <= _EPS:
                break
            if any(c.proc == proc for c in schedule.copies(dominant)):
                break  # already local; nothing left to win on this parent
            dup_ready = ready_time(schedule, instance, dominant, proc)
            dup_duration = instance.exec_time(dominant, proc)
            dup_start = schedule.timeline(proc).find_slot(
                dup_ready, dup_duration, insertion=self.insertion
            )
            if dup_start + dup_duration >= arrivals[dominant] - _EPS:
                break  # re-running the parent locally would not be faster
            schedule.add(dominant, proc, dup_start, dup_duration, duplicate=True)
            applied.append(_DupPlan(dominant, proc, dup_start, dup_duration))
        return applied

    @staticmethod
    def _rollback(schedule: Schedule, plans: list[_DupPlan]) -> None:
        for plan in reversed(plans):
            schedule.remove_duplicate(plan.task, plan.proc)

    @staticmethod
    def _apply(schedule: Schedule, plans: list[_DupPlan]) -> None:
        for plan in plans:
            schedule.add(plan.task, plan.proc, plan.start, plan.duration, duplicate=True)

    # ------------------------------------------------------------------
    # lookahead scoring
    # ------------------------------------------------------------------
    def _critical_child(
        self,
        schedule: Schedule,
        instance: Instance,
        task: TaskId,
        ranks: dict[TaskId, float],
    ) -> TaskId | None:
        pending = [s for s in instance.successors_of(task) if s not in schedule]
        if not pending:
            return None
        pos = instance.kernel.pos
        return max(pending, key=lambda s: (ranks.get(s, 0.0), -pos[s]))

    def _lookahead_finish(
        self,
        schedule: Schedule,
        instance: Instance,
        task: TaskId,
        placed: Placement,
        child: TaskId,
    ) -> float:
        """Estimated earliest finish of ``child`` if ``task`` runs as
        ``placed``.

        The estimate ignores the slot the task itself will occupy (it is
        not in the schedule yet) except on the task's own processor,
        where availability is clamped to the task's finish — a cheap,
        deterministic approximation that keeps the engine at
        O(q^2) per task.
        """
        best = float("inf")
        for proc in instance.machine.proc_ids():
            ready = placed.end + instance.comm_time(task, child, placed.proc, proc)
            for parent in instance.predecessors_of(child):
                if parent == task or parent not in schedule:
                    continue
                ready = max(
                    ready,
                    min(
                        c.end + instance.comm_time(parent, child, c.proc, proc)
                        for c in schedule.copies(parent)
                    ),
                )
            avail = schedule.timeline(proc).end_time
            if proc == placed.proc:
                avail = max(avail, placed.end)
            finish = max(ready, avail) + instance.exec_time(child, proc)
            best = min(best, finish)
        return best

    # ------------------------------------------------------------------
    # the placement decision
    # ------------------------------------------------------------------
    def place(
        self,
        schedule: Schedule,
        instance: Instance,
        task: TaskId,
        ranks: dict[TaskId, float] | None = None,
    ) -> ScheduledTask:
        """Choose a processor for ``task``, commit any winning duplicates
        and the task's primary placement, and return the placed record."""
        procs = instance.machine.proc_ids()
        ranks = ranks or {}
        child = (
            self._critical_child(schedule, instance, task, ranks)
            if self.lookahead
            else None
        )

        best_key: tuple[float, float, int] | None = None
        best_proc: ProcId | None = None
        best_plans: list[_DupPlan] = []
        best_placement: Placement | None = None

        # The plain probes all see the same schedule state (tentative
        # duplicates are rolled back before the next processor), so the
        # per-processor ready times can be batched once up front.
        ready_vec = instance.kernel.ready_times(schedule, task)
        for j, proc in enumerate(procs):
            duration = instance.exec_time(task, proc)
            start = schedule.timeline(proc).find_slot(
                ready_vec[j], duration, insertion=self.insertion
            )
            plain = Placement(proc=proc, start=start, end=start + duration)
            plans: list[_DupPlan] = []
            placed = plain
            if self.duplication:
                plans = self._plan_duplicates(schedule, instance, task, proc)
                if plans:
                    with_dups = placement_on(
                        schedule, instance, task, proc, insertion=self.insertion
                    )
                    if with_dups.end < plain.end - _EPS:
                        placed = with_dups
                    else:
                        self._rollback(schedule, plans)
                        plans = []
            if child is not None:
                score = self._lookahead_finish(schedule, instance, task, placed, child)
            else:
                score = placed.end
            key = (score, placed.end, j)
            if best_key is None or key < best_key:
                best_key = key
                best_proc = proc
                best_plans = plans
                best_placement = placed
            if plans:
                self._rollback(schedule, plans)

        assert best_placement is not None and best_proc is not None
        if best_plans:
            get_tracer().count("imp.duplicates", len(best_plans))
        self._apply(schedule, best_plans)
        return schedule.add(
            task,
            best_proc,
            best_placement.start,
            best_placement.end - best_placement.start,
        )

    # ------------------------------------------------------------------
    # whole-DAG pass
    # ------------------------------------------------------------------
    def heft_pass(self, instance: Instance, agg: RankAggregation, label: str) -> Schedule:
        """Place every task in HEFT's order (decreasing upward rank,
        topological tie-break) with this engine — the whole of LA-HEFT
        and DUP-HEFT.

        Runs as one compiled improved pass without refinement, which
        replays :meth:`place` float for float, under the ``sched.run`` >
        ``sched.rank`` / ``sched.place`` spans of every list scheduler;
        ``sched.place`` carries the pass's ``pruned`` and ``planned``
        probe counts and its ``walked`` gap-index searches.
        """
        tracer = get_tracer()
        with tracer.span("sched.run", alg=label, tasks=instance.num_tasks) as run:
            with tracer.span("sched.rank", alg=label):
                ranks = upward_ranks(instance, agg)
                pos = instance.kernel.pos
                order = sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))
            ci = instance.kernel.compiled()
            with tracer.span("sched.place", alg=label) as place:
                result = ci.schedule_improved(
                    ci.order_indices(order),
                    [ranks[t] for t in ci.tasks],
                    lookahead=self.lookahead,
                    duplication=self.duplication,
                    insertion=self.insertion,
                    refinement=False,
                    refinement_rounds=0,
                    max_duplications_per_task=self.max_duplications_per_task,
                )
                if tracer.enabled:
                    place.set(pruned=result.pruned, planned=result.planned,
                              walked=result.walked)
                schedule = ci.materialize(result, instance.machine, f"{label}:{instance.name}")
            if tracer.enabled:
                tracer.count("sched.tasks_placed", instance.num_tasks)
                run.set(makespan=schedule.makespan)
        return schedule
