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

Both entry points run on the compiled executor; the object engine they
replay is the test-side reference ``tests/placement_reference.py``.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule, ScheduledTask
from repro.schedulers.ranking import RankAggregation, upward_ranks
from repro.types import TaskId


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
        and the task's primary placement, and return the placed record
        (:meth:`~repro.compiled.CompiledInstance.place_task`)."""
        return instance.kernel.compiled().place_task(
            schedule,
            task,
            ranks or {},
            lookahead=self.lookahead,
            duplication=self.duplication,
            insertion=self.insertion,
            max_duplications_per_task=self.max_duplications_per_task,
        )

    # ------------------------------------------------------------------
    # whole-DAG pass
    # ------------------------------------------------------------------
    def heft_pass(self, instance: Instance, agg: RankAggregation, label: str) -> Schedule:
        """Place every task in HEFT's order (decreasing upward rank,
        topological tie-break) with this engine — the whole of LA-HEFT
        and DUP-HEFT.

        Runs as one compiled improved pass without refinement (the pass
        :meth:`place` runs for one task), under the ``sched.run`` >
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
