"""Exhaustive branch-and-bound scheduler (test oracle for tiny DAGs).

Enumerates every sequence of (ready task, processor) decisions with
insertion-based earliest placement, i.e. the space of *semi-active*
schedules, which is guaranteed to contain a makespan-optimal schedule
for this machine model.  Used by the optimality-gap experiment (E13) and
by correctness tests; refuses instances beyond ``max_tasks``.

Pruning: an incumbent initialised with HEFT plus a per-node lower bound
combining the current partial makespan with each unscheduled task's
earliest possible completion extended by its minimum-cost critical tail.
"""

from __future__ import annotations

from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, decode_assignment, placement_on
from repro.schedulers.heft import HEFT
from repro.types import TaskId

_EPS = 1e-9


class BranchAndBoundScheduler(Scheduler):
    """Optimal (non-duplicating) scheduler for very small instances."""

    name = "OPT-BB"

    def __init__(self, max_tasks: int = 12) -> None:
        self.max_tasks = max_tasks

    def schedule(self, instance: Instance) -> Schedule:
        n = instance.num_tasks
        if n > self.max_tasks:
            raise SchedulingError(
                f"branch-and-bound refuses {n} tasks (limit {self.max_tasks}); "
                "it is a test oracle, not a production scheduler"
            )
        dag = instance.dag
        procs = instance.machine.proc_ids()

        # Minimum-cost critical tail of each task (no communication): a
        # valid lower bound on the time from the task's start to the end
        # of the schedule.
        tail: dict[TaskId, float] = {}
        for t in reversed(dag.topological_order()):
            tail[t] = instance.etc.best(t) + max(
                (tail[s] for s in dag.successors(t)), default=0.0
            )

        incumbent = HEFT().schedule(instance)
        best_span = incumbent.makespan
        best_moves: list[tuple[TaskId, object]] | None = None

        work = Schedule(instance.machine, name="bb-work")
        indegree = {t: dag.in_degree(t) for t in dag.tasks()}
        ready: list[TaskId] = sorted(
            (t for t in dag.tasks() if indegree[t] == 0), key=str
        )
        moves: list[tuple[TaskId, object]] = []

        def lower_bound() -> float:
            lb = work.makespan
            for t in dag.tasks():
                if t in work:
                    continue
                # Earliest the task could possibly start: each placed
                # parent must at least have finished (communication is
                # optimistically free, keeping the bound valid).
                est = 0.0
                for p in dag.predecessors(t):
                    if p in work:
                        est = max(est, min(c.end for c in work.copies(p)))
                lb = max(lb, est + tail[t])
            return lb

        def dfs() -> None:
            nonlocal best_span, best_moves
            if not ready:
                span = work.makespan
                if span < best_span - _EPS:
                    best_span = span
                    best_moves = list(moves)
                return
            if lower_bound() >= best_span - _EPS:
                return
            for task in list(ready):
                ready.remove(task)
                newly = []
                for child in dag.successors(task):
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        newly.append(child)
                ready.extend(newly)
                for proc in procs:
                    placed = placement_on(work, instance, task, proc, insertion=True)
                    if placed.start + tail[task] >= best_span - _EPS:
                        continue
                    work.add(task, placed.proc, placed.start, placed.end - placed.start)
                    moves.append((task, proc))
                    dfs()
                    moves.pop()
                    work.remove(task)
                for child in newly:
                    ready.remove(child)
                for child in dag.successors(task):
                    indegree[child] += 1
                ready.append(task)

        dfs()

        if best_moves is None:
            # HEFT was already optimal among explored candidates.
            return incumbent
        return decode_assignment(
            instance, dict(best_moves), [t for t, _ in best_moves],
            f"{self.name}:{instance.name}",
        )
