"""CPOP — Critical Path On a Processor (Topcuoglu et al., 2002).

The companion baseline of HEFT: tasks are prioritised by
``rank_u + rank_d``; all tasks on the (average-cost) critical path are
pinned to the single processor that minimises the path's total execution
time; every other task is placed by insertion-based EFT.  CPOP processes
tasks in ready order driven by a priority queue rather than a static
list, which this implementation reproduces.
"""

from __future__ import annotations

import heapq
from itertools import count

import numpy as np

from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.ranking import (
    RankAggregation,
    critical_path_tasks,
    downward_ranks,
    upward_ranks,
)
from repro.types import ProcId


class CPOP(Scheduler):
    """Critical-Path-On-a-Processor scheduler."""

    def __init__(self, agg: RankAggregation = "mean") -> None:
        self.agg = agg
        self.name = "CPOP" if agg == "mean" else f"CPOP-{agg}"

    def _critical_processor(self, instance: Instance, cp: list) -> ProcId:
        """Processor minimising the summed execution time of the CP."""
        # One vectorized accumulation per CP task; the per-element
        # addition order is that of a per-processor running sum.
        kern = instance.kernel
        totals = np.zeros(len(kern.procs))
        for t in cp:
            totals += kern.etc_arr[kern.ti[t]]
        best_proc: ProcId | None = None
        best_total = float("inf")
        for j, proc in enumerate(kern.procs):
            if totals[j] < best_total - 1e-12:
                best_total = float(totals[j])
                best_proc = proc
        if best_proc is None:
            raise SchedulingError("machine has no processors")
        return best_proc

    def schedule(self, instance: Instance) -> Schedule:
        tracer = get_tracer()
        dag = instance.dag
        with tracer.span("sched.run", alg=self.name, tasks=instance.num_tasks) as run:
            with tracer.span("sched.rank", alg=self.name) as rank_span:
                up = upward_ranks(instance, self.agg)
                down = downward_ranks(instance, self.agg)
                priority = {t: up[t] + down[t] for t in dag.tasks()}
                cp = critical_path_tasks(instance, self.agg)
                cp_set = set(cp)
                cp_proc = self._critical_processor(instance, cp) if cp else None
                if tracer.enabled:
                    rank_span.set(cp_len=len(cp), cp_proc=str(cp_proc))

            # The heap priority (rank_u + rank_d) never depends on prior
            # placements, so the pop order is fully determined up front;
            # computing it first lets the compiled executor replay the
            # exact ready-queue order the interleaved loop produces.
            indegree = {t: dag.in_degree(t) for t in dag.tasks()}
            tie = count()
            heap: list[tuple[float, int, object]] = []
            for t in dag.entry_tasks():
                heapq.heappush(heap, (-priority[t], next(tie), t))
            order: list = []
            while heap:
                _, _, task = heapq.heappop(heap)
                order.append(task)
                for child in dag.successors(task):
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        heapq.heappush(heap, (-priority[child], next(tie), child))
            if len(order) != instance.num_tasks:
                raise SchedulingError(
                    f"CPOP scheduled {len(order)}/{instance.num_tasks} tasks"
                )

            ci = instance.kernel.compiled()
            name = f"{self.name}:{instance.name}"
            with tracer.span("sched.place", alg=self.name):
                cp_j = instance.kernel.pi[cp_proc] if cp_proc is not None else -1
                result = ci.schedule_list(
                    ci.order_indices(order),
                    insertion=True,
                    policy="eft",
                    pinned=[cp_j if t in cp_set else -1 for t in ci.tasks],
                )
                schedule = ci.materialize(result, instance.machine, name)
            if tracer.enabled:
                tracer.count("sched.tasks_placed", len(order))
                run.set(makespan=schedule.makespan)
        return schedule
