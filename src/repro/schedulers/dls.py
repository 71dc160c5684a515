"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

A dynamic list scheduler: at every step the (ready task, processor) pair
with the highest *dynamic level*

    ``DL(t, p) = SL*(t) - max(data_ready(t, p), avail(p)) + Δ(t, p)``

is scheduled, where ``SL*`` is the static level computed with median
execution costs and ``Δ(t, p) = w*(t) - w(t, p)`` rewards placing a task
on a processor that runs it faster than typical.  Classic DLS appends to
the processor's ready end (no insertion).
"""

from __future__ import annotations

from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, compiled_for
from repro.schedulers.ranking import machine_static_levels


class DLS(Scheduler):
    """Dynamic Level Scheduling."""

    name = "DLS"

    def schedule(self, instance: Instance) -> Schedule:
        tracer = get_tracer()
        name = f"{self.name}:{instance.name}"
        with tracer.span("sched.run", alg=self.name, tasks=instance.num_tasks) as run:
            with tracer.span("sched.rank", alg=self.name):
                sl = machine_static_levels(instance, agg="median")
                wstar = instance.kernel.weights("median")
            ci = compiled_for(instance)
            with tracer.span("sched.place", alg=self.name):
                if ci is not None:
                    result = ci.schedule_dls(
                        [sl[t] for t in ci.tasks], [wstar[t] for t in ci.tasks]
                    )
                    schedule = ci.materialize(result, instance.machine, name)
                else:
                    schedule = self._place(instance, sl, wstar, name)
            if tracer.enabled:
                tracer.count("sched.tasks_placed", instance.num_tasks)
                run.set(makespan=schedule.makespan)
        return schedule

    def _place(self, instance: Instance, sl: dict, wstar: dict, name: str) -> Schedule:
        """The object-path dynamic-level pairing loop."""
        dag = instance.dag
        pos = instance.kernel.pos
        procs = instance.machine.proc_ids()
        schedule = Schedule(instance.machine, name=name)
        indegree = {t: dag.in_degree(t) for t in dag.tasks()}
        ready = {t for t in dag.tasks() if indegree[t] == 0}

        scheduled = 0
        # A task enters `ready` only once all parents are placed, and DLS
        # never moves or duplicates a placement afterwards — so its
        # per-processor data-ready vector is fixed while it waits.
        ready_cache: dict = {}
        while ready:
            best = None  # (neg_dl, pos, proc_index) ordering key
            best_choice = None
            for task in ready:
                ready_vec = ready_cache.get(task)
                if ready_vec is None:
                    ready_vec = ready_cache[task] = instance.kernel.ready_times(schedule, task)
                for j, proc in enumerate(procs):
                    start = max(ready_vec[j], schedule.timeline(proc).end_time)
                    delta = wstar[task] - instance.exec_time(task, proc)
                    dl = sl[task] - start + delta
                    key = (-dl, pos[task], j)
                    if best is None or key < best:
                        best = key
                        best_choice = (task, proc, start)
            assert best_choice is not None
            task, proc, start = best_choice
            schedule.add(task, proc, start, instance.exec_time(task, proc))
            scheduled += 1
            ready.discard(task)
            ready_cache.pop(task, None)
            for child in dag.successors(task):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.add(child)

        if scheduled != instance.num_tasks:
            raise SchedulingError(f"DLS scheduled {scheduled}/{instance.num_tasks} tasks")
        return schedule
