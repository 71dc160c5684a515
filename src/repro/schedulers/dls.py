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

from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
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
            ci = instance.kernel.compiled()
            with tracer.span("sched.place", alg=self.name):
                result = ci.schedule_dls([sl[t] for t in ci.tasks], [wstar[t] for t in ci.tasks])
                schedule = ci.materialize(result, instance.machine, name)
            if tracer.enabled:
                tracer.count("sched.tasks_placed", instance.num_tasks)
                run.set(makespan=schedule.makespan)
        return schedule
