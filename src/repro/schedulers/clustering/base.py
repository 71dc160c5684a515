"""Shared machinery of clustering schedulers.

A clustering scheduler runs three phases:

1. **cluster** (subclass-specific): partition the task set into clusters
   under the unbounded-processor assumption;
2. **map**: fold clusters onto the ``q`` real processors — clusters are
   taken in decreasing total-work order and each goes to the currently
   least-loaded processor (the standard load-balancing fold, cf. the
   "cluster merging" step of the literature);
3. **order & place**: tasks are placed in decreasing upward-rank order,
   each on its assigned processor at the earliest insertion slot
   (:func:`~repro.schedulers.base.decode_assignment`), which yields a
   feasible schedule and concrete start times.

Phases 2 and 3 are shared here so DSC and linear clustering differ only
in the clustering policy — mirroring how this library isolates the
placement substrate for list schedulers.
"""

from __future__ import annotations

from abc import abstractmethod

from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, decode_assignment
from repro.types import ProcId, TaskId


class ClusteringScheduler(Scheduler):
    """Template: subclasses implement :meth:`clusters` only."""

    @abstractmethod
    def clusters(self, instance: Instance) -> list[list[TaskId]]:
        """Partition the tasks into disjoint clusters.

        Every task must appear in exactly one cluster; order within a
        cluster is irrelevant (phase 3 re-orders globally by rank).
        """

    def map_clusters(
        self, instance: Instance, clusters: list[list[TaskId]]
    ) -> dict[TaskId, ProcId]:
        """Fold clusters onto processors, largest work first onto the
        least-loaded processor (ties by processor order)."""
        procs = instance.machine.proc_ids()
        load: dict[ProcId, float] = {p: 0.0 for p in procs}
        assignment: dict[TaskId, ProcId] = {}

        def work(cluster: list[TaskId]) -> float:
            return sum(instance.avg_exec_time(t) for t in cluster)

        for cluster in sorted(clusters, key=lambda c: (-work(c), str(c[:1]))):
            target = min(procs, key=lambda p: (load[p], str(p)))
            for t in cluster:
                assignment[t] = target
            load[target] += work(cluster)
        return assignment

    def schedule(self, instance: Instance) -> Schedule:
        clusters = self.clusters(instance)
        seen: set[TaskId] = set()
        for cluster in clusters:
            for t in cluster:
                if t in seen:
                    raise SchedulingError(f"{self.name}: task {t!r} in two clusters")
                seen.add(t)
        missing = set(instance.dag.tasks()) - seen
        if missing:
            raise SchedulingError(
                f"{self.name}: {len(missing)} tasks unclustered, e.g. "
                f"{sorted(map(str, missing))[:3]}"
            )

        assignment = self.map_clusters(instance, clusters)
        return decode_assignment(instance, assignment, name=f"{self.name}:{instance.name}")
