"""MCP — Modified Critical Path (Wu & Gajski, 1990).

The classic homogeneous-system baseline.  Each task's priority is its
ALAP time; ties are broken by comparing the sorted ALAP lists of the
task's descendants (implemented here as the task's children's ALAPs,
the standard practical refinement), then by topological position.
Placement is insertion-based earliest start.

On heterogeneous instances the ALAPs are computed with machine-averaged
costs, which is the conventional adaptation.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedulers.base import ListScheduler, topological_by_priority
from repro.schedulers.ranking import alap_times
from repro.types import TaskId


class MCP(ListScheduler):
    """Modified Critical Path scheduler."""

    insertion = True
    name = "MCP"
    compiled_policy = "est"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        dag = instance.dag
        alap = alap_times(instance, agg="mean")
        pos = {t: i for i, t in enumerate(dag.topological_order())}

        def key(t: TaskId):
            child_alaps = tuple(sorted(alap[s] for s in dag.successors(t)))
            return (alap[t], child_alaps, pos[t])

        # Ascending ALAP is topological for positive weights, but zero-cost
        # zero-communication chains can tie or invert; the priority-driven
        # Kahn pass keeps the order legal in those corners too.
        return topological_by_priority(dag, key)
