"""HLFET — Highest Level First with Estimated Times (Adam et al., 1974).

The oldest list-scheduling baseline in the comparison: tasks are
prioritised by decreasing static level (no communication in the rank)
and placed on the processor that allows the earliest start, without
idle-gap insertion.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedulers.base import ListScheduler
from repro.schedulers.ranking import machine_static_levels
from repro.types import TaskId


class HLFET(ListScheduler):
    """Highest Level First with Estimated Times."""

    insertion = False
    name = "HLFET"
    compiled_policy = "est"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        sl = machine_static_levels(instance, agg="mean")
        pos = {t: i for i, t in enumerate(instance.dag.topological_order())}
        # Static level strictly decreases along edges with positive
        # weights; the positional tie-break covers zero-cost chains.
        return sorted(instance.dag.tasks(), key=lambda t: (-sl[t], pos[t]))
