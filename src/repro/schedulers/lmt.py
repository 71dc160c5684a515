"""LMT — Levelized Min Time (Iverson, Özgüner & Follen, 1995).

A two-phase level-by-level heuristic: tasks are grouped by ASAP depth
(all precedence constraints run between levels), then within each level
tasks are taken largest-average-cost first and each goes to the
processor minimising its completion time given the machine state.  One
of the standard low-cost heterogeneous baselines.
"""

from __future__ import annotations

from repro.dag.analysis import graph_levels
from repro.instance import Instance
from repro.schedulers.base import ListScheduler
from repro.types import TaskId


class LMT(ListScheduler):
    """Levelized Min Time scheduler: an EFT list pass in level order."""

    name = "LMT"
    compiled_policy = "eft"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        """Level by level; within a level, largest mean cost first, ties
        by topological position."""
        kern = instance.kernel
        levels = graph_levels(instance.dag)
        mean = kern.weights("mean")
        pos = kern.pos
        return sorted(kern.tasks, key=lambda t: (levels[t], -mean[t], pos[t]))
