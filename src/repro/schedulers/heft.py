"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

The reference baseline of the genre and the algorithm the target paper
improves on: tasks are prioritised by decreasing upward rank and placed
on the processor giving the earliest (insertion-based) finish time.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedulers.base import ListScheduler
from repro.schedulers.ranking import RankAggregation, upward_ranks
from repro.types import TaskId


class HEFT(ListScheduler):
    """Classic HEFT with insertion-based earliest-finish placement.

    Parameters
    ----------
    agg:
        How heterogeneous execution times are averaged in the upward
        rank.  ``"mean"`` is the published algorithm; other values give
        the well-known rank variants.
    insertion:
        Keep the published idle-gap insertion (default) or disable it.
    """

    compiled_policy = "eft"

    def __init__(self, agg: RankAggregation = "mean", insertion: bool = True) -> None:
        self.agg = agg
        self.insertion = insertion
        suffix = "" if agg == "mean" else f"-{agg}"
        self.name = f"HEFT{suffix}" if insertion else f"HEFT{suffix}-noins"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        with get_tracer().span("heft.rank_u", agg=self.agg):
            ranks = upward_ranks(instance, self.agg)
        pos = instance.kernel.pos
        # Decreasing upward rank is a valid topological order because a
        # parent's rank strictly exceeds each child's (w > 0); the
        # topological position tie-break also keeps zero-cost chains legal.
        return sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))
