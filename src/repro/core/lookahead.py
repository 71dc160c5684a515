"""LA-HEFT: HEFT priorities with one-level lookahead placement only.

Isolates improvement (2) of the contribution so the ablation bench can
price it separately.
"""

from __future__ import annotations

from repro.core.placement import PlacementEngine
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.ranking import RankAggregation


class LookaheadScheduler(Scheduler):
    """HEFT order + lookahead processor selection (no duplication)."""

    def __init__(self, agg: RankAggregation = "mean") -> None:
        self.agg = agg
        self.name = "LA-HEFT"
        self._engine = PlacementEngine(lookahead=True, duplication=False)

    def schedule(self, instance: Instance) -> Schedule:
        return self._engine.heft_pass(instance, self.agg, self.name)
