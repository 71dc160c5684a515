"""DUP-HEFT: HEFT priorities with idle-slot parent duplication only.

Isolates improvement (3) of the contribution — selective duplication in
the spirit of the authors' earlier BTDH work — for the ablation bench.
Unlike whole-chain duplication (TDS), a parent is copied onto a
processor only when re-running it locally strictly beats waiting for the
data transfer, so duplication can only ever lower a task's EFT.
"""

from __future__ import annotations

from repro.core.placement import PlacementEngine
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.ranking import RankAggregation


class DuplicationScheduler(Scheduler):
    """HEFT order + selective parent duplication (no lookahead)."""

    def __init__(self, agg: RankAggregation = "mean", max_duplications_per_task: int = 3) -> None:
        self.agg = agg
        self.name = "DUP-HEFT"
        self._engine = PlacementEngine(
            lookahead=False,
            duplication=True,
            max_duplications_per_task=max_duplications_per_task,
        )

    def schedule(self, instance: Instance) -> Schedule:
        return self._engine.heft_pass(instance, self.agg, self.name)
