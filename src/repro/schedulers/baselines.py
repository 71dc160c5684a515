"""Naive reference schedulers.

These are not from the literature's comparison tables; they exist to
anchor the experiments from below (any serious heuristic must clearly
beat them) and to exercise the substrate in tests.  Both draw their
whole assignment up front, in topological order, and place it through
:func:`~repro.schedulers.base.decode_assignment` in that order.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, decode_assignment
from repro.utils.rng import SeedLike, as_generator


class RoundRobinScheduler(Scheduler):
    """Topological order, processors assigned cyclically."""

    name = "RoundRobin"

    def schedule(self, instance: Instance) -> Schedule:
        order = instance.dag.topological_order()
        procs = instance.machine.proc_ids()
        assignment = {t: procs[k % len(procs)] for k, t in enumerate(order)}
        return decode_assignment(instance, assignment, order, f"{self.name}:{instance.name}")


class RandomScheduler(Scheduler):
    """Topological order, processor drawn uniformly at random.

    Deterministic for a given ``seed``; each :meth:`schedule` call
    re-derives its stream from the seed so repeated runs agree.
    """

    name = "Random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self._seed = seed

    def schedule(self, instance: Instance) -> Schedule:
        rng = as_generator(self._seed)
        order = instance.dag.topological_order()
        procs = instance.machine.proc_ids()
        assignment = {t: procs[int(rng.integers(0, len(procs)))] for t in order}
        return decode_assignment(instance, assignment, order, f"{self.name}:{instance.name}")
