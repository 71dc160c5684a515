"""Simulated-annealing scheduler over the assignment space."""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.heft import HEFT
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from repro.utils.rng import SeedLike, as_generator


class SimulatedAnnealingScheduler(Scheduler):
    """Simulated annealing seeded from the HEFT assignment.

    Neighbourhood: reassign one uniformly chosen task to a uniformly
    chosen other processor.  Cooling: geometric, with the initial
    temperature set from the HEFT makespan so acceptance behaviour is
    scale-free.  Deterministic for a given ``seed``.

    Parameters
    ----------
    iterations:
        Total neighbour evaluations (the scheduling-time budget).
    initial_temp_fraction:
        Initial temperature as a fraction of the seed makespan.
    cooling:
        Geometric cooling factor per iteration, in (0, 1).
    """

    def __init__(
        self,
        iterations: int = 600,
        initial_temp_fraction: float = 0.05,
        cooling: float = 0.995,
        seed: SeedLike = 0,
    ) -> None:
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        if not (0.0 < cooling < 1.0):
            raise ConfigurationError(f"cooling must be in (0, 1), got {cooling}")
        if initial_temp_fraction <= 0:
            raise ConfigurationError("initial_temp_fraction must be > 0")
        self.iterations = iterations
        self.initial_temp_fraction = initial_temp_fraction
        self.cooling = cooling
        self._seed = seed
        self.name = "SA"

    def schedule(self, instance: Instance) -> Schedule:
        rng = as_generator(self._seed)
        order = rank_order(instance)
        procs = instance.machine.proc_ids()
        tasks = list(instance.dag.tasks())

        seed_schedule = HEFT().schedule(instance)
        current = dict(seed_schedule.assignment())
        current_span = seed_schedule.makespan
        best = dict(current)
        best_span = current_span

        if len(procs) == 1 or not tasks:
            return seed_schedule

        # Neighbour evaluation runs on the compiled flat-array core
        # (bit-identical spans, so acceptance decisions — and therefore
        # the whole walk — are the object decoder's); the genome mirrors
        # ``current`` in decode order.
        compiled = instance.kernel.compiled()
        slot_of = {t: k for k, t in enumerate(order)}
        proc_index = {p: j for j, p in enumerate(procs)}
        genome = [proc_index[current[t]] for t in order]

        temp = self.initial_temp_fraction * max(current_span, 1e-12)
        for _ in range(self.iterations):
            task = tasks[int(rng.integers(0, len(tasks)))]
            old_proc = current[task]
            alternatives = [p for p in procs if p != old_proc]
            new_proc = alternatives[int(rng.integers(0, len(alternatives)))]
            current[task] = new_proc
            genome[slot_of[task]] = proc_index[new_proc]
            span = compiled.decode_span(genome)
            delta = span - current_span
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
                current_span = span
                if span < best_span - 1e-12:
                    best_span = span
                    best = dict(current)
            else:
                current[task] = old_proc
                genome[slot_of[task]] = proc_index[old_proc]
            temp *= self.cooling

        result = decode_assignment(
            instance, best, order, name=f"{self.name}:{instance.name}"
        )
        # The HEFT seed is a member of the searched space only if its
        # decode matches; guard the contract explicitly.
        if result.makespan > seed_schedule.makespan + 1e-9:
            return seed_schedule
        return result
