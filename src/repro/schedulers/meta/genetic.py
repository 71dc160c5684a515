"""Genetic-algorithm scheduler over the assignment space."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.heft import HEFT
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from repro.utils.rng import SeedLike, as_generator


class GeneticScheduler(Scheduler):
    """Steady-state GA: tournament selection, uniform crossover,
    per-gene mutation, elitism; HEFT's assignment seeds the population.

    A chromosome is the processor index per task (in a fixed task
    order); fitness is the decoded makespan.  Deterministic per seed.
    """

    def __init__(
        self,
        population: int = 24,
        generations: int = 30,
        tournament: int = 3,
        mutation_rate: float = 0.03,
        elitism: int = 2,
        seed: SeedLike = 0,
    ) -> None:
        if population < 2:
            raise ConfigurationError(f"population must be >= 2, got {population}")
        if generations < 0:
            raise ConfigurationError(f"generations must be >= 0, got {generations}")
        if tournament < 1 or tournament > population:
            raise ConfigurationError("tournament must be in [1, population]")
        if not (0.0 <= mutation_rate <= 1.0):
            raise ConfigurationError("mutation_rate must be in [0, 1]")
        if not (0 <= elitism < population):
            raise ConfigurationError("elitism must be in [0, population)")
        self.population = population
        self.generations = generations
        self.tournament = tournament
        self.mutation_rate = mutation_rate
        self.elitism = elitism
        self._seed = seed
        self.name = "GA"

    def schedule(self, instance: Instance) -> Schedule:
        rng = as_generator(self._seed)
        order = rank_order(instance)
        tasks = list(order)
        procs = instance.machine.proc_ids()
        q = len(procs)
        n = len(tasks)
        proc_index = {p: j for j, p in enumerate(procs)}

        seed_schedule = HEFT().schedule(instance)
        if q == 1 or n == 0 or self.generations == 0:
            return seed_schedule

        def genome_to_assignment(genome: np.ndarray) -> dict:
            return {t: procs[int(g)] for t, g in zip(tasks, genome)}

        # Fitness goes through the compiled flat-array core
        # (bit-identical makespans, so the search trajectory is the
        # object decoder's); only the final winner is ever materialised
        # as a real Schedule.
        compiled = instance.kernel.compiled()

        heft_genome = np.array(
            [proc_index[seed_schedule.proc_of(t)] for t in tasks], dtype=np.int64
        )
        pop = [heft_genome.copy()]
        while len(pop) < self.population:
            pop.append(rng.integers(0, q, size=n))
        spans = compiled.decode_batch(np.stack(pop))

        for _ in range(self.generations):
            ranked = np.argsort(spans, kind="stable")
            new_pop = [pop[i].copy() for i in ranked[: self.elitism]]
            while len(new_pop) < self.population:
                # Tournament selection of two parents.
                parents = []
                for _k in range(2):
                    contenders = rng.integers(0, self.population, size=self.tournament)
                    parents.append(pop[int(contenders[np.argmin(spans[contenders])])])
                # Uniform crossover + mutation.
                mask = rng.random(n) < 0.5
                child = np.where(mask, parents[0], parents[1])
                mutate = rng.random(n) < self.mutation_rate
                if mutate.any():
                    child = child.copy()
                    child[mutate] = rng.integers(0, q, size=int(mutate.sum()))
                new_pop.append(child)
            pop = new_pop
            spans = compiled.decode_batch(np.stack(pop))

        best = pop[int(np.argmin(spans))]
        result = decode_assignment(
            instance, genome_to_assignment(best), order, name=f"{self.name}:{instance.name}"
        )
        if result.makespan > seed_schedule.makespan + 1e-9:
            return seed_schedule  # elitism should prevent this; belt & braces
        return result
