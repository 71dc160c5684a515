"""Test-side switch onto the object-level reference engine.

Every instance lowers into the compiled executor, and every production
scheduler runs there.  The differential reference it is checked against
is :class:`ObjectEngine`: the executor's entry points run over real
:class:`~repro.schedule.schedule.Schedule` objects through the public
object primitives — ``eft_placement``/``est_placement``/``placement_on``,
``PlacementEngine.place``, ``refine_schedule`` and ``decode_assignment``
— plus DLS's dynamic-level pairing loop.  :func:`object_path` makes
``InstanceKernel.compiled()`` hand every scheduler that engine instead,
so the schedulers run unchanged and both engines see identical orders,
ranks and pins.  The benchmarks import it the same way they import
``tests.population``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core import (
    DuplicationScheduler,
    ImprovedConfig,
    ImprovedScheduler,
    LookaheadScheduler,
    PlacementEngine,
    refine_schedule,
)
from repro.instance import Instance
from repro.kernels import InstanceKernel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import eft_placement, est_placement, placement_on
from repro.schedulers.heft import HEFT
from repro.schedulers.meta.decoder import decode_assignment

#: Every scheduler the compiled executor serves; the HEFT variants
#: cover all four rank aggregations.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT"]


def routed_insertion_off() -> list:
    """``(label, scheduler)`` for the insertion-off (end-append) variants
    of the routed schedulers that have an insertion switch."""
    out = [("HEFT-noinsert", HEFT(insertion=False)),
           ("IMP-noinsert", ImprovedScheduler(ImprovedConfig(insertion=False)))]
    for cls in (LookaheadScheduler, DuplicationScheduler):
        scheduler = cls()
        scheduler._engine.insertion = False
        out.append((f"{scheduler.name}-noinsert", scheduler))
    return out


class ObjectEngine:
    """:class:`~repro.compiled.CompiledInstance`'s scheduling entry points
    over real schedules.  Each pass returns its :class:`Schedule`, which
    :meth:`materialize` names and hands back."""

    def __init__(self, kernel: InstanceKernel) -> None:
        self.instance = Instance(dag=kernel.dag, machine=kernel.machine, etc=kernel.etc)
        # Share the lowered kernel: same memos, and no second lowering.
        self.instance.__dict__["kernel"] = kernel
        self.tasks = kernel.tasks
        self.procs = kernel.procs
        self._ti = kernel.ti
        self._pi = kernel.pi
        self._order = kernel.rank_order("mean")

    def order_indices(self, order: Sequence) -> list[int]:
        return [self._ti[t] for t in order]

    def schedule_list(self, order, *, insertion=True, policy="eft", pinned=None) -> Schedule:
        """EFT (or EST) placement in ``order``; a pinned task goes to its
        processor through ``placement_on``."""
        inst = self.instance
        place = est_placement if policy == "est" else eft_placement
        schedule = Schedule(inst.machine)
        for t in order:
            task = self.tasks[t]
            if pinned is not None and pinned[t] >= 0:
                proc = self.procs[pinned[t]]
                placed = placement_on(schedule, inst, task, proc, insertion=insertion)
            else:
                placed = place(schedule, inst, task, insertion=insertion)
            schedule.add(task, placed.proc, placed.start, placed.end - placed.start)
        return schedule

    def schedule_dls(self, sl: Sequence[float], wstar: Sequence[float]) -> Schedule:
        """The dynamic-level pairing loop: per step the (ready task,
        processor) pair minimising ``(-dl, pos, j)``, appended at
        ``max(ready, end_time)``.  A ready task's data-ready vector is
        fixed while it waits (DLS never moves a placement)."""
        inst = self.instance
        dag = inst.dag
        pos = inst.kernel.pos
        sl = dict(zip(self.tasks, sl))
        wstar = dict(zip(self.tasks, wstar))
        schedule = Schedule(inst.machine)
        indegree = {t: dag.in_degree(t) for t in dag.tasks()}
        ready = {t for t in dag.tasks() if indegree[t] == 0}
        ready_cache: dict = {}
        while ready:
            best = None  # ((neg_dl, pos, proc_index), task, proc, start)
            for task in ready:
                ready_vec = ready_cache.get(task)
                if ready_vec is None:
                    ready_vec = ready_cache[task] = inst.kernel.ready_times(schedule, task)
                for j, proc in enumerate(self.procs):
                    start = max(ready_vec[j], schedule.timeline(proc).end_time)
                    delta = wstar[task] - inst.exec_time(task, proc)
                    dl = sl[task] - start + delta
                    key = (-dl, pos[task], j)
                    if best is None or key < best[0]:
                        best = (key, task, proc, start)
            _, task, proc, start = best
            schedule.add(task, proc, start, inst.exec_time(task, proc))
            ready.discard(task)
            ready_cache.pop(task, None)
            for child in dag.successors(task):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.add(child)
        return schedule

    def schedule_improved(
        self, order, ranks, *, lookahead, duplication, insertion, refinement,
        refinement_rounds, max_duplications_per_task=3,
    ) -> Schedule:
        """``PlacementEngine.place`` per task, then ``refine_schedule``."""
        inst = self.instance
        engine = PlacementEngine(lookahead=lookahead, duplication=duplication,
                                 insertion=insertion,
                                 max_duplications_per_task=max_duplications_per_task)
        rank = dict(zip(self.tasks, ranks))
        schedule = Schedule(inst.machine)
        for t in order:
            engine.place(schedule, inst, self.tasks[t], rank)
        if refinement:
            refine_schedule(schedule, inst, max_rounds=refinement_rounds)
        return schedule

    def materialize(self, result: Schedule, machine, name: str) -> Schedule:
        result.name = name
        return result

    # -- the GA/SA decoder: decode-order genomes through decode_assignment
    def genome_of(self, assignment: Mapping) -> np.ndarray:
        return np.array([self._pi[assignment[t]] for t in self._order], dtype=np.int64)

    def assignment_of(self, genome: Sequence[int]) -> dict:
        return {t: self.procs[int(g)] for t, g in zip(self._order, genome)}

    def _decode(self, assignment) -> Schedule:
        if not isinstance(assignment, Mapping):
            assignment = self.assignment_of(assignment)
        return decode_assignment(self.instance, assignment, self._order)

    def decode_span(self, genome: Sequence[int]) -> float:
        return self._decode(genome).makespan

    def decode_fast(self, assignment) -> tuple[float, np.ndarray, np.ndarray]:
        schedule = self._decode(assignment)
        starts = np.array([schedule.entry(t).start for t in self.tasks], dtype=float)
        procs = np.array([self._pi[schedule.proc_of(t)] for t in self.tasks], dtype=np.intp)
        return schedule.makespan, starts, procs

    def decode_batch(self, population) -> np.ndarray:
        return np.array([self.decode_span(g) for g in np.asarray(population).tolist()])


@contextmanager
def object_path() -> Iterator[None]:
    """Run everything inside the block on :class:`ObjectEngine`
    (process-wide)."""
    compiled = InstanceKernel.compiled
    InstanceKernel.compiled = lambda kernel: ObjectEngine(kernel)
    try:
        yield
    finally:
        InstanceKernel.compiled = compiled
