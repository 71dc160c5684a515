"""Test-side switch onto the object-level reference engine.

Every instance lowers into the compiled executor, and every production
scheduler runs there.  The differential reference it is checked against
is :class:`ObjectEngine`: the executor's entry points run over real
:class:`~repro.schedule.schedule.Schedule` objects through the public
object primitives ``eft_placement``/``est_placement``/``placement_on``
(a pinned task: ``decode_assignment``, and with it clustering, the naive
baselines, OPT-BB's result and the GA/SA decode, reach this engine's
:meth:`ObjectEngine.schedule_list`), the object placement engine and
refinement sweep of ``tests/placement_reference.py``
(``PlacementEngine.place`` and ``refine_schedule`` run on the executor
too, so they reach these through :meth:`ObjectEngine.place_task` and
:meth:`ObjectEngine.refine` here) and DLS's dynamic-level pairing
loop.  :func:`object_path` makes ``InstanceKernel.compiled()`` hand
every scheduler that engine instead, so the schedulers run unchanged
and both engines see identical orders, ranks and pins.  The
benchmarks import it the same way they import ``tests.population``.
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
)
from repro.instance import Instance
from repro.kernels import InstanceKernel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import eft_placement, est_placement, placement_on
from repro.schedulers.heft import HEFT
from tests.placement_reference import ReferencePlacementEngine, reference_refine_schedule

#: Every scheduler the compiled executor serves; the HEFT variants
#: cover all four rank aggregations.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT"]

#: Schedulers whose order and processors are fixed before placement
#: starts: LMT's EFT list pass, and clustering and the naive baselines
#: through ``decode_assignment``'s pinned pass.  They run on the
#: executor too, but ``decode_assignment`` opens no ``sched.place``
#: span, so they are listed apart from ``ROUTED``.
FIXED_ORDER = ["LMT", "DSC", "LC", "RoundRobin", "Random"]


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


class ObjectResult:
    """One object-engine pass: its :class:`Schedule`, plus the work
    counts a traced scheduler reads off a compiled result (``pruned``,
    ``planned``, ``walked``), which the object engine does not keep and
    reports as 0."""

    pruned = planned = walked = 0

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


class ObjectEngine:
    """:class:`~repro.compiled.CompiledInstance`'s scheduling entry points
    over real schedules.  Each pass returns an :class:`ObjectResult`,
    whose :class:`Schedule` :meth:`materialize` names and hands back."""

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

    def schedule_list(self, order, *, insertion=True, policy="eft", pinned=None) -> ObjectResult:
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
        return ObjectResult(schedule)

    def schedule_dls(self, sl: Sequence[float], wstar: Sequence[float]) -> ObjectResult:
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
        return ObjectResult(schedule)

    def schedule_improved(
        self, order, ranks, *, lookahead, duplication, insertion, refinement,
        refinement_rounds, max_duplications_per_task=3,
    ) -> ObjectResult:
        """:meth:`place_task` per task, then :meth:`refine`."""
        rank = dict(zip(self.tasks, ranks))
        schedule = Schedule(self.instance.machine)
        for t in order:
            self.place_task(schedule, self.tasks[t], rank, lookahead=lookahead,
                            duplication=duplication, insertion=insertion,
                            max_duplications_per_task=max_duplications_per_task)
        if refinement:
            self.refine(schedule, refinement_rounds)
        return ObjectResult(schedule)

    def place_task(self, schedule, task, ranks, *, lookahead, duplication, insertion,
                   max_duplications_per_task=3):
        """``PlacementEngine.place``: the reference engine's ``place``."""
        engine = ReferencePlacementEngine(
            lookahead=lookahead, duplication=duplication, insertion=insertion,
            max_duplications_per_task=max_duplications_per_task)
        return engine.place(schedule, self.instance, task, ranks)

    def refine(self, schedule, max_rounds) -> int:
        """``refine_schedule``: the reference refinement sweep."""
        return reference_refine_schedule(schedule, self.instance, max_rounds)

    def materialize(self, result: ObjectResult, machine, name: str) -> Schedule:
        result.schedule.name = name
        return result.schedule

    # -- the GA/SA decoder: decode-order genomes, every task pinned
    def genome_of(self, assignment: Mapping) -> np.ndarray:
        return np.array([self._pi[assignment[t]] for t in self._order], dtype=np.int64)

    def assignment_of(self, genome: Sequence[int]) -> dict:
        return {t: self.procs[int(g)] for t, g in zip(self._order, genome)}

    def _decode(self, assignment) -> Schedule:
        """``decode_assignment``'s pinned list pass in the decode order,
        on this engine whether or not :func:`object_path` is active."""
        if not isinstance(assignment, Mapping):
            assignment = self.assignment_of(assignment)
        pinned = [-1] * len(self.tasks)
        for t in self._order:
            pinned[self._ti[t]] = self._pi[assignment[t]]
        return self.schedule_list(self.order_indices(self._order), pinned=pinned).schedule

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
