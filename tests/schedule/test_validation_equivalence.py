"""Differential suite: the one-pass validator against its reference.

:func:`repro.schedule.validation.violations` groups the placements once
per task and per processor and prices every cost from the instance
kernel's tables; ``tests/validation_reference.py`` keeps the
per-processor, per-edge validator it replaced.  Both must return the
same messages in the same order on every line-up schedule of the shared
corpus (``tests/population.py``) and of sweep-size instances, on uniform,
per-link and custom-model machines, on the ``add()``-built schedules of
the object-only schedulers TDS (which duplicates) and ETF on the
sweep-size instances, and on mutated copies of those schedules: shifted
starts, wrong durations, starts and durations nudged either side of the
tolerances, a dropped task and an extra duplicate.  No mutated copy
puts two placements on one ``(processor, start, str(task))`` key, where
the reference's ``proc_entries`` used to drop one of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.dag.generators import fft_dag, random_dag
from repro.exceptions import UnknownProcessorError
from repro.instance import Instance, make_instance
from repro.machine.cluster import Machine
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.machine.profiles import compute_grid
from repro.machine.topology import mesh_machine, ring_machine
from repro.schedule.schedule import Schedule
from repro.schedule.validation import violations
from repro.schedulers.registry import get_scheduler
from tests.population import OpaqueCommunication, build_population
from tests.validation_reference import reference_violations

LINEUP = W.COMPARED
#: Schedulers with no compiled entry point: their schedules are add()-built.
OBJECT_ONLY = ("TDS", "ETF")


def _sweep_instances() -> list[tuple[str, Instance]]:
    """Sweep-size DAGs (100-200 tasks) on uniform, per-link and custom links."""
    out = []
    for k, size in enumerate((100, 150, 200)):
        dag = random_dag(size, shape=1.0, out_degree=4, ccr=(0.5, 1.0, 5.0)[k],
                         avg_cost=10.0, seed=700 + k)
        out.append((f"uniform-{size}", make_instance(dag, num_procs=8, seed=k)))
    for k, machine in enumerate((ring_machine(8), mesh_machine(2, 4), compute_grid(2, 4))):
        dag = random_dag(100 + 50 * k, shape=1.0, out_degree=4, ccr=1.0,
                         avg_cost=10.0, seed=800 + k)
        etc = generate_etc(dag, machine, heterogeneity=0.5, seed=k)
        out.append((f"{machine.name}-{dag.num_tasks}", Instance(dag=dag, machine=machine, etc=etc)))
    dag = fft_dag(16)
    machine = Machine([Processor(id=i, speed=1.0) for i in range(4)],
                      comm=OpaqueCommunication(), name="opaque")
    out.append(("opaque-fft", Instance(dag=dag, machine=machine,
                                       etc=generate_etc(dag, machine, seed=3))))
    return out


@pytest.fixture(scope="module")
def schedules():
    """``(label, instance, schedule)`` for every line-up schedule, plus the
    object-only schedulers' on the sweep-size instances."""
    runs = [(label, inst, LINEUP) for label, inst in build_population()]
    runs += [(label, inst, LINEUP + OBJECT_ONLY) for label, inst in _sweep_instances()]
    return [(f"{label}/{alg}", inst, get_scheduler(alg).schedule(inst))
            for label, inst, algs in runs for alg in algs]


def _rebuild(schedule: Schedule, change) -> Schedule:
    """Copy of ``schedule`` where ``change(placed)`` gives each placement's
    ``(proc, start, duration)``, or ``None`` to drop it.  Overlaps are
    allowed (``check=False``): the validator must report them."""
    out = Schedule(schedule.machine, name=schedule.name)
    for placed in schedule.all_placements():
        moved = change(placed)
        if moved is not None:
            proc, start, duration = moved
            out.add(placed.task, proc, start, duration, duplicate=placed.duplicate, check=False)
    return out


def _keys_unique(schedule: Schedule) -> bool:
    keys = [(p.proc, p.start, str(p.task)) for p in schedule.all_placements()]
    return len(set(keys)) == len(keys)


def _mutants(schedule: Schedule, instance: Instance, seed: int) -> dict[str, Schedule]:
    rng = np.random.default_rng(seed)
    tasks = list(instance.dag.tasks())
    procs = instance.machine.proc_ids()

    def shift(p):
        if rng.random() < 0.3:
            return p.proc, max(0.0, p.start + float(rng.uniform(-3.0, 3.0))), p.duration
        return p.proc, p.start, p.duration

    def stretch(p):
        if rng.random() < 0.2:
            return p.proc, p.start, p.duration * float(rng.uniform(0.5, 1.5))
        return p.proc, p.start, p.duration

    def nudge(p):
        # Start and duration errors either side of the 1e-6 tolerances.
        if rng.random() < 0.3:
            start = max(0.0, p.start - float(rng.choice([4e-7, 4e-6])) * max(1.0, p.start))
            return p.proc, start, p.duration * (1.0 + float(rng.choice([-4e-6, -4e-7, 4e-7, 4e-6])))
        return p.proc, p.start, p.duration

    dropped = tasks[int(rng.integers(len(tasks)))]
    out = {
        "shifted": _rebuild(schedule, shift),
        "stretched": _rebuild(schedule, stretch),
        "nudged": _rebuild(schedule, nudge),
        "dropped": _rebuild(
            schedule, lambda p: None if p.task == dropped else (p.proc, p.start, p.duration)
        ),
    }
    extra = _rebuild(schedule, lambda p: (p.proc, p.start, p.duration))
    task = tasks[int(rng.integers(len(tasks)))]
    proc = procs[int(rng.integers(len(procs)))]
    start = float(rng.uniform(0.0, max(schedule.makespan, 1.0)))
    extra.add(task, proc, start, instance.exec_time(task, proc), duplicate=True, check=False)
    out["extra-duplicate"] = extra
    return out


def test_line_up_schedules_give_the_reference_messages(schedules):
    assert len(schedules) >= 60 * len(LINEUP)
    added = [s for label, _, s in schedules if label.rsplit("/", 1)[1] in OBJECT_ONLY]
    assert len(added) == 7 * len(OBJECT_ONLY)
    assert sum(s.num_duplicates() for s in added) > 0
    for label, inst, schedule in schedules:
        assert violations(schedule, inst) == reference_violations(schedule, inst) == [], label


def test_mutated_schedules_give_the_reference_messages(schedules):
    compared = flagged = 0
    for n, (label, inst, schedule) in enumerate(schedules):
        for kind, mutant in _mutants(schedule, inst, seed=n).items():
            if not _keys_unique(mutant):
                continue
            found = violations(mutant, inst)
            assert found == reference_violations(mutant, inst), (label, kind)
            compared += 1
            flagged += bool(found)
    # Nearly every mutant is compared, and the mutations do break rules.
    assert compared >= 0.95 * 5 * len(schedules)
    assert flagged >= 0.75 * compared


def test_placement_on_a_processor_the_machine_lacks_raises_like_the_reference():
    # The ETC prices processor 2, so durations on it check out, but the
    # instance's machine lacks it: pricing a transfer from or to it must
    # raise as ``Instance.comm_time`` does.
    dag = random_dag(12, seed=4)
    wide = make_instance(dag, num_procs=3, seed=4)
    inst = Instance(dag=dag, machine=Machine.homogeneous(2), etc=wide.etc)
    schedule = get_scheduler("HEFT").schedule(wide)
    assert any(p.proc == 2 for p in schedule.all_placements())
    for check in (violations, reference_violations):
        with pytest.raises(UnknownProcessorError):
            check(schedule, inst)
