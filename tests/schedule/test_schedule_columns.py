"""Differential suite: column-born schedules against add()-built twins.

:meth:`CompiledInstance.materialize` hands a compiled result to
:meth:`Schedule.from_columns` without building a placement object; the
object view (``ScheduledTask``, ``Slot``, ``Timeline``) is built only
when a caller uses the object API.  :func:`_add_built` keeps the
materialisation it replaced — every placement through ``Schedule.add``
with the executor's exact duration argument — as the reference.

For every line-up schedule of the shared corpus (``tests/population.py``)
and of 100-200-task uniform, ring, mesh, grid and custom-comm instances,
the column-born schedule and its twin must agree field for field on the
object API, give byte-identical response payloads on both wire formats,
and give the violation lists of ``tests/validation_reference.py``.  The
object-only schedulers TDS (which duplicates) and ETF build their
schedules through ``add()`` on the sweep-size instances; their
column-born twin is ``Schedule.from_columns(machine, schedule.columns())``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.compiled import CompiledInstance
from repro.dag.generators import random_dag
from repro.exceptions import ScheduleError, UnknownProcessorError
from repro.instance import Instance, make_instance
from repro.machine.cluster import Machine
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.machine.profiles import compute_grid
from repro.machine.topology import mesh_machine, ring_machine
from repro.schedule.schedule import Schedule, ScheduleColumns
from repro.schedule.validation import violations
from repro.schedulers.registry import get_scheduler
from repro.service import wire
from repro.service.protocol import schedule_payload
from repro.utils.encoding import encode_id
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
                         avg_cost=10.0, seed=900 + k)
        out.append((f"uniform-{size}", make_instance(dag, num_procs=8, seed=k)))
    for k, machine in enumerate((ring_machine(8), mesh_machine(2, 4), compute_grid(2, 4))):
        dag = random_dag(100 + 50 * k, shape=1.0, out_degree=4, ccr=1.0,
                         avg_cost=10.0, seed=910 + k)
        etc = generate_etc(dag, machine, heterogeneity=0.5, seed=k)
        out.append((f"{machine.name}-{dag.num_tasks}", Instance(dag=dag, machine=machine, etc=etc)))
    dag = random_dag(120, shape=1.0, out_degree=4, ccr=1.0, avg_cost=10.0, seed=920)
    machine = Machine([Processor(id=i, speed=1.0) for i in range(4)],
                      comm=OpaqueCommunication(), name="opaque")
    out.append(("opaque-120", Instance(dag=dag, machine=machine,
                                       etc=generate_etc(dag, machine, seed=3))))
    return out


def _add_built(ci: CompiledInstance, result, machine, name: str) -> Schedule:
    """The pre-column materialisation: primaries in canonical task order,
    then the duplicates, each through ``Schedule.add`` (overlap-checked)
    with the duration argument the executor recorded."""
    schedule = Schedule(machine, name=name)
    for t in range(ci.n):
        schedule.add(ci.tasks[t], ci.procs[result.proc[t]], result.start[t], result.darg[t])
    for dt, dj, ds, dd in result.dups:
        schedule.add(ci.tasks[dt], ci.procs[dj], ds, dd, duplicate=True)
    return schedule


@pytest.fixture(scope="module")
def twins():
    """``(label, instance, alg, column_born, add_built, rebuild)`` per
    line-up schedule; ``rebuild()`` returns a fresh pair to mutate."""
    captured = []
    real = CompiledInstance.materialize

    def capture(self, result, machine, name):
        captured.append((self, result, machine, name))
        return real(self, result, machine, name)

    out = []
    runs = [(label, inst, LINEUP) for label, inst in build_population()]
    runs += [(label, inst, LINEUP + OBJECT_ONLY) for label, inst in _sweep_instances()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CompiledInstance, "materialize", capture)
        for label, inst, algs in runs:
            for alg in algs:
                captured.clear()
                schedule = get_scheduler(alg).schedule(inst)
                if captured:
                    assert len(captured) == 1, (label, alg)
                    args = captured[0]

                    def rebuild(args=args):
                        return real(*args), _add_built(*args)

                    out.append((f"{label}/{alg}", inst, alg, schedule, _add_built(*args), rebuild))
                else:
                    # An object-only scheduler built through add().
                    def rebuild(inst=inst, alg=alg):
                        built = get_scheduler(alg).schedule(inst)
                        return Schedule.from_columns(inst.machine, built.columns(), built.name), built

                    born = Schedule.from_columns(inst.machine, schedule.columns(), schedule.name)
                    out.append((f"{label}/{alg}", inst, alg, born, schedule, rebuild))
    return out


def _payload_bytes(schedule: Schedule, inst: Instance, alg: str) -> tuple[str, bytes]:
    payload = schedule_payload(schedule, inst, alg)
    return json.dumps(payload), wire.encode_payload(payload)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_corpus_covers_compiled_and_custom_schedules(twins):
    custom = [label for label, *_ in twins if label.startswith("opaque")]
    added = [born for _, _, alg, born, _, _ in twins if alg in OBJECT_ONLY]
    assert len(twins) >= 67 * len(LINEUP)
    assert len(custom) == len(LINEUP) + len(OBJECT_ONLY)
    assert len(added) == 7 * len(OBJECT_ONLY)
    assert sum(born.num_duplicates() for born in added) > 0
    assert sum(born.num_duplicates() for _, _, _, born, _, _ in twins) > 0


def test_reads_go_through_the_columns_alone(twins):
    """Validation, the payload and the makespan never build the object
    view of a column-born schedule: that is the whole saving."""
    for label, inst, alg, born, _, rebuild in twins:
        if alg in OBJECT_ONLY:
            continue
        fresh, _ = rebuild()
        assert violations(fresh, inst) == []
        schedule_payload(fresh, inst, alg)
        assert fresh.makespan == born.makespan
        assert fresh._timelines is None, label


def test_object_api_matches_the_add_built_twin(twins):
    for label, inst, _, born, twin, _ in twins:
        assert born.columns() == twin.columns(), label
        assert _same_float(born.makespan, twin.makespan), label
        assert len(born) == len(twin) == inst.num_tasks, label
        assert list(born.tasks()) == list(twin.tasks()), label
        assert born.all_placements() == twin.all_placements(), label
        for task in inst.dag.tasks():
            assert born.entry(task) == twin.entry(task), (label, task)
            assert born.copies(task) == twin.copies(task), (label, task)
        for proc in inst.machine.proc_ids():
            assert born.proc_entries(proc) == twin.proc_entries(proc), (label, proc)
            ours, theirs = born.timeline(proc), twin.timeline(proc)
            assert ours.slots() == theirs.slots(), (label, proc)
            assert _same_float(ours.end_time, theirs.end_time), (label, proc)
            assert ours.gaps() == theirs.gaps(), (label, proc)
        assert born.assignment() == twin.assignment(), label
        assert born.procs_used() == twin.procs_used(), label
        assert born.num_duplicates() == twin.num_duplicates(), label
        assert born.gantt() == twin.gantt(), label


def _reference_records(schedule: Schedule) -> list[dict]:
    """The payload's placement records as the object walker built them."""
    return [
        {"task": encode_id(p.task), "proc": encode_id(p.proc), "start": p.start,
         "end": p.end, "duplicate": p.duplicate}
        for p in sorted(
            schedule.all_placements(), key=lambda p: (p.start, str(p.proc), str(p.task))
        )
    ]


def test_payloads_are_byte_identical_on_both_wires(twins):
    for label, inst, alg, born, twin, _ in twins:
        assert _payload_bytes(born, inst, alg) == _payload_bytes(twin, inst, alg), label
        records = schedule_payload(born, inst, alg)["placements"]
        assert json.dumps(records) == json.dumps(_reference_records(twin)), label


def test_violations_match_the_reference(twins):
    for label, inst, _, born, twin, _ in twins:
        assert violations(born, inst) == violations(twin, inst) == [], label
        assert reference_violations(born, inst) == [], label


def test_perturbed_columns_give_the_reference_messages(twins):
    """Column-born schedules with shifted starts and stretched ends (the
    builder allows overlaps): the column validator must report exactly
    what the object-walking reference reports."""
    rng = np.random.default_rng(11)
    flagged = 0
    for label, inst, _, born, _, _ in twins[::3]:
        task, proc, start, end, duplicate = born.columns()
        start, end = list(start), list(end)
        for i in range(len(start)):
            if rng.random() < 0.2:
                width = end[i] - start[i]
                start[i] = max(0.0, start[i] + float(rng.uniform(-3.0, 3.0)))
                end[i] = start[i] + width * float(rng.choice([1.0, 0.5, 1.5]))
        mutant = Schedule.from_columns(
            inst.machine, ScheduleColumns(task, proc, start, end, duplicate), born.name
        )
        found = violations(mutant, inst)
        assert found == reference_violations(mutant, inst), label
        flagged += bool(found)
    assert flagged >= 0.9 * len(twins[::3])


def test_mutations_show_in_the_next_violations_and_payload(twins):
    """Add a duplicate, remove a primary, restore it, drop the duplicate:
    after each step the column-born schedule reads like its add()-built
    twin, and its violations like the reference's."""
    rng = np.random.default_rng(5)
    checked = 0
    for label, inst, alg, _, _, rebuild in twins[::7]:
        born, twin = rebuild()
        payload = _payload_bytes(born, inst, alg)
        assert violations(born, inst) == []
        tasks = list(inst.dag.tasks())
        procs = inst.machine.proc_ids()
        gone = tasks[int(rng.integers(len(tasks)))]
        extra = tasks[int(rng.integers(len(tasks)))]
        proc = procs[int(rng.integers(len(procs)))]
        primary = born.entry(gone)
        start = born.timeline(proc).end_time
        dups = born.num_duplicates()
        steps = [
            lambda s: s.add(extra, proc, start, inst.exec_time(extra, proc), duplicate=True),
            lambda s: s.remove(gone),
            lambda s: s.add(gone, primary.proc, primary.start, primary.end - primary.start),
            lambda s: s.remove_duplicate(extra, proc),
        ]
        for step, mutate in enumerate(steps):
            for schedule in (born, twin):
                mutate(schedule)
            found = violations(born, inst)
            assert found == violations(twin, inst) == reference_violations(born, inst), (label, step)
            assert (f"task {gone!r} is not scheduled" in found) == (step == 1), (label, step)
            before, payload = payload, _payload_bytes(born, inst, alg)
            assert payload != before and payload == _payload_bytes(twin, inst, alg), (label, step)
            assert born.columns() == twin.columns(), (label, step)
            assert born.num_duplicates() == twin.num_duplicates() == dups + (step < 3), label
        checked += 1
    assert checked >= 60


# ----------------------------------------------------------------------
# the column builder checks what add() checks
# ----------------------------------------------------------------------
def _cols(**change) -> ScheduleColumns:
    base = dict(task=["a", "b", "a"], proc=[0, 1, 1], start=[0.0, 0.0, 2.0],
                end=[2.0, 1.0, 4.0], duplicate=[False, False, True])
    base.update(change)
    return ScheduleColumns(**base)


def test_from_columns_keeps_a_valid_schedule():
    schedule = Schedule.from_columns(Machine.homogeneous(2), _cols(), name="ok")
    assert schedule.makespan == 4.0 and schedule.num_duplicates() == 1
    assert [p.task for p in schedule.copies("a")] == ["a", "a"]
    assert schedule.name == "ok"


@pytest.mark.parametrize("change, message", [
    (dict(end=[2.0, 1.0, 1.0]), "invalid placement of 'a'"),
    (dict(start=[-1.0, 0.0, 2.0]), "invalid placement of 'a'"),
    (dict(start=[0.0, float("nan"), 2.0]), "invalid placement of 'b'"),
    (dict(end=[2.0, float("nan"), 4.0]), "invalid placement of 'b'"),
    (dict(duplicate=[False, True, False]), "duplicate before a primary"),
    (dict(task=["a", "a", "a"]), "two primary placements"),
    (dict(proc=[0, 1]), "differ in length"),
])
def test_from_columns_rejects_what_add_rejects(change, message):
    with pytest.raises(ScheduleError, match=message):
        Schedule.from_columns(Machine.homogeneous(2), _cols(**change))


def test_from_columns_rejects_an_unknown_processor():
    with pytest.raises(UnknownProcessorError):
        Schedule.from_columns(Machine.homogeneous(2), _cols(proc=[0, 5, 1]))


def test_from_columns_rejects_split_duplicates():
    cols = ScheduleColumns(["a", "b", "a", "b", "a"], [0, 1, 1, 0, 0],
                           [0.0, 0.0, 2.0, 3.0, 5.0], [1.0, 1.0, 3.0, 4.0, 6.0],
                           [False, False, True, True, True])
    with pytest.raises(ScheduleError, match="split"):
        Schedule.from_columns(Machine.homogeneous(2), cols)


def test_a_fresh_schedule_reads_empty_columns():
    schedule = Schedule(Machine.homogeneous(2))
    assert schedule.columns() == ScheduleColumns([], [], [], [], [])
    assert schedule.makespan == 0.0 and len(schedule) == 0
