"""Differential suite for the compiled list-scheduling executor.

``repro.compiled`` gives every production scheduler a flat-array cold
path (``CompiledInstance.schedule_list`` / ``schedule_dls`` /
``schedule_improved``).  The object path through
:class:`~repro.schedule.schedule.Schedule` is the specification; this
suite asserts the compiled executor reproduces it *bit for bit* — full
JSON payloads, not just makespans — across the seeded differential
population (uniform and per-link machines) and on a custom model that
defines only ``link()``, and that every instance routes through the
executor, traced or not.  The reference engine is reached through the
test-side ``tests/object_path.py`` helper.
"""

from __future__ import annotations

import json

import pytest

from repro import compiled
from repro.compiled import CompiledInstance, compile_instance
from repro.dag.generators import random_dag
from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.schedule.validation import validate
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import ROUTED, object_path, routed_insertion_off
from tests.population import OpaqueCommunication, build_population, random_instance_on


@pytest.fixture(scope="module")
def population():
    return build_population()


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


def test_full_corpus_payloads_bit_identical(population):
    """Compiled vs object path over the whole population, all routed
    schedulers, comparing the complete serialized payload (placements,
    duplicates, makespan — everything a service response carries)."""
    for label, inst in population:
        for alg in ROUTED:
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with object_path():
                ref = scheduler.schedule(inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_three_way_equivalence_on_slice(population):
    """Compiled == compiled under a tracer == object path on a corpus
    slice, for every routed scheduler."""
    from repro.obs import Tracer, use_tracer

    for label, inst in population[::7]:
        for alg in ROUTED:
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_tracer(Tracer(name="t")):
                traced = scheduler.schedule(inst)
            with object_path():
                ref = scheduler.schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(traced, inst, alg), (label, alg)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_duplication_schedules_materialize_duplicates(population):
    """IMP duplication actually fires somewhere on the corpus and the
    compiled path reproduces the duplicate placements exactly."""
    total_dups = 0
    for label, inst in population[::5]:
        fast = get_scheduler("IMP").schedule(inst)
        with object_path():
            ref = get_scheduler("IMP").schedule(inst)
        assert fast.num_duplicates() == ref.num_duplicates(), label
        total_dups += fast.num_duplicates()
    assert total_dups > 0, "duplication never fired; corpus slice too easy"


def _instance_on(comm, seed: int = 3) -> Instance:
    from repro.machine.processor import Processor

    dag = random_dag(24, seed=seed)
    machine = Machine([Processor(id=i, speed=1.0) for i in range(3)], comm=comm, name="links")
    etc = generate_etc(dag, machine, heterogeneity=0.6, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def _link_comm() -> LinkCommunication:
    ids = [0, 1, 2]
    lat = {p: {q: 0.1 * (1 + (p + q) % 3) for q in ids if q != p} for p in ids}
    bw = {p: {q: 1.0 + ((p * 7 + q) % 5) for q in ids if q != p} for p in ids}
    return LinkCommunication(ids, lat, bw)


def test_per_link_and_custom_comm_compile():
    """Per-link machines and a custom model that defines only ``link()``
    both lower and route through the executor with no fallback counted,
    and every routed scheduler's payload equals the reference engine's."""
    for comm in (_link_comm(), OpaqueCommunication()):
        inst = _instance_on(comm)
        assert isinstance(compile_instance(inst), CompiledInstance)
        before = compiled.schedule_counters()
        for alg in ROUTED:
            fast = get_scheduler(alg).schedule(inst)
            with object_path():
                ref = get_scheduler(alg).schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (comm, alg)
        after = compiled.schedule_counters()
        built = ("list_schedules", "dls_schedules", "improved_passes")
        assert sum(after[k] - before[k] for k in built) >= len(ROUTED), comm
        assert after["fallbacks"] == before["fallbacks"] == 0, comm


def test_executor_counters_increment(population):
    _, inst = population[0]
    compiled.reset_schedule_counters()
    get_scheduler("HEFT").schedule(inst)
    get_scheduler("DLS").schedule(inst)
    get_scheduler("IMP").schedule(inst)
    counts = compiled.schedule_counters()
    assert counts["list_schedules"] >= 1
    assert counts["dls_schedules"] >= 1
    assert counts["improved_passes"] >= 1


def test_routing_enabled_under_tracer(population):
    """Traced runs take the compiled executor too: each routed scheduler
    shows up in ``schedule_counters()`` and returns the untraced payload,
    with its phase spans and no per-task spans."""
    from repro.obs import Tracer, use_tracer

    kinds = {"DLS": "dls_schedules", "IMP": "improved_passes",
             "LA-HEFT": "improved_passes", "DUP-HEFT": "improved_passes"}
    for label, inst in (population[0], population[-1]):  # uniform, per-link
        for alg in ROUTED:
            plain = get_scheduler(alg).schedule(inst)
            tracer = Tracer(name="t")
            before = compiled.schedule_counters()
            with use_tracer(tracer):
                assert compile_instance(inst) is not None
                traced = get_scheduler(alg).schedule(inst)
            after = compiled.schedule_counters()
            kind = kinds.get(alg, "list_schedules")
            assert after[kind] > before[kind], (label, alg)
            assert after["fallbacks"] == before["fallbacks"], (label, alg)
            assert _payload(traced, inst, alg) == _payload(plain, inst, alg), (label, alg)
            names = {s["name"] for s in tracer.spans()}
            assert "sched.insert" not in names, (label, alg)
            if alg not in ("LA-HEFT", "DUP-HEFT"):
                assert {"sched.run", "sched.rank", "sched.place"} <= names, (label, alg)


def test_insertion_off_matches_object_path(population):
    """The non-insertion policy (ablation path) replays end-append
    placement identically, for the list, improved and single-pass
    engine schedulers."""
    for label, inst in population[::9]:
        for alg, scheduler in routed_insertion_off():
            fast = scheduler.schedule(inst)
            with object_path():
                ref = scheduler.schedule(inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


# ----------------------------------------------------------------------
# the list-pass contract: two entry points, one pass
# ----------------------------------------------------------------------
#: Zero-cost machines (the ``Machine`` default) are not in the corpus,
#: which is all uniform or per-link; these add them.
ZERO_COMM = [(f"zero-{seed}", random_instance_on("zero", 20, 4, 2.0, 0.8, seed))
             for seed in range(4)]


@pytest.mark.parametrize("policy", ["eft", "est"])
@pytest.mark.parametrize("insertion", [True, False], ids=["insert", "append"])
def test_schedule_onto_on_empty_timelines_is_schedule_list(population, insertion, policy):
    """``schedule_onto`` with empty seeds, release 0 and no ETC scale
    returns what ``schedule_list`` returns, float for float, on zero,
    uniform and per-link machines; an all-ones scale changes nothing.
    Each entry point counts under its own key."""
    for label, inst in population + ZERO_COMM:
        ci = compile_instance(inst)
        order = ci.order.tolist()
        empty = [[]] * ci.q
        before = compiled.schedule_counters()
        ref = ci.schedule_list(order, insertion=insertion, policy=policy)
        mid = compiled.schedule_counters()
        runs = [ci.schedule_onto(order, empty, empty, insertion=insertion, policy=policy),
                ci.schedule_onto(order, empty, empty, insertion=insertion, policy=policy,
                                 etc_scale=[1.0] * ci.n)]
        after = compiled.schedule_counters()
        for got in runs:
            assert (got.start, got.darg, got.proc, got.makespan) == (
                ref.start, ref.darg, ref.proc, ref.makespan), label
        assert mid["list_schedules"] == before["list_schedules"] + 1, label
        assert mid["online_schedules"] == before["online_schedules"], label
        assert after["online_schedules"] == mid["online_schedules"] + 2, label
        assert after["list_schedules"] == mid["list_schedules"], label


def test_list_pass_rejections(population):
    """An unknown policy is a ``SchedulingError`` on both entry points,
    and so are busy lists for the wrong number of processors; a rejected
    call counts no schedule."""
    _, inst = population[0]
    ci = compile_instance(inst)
    order = ci.order.tolist()
    empty = [[]] * ci.q
    before = compiled.schedule_counters()
    with pytest.raises(SchedulingError, match="unknown placement policy 'lst'"):
        ci.schedule_list(order, policy="lst")
    with pytest.raises(SchedulingError, match="unknown placement policy 'lst'"):
        ci.schedule_onto(order, empty, empty, policy="lst")
    short = f"busy lists cover {ci.q - 1} processors, machine has {ci.q}"
    with pytest.raises(SchedulingError, match=short):
        ci.schedule_onto(order, empty[1:], empty[1:])
    with pytest.raises(SchedulingError, match="busy lists cover"):
        ci.schedule_onto(order, empty, empty + [[]])
    assert compiled.schedule_counters() == before
