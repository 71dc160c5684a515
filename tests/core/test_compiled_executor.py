"""Differential suite for the compiled list-scheduling executor.

``repro.compiled`` gives every production scheduler a flat-array cold
path (``CompiledInstance.schedule_list`` / ``schedule_dls`` /
``schedule_improved``).  The object path through
:class:`~repro.schedule.schedule.Schedule` is the specification; this
suite asserts the compiled executor reproduces it *bit for bit* — full
JSON payloads, not just makespans — across the seeded differential
population (uniform and per-link machines), and that the routing layer
falls back to the object path exactly when it must (custom
communication models, tracing, kernels off).
"""

from __future__ import annotations

import json

import pytest

from repro import compiled
from repro.compiled import compile_instance, use_executor
from repro.dag.generators import random_dag
from repro.instance import Instance
from repro.kernels import use_kernels
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.schedule.validation import validate
from repro.schedulers.base import compiled_for
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.population import OpaqueCommunication, build_population

#: Every scheduler routed through the compiled executor.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT"]


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
            with use_executor(False):
                ref = scheduler.schedule(inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_three_way_equivalence_on_slice(population):
    """Compiled == object-with-kernels == fully scalar on a corpus
    slice (the scalar leg is slow, hence the slice)."""
    for label, inst in population[::7]:
        for alg in ("HEFT", "CPOP", "DLS", "IMP"):
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_executor(False):
                kernel_ref = scheduler.schedule(inst)
            with use_kernels(False):
                scalar_ref = scheduler.schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(kernel_ref, inst, alg), (label, alg)
            assert _payload(fast, inst, alg) == _payload(scalar_ref, inst, alg), (label, alg)


def test_duplication_schedules_materialize_duplicates(population):
    """IMP duplication actually fires somewhere on the corpus and the
    compiled path reproduces the duplicate placements exactly."""
    total_dups = 0
    for label, inst in population[::5]:
        fast = get_scheduler("IMP").schedule(inst)
        with use_executor(False):
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


def test_per_link_compiles_and_custom_comm_falls_back():
    """Per-link machines lower and route through the executor with no
    fallback counted, matching the fully scalar path; a custom
    communication model still gets ``None`` and is counted."""
    inst = _instance_on(_link_comm())
    assert compile_instance(inst) is not None
    before = compiled.schedule_counters()["fallbacks"]
    assert compiled_for(inst) is not None
    assert compiled.schedule_counters()["fallbacks"] == before
    for alg in ("HEFT", "CPOP", "DLS", "IMP", "LA-HEFT", "DUP-HEFT"):
        fast = get_scheduler(alg).schedule(inst)
        with use_kernels(False):
            ref = get_scheduler(alg).schedule(inst)
        validate(fast, inst)
        assert _payload(fast, inst, alg) == _payload(ref, inst, alg), alg

    custom = _instance_on(OpaqueCommunication())
    assert compile_instance(custom) is None
    assert compiled_for(custom) is None
    assert compiled.schedule_counters()["fallbacks"] == before + 1
    fast = get_scheduler("IMP").schedule(custom)
    with use_kernels(False):
        ref = get_scheduler("IMP").schedule(custom)
    assert _payload(fast, custom, "IMP") == _payload(ref, custom, "IMP")


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


def test_routing_disabled_under_tracer(population):
    """Traced runs must keep the object path (golden span shapes)."""
    from repro.obs import Tracer, use_tracer

    _, inst = population[0]
    with use_tracer(Tracer(name="t")):
        assert compiled_for(inst) is None


def test_routing_disabled_with_kernels_off(population):
    _, inst = population[0]
    with use_kernels(False):
        assert compiled_for(inst) is None
    with use_executor(False):
        assert compiled_for(inst) is None
    assert compiled_for(inst) is not None


def test_insertion_off_matches_object_path(population):
    """The non-insertion policy (ablation path) replays end-append
    placement identically."""
    from repro.core import ImprovedConfig, ImprovedScheduler

    cfg = ImprovedConfig(insertion=False)
    for label, inst in population[::9]:
        scheduler = ImprovedScheduler(cfg)
        fast = scheduler.schedule(inst)
        with use_executor(False):
            ref = ImprovedScheduler(cfg).schedule(inst)
        assert _payload(fast, inst, "IMP") == _payload(ref, inst, "IMP"), label
