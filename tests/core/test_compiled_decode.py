"""Differential suite: the compiled flat-array decoder is behaviour-preserving.

:func:`repro.schedulers.meta.decoder.decode_assignment` run under
``object_path()`` (the object primitives, through the test-side
``tests/object_path.py`` helper) is the specification; outside it the
function runs the compiled pinned list pass.  Over the full
differential corpus (uniform and per-link machines) this suite checks
that :class:`repro.compiled.CompiledInstance` reproduces it
*bit-identically* — makespans, starts and processors — for HEFT-derived,
random and degenerate assignments, that ``decode_batch`` equals
per-genome decodes, and that the GA/SA schedulers are unchanged with the
compiled core on vs off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiled import CompiledInstance, compile_instance
from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.dag.generators import random_dag
from repro.schedule.schedule import Schedule
from repro.schedule.validation import validate
from repro.schedulers.heft import HEFT
from repro.schedulers.meta import GeneticScheduler, SimulatedAnnealingScheduler
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from tests.object_path import ObjectEngine, object_path
from tests.population import OpaqueCommunication, build_population


@pytest.fixture(scope="module")
def population():
    return build_population()


def _assignments(inst: Instance, compiled: CompiledInstance, trials: int, seed: int):
    """HEFT's assignment, two degenerate ones, and ``trials`` random genomes."""
    rng = np.random.default_rng(seed)
    n, q = compiled.n, compiled.q
    yield compiled.genome_of(HEFT().schedule(inst).assignment())
    yield np.zeros(n, dtype=np.int64)
    yield np.full(n, q - 1, dtype=np.int64)
    for _ in range(trials):
        yield rng.integers(0, q, size=n)


def test_population_is_large_enough(population):
    assert len(population) >= 50


def test_decode_fast_bit_identical_on_corpus(population):
    """Makespans AND full placements equal the object path, exactly."""
    for label, inst in population:
        compiled = compile_instance(inst)
        assert compiled is not None, label
        order = rank_order(inst)
        for genome in _assignments(inst, compiled, trials=5, seed=1234):
            with object_path():
                schedule = decode_assignment(inst, compiled.assignment_of(genome), order)
            span, starts, procs = compiled.decode_fast(genome)
            assert span == schedule.makespan, (label, genome)
            for i, task in enumerate(compiled.tasks):
                entry = schedule.entry(task)
                assert starts[i] == entry.start, (label, task)
                assert compiled.procs[procs[i]] == entry.proc, (label, task)


def _scalar_decode(inst: Instance, assignment, order) -> Schedule:
    """The insertion decoder re-derived from the ETC matrix, the
    machine's communication model and the DAG, with no kernel memos —
    the original specification."""
    schedule = Schedule(inst.machine)
    for task in order:
        proc = assignment[task]
        ready = 0.0
        for parent in inst.dag.predecessors(task):
            data = inst.dag.data(parent, task)
            arrival = min(
                c.end + inst.machine.comm_time(data, c.proc, proc)
                for c in schedule.copies(parent)
            )
            ready = max(ready, arrival)
        duration = inst.etc.time(task, proc)
        start = schedule.timeline(proc).find_slot(ready, duration, insertion=True)
        end = start + duration
        schedule.add(task, proc, start, end - start)
    return schedule


def test_decode_fast_matches_legacy_scalar_path(population):
    """The scalar decoder over the raw cost sources is the original
    specification."""
    for label, inst in population[::5]:
        compiled = compile_instance(inst)
        order = rank_order(inst)
        for genome in _assignments(inst, compiled, trials=3, seed=99):
            span, _, _ = compiled.decode_fast(genome)
            legacy = _scalar_decode(inst, compiled.assignment_of(genome), order)
            assert span == legacy.makespan, label


def test_decode_batch_equals_per_genome_decodes(population):
    rng = np.random.default_rng(7)
    for label, inst in population[::3]:
        compiled = compile_instance(inst)
        pop = rng.integers(0, compiled.q, size=(12, compiled.n))
        spans = compiled.decode_batch(pop)
        assert spans.shape == (12,)
        for row, span in zip(pop, spans):
            assert compiled.decode_fast(row)[0] == span, label


def test_mapping_and_genome_inputs_agree(population):
    label, inst = population[0]
    compiled = compile_instance(inst)
    genome = np.random.default_rng(3).integers(0, compiled.q, size=compiled.n)
    mapping = compiled.assignment_of(genome)
    assert compiled.decode_fast(mapping)[0] == compiled.decode_fast(genome)[0]
    assert np.array_equal(compiled.genome_of(mapping), genome)


def test_ga_and_sa_unchanged_with_compiled_core(population):
    """Full scheduler runs: identical placements with the compiled core
    vs the object-path decoder."""
    for label, inst in population[::13]:
        for make in (
            lambda s: GeneticScheduler(population=10, generations=5, seed=s),
            lambda s: SimulatedAnnealingScheduler(iterations=120, seed=s),
        ):
            fast = make(11).schedule(inst)
            with object_path():
                legacy = make(11).schedule(inst)
            assert fast.makespan == legacy.makespan, label
            for task in legacy.tasks():
                a, b = legacy.entry(task), fast.entry(task)
                assert (a.proc, a.start, a.end) == (b.proc, b.start, b.end), (label, task)


def test_decode_reuses_scratch_correctly(population):
    """Back-to-back decodes don't leak state between calls."""
    label, inst = population[1]
    compiled = compile_instance(inst)
    rng = np.random.default_rng(0)
    genomes = [rng.integers(0, compiled.q, size=compiled.n) for _ in range(4)]
    first = [compiled.decode_fast(g)[0] for g in genomes]
    second = [compiled.decode_fast(g)[0] for g in reversed(genomes)]
    assert first == list(reversed(second))


def test_validation_errors():
    from repro.bench import workloads as W

    inst = W.random_instance(np.random.default_rng(2), num_tasks=10, num_procs=3)
    compiled = compile_instance(inst)
    with pytest.raises(SchedulingError):
        compiled.decode_fast([0] * (compiled.n - 1))  # wrong length
    with pytest.raises(SchedulingError):
        compiled.decode_fast([compiled.q] * compiled.n)  # proc out of range
    with pytest.raises(SchedulingError):
        compiled.decode_batch(np.zeros((2, compiled.n + 1), dtype=int))
    with pytest.raises(SchedulingError):
        compiled.genome_of({})  # missing tasks


def _instance_on(comm, seed: int = 0) -> Instance:
    from repro.machine.processor import Processor

    dag = random_dag(12, seed=seed)
    ids = [0, 1, 2]
    machine = Machine([Processor(id=i, speed=1.0) for i in ids], comm=comm, name="links")
    etc = generate_etc(dag, machine, heterogeneity=0.5, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def test_per_link_and_custom_models_compile():
    """Per-link machines and a custom model that defines only ``link()``
    lower; the metaheuristics decode through the compiled core and stay
    identical to the object decoder, and a custom model's decodes equal
    ``decode_assignment``."""
    ids = [0, 1, 2]
    lat = {p: {q: 0.1 * (1 + (p + q) % 3) for q in ids if q != p} for p in ids}
    bw = {p: {q: 1.0 + ((p * 7 + q) % 5) for q in ids if q != p} for p in ids}
    for comm in (LinkCommunication(ids, lat, bw), OpaqueCommunication()):
        inst = _instance_on(comm)
        compiled = compile_instance(inst)
        assert isinstance(compiled, CompiledInstance)
        fast = GeneticScheduler(population=8, generations=3, seed=5).schedule(inst)
        with object_path():
            legacy = GeneticScheduler(population=8, generations=3, seed=5).schedule(inst)
        validate(fast, inst)
        assert fast.makespan == legacy.makespan
        order = rank_order(inst)
        for genome in _assignments(inst, compiled, trials=4, seed=3):
            with object_path():
                schedule = decode_assignment(inst, compiled.assignment_of(genome), order)
            assert compiled.decode_span(list(genome)) == schedule.makespan


def test_compiled_decoder_off_on_object_path():
    """Inside ``object_path()`` the kernel hands out the object-level
    reference engine, whose decodes are ``decode_assignment``'s; outside
    it, the cached compiled decoder."""
    from repro.bench import workloads as W

    inst = W.random_instance(np.random.default_rng(4), num_tasks=8, num_procs=2)
    compiled = compile_instance(inst)
    genome = [0, 1] * 4
    with object_path():
        engine = inst.kernel.compiled()
        assert isinstance(engine, ObjectEngine)
        reference = decode_assignment(inst, engine.assignment_of(genome), rank_order(inst))
        assert engine.decode_span(genome) == reference.makespan
    assert inst.kernel.compiled() is compiled
    assert compiled.decode_span(genome) == reference.makespan
