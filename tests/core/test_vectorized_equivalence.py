"""Differential suite: the kernel memos and rank recurrences are exact.

Every cost query a scheduler makes goes through ``Instance.kernel``: the
memoized adjacency, exec and comm tables, the rank recurrences and the
all-processor ``ready_times``.  This suite checks on
the seeded 60-instance corpus (``tests/population.py``: heterogeneous in
all consistency classes, homogeneous and per-link machines, all four rank
aggregations) that each reproduces its source — the ETC matrix, the
machine's communication model, the DAG, the scalar rank recurrences and
the per-processor ``ready_time`` — bit for bit, and that every scheduler
gives the same schedule on the compiled and the object path and with
tracing on and off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.dag.generators import random_dag
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.obs import Tracer, use_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import eft_placement, ready_time
from repro.schedulers.ranking import (
    downward_ranks,
    downward_ranks_scalar,
    upward_ranks,
    upward_ranks_scalar,
)
from repro.schedulers.registry import all_scheduler_names, get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import object_path
from tests.population import OpaqueCommunication, build_population

AGGS = ("mean", "median", "best", "worst")


@pytest.fixture(scope="module")
def population():
    # 14 seeds x 4 families + 4 per-link members (tests/population.py).
    return build_population()


def _opaque_instance(seed: int = 5) -> Instance:
    dag = random_dag(16, seed=seed)
    machine = Machine([Processor(id=i, speed=1.0) for i in range(4)],
                      comm=OpaqueCommunication(), name="opaque")
    return Instance(dag=dag, machine=machine,
                    etc=generate_etc(dag, machine, heterogeneity=0.6, seed=seed))


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


def test_population_is_large_enough(population):
    assert len(population) >= 50


def test_instance_accessors_equal_their_sources(population):
    """The memoized ``Instance`` cost queries return exactly what the
    ETC matrix, the machine and the DAG say, on every corpus member."""
    for label, inst in population + [("opaque", _opaque_instance())]:
        procs = inst.machine.proc_ids()
        for t in inst.dag.tasks():
            assert inst.successors_of(t) == inst.dag.successors(t), label
            assert inst.predecessors_of(t) == inst.dag.predecessors(t), label
            row = inst.etc_row(t)
            assert row.tolist() == [inst.etc.time(t, p) for p in procs], label
            for p in procs:
                assert inst.exec_time(t, p) == inst.etc.time(t, p), (label, t, p)
        for u, v in inst.dag.edges():
            data = inst.dag.data(u, v)
            assert inst.avg_comm_time(u, v) == inst.machine.avg_comm_time(data), label
            for src in procs:
                for dst in procs:
                    assert inst.comm_time(u, v, src, dst) == inst.machine.comm_time(
                        data, src, dst
                    ), (label, u, v, src, dst)


def test_ranks_match_scalar_reference(population):
    for label, inst in population:
        for agg in AGGS:
            up_ref = upward_ranks_scalar(inst, agg)
            down_ref = downward_ranks_scalar(inst, agg)
            up_vec = upward_ranks(inst, agg)
            down_vec = downward_ranks(inst, agg)
            assert up_vec.keys() == up_ref.keys(), label
            for t in up_ref:
                assert up_vec[t] == pytest.approx(up_ref[t], abs=1e-9), (label, agg, t)
                assert down_vec[t] == pytest.approx(down_ref[t], abs=1e-9), (label, agg, t)


def _large_instances():
    """100-300-task instances, uniform and per-link: sizes a 256-task
    cutoff once sent down a separate level-vectorized rank path."""
    from repro.machine.topology import ring_machine

    out = [
        (f"random-{n}", W.random_instance(np.random.default_rng(n), num_tasks=n, num_procs=8))
        for n in (100, 200, 255, 256, 300)
    ]
    dag = random_dag(280, seed=28)
    machine = ring_machine(8)
    etc = generate_etc(dag, machine, heterogeneity=0.5, seed=28)
    out.append(("ring-280", Instance(dag=dag, machine=machine, etc=etc)))
    return out


def test_ranks_are_bit_identical(population):
    # Stronger than the 1e-9 contract: the kernel replays the scalar
    # float operations exactly, in every direction and aggregation
    # order (the first and the later aggregations take the same path).
    for label, inst in population + _large_instances():
        for agg in AGGS:
            assert inst.kernel.upward(agg) == upward_ranks_scalar(inst, agg), (label, agg)
            assert inst.kernel.downward(agg) == downward_ranks_scalar(inst, agg), (label, agg)
        for agg in reversed(AGGS):
            assert upward_ranks(inst, agg) == upward_ranks_scalar(inst, agg), (label, agg)
            assert downward_ranks(inst, agg) == downward_ranks_scalar(inst, agg), (label, agg)


def test_batched_eft_ready_times_match_scalar(population):
    """Replay an IMP pass (duplicates included) on every member, custom
    comm model too; at every placement step ``ready_times`` must equal
    the per-processor ``ready_time`` exactly."""
    from repro.core.placement import PlacementEngine

    engine = PlacementEngine()
    for label, inst in population + [("opaque", _opaque_instance())]:
        ranks = upward_ranks(inst)
        order = get_scheduler("HEFT").priority_order(inst)
        schedule = Schedule(inst.machine)
        procs = inst.machine.proc_ids()
        for task in order:
            batched = inst.kernel.ready_times(schedule, task)
            assert batched == [ready_time(schedule, inst, task, p) for p in procs], (
                label, task)
            engine.place(schedule, inst, task, ranks)


def test_every_scheduler_makespan_bit_identical(population):
    """Every registered scheduler gives the same payload compiled and on
    the object path (the B&B oracle is covered separately on a size it
    can handle)."""
    names = [n for n in all_scheduler_names() if n != "OPT-BB"]
    for label, inst in population[::9]:
        for name in names:
            fast = get_scheduler(name).schedule(inst)
            with object_path():
                ref = get_scheduler(name).schedule(inst)
            assert fast.makespan == ref.makespan, (label, name)
            assert _payload(fast, inst, name) == _payload(ref, inst, name), (label, name)


def test_tracing_never_changes_a_payload(population):
    """Tracing on and off give the same payload for every registered
    scheduler (``tests/property/test_property_obs.py`` samples the same
    claim on tiny instances)."""
    names = [n for n in all_scheduler_names() if n != "OPT-BB"]
    for label, inst in population[::8]:  # includes a per-link member
        for name in names:
            plain = get_scheduler(name).schedule(inst)
            with use_tracer(Tracer(name="t")):
                traced = get_scheduler(name).schedule(inst)
            assert _payload(traced, inst, name) == _payload(plain, inst, name), (label, name)


def test_optimal_scheduler_bit_identical():
    small = W.random_instance(np.random.default_rng(7), num_tasks=8, num_procs=3)
    plain = get_scheduler("OPT-BB").schedule(small)
    with use_tracer(Tracer(name="t")):
        traced = get_scheduler("OPT-BB").schedule(small)
    with object_path():
        ref = get_scheduler("OPT-BB").schedule(small)
    assert traced.makespan == plain.makespan == ref.makespan


def test_full_placements_identical_not_just_makespan(population):
    for label, inst in population[::11]:
        for name in ("HEFT", "CPOP", "IMP"):
            fast = get_scheduler(name).schedule(inst)
            with object_path():
                ref = get_scheduler(name).schedule(inst)
            for task in ref.tasks():
                a, b = ref.entry(task), fast.entry(task)
                assert (a.proc, a.start, a.end) == (b.proc, b.start, b.end), (label, name, task)


def test_eft_placement_restricted_to_a_subset(population):
    """``procs=`` picks from the subset in its given order, with the
    same floats as probing each candidate alone."""
    from repro.schedulers.base import placement_on

    for label, inst in population[::13]:
        procs = inst.machine.proc_ids()
        subset = list(reversed(procs[1:]))
        schedule = Schedule(inst.machine)
        for task in get_scheduler("HEFT").priority_order(inst):
            placed = eft_placement(schedule, inst, task, procs=subset)
            probes = [placement_on(schedule, inst, task, p) for p in subset]
            best = probes[0]
            for cand in probes[1:]:
                if cand.end < best.end - 1e-12:
                    best = cand
            assert placed == best, (label, task)
            schedule.add(task, placed.proc, placed.start, placed.end - placed.start)
