"""Property tests: the compiled executor is indistinguishable from the
object path on arbitrary instances — free (zero-cost) links, uniform
links, a custom model that defines only ``link()`` and random
asymmetric per-link tables — and schedules are stable across
interpreter restarts (hash randomization must not leak into results).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import compile_instance
from repro.core import ImprovedConfig, ImprovedScheduler
from repro.dag.generators import random_dag
from repro.instance import Instance, make_instance
from repro.machine.etc import generate_etc
from repro.schedule.validation import violations
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import object_path
from tests.population import OpaqueCommunication, random_instance_on, random_machine

instance_params = st.tuples(
    st.integers(min_value=1, max_value=30),      # tasks
    st.integers(min_value=1, max_value=6),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=1.5),     # heterogeneity
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build(params):
    n, q, ccr, beta, seed = params
    dag = random_dag(n, ccr=ccr, seed=seed)
    return make_instance(dag, num_procs=q, heterogeneity=beta, seed=seed)


def build_custom(params):
    """The :func:`build` draw on integer processor ids with
    :class:`~tests.population.OpaqueCommunication` links."""
    from repro.machine.cluster import Machine
    from repro.machine.processor import Processor

    n, q, ccr, beta, seed = params
    dag = random_dag(n, ccr=ccr, seed=seed)
    machine = Machine([Processor(id=j, speed=1.0) for j in range(q)],
                      comm=OpaqueCommunication(), name="opaque")
    etc = generate_etc(dag, machine, heterogeneity=beta, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


@given(instance_params, st.sampled_from(["HEFT", "CPOP", "HCPT", "PETS",
                                         "DLS", "HLFET", "MCP", "IMP"]),
       st.sampled_from(["uniform", "zero", "custom"]))
@settings(max_examples=100, deadline=None)
def test_compiled_equals_object_path(params, name, comm):
    # ``zero`` is the Machine default: every edge lowers to a 0.0
    # constant and ranks carry no communication term.  ``custom`` lowers
    # through its ``link()`` tables.
    if comm == "uniform":
        instance = build(params)
    elif comm == "zero":
        instance = random_instance_on("zero", *params)
    else:
        instance = build_custom(params)
    assert compile_instance(instance) is not None
    scheduler = get_scheduler(name)
    fast = scheduler.schedule(instance)
    with object_path():
        ref = scheduler.schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, name) == _payload(ref, instance, name)


@given(
    instance_params,
    st.booleans(),  # lookahead
    st.booleans(),  # duplication
    st.booleans(),  # insertion
    st.booleans(),  # refinement
)
@settings(max_examples=40, deadline=None)
def test_improved_config_space_compiled_equals_object(params, la, dup, ins, ref_):
    """Every corner of the IMP feature space stays bit-identical,
    including the duplication passes the compiled executor replays
    through tentative plan/undo."""
    instance = build(params)
    cfg = ImprovedConfig(lookahead=la, duplication=dup,
                         insertion=ins, refinement=ref_)
    fast = ImprovedScheduler(cfg).schedule(instance)
    with object_path():
        ref = ImprovedScheduler(cfg).schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, "IMP") == _payload(ref, instance, "IMP")


link_params = st.tuples(
    st.integers(min_value=1, max_value=24),      # tasks
    st.integers(min_value=1, max_value=5),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=4.0),     # max latency
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build_link(params):
    """A random DAG on a :func:`~tests.population.random_machine` with
    random asymmetric per-link tables: string processor ids, declared in
    a different order than the tables list them, so the lowering's
    canonical reindexing is exercised."""
    n, q, ccr, max_lat, seed = params
    machine = random_machine("link", q, seed, max_latency=max_lat)
    dag = random_dag(n, ccr=ccr, seed=seed)
    etc = generate_etc(dag, machine, heterogeneity=0.6, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


@given(link_params, st.sampled_from(["HEFT", "CPOP", "DLS", "IMP",
                                     "LA-HEFT", "DUP-HEFT"]))
@settings(max_examples=60, deadline=None)
def test_compiled_equals_object_path_on_asymmetric_links(params, name):
    instance = build_link(params)
    assert compile_instance(instance) is not None
    scheduler = get_scheduler(name)
    fast = scheduler.schedule(instance)
    with object_path():
        ref = scheduler.schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, name) == _payload(ref, instance, name)


@given(link_params, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_span_equals_object_decode_on_asymmetric_links(params, genome_seed):
    instance = build_link(params)
    compiled = compile_instance(instance)
    genome = np.random.default_rng(genome_seed).integers(0, compiled.q, size=compiled.n)
    schedule = decode_assignment(instance, compiled.assignment_of(genome), rank_order(instance))
    assert compiled.decode_span(genome.tolist()) == schedule.makespan


@given(instance_params)
@settings(max_examples=30, deadline=None)
def test_tds_unaffected_by_executor_switch(params):
    """TDS never routes through the compiled executor (duplication-tree
    policy, not a list scheduler); switching the executor off with the
    object-path helper must be a no-op for it, and so must tracing."""
    from repro.obs import Tracer, use_tracer

    instance = build(params)
    a = get_scheduler("TDS").schedule(instance)
    with object_path():
        b = get_scheduler("TDS").schedule(instance)
    with use_tracer(Tracer(name="t")):
        c = get_scheduler("TDS").schedule(instance)
    assert _payload(a, instance, "TDS") == _payload(b, instance, "TDS")
    assert _payload(a, instance, "TDS") == _payload(c, instance, "TDS")


_RESTART_SNIPPET = """
import json, sys
from repro.bench import workloads as W
from repro.utils.rng import as_generator
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload

out = []
for seed in (11, 12):
    inst = W.random_instance(as_generator(seed), num_tasks=40, num_procs=4)
    for alg in ("HEFT", "IMP"):
        s = get_scheduler(alg).schedule(inst)
        out.append(schedule_payload(s, inst, alg))
sys.stdout.write(json.dumps(out, sort_keys=True))
"""


def _run_with_hashseed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RESTART_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_schedules_stable_across_hash_randomization():
    """Fresh interpreters with different PYTHONHASHSEED values must
    produce byte-identical payloads — dict/set iteration order never
    reaches a scheduling decision on either decode path."""
    assert _run_with_hashseed("1") == _run_with_hashseed("31337")
