"""The online multi-tenant simulator: placement equivalence, policies,
noise, metrics and validation.

Equivalence checks compare the compiled simulator against the
object-path reference placer in ``tests/sim/online_reference.py`` and
the per-placement re-lowering baseline in ``tests/sim/online_relower.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import compiled
from repro.dag.generators import random_dag
from repro.dag.graph import TaskDAG
from repro.exceptions import ConfigurationError
from repro.instance import Instance, make_instance
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.sim import (
    PoissonArrivals,
    TraceArrivals,
    build_templates,
    simulate_online,
    trace_from_json,
    trace_to_json,
)
from tests.population import OpaqueCommunication
from tests.sim.online_reference import place_reference, simulate_reference

ROOT = Path(__file__).resolve().parents[2]
from tests.sim.online_relower import simulate_relowered


@pytest.fixture(scope="module")
def templates():
    return build_templates(num_templates=3, num_tasks=14, num_procs=4, seed=2)


@pytest.fixture(scope="module")
def stream(templates):
    return PoissonArrivals(rate=0.06, jobs=40, seed=11).realize(sorted(templates))


class TestEquivalence:
    def test_cached_equals_full_relowering(self, templates, stream):
        cached = simulate_online(templates, stream, policy="replace")
        full = simulate_relowered(templates, stream, policy="replace")
        assert cached.payload_json() == full.payload_json()
        assert cached.to_json() == full.to_json()

    def test_compiled_equals_object_path(self, templates, stream):
        fast = simulate_online(templates, stream)
        slow = simulate_reference(templates, stream)
        assert fast.payload_json() == slow.payload_json()

    def test_compiled_equals_object_under_policy_and_noise(self, templates, stream):
        kw = dict(policy="replace", noise_cv=0.3, seed=5)
        fast = simulate_online(templates, stream, **kw)
        slow = simulate_reference(templates, stream, **kw)
        assert fast.payload_json() == slow.payload_json()

    @pytest.mark.parametrize("alg", ["HEFT", "HCPT", "HLFET", "MCP"])
    def test_alg_parity_both_paths(self, templates, stream, alg):
        fast = simulate_online(templates, stream, alg=alg)
        slow = simulate_reference(templates, stream, alg=alg)
        assert fast.payload_json() == slow.payload_json()

    def test_custom_comm_model_matches_reference(self):
        """A custom model that defines only ``link()`` lowers, and the
        simulator places onto it exactly as the reference placer."""
        machine = Machine([Processor(id=i, speed=1.0) for i in range(3)],
                          comm=OpaqueCommunication())
        templates = {}
        for k, name in enumerate(["a", "b"]):
            dag = random_dag(8 + k, seed=1 + k)
            etc = generate_etc(dag, machine, heterogeneity=0.5, seed=1 + k)
            templates[name] = Instance(dag=dag, machine=machine, etc=etc, name=name)
        stream = PoissonArrivals(rate=0.2, jobs=10, seed=4).realize(sorted(templates))
        for kw in (dict(policy="queue"), dict(policy="replace", noise_cv=0.3, seed=5)):
            fast = simulate_online(templates, stream, **kw)
            slow = simulate_reference(templates, stream, **kw)
            assert fast.payload_json() == slow.payload_json(), kw
            assert len(fast.jobs) == len(stream)


    def test_gap_closed_before_release_skips_the_slot_scan(self, monkeypatch):
        """Each processor is seeded with a wide idle gap, [1, 100), that
        closes before the job's release at 200, so no task can use it:
        no gap of the index ends after a ready time, and every placement
        takes an O(1) answer without calling ``scan_slots``, float for
        float what the reference placer computes with the scan."""
        dag = TaskDAG("independent")
        for i in range(8):
            dag.add_task(i, cost=5.0 + i)
        inst = make_instance(dag, num_procs=3, seed=4)
        kernel = inst.kernel
        ci = kernel.compiled()
        order = ci.order.tolist()
        busy_starts = [[0.0, 100.0]] * ci.q
        busy_ends = [[1.0, 150.0]] * ci.q
        scans = []
        scan = compiled.scan_slots
        monkeypatch.setattr(compiled, "scan_slots", lambda *a: scans.append(a) or scan(*a))
        got = ci.schedule_onto(order, busy_starts, busy_ends, release=200.0)
        assert scans == []
        intervals, _, last = place_reference(
            inst, [kernel.tasks[t] for t in order], kernel.ti, busy_starts, busy_ends,
            200.0, None, insertion=True, eft=True,
        )
        assert [(got.proc[t], got.start[t], got.start[t] + got.darg[t]) for t in order] \
            == intervals
        assert got.makespan == last


class TestSemantics:
    def test_every_job_completes(self, templates, stream):
        res = simulate_online(templates, stream)
        assert len(res.jobs) == len(stream)
        assert [r.job_id for r in res.jobs] == [a.job_id for a in stream]

    def test_no_job_starts_before_arrival(self, templates, stream):
        res = simulate_online(templates, stream, policy="replace")
        for rec in res.jobs:
            assert rec.start >= rec.arrival - 1e-9
            assert rec.finish >= rec.start

    def test_slowdown_at_least_one_without_noise(self, templates, stream):
        res = simulate_online(templates, stream)
        assert all(s >= 1.0 - 1e-9 for s in res.slowdowns())

    def test_queue_policy_never_replans(self, templates, stream):
        res = simulate_online(templates, stream, policy="queue")
        assert res.replans == 0
        assert all(rec.replans == 0 for rec in res.jobs)

    def test_replace_policy_reorders_pending_work(self, templates, stream):
        # SJF over pending jobs is a heuristic (no universal-improvement
        # guarantee on stochastic streams); assert it acts, and that the
        # result is still a valid complete simulation.
        fifo = simulate_online(templates, stream, policy="queue")
        sjf = simulate_online(templates, stream, policy="replace")
        assert sjf.replans > 0
        assert sjf.payload_json() != fifo.payload_json()
        assert len(sjf.jobs) == len(stream)
        assert all(s >= 1.0 - 1e-9 for s in sjf.slowdowns())

    def test_replace_policy_improves_engineered_workload(self):
        # One processor, one long template, one short one.  The short
        # job arrives while a long job is *pending* behind a running
        # long job: FIFO queues it after both; SJF slips it in front of
        # the pending long job, provably shrinking mean slowdown.
        machine = Machine.homogeneous(1, name="serial")
        insts = {}
        for name, tasks, seed in (("long", 20, 0), ("short", 2, 1)):
            dag = random_dag(tasks, ccr=0.0, seed=seed)
            etc = generate_etc(dag, machine, heterogeneity=0.2, seed=seed)
            insts[name] = Instance(dag=dag, machine=machine, etc=etc, name=name)
        arr = TraceArrivals(
            [(0.0, "long"), (1.0, "long"), (2.0, "short")]
        ).realize(sorted(insts))
        fifo = simulate_online(insts, arr, policy="queue")
        sjf = simulate_online(insts, arr, policy="replace")
        assert sjf.replans >= 1
        assert (
            sjf.metrics_dict()["slowdown_mean"]
            < fifo.metrics_dict()["slowdown_mean"]
        )

    def test_preempt_policy_bounded(self, templates, stream):
        res = simulate_online(templates, stream, policy="preempt-1")
        # Each arrival may displace at most one pending job.
        assert 0 < res.replans <= len(stream)

    def test_compaction_happens_and_accounting_is_exact(self, templates, stream):
        res = simulate_online(templates, stream)
        assert res.compacted > 0
        assert 0.0 < res.metrics_dict()["utilization"] <= 1.0

    def test_isolated_jobs_match_static_baseline(self, templates):
        # Arrivals so far apart that the cluster is empty each time:
        # every job's response equals its template's static makespan.
        names = sorted(templates)
        arr = trace_from_json(
            trace_to_json(
                PoissonArrivals(rate=1e-6, jobs=6, seed=1).realize(names)
            )
        ).realize(names)
        res = simulate_online(templates, arr)
        for rec, s in zip(res.jobs, res.slowdowns()):
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_metrics_use_nearest_rank_percentiles(self, templates, stream):
        res = simulate_online(templates, stream)
        m = res.metrics_dict()
        responses = sorted(r.response for r in res.jobs)
        assert m["response_p99"] == responses[-1]  # ceil(0.99*40)=40
        assert m["response_p50"] == responses[19]  # ceil(0.5*40)=20


class TestNoise:
    def test_noise_changes_outcome_deterministically(self, templates, stream):
        clean = simulate_online(templates, stream)
        n1 = simulate_online(templates, stream, noise_cv=0.25, seed=3)
        n2 = simulate_online(templates, stream, noise_cv=0.25, seed=3)
        n3 = simulate_online(templates, stream, noise_cv=0.25, seed=4)
        assert n1.payload_json() == n2.payload_json()
        assert n1.payload_json() != clean.payload_json()
        assert n1.payload_json() != n3.payload_json()

    def test_replanned_jobs_replay_their_factors(self, templates, stream):
        # Same noise seed, policies that replan: still deterministic.
        a = simulate_online(templates, stream, policy="replace", noise_cv=0.2, seed=7)
        b = simulate_online(templates, stream, policy="replace", noise_cv=0.2, seed=7)
        assert a.payload_json() == b.payload_json()


class TestPerLink:
    @pytest.fixture(scope="class")
    def link_templates(self):
        ids = ["a", "b", "c"]
        lat = {p: {q: 0.1 * (1 + (ord(p) + ord(q)) % 3) for q in ids if q != p}
               for p in ids}
        bw = {p: {q: 1.0 + ((ord(p) * 7 + ord(q)) % 5) for q in ids if q != p}
              for p in ids}
        machine = Machine(
            [Processor(id=i, speed=1.0) for i in ids],
            comm=LinkCommunication(ids, lat, bw),
            name="links",
        )
        templates = {}
        for i, name in enumerate(["a", "b"]):
            dag = random_dag(10 + i, seed=50 + i)
            etc = generate_etc(dag, machine, heterogeneity=0.5, seed=i)
            templates[name] = Instance(dag=dag, machine=machine, etc=etc, name=name)
        return templates

    @pytest.mark.parametrize("kw", [
        dict(policy="queue"),
        dict(policy="replace"),
        dict(policy="preempt-1"),
        dict(policy="replace", noise_cv=0.3, seed=5),
    ], ids=["queue", "replace", "preempt", "noise"])
    def test_compiled_equals_reference(self, link_templates, kw):
        stream = PoissonArrivals(rate=0.1, jobs=12, seed=3).realize(sorted(link_templates))
        fast = simulate_online(link_templates, stream, **kw)
        slow = simulate_reference(link_templates, stream, **kw)
        assert fast.payload_json() == slow.payload_json()
        assert len(fast.jobs) == 12
        if "noise_cv" not in kw:
            assert all(s >= 1.0 - 1e-9 for s in fast.slowdowns())


class TestValidation:
    def test_templates_must_share_machine(self):
        a = build_templates(num_templates=1, num_tasks=8, num_procs=3, seed=0)
        b = build_templates(num_templates=1, num_tasks=8, num_procs=3, seed=1)
        merged = {"a": a["t0"], "b": b["t0"]}
        with pytest.raises(ConfigurationError):
            simulate_online(merged, PoissonArrivals(rate=1.0, jobs=2))

    def test_non_list_scheduler_rejected(self, templates, stream):
        with pytest.raises(ConfigurationError):
            simulate_online(templates, stream, alg="DLS")

    def test_place_override_rejected(self, templates, stream, monkeypatch):
        """The simulator places through the compiled EFT/EST pass, so a
        registered list scheduler that overrides ``place`` is refused
        rather than silently placed by EFT."""
        from repro.schedulers.base import placement_on
        from repro.schedulers.heft import HEFT

        class AllOnFirst(HEFT):
            def place(self, schedule, instance, task):
                return placement_on(schedule, instance, task, instance.machine.proc_ids()[0])

        monkeypatch.setattr("repro.sim.online.get_scheduler", lambda name: AllOnFirst())
        with pytest.raises(ConfigurationError, match="does not qualify"):
            simulate_online(templates, stream, alg="all-on-first")

    def test_order_with_a_child_before_its_parent_rejected(self, templates, stream,
                                                            monkeypatch):
        """The compiled pass trusts the template's order, so one that
        lists a task before its parent is refused before any placement."""
        from repro.exceptions import SchedulingError
        from repro.schedulers.heft import HEFT

        class Reversed(HEFT):
            def priority_order(self, instance):
                return list(reversed(instance.dag.topological_order()))

        monkeypatch.setattr("repro.sim.online.get_scheduler", lambda name: Reversed())
        with pytest.raises(SchedulingError, match="is unscheduled"):
            simulate_online(templates, stream, alg="reversed")

    def test_unknown_policy_rejected(self, templates, stream):
        with pytest.raises(ConfigurationError):
            simulate_online(templates, stream, policy="nope")

    def test_empty_templates_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_online({}, PoissonArrivals(rate=1.0, jobs=1))


class TestResultShape:
    def test_json_shape(self, templates, stream):
        res = simulate_online(templates, stream)
        doc = json.loads(res.to_json())
        assert set(doc) == {"meta", "payload"}
        assert set(doc["payload"]) == {"baselines", "jobs", "metrics"}
        assert doc["meta"]["alg"] == "HEFT"
        assert len(doc["payload"]["jobs"]) == len(stream)
        assert doc["payload"]["metrics"]["jobs"] == float(len(stream))

    def test_online_counter_incremented(self, templates, stream):
        from repro.compiled import reset_schedule_counters, schedule_counters

        reset_schedule_counters()
        simulate_online(templates, stream)
        # one baseline per template + one placement per arrival
        assert schedule_counters()["online_schedules"] >= len(stream)


def test_sim_and_bench_import_without_the_service_stack():
    """The simulator and the bench harness need no daemon: a fresh
    interpreter that imports both loads neither ``repro.service`` nor
    ``asyncio``."""
    probe = ("import sys, repro.sim, repro.bench; "
             "print(sorted(m for m in sys.modules "
             "if m == 'asyncio' or m.startswith('repro.service')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, cwd=ROOT)
    assert out.stdout.strip() == "[]"
