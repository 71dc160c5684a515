"""Chaos suite: real pool workers dying mid-load.

These tests fork genuine ``ProcessPoolExecutor`` workers and murder one
with an ``os._exit`` fault (the observable signature of an OOM-kill or
a segfaulting native dependency), then assert the acceptance property
of the self-healing engine: **every** request completes, and each
payload is bit-identical to a fault-free computation — worker death is
invisible to callers except in the respawn counters.

The recovery tests run twice: on an untraced engine and on one built
with a :class:`~repro.obs.Tracer`, which is how every ``repro serve``
daemon runs.  Traced runs must also leave a well-formed trace with
exactly one absorbed worker tree per computed request — a killed
attempt ships no trace back — and count every re-execution.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.bench import workloads as W
from repro.instance_io import instance_to_json
from repro.obs import Tracer, validate_trace
from repro.service import protocol
from repro.service.engine import EngineConfig, SchedulingEngine
from repro.service.errors import ServiceClosedError
from repro.service.faults import FaultPlan, FaultRule
from repro.utils.rng import as_generator


def _instances(n: int, num_tasks: int = 10):
    return [
        W.random_instance(as_generator(seed), num_tasks=num_tasks, num_procs=3)
        for seed in range(n)
    ]


def _check_recovered_trace(tracer: Tracer | None, engine: SchedulingEngine,
                           computed: int) -> None:
    """A traced heal leaves a sound trace: one ``worker.compute`` tree
    per computed request, each under a ``service.compute`` span of that
    request, and one ``service.reexecutions`` count per engine retry."""
    if tracer is None:
        return
    assert validate_trace(tracer) == []
    spans = tracer.spans()
    by_id = {s["id"]: s for s in spans}
    roots: dict[str, int] = {}
    for span in spans:
        if span["name"] != "worker.compute":
            continue
        trace_id = span["attrs"]["trace_id"]
        roots[trace_id] = roots.get(trace_id, 0) + 1
        parent = by_id[span["parent"]]
        assert parent["name"] == "service.compute"
        assert parent["attrs"]["trace_id"] == trace_id
        assert "error" not in parent["attrs"]
        assert {"worker.schedule", "worker.validate"} <= {
            s["name"] for s in spans if s["parent"] == span["id"]}
    assert len(roots) == computed and set(roots.values()) == {1}, roots
    retried = [s for s in spans if s["name"] == "service.compute"
               and s["attrs"].get("error") == "BrokenProcessPool"]
    assert retried, "some request's first attempt must have died with the pool"
    counters = tracer.counters()
    assert counters.get("service.reexecutions", 0) == engine.stats().retries
    assert counters["service.computes"] == computed


def _canonical(payload: dict) -> str:
    """The engine-independent part of a payload, as comparable JSON."""
    return json.dumps(
        {k: payload[k] for k in ("alg", "makespan", "num_duplicates", "placements")},
        sort_keys=True,
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_worker_killed_mid_load_is_invisible_to_callers(tmp_path, traced):
    """Acceptance: 2 workers, one killed mid-load; all submissions
    (including coalesced duplicates) succeed with payloads bit-identical
    to a fault-free run, and the engine logs exactly one respawn wave."""
    instances = _instances(6)
    expected = {
        i: _canonical(protocol.compute_schedule_payload(instance_to_json(inst), "HEFT"))
        for i, inst in enumerate(instances)
    }
    plan = FaultPlan((
        FaultRule(point="worker.start", action="kill", times=1,
                  token_dir=str(tmp_path)),
    ))

    tracer = Tracer(name="chaos") if traced else None

    async def scenario():
        engine = SchedulingEngine(EngineConfig(
            workers=2, fault_plan=plan, max_respawns=3,
            default_timeout=120.0, queue_depth=64,
        ), tracer=tracer)
        await engine.start()
        try:
            # Two waiters per instance: coalesced siblings must survive
            # the worker death too.
            waiters = [
                engine.submit(inst, "HEFT", timeout=120.0)
                for inst in instances for _ in range(2)
            ]
            results = await asyncio.gather(*waiters)
            for slot, payload in enumerate(results):
                assert _canonical(payload) == expected[slot // 2], (
                    f"instance {slot // 2} diverged from the fault-free run"
                )
            stats = engine.stats()
            assert stats.respawns >= 1, "the kill must have triggered a respawn"
            assert stats.errors == 0, "worker death must not surface as WorkerError"
            assert stats.retries >= 1, "in-flight jobs must have been re-executed"
            assert engine.pool_generation >= 1
            assert not engine.draining
            _check_recovered_trace(tracer, engine, computed=len(instances))
        finally:
            await engine.stop()

    asyncio.run(scenario())


def test_respawn_budget_exhaustion_fails_clean(tmp_path):
    """A crash-looping pool (every worker start is fatal) must exhaust
    its respawn budget and surface a clean ServiceClosedError — never a
    hang, never a raw BrokenProcessPool."""
    plan = FaultPlan((
        FaultRule(point="worker.start", action="kill", times=50,
                  token_dir=str(tmp_path)),
    ))

    async def scenario():
        engine = SchedulingEngine(EngineConfig(
            workers=2, fault_plan=plan, max_respawns=1,
            default_timeout=120.0,
        ))
        await engine.start()
        try:
            with pytest.raises(ServiceClosedError, match="respawn budget exhausted"):
                await asyncio.wait_for(
                    engine.submit(_instances(1)[0], "HEFT"), timeout=60.0
                )
            assert engine.draining
            assert engine.stats().respawns == 1
        finally:
            await engine.stop(drain=False)

    asyncio.run(scenario())


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_worker_killed_mid_encode_with_persistent_cache(tmp_path, traced):
    """A worker murdered *inside payload encoding* (the ``worker.encode``
    fault site) while the engine persists to disk: every request must
    still succeed bit-identically, and the segment must contain exactly
    the successful computations — no partial or duplicate records from
    the killed attempt — so a restarted engine comes back warm."""
    from repro.service.cache import SegmentStore, request_key
    from repro.service.wire import decode_payload

    instances = _instances(4)
    expected = {
        request_key(inst, "HEFT"): _canonical(
            protocol.compute_schedule_payload(instance_to_json(inst), "HEFT")
        )
        for inst in instances
    }
    token_dir = tmp_path / "tokens"
    cache_dir = tmp_path / "cache"
    token_dir.mkdir()
    plan = FaultPlan((
        FaultRule(point="worker.encode", action="kill", times=1,
                  token_dir=str(token_dir)),
    ))

    tracer = Tracer(name="chaos") if traced else None

    async def scenario():
        engine = SchedulingEngine(EngineConfig(
            workers=2, fault_plan=plan, max_respawns=3,
            default_timeout=120.0, queue_depth=64, cache_dir=str(cache_dir),
        ), tracer=tracer)
        await engine.start()
        try:
            results = await asyncio.gather(*[
                engine.submit(inst, "HEFT", timeout=120.0) for inst in instances
            ])
            for inst, payload in zip(instances, results):
                assert _canonical(payload) == expected[request_key(inst, "HEFT")]
            stats = engine.stats()
            assert stats.respawns >= 1
            assert stats.errors == 0
            _check_recovered_trace(tracer, engine, computed=len(instances))
        finally:
            await engine.stop()

    asyncio.run(scenario())

    store = SegmentStore(str(cache_dir))
    entries, report = store.recover()
    store.close()
    assert report == {"recovered": 4, "skipped": 0, "truncated": 0, "rotated": 0}
    assert set(entries) == set(expected)
    for key, raw in entries.items():
        assert _canonical(decode_payload(raw)) == expected[key], (
            "persisted record diverged from the fault-free computation"
        )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_engine_keeps_serving_after_heal(tmp_path, traced):
    """Post-heal the engine is a fully ordinary engine: fresh submissions
    compute on the respawned pool and caching still works."""
    plan = FaultPlan((
        FaultRule(point="worker.start", action="kill", times=1,
                  token_dir=str(tmp_path)),
    ))
    inst_a, inst_b = _instances(2)
    tracer = Tracer(name="chaos") if traced else None

    async def scenario():
        engine = SchedulingEngine(EngineConfig(
            workers=2, fault_plan=plan, max_respawns=3, default_timeout=120.0,
        ), tracer=tracer)
        await engine.start()
        try:
            first = await engine.submit(inst_a, "HEFT", timeout=120.0)
            assert engine.stats().respawns == 1
            later = await engine.submit(inst_b, "HEFT", timeout=120.0)
            assert later["placements"]
            again = await engine.submit(inst_a, "HEFT", timeout=120.0)
            assert again["cache_hit"] is True
            assert _canonical(again) == _canonical(first)
            _check_recovered_trace(tracer, engine, computed=2)
        finally:
            await engine.stop()

    asyncio.run(scenario())
