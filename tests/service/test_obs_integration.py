"""Observability through the service stack.

Covers the three integration claims: a trace id set by the client is
stamped on every span the request produces end-to-end (client ->
server -> engine -> worker), ``GET /metrics`` unifies the engine
counters with the tracer's ``repro_obs_*`` metrics, and a warm cache
hit records a ``cache.hit`` span instead of a compute span.

Engines run with ``workers=0`` (thread execution) so worker spans are
produced in-process.  Pool workers run the same ``compute_in_worker``
entry point and ship the same picklable export back, absorbed by the
same code; ``test_chaos.py`` covers traced engines with real pool
workers, including a worker death mid-load.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bench import workloads as W
from repro.obs import Tracer, validate_trace
from repro.service.client import ServiceClient
from repro.service.engine import EngineConfig, SchedulingEngine
from repro.service.server import ScheduleServer
from repro.utils.rng import as_generator


def _instance(seed: int = 7, num_tasks: int = 8):
    return W.random_instance(as_generator(seed), num_tasks=num_tasks, num_procs=3)


def _run(coro):
    return asyncio.run(coro)


def _spans_for(tracer: Tracer, trace_id: str) -> list[dict]:
    return [s for s in tracer.spans() if s["attrs"].get("trace_id") == trace_id]


def test_trace_id_propagates_client_to_server_to_worker():
    async def scenario():
        tracer = Tracer(name="svc")
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        server = ScheduleServer(engine, port=0)
        await server.start()
        try:
            client = ServiceClient(port=server.port)
            result = await client.schedule(_instance(), "HEFT", trace_id="ride-42")
            assert result.trace_id == "ride-42"
            assert result.payload["trace_id"] == "ride-42"
            stamped = {s["name"] for s in _spans_for(tracer, "ride-42")}
            # Engine-side request spans...
            assert {"service.request", "cache.lookup", "queue.wait",
                    "service.compute", "service.encode"} <= stamped
            # ...and the worker's own root span, absorbed with the same id.
            assert "worker.compute" in stamped
            all_names = {s["name"] for s in tracer.spans()}
            assert {"worker.parse", "worker.schedule", "worker.validate",
                    "worker.encode", "sched.run"} <= all_names
            assert validate_trace(tracer) == []
        finally:
            await server.stop()

    _run(scenario())


def test_engine_generates_trace_ids_when_client_sends_none():
    async def scenario():
        tracer = Tracer()
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        await engine.start()
        try:
            a = await engine.submit(_instance(1), "HEFT")
            b = await engine.submit(_instance(2), "HEFT")
            assert a["trace_id"] and b["trace_id"]
            assert a["trace_id"] != b["trace_id"]
        finally:
            await engine.stop()

    _run(scenario())


def test_untraced_engine_keeps_payload_shape():
    """With the default no-op tracer nothing changes: no trace_id key,
    no recorded spans."""

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            payload = await engine.submit(_instance(), "HEFT")
            assert "trace_id" not in payload
        finally:
            await engine.stop()

    _run(scenario())


def test_warm_hit_records_cache_hit_span_instead_of_compute():
    async def scenario():
        tracer = Tracer()
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        await engine.start()
        try:
            inst = _instance()
            cold = await engine.submit(inst, "HEFT", trace_id="cold-1")
            warm = await engine.submit(inst, "HEFT", trace_id="warm-1")
            assert cold["cache_hit"] is False and warm["cache_hit"] is True
            cold_names = {s["name"] for s in _spans_for(tracer, "cold-1")}
            warm_names = {s["name"] for s in _spans_for(tracer, "warm-1")}
            assert "service.compute" in cold_names
            assert "cache.hit" not in cold_names
            assert "cache.hit" in warm_names
            assert "service.compute" not in warm_names
            assert "queue.wait" not in warm_names
            (lookup,) = [s for s in _spans_for(tracer, "warm-1")
                         if s["name"] == "cache.lookup"]
            assert lookup["attrs"]["hit"] is True
        finally:
            await engine.stop()

    _run(scenario())


def test_cached_payloads_stay_request_pure():
    """The cache stores no per-request fields: a warm hit under a new
    trace id answers with its own id, not the cold request's."""

    async def scenario():
        tracer = Tracer()
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        await engine.start()
        try:
            inst = _instance()
            cold = await engine.submit(inst, "HEFT", trace_id="first")
            warm = await engine.submit(inst, "HEFT", trace_id="second")
            assert cold["trace_id"] == "first"
            assert warm["trace_id"] == "second"
            assert warm["makespan"] == cold["makespan"]
            assert warm["placements"] == cold["placements"]
        finally:
            await engine.stop()

    _run(scenario())


def test_metrics_exposition_unifies_service_and_tracer_counters():
    async def scenario():
        tracer = Tracer()
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        server = ScheduleServer(engine, port=0)
        await server.start()
        try:
            client = ServiceClient(port=server.port)
            inst = _instance()
            await client.schedule(inst, "HEFT")
            await client.schedule(inst, "HEFT")  # warm hit
            text = await client.metrics_text()
            lines = dict(
                line.rsplit(" ", 1) for line in text.strip().split("\n")
            )
            # Service metrics are still there...
            assert float(lines["repro_service_requests_total"]) == 2.0
            assert float(lines["repro_service_cache_hits_total"]) == 1.0
            # ...now joined by the tracer's counters on the same page.
            assert float(lines["repro_obs_service_computes_total"]) == 1.0
            assert float(lines["repro_obs_sched_tasks_placed_total"]) == 8.0
        finally:
            await server.stop()

    _run(scenario())


def test_untraced_metrics_page_has_no_obs_section():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            await engine.submit(_instance(), "HEFT")
            text = engine.render_metrics()
            assert "repro_service_requests_total" in text
            assert "repro_obs_" not in text
        finally:
            await engine.stop()

    _run(scenario())


def test_request_doc_rejects_non_string_trace_id():
    from repro.service.errors import RequestError
    from repro.service.protocol import make_request_doc, parse_request_doc
    import json

    from repro.instance_io import instance_to_json

    inst = _instance()
    doc = make_request_doc(json.loads(instance_to_json(inst)), "HEFT",
                           trace_id="ok-id")
    _, alg, _, trace_id = parse_request_doc(doc)
    assert (alg, trace_id) == ("HEFT", "ok-id")
    doc["trace_id"] = 123
    with pytest.raises(RequestError, match="trace_id"):
        parse_request_doc(doc)
