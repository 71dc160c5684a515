"""Engine behaviour: caching, coalescing, backpressure, timeout,
cancellation and graceful drain.

These tests run the engine with ``workers=0`` (thread execution) so the
compute function can be monkeypatched — slow and failing computations
become deterministic fixtures instead of races.  The process-pool path
is covered end-to-end by ``test_server_client.py`` and
``test_differential.py``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import workloads as W
from repro.instance_io import instance_to_json
from repro.service import engine as engine_mod
from repro.service import protocol
from repro.service.engine import EngineConfig, SchedulingEngine
from repro.service.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WorkerError,
)
from repro.utils.rng import as_generator


def _instance(seed: int = 7, num_tasks: int = 8):
    return W.random_instance(as_generator(seed), num_tasks=num_tasks, num_procs=3)


def _run(coro):
    return asyncio.run(coro)


def test_cold_then_cached():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            cold = await engine.submit(inst, "HEFT")
            warm = await engine.submit(inst, "HEFT")
            assert cold["cache_hit"] is False
            assert warm["cache_hit"] is True
            assert warm["makespan"] == cold["makespan"]
            assert warm["placements"] == cold["placements"]
            assert warm["fingerprint"] == cold["fingerprint"]
            stats = engine.stats()
            assert stats.cache_hits == 1 and stats.cache_misses == 1
            assert stats.completed == 2
        finally:
            await engine.stop()

    _run(scenario())


def test_submit_cached_fast_path():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            # Unknown key: silent miss, nothing is accounted.
            assert engine.submit_cached("no-such-key") is None
            assert engine.stats().requests == 0
            cold = await engine.submit(inst, "HEFT")
            fast = engine.submit_cached(cold["fingerprint"])
            assert fast is not None and fast["cache_hit"] is True
            assert fast["placements"] == cold["placements"]
            stats = engine.stats()
            assert stats.requests == 2
            assert stats.cache_hits == 1 and stats.cache_misses == 1
        finally:
            await engine.stop()
        with pytest.raises(ServiceClosedError):
            engine.submit_cached("anything")

    _run(scenario())


def test_different_alg_misses_cache():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            a = await engine.submit(inst, "HEFT")
            b = await engine.submit(inst, "CPOP")
            assert b["cache_hit"] is False
            assert a["fingerprint"] != b["fingerprint"]
        finally:
            await engine.stop()

    _run(scenario())


def test_concurrent_identical_requests_coalesce(monkeypatch):
    calls = []
    real = protocol.compute_schedule_payload

    def counting(text, alg):
        calls.append(alg)
        time.sleep(0.05)  # widen the in-flight window
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", counting)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            results = await asyncio.gather(
                *[engine.submit(inst, "HEFT") for _ in range(6)]
            )
            assert len(calls) == 1  # one computation served all six
            assert len({r["makespan"] for r in results}) == 1
            assert engine.stats().coalesced == 5
        finally:
            await engine.stop()

    _run(scenario())


def test_backpressure_rejects_when_queue_full(monkeypatch):
    def slow(text, alg):
        time.sleep(0.3)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(
            EngineConfig(workers=0, queue_depth=1, default_timeout=5.0)
        )
        await engine.start()
        try:
            instances = [_instance(seed) for seed in range(8)]
            tasks = [asyncio.create_task(engine.submit(i, "HEFT")) for i in instances]
            done = await asyncio.gather(*tasks, return_exceptions=True)
            rejected = [r for r in done if isinstance(r, ServiceOverloadedError)]
            served = [r for r in done if isinstance(r, dict)]
            assert rejected, "a full queue must shed load with 429"
            assert served, "requests accepted before saturation must complete"
            assert engine.stats().rejected == len(rejected)
        finally:
            await engine.stop()

    _run(scenario())


def test_per_request_timeout(monkeypatch):
    def slow(text, alg):
        time.sleep(0.4)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            with pytest.raises(ServiceTimeoutError):
                await engine.submit(_instance(), "HEFT", timeout=0.05)
            assert engine.stats().timeouts == 1
        finally:
            await engine.stop()

    _run(scenario())


def test_timeout_does_not_kill_shared_computation(monkeypatch):
    real = protocol.compute_schedule_payload

    def slow(text, alg):
        time.sleep(0.2)
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            with pytest.raises(ServiceTimeoutError):
                await engine.submit(inst, "HEFT", timeout=0.05)
            # The shielded computation finishes and lands in the cache...
            await asyncio.sleep(0.4)
            assert len(engine.cache) == 1
            # ...so the retry is a hit, not a recompute.
            retry = await engine.submit(inst, "HEFT")
            assert retry["cache_hit"] is True
        finally:
            await engine.stop()

    _run(scenario())


def test_cancelled_waiter_leaves_computation_running(monkeypatch):
    real = protocol.compute_schedule_payload

    def slow(text, alg):
        time.sleep(0.2)
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            waiter = asyncio.create_task(engine.submit(inst, "HEFT"))
            await asyncio.sleep(0.05)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            await asyncio.sleep(0.4)
            assert len(engine.cache) == 1  # work survived the client
        finally:
            await engine.stop()

    _run(scenario())


def test_worker_failure_maps_to_worker_error(monkeypatch):
    def broken(text, alg):
        raise RuntimeError("scheduler exploded")

    monkeypatch.setattr(protocol, "compute_schedule_payload", broken)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            with pytest.raises(WorkerError, match="scheduler exploded"):
                await engine.submit(_instance(), "HEFT")
            assert engine.stats().errors == 1
            assert len(engine.cache) == 0  # failures are never cached
        finally:
            await engine.stop()

    _run(scenario())


def test_graceful_drain_completes_inflight_work(monkeypatch):
    real = protocol.compute_schedule_payload

    def slow(text, alg):
        time.sleep(0.1)
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0, queue_depth=16))
        await engine.start()
        instances = [_instance(seed) for seed in range(3)]
        waiters = [asyncio.create_task(engine.submit(i, "HEFT")) for i in instances]
        await asyncio.sleep(0.02)  # let them enqueue
        await engine.stop(drain=True)
        results = await asyncio.gather(*waiters)
        assert all(isinstance(r, dict) and r["placements"] for r in results)
        # After the drain, new work is refused.
        with pytest.raises(ServiceClosedError):
            await engine.submit(instances[0], "HEFT")

    _run(scenario())


def test_submit_before_start_refused():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        with pytest.raises(ServiceClosedError):
            await engine.submit(_instance(), "HEFT")

    _run(scenario())


def test_dequeued_jobs_stay_bounded_by_queue_depth(monkeypatch):
    """The dispatcher takes a job off the bounded queue only when it can
    hand it a worker slot next, so accepted but unanswered submissions
    never exceed ``queue_depth`` queued, one per slot running and the
    one job the dispatcher holds while it waits for a slot."""
    import threading

    release = threading.Semaphore(0)

    def gated(text, alg):
        release.acquire()
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", gated)
    config = EngineConfig(workers=0, queue_depth=4)
    bound = config.queue_depth + max(1, config.workers) + 1

    async def scenario():
        engine = SchedulingEngine(config)
        await engine.start()
        waiters: list[asyncio.Task] = []
        peak = rejected = 0
        try:
            for seed in range(40):
                waiters.append(asyncio.create_task(engine.submit(_instance(seed), "HEFT")))
                await asyncio.sleep(0.005)
                if seed % 3 == 2:
                    release.release()  # let one computation finish
                    await asyncio.sleep(0.01)
                unanswered = sum(not w.done() for w in waiters)
                peak = max(peak, unanswered)
            rejected = sum(
                w.done() and isinstance(w.exception(), ServiceOverloadedError)
                for w in waiters
            )
        finally:
            for _ in range(len(waiters)):
                release.release()
            await engine.stop(drain=False)
            await asyncio.gather(*waiters, return_exceptions=True)
        return peak, rejected, engine.stats()

    peak, rejected, stats = _run(scenario())
    assert rejected > 0, "scenario must drive the engine past its queue"
    assert peak <= bound, (peak, bound)
    assert stats.batches == stats.batched_jobs


class _RecordingExecutor(ThreadPoolExecutor):
    """A thread pool that records every worker call it is handed."""

    def __init__(self) -> None:
        super().__init__(max_workers=1)
        self.calls: list[tuple[str, object]] = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append((fn.__name__, args[0]))
        return super().submit(fn, *args, **kwargs)


def test_traced_and_untraced_engines_make_the_same_worker_calls(monkeypatch):
    """Tracing never changes routing: given the same queued jobs, a
    traced and an untraced engine hand the worker the same calls, one
    per job, in queue order — neither chunks jobs into one worker
    call."""
    from repro.obs import Tracer

    real = protocol.compute_schedule_payload

    def slow(text, alg):
        time.sleep(0.02)
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)
    instances = [_instance(seed) for seed in range(5)]

    async def scenario(tracer):
        recorder = _RecordingExecutor()
        asyncio.get_running_loop().set_default_executor(recorder)
        engine = SchedulingEngine(EngineConfig(workers=0, queue_depth=16), tracer=tracer)
        await engine.start()
        try:
            payloads = await asyncio.gather(*[engine.submit(i, "HEFT") for i in instances])
            stats = engine.stats()
            assert (stats.batches, stats.batched_jobs) == (5, 5)
        finally:
            await engine.stop()
        return recorder.calls, [p["placements"] for p in payloads]

    texts = [instance_to_json(i) for i in instances]

    def jobs_per_call(calls):
        # Each call's first argument as a queued job's index, or the
        # type of whatever else the worker was handed (a chunk of jobs).
        return [(fn, texts.index(arg) if arg in texts else type(arg).__name__)
                for fn, arg in calls]

    untraced_calls, untraced_out = _run(scenario(None))
    traced_calls, traced_out = _run(scenario(Tracer(name="svc")))
    assert jobs_per_call(untraced_calls) == [("compute_in_worker", k) for k in range(5)]
    assert jobs_per_call(traced_calls) == jobs_per_call(untraced_calls)
    assert traced_out == untraced_out


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(workers=-1)
    with pytest.raises(ValueError):
        EngineConfig(queue_depth=0)
    with pytest.raises(ValueError):
        EngineConfig(default_timeout=0)


def test_warm_worker_importable():
    # The warmup function runs inside forked pool workers; keep it callable.
    engine_mod._warm_worker()


@pytest.mark.parametrize("traced", [False, True])
def test_worker_counters_reach_stats_traced_or_not(traced):
    """Traced engines fold the worker's lowering-memo and compiled
    executor counter deltas into their stats exactly like untraced ones:
    IMP then HEFT on one instance is one lowering miss, one hit, and
    IMP's four improved passes plus HEFT's list schedule."""
    from repro.obs import Tracer

    async def scenario():
        tracer = Tracer(name="svc") if traced else None
        engine = SchedulingEngine(EngineConfig(workers=0), tracer=tracer)
        await engine.start()
        try:
            inst = _instance(seed=3, num_tasks=30)
            await engine.submit(inst, "IMP")
            await engine.submit(inst, "HEFT")
            return engine.stats()
        finally:
            await engine.stop()

    protocol.clear_lowering_cache()
    stats = _run(scenario())
    assert (stats.lowering_misses, stats.lowering_hits) == (1, 1)
    assert stats.compiled_schedules == 5
    assert stats.compiled_fallbacks == 0
