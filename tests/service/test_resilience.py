"""Engine fault-tolerance: pool self-healing, respawn budget, deadline
propagation, and the shutdown/slot-accounting regressions.

Everything here runs with ``workers=0`` (thread execution) so worker
death can be *injected* deterministically — a monkeypatched compute
function raising ``BrokenProcessPool`` is indistinguishable, at the
engine's level, from a pool whose process was OOM-killed.  Real process
death (``os._exit`` inside a forked worker) is covered end-to-end by
``test_chaos.py``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import workloads as W
from repro.service import engine as engine_mod
from repro.service import protocol
from repro.service.engine import EngineConfig, SchedulingEngine
from repro.service.errors import (
    ServiceClosedError,
    ServiceTimeoutError,
)
from repro.service.resilience import Deadline
from repro.utils.rng import as_generator


def _instance(seed: int = 7, num_tasks: int = 8):
    return W.random_instance(as_generator(seed), num_tasks=num_tasks, num_procs=3)


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# pool self-healing
# ----------------------------------------------------------------------
def test_broken_pool_heals_and_reexecutes_job(monkeypatch):
    real = protocol.compute_schedule_payload
    calls = {"n": 0}

    def dies_once(text, alg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise BrokenProcessPool("worker died")
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", dies_once)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0, max_respawns=3))
        await engine.start()
        try:
            payload = await engine.submit(_instance(), "HEFT")
            assert payload["placements"], "healed job must return a real payload"
            stats = engine.stats()
            assert stats.respawns == 1
            assert stats.retries == 1
            assert stats.errors == 0, "worker death must not surface as WorkerError"
            assert engine.pool_generation == 1
        finally:
            await engine.stop()

    _run(scenario())


def test_healed_payload_is_bit_identical_to_fault_free(monkeypatch):
    real = protocol.compute_schedule_payload
    inst = _instance(seed=11)
    import json

    from repro.instance_io import instance_to_json

    expected = real(instance_to_json(inst), "HEFT")
    calls = {"n": 0}

    def dies_once(text, alg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise BrokenProcessPool("worker died")
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", dies_once)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            got = await engine.submit(inst, "HEFT")
            for field in ("makespan", "placements", "num_duplicates"):
                assert json.dumps(got[field]) == json.dumps(expected[field])
        finally:
            await engine.stop()

    _run(scenario())


def test_coalesced_waiters_survive_worker_death(monkeypatch):
    real = protocol.compute_schedule_payload
    calls = {"n": 0}

    def dies_once(text, alg):
        calls["n"] += 1
        time.sleep(0.05)  # widen the coalescing window
        if calls["n"] == 1:
            raise BrokenProcessPool("worker died")
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", dies_once)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            results = await asyncio.gather(
                *[engine.submit(inst, "HEFT", timeout=30.0) for _ in range(4)]
            )
            assert len({r["makespan"] for r in results}) == 1
            assert all(r["placements"] for r in results)
            assert engine.stats().respawns == 1
        finally:
            await engine.stop()

    _run(scenario())


def test_respawn_budget_exhausted_closes_engine_cleanly(monkeypatch):
    def always_broken(text, alg):
        raise BrokenProcessPool("worker keeps dying")

    monkeypatch.setattr(protocol, "compute_schedule_payload", always_broken)

    async def scenario():
        engine = SchedulingEngine(
            EngineConfig(workers=0, max_respawns=2, respawn_window=60.0)
        )
        await engine.start()
        try:
            with pytest.raises(ServiceClosedError, match="respawn budget exhausted"):
                await engine.submit(_instance(), "HEFT")
            stats = engine.stats()
            assert stats.respawns == 2, "budget must be spent before giving up"
            assert engine.draining, "an unrecoverable engine must close"
            # New work is refused with the same clean error, not WorkerError.
            with pytest.raises(ServiceClosedError):
                await engine.submit(_instance(1), "HEFT")
        finally:
            await engine.stop(drain=False)

    _run(scenario())


def test_respawn_window_slides(monkeypatch):
    """Old respawns age out of the window, so a long-lived engine can
    absorb occasional worker deaths indefinitely."""
    real = protocol.compute_schedule_payload
    calls = {"n": 0}

    def dies_every_other(text, alg):
        calls["n"] += 1
        if calls["n"] % 2 == 1:
            raise BrokenProcessPool("worker died")
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", dies_every_other)

    async def scenario():
        engine = SchedulingEngine(
            EngineConfig(workers=0, max_respawns=1, respawn_window=0.1)
        )
        await engine.start()
        try:
            a = await engine.submit(_instance(1), "HEFT")
            await asyncio.sleep(0.15)  # let the first respawn age out
            b = await engine.submit(_instance(2), "HEFT")
            assert a["placements"] and b["placements"]
            assert engine.stats().respawns == 2
            assert not engine.draining
        finally:
            await engine.stop()

    _run(scenario())


# ----------------------------------------------------------------------
# deadline propagation
# ----------------------------------------------------------------------
def test_expired_deadline_is_immediate_504():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            past = Deadline(time.monotonic() - 1.0)
            with pytest.raises(ServiceTimeoutError, match="deadline expired"):
                await engine.submit(_instance(), "HEFT", deadline=past)
            stats = engine.stats()
            assert stats.timeouts == 1
            assert stats.queue_depth == 0, "expired requests must not occupy the queue"
        finally:
            await engine.stop()

    _run(scenario())


def test_deadline_shrinks_effective_timeout(monkeypatch):
    def slow(text, alg):
        time.sleep(0.5)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        # default_timeout is generous; the deadline must win.
        engine = SchedulingEngine(EngineConfig(workers=0, default_timeout=30.0))
        await engine.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(ServiceTimeoutError):
                await engine.submit(_instance(), "HEFT",
                                    deadline=Deadline.after(0.1))
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, (
                f"deadline of 0.1s must cut the 30s default timeout, waited {elapsed:.2f}s"
            )
        finally:
            await engine.stop()

    _run(scenario())


def test_cache_hit_still_answers_past_deadline():
    """A hit costs nothing, so even an expired request gets its answer."""

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            inst = _instance()
            await engine.submit(inst, "HEFT")
            past = Deadline(time.monotonic() - 1.0)
            hit = await engine.submit(inst, "HEFT", deadline=past)
            assert hit["cache_hit"] is True
        finally:
            await engine.stop()

    _run(scenario())


def test_deadline_accepts_raw_monotonic_float(monkeypatch):
    def slow(text, alg):
        time.sleep(0.5)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0, default_timeout=30.0))
        await engine.start()
        try:
            with pytest.raises(ServiceTimeoutError):
                await engine.submit(_instance(), "HEFT",
                                    deadline=time.monotonic() + 0.1)
        finally:
            await engine.stop()

    _run(scenario())


def test_retry_after_hint_bounds():
    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            assert 0.05 <= engine.retry_after_hint() <= 2.0
        finally:
            await engine.stop()

    _run(scenario())


# ----------------------------------------------------------------------
# shutdown regressions (satellites)
# ----------------------------------------------------------------------
def test_stop_with_full_queue_does_not_deadlock(monkeypatch):
    """Regression: stop used to signal the dispatcher with an in-band
    ``None`` queue sentinel; a full bounded queue could refuse the
    (re-)enqueue, crashing the dispatcher and deadlocking shutdown.
    The stop signal is now a dedicated event, so a brim-full queue
    shuts down exactly like an empty one."""

    def slow(text, alg):
        time.sleep(0.3)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(
            EngineConfig(workers=0, queue_depth=2, default_timeout=30.0)
        )
        await engine.start()
        # Fill every stage: one job running (holding the only dispatch
        # slot), one held by the dispatcher waiting for that slot, and
        # then enough to leave the bounded queue itself at capacity.
        waiters = [asyncio.create_task(engine.submit(_instance(0), "HEFT"))]
        await asyncio.sleep(0.05)
        waiters.append(asyncio.create_task(engine.submit(_instance(1), "HEFT")))
        await asyncio.sleep(0.02)
        waiters += [
            asyncio.create_task(engine.submit(_instance(seed), "HEFT"))
            for seed in (2, 3)
        ]
        await asyncio.sleep(0.02)
        assert engine._queue.full(), "scenario must stop an engine at queue capacity"
        t0 = time.monotonic()
        await engine.stop(drain=False)
        assert time.monotonic() - t0 < 4.0, "stop must not hang on a full queue"
        done = await asyncio.gather(*waiters, return_exceptions=True)
        assert all(
            isinstance(r, (ServiceClosedError, dict, asyncio.CancelledError))
            for r in done
        )
        assert any(isinstance(r, ServiceClosedError) for r in done)
        # The engine restarts cleanly after the hard stop.
        await engine.start()
        try:
            payload = await engine.submit(_instance(9), "HEFT")
            assert payload["alg"] == "HEFT"
        finally:
            await engine.stop()

    _run(scenario())


def test_graceful_drain_with_queued_backlog(monkeypatch):
    real = protocol.compute_schedule_payload

    def slow(text, alg):
        time.sleep(0.05)
        return real(text, alg)

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0, queue_depth=8))
        await engine.start()
        waiters = [
            asyncio.create_task(engine.submit(_instance(seed), "HEFT"))
            for seed in range(4)
        ]
        await asyncio.sleep(0.02)
        await engine.stop(drain=True)
        results = await asyncio.gather(*waiters)
        assert all(isinstance(r, dict) and r["placements"] for r in results)

    _run(scenario())


def test_slot_released_when_job_task_cancelled_before_start():
    """Regression: the dispatch slot used to be released in
    ``_run_job``'s ``finally``; a task cancelled before its first await
    never enters the coroutine body, so the slot leaked and the engine
    permanently lost one unit of dispatch concurrency.  The dispatcher
    now owns acquire *and* release (done-callback), which fires for
    cancelled-before-start tasks too."""

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0))
        await engine.start()
        try:
            job = engine_mod._Job(
                "key", "{}", "HEFT", asyncio.get_running_loop().create_future()
            )
            # Exactly what the dispatcher does per batch item:
            await engine._slots.acquire()
            task = asyncio.create_task(engine._run_job(job))
            engine._running.add(task)
            task.add_done_callback(engine._job_task_done)
            # Cancelled before the event loop ever runs the coroutine.
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            assert engine._slots._value == 1, "cancelled-before-start task leaked its slot"
        finally:
            await engine.stop(drain=False)

    _run(scenario())


def test_slot_count_restored_after_hard_stop_under_load(monkeypatch):
    def slow(text, alg):
        time.sleep(0.2)
        return {"alg": alg, "makespan": 0.0, "placements": []}

    monkeypatch.setattr(protocol, "compute_schedule_payload", slow)

    async def scenario():
        engine = SchedulingEngine(EngineConfig(workers=0, queue_depth=16))
        await engine.start()
        waiters = [
            asyncio.create_task(engine.submit(_instance(seed), "HEFT"))
            for seed in range(6)
        ]
        await asyncio.sleep(0.05)
        await engine.stop(drain=False)
        await asyncio.gather(*waiters, return_exceptions=True)
        assert engine._slots._value == 1, "hard stop must restore every dispatch slot"

    _run(scenario())


# ----------------------------------------------------------------------
# Deadline unit behaviour
# ----------------------------------------------------------------------
def test_deadline_arithmetic_with_injected_clock():
    now = {"t": 100.0}
    clock = lambda: now["t"]  # noqa: E731
    d = Deadline.after(5.0, clock=clock)
    assert d.remaining(clock) == pytest.approx(5.0)
    assert not d.expired(clock)
    now["t"] = 104.0
    assert d.remaining(clock) == pytest.approx(1.0)
    now["t"] = 105.5
    assert d.expired(clock)
    assert d.remaining(clock) == pytest.approx(-0.5)


def test_deadline_rejects_non_positive_horizon():
    with pytest.raises(ValueError):
        Deadline.after(0.0)
    with pytest.raises(ValueError):
        Deadline.after(-1.0)


def test_engine_config_resilience_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_respawns=-1)
    with pytest.raises(ValueError):
        EngineConfig(respawn_window=0.0)
