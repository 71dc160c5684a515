"""Serving-layer throughput/latency benchmark.

Boots the real daemon (TCP, process-pool workers), drives it with the
async client, and measures:

* **cold** per-request latency — unique instances, every request reaches
  a worker;
* **warm** per-request latency — the same instances again, every request
  a cache hit;
* **sustained throughput** — a concurrent burst across the worker pool.

Writes ``BENCH_service.json`` at the repo root.  Run directly to
regenerate:

    PYTHONPATH=src python benchmarks/bench_service.py

The pytest wrapper re-runs a smaller protocol and enforces the PR's
acceptance floor: warm-cache latency at least 10x below cold at >= 2
workers, with throughput > 0 sustained over the burst.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

from repro.bench import workloads as W
from repro.service import (
    EngineConfig,
    ScheduleServer,
    SchedulingEngine,
    ServiceClient,
)
from repro.utils.rng import as_generator
from repro.utils.stats import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_service.json"

#: Benchmark protocol: medium DAGs so a cold request costs real
#: scheduling work, sized to keep the whole harness under ~2 minutes.
PROTOCOL = dict(num_instances=24, num_tasks=80, num_procs=8, workers=2, alg="IMP")


def _instances(n: int, num_tasks: int, num_procs: int, seed_base: int = 1000):
    return [
        W.random_instance(as_generator(seed_base + i), num_tasks=num_tasks, num_procs=num_procs)
        for i in range(n)
    ]


async def _timed_serial(client: ServiceClient, instances, alg: str) -> list[float]:
    """Per-request wall latencies (ms), submitted one at a time."""
    latencies = []
    for inst in instances:
        t0 = time.perf_counter()
        await client.schedule(inst, alg=alg)
        latencies.append((time.perf_counter() - t0) * 1e3)
    return latencies


async def _timed_burst(client: ServiceClient, instances, alg: str) -> float:
    """Concurrent burst; returns sustained requests/second."""
    t0 = time.perf_counter()
    await asyncio.gather(*[client.schedule(i, alg=alg) for i in instances])
    return len(instances) / (time.perf_counter() - t0)


def _summary(latencies: list[float]) -> dict:
    return {
        "mean_ms": statistics.fmean(latencies),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "min_ms": min(latencies),
        "max_ms": max(latencies),
    }


async def run_benchmark(num_instances: int, num_tasks: int, num_procs: int,
                        workers: int, alg: str) -> dict:
    """One full cold/warm/burst protocol against a fresh daemon."""
    instances = _instances(num_instances, num_tasks, num_procs)
    engine = SchedulingEngine(
        EngineConfig(workers=workers, cache_size=4 * num_instances, queue_depth=256)
    )
    server = ScheduleServer(engine, port=0)
    await server.start()
    client = ServiceClient(port=server.port, request_timeout=300.0)
    try:
        cold = await _timed_serial(client, instances, alg)
        warm = await _timed_serial(client, instances, alg)
        # Burst over a fresh instance set (disjoint seeds, so every
        # request is cold) to measure pool throughput, then a warm burst
        # over the cached set.
        burst_instances = _instances(num_instances, num_tasks, num_procs, seed_base=9000)
        cold_rps = await _timed_burst(client, burst_instances, alg)
        warm_rps = await _timed_burst(client, instances, alg)
        stats = (await client.stats()).as_dict()
    finally:
        await server.stop()
    result = {
        "config": {
            "num_instances": num_instances,
            "num_tasks": num_tasks,
            "num_procs": num_procs,
            "workers": workers,
            "alg": alg,
        },
        "cold": _summary(cold),
        "warm": _summary(warm),
        "warm_speedup_p50": _summary(cold)["p50_ms"] / max(_summary(warm)["p50_ms"], 1e-9),
        "throughput_cold_rps": cold_rps,
        "throughput_warm_rps": warm_rps,
        "server_stats": stats,
    }
    return result


def generate() -> dict:
    doc = {
        "benchmark": "repro.service cold/warm latency + throughput",
        "results": asyncio.run(run_benchmark(**PROTOCOL)),
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


# ----------------------------------------------------------------------
# pytest wrapper (soft-threshold CI gate, smaller protocol)
# ----------------------------------------------------------------------
def test_service_warm_cache_latency_floor():
    result = asyncio.run(
        run_benchmark(num_instances=8, num_tasks=60, num_procs=6, workers=2, alg="IMP")
    )
    cold_p50 = result["cold"]["p50_ms"]
    warm_p50 = result["warm"]["p50_ms"]
    assert result["server_stats"]["cache_hits"] >= 8, "warm pass must hit the cache"
    assert warm_p50 * 10 <= cold_p50, (
        f"warm-cache p50 {warm_p50:.2f}ms not >=10x below cold p50 {cold_p50:.2f}ms"
    )
    assert result["throughput_cold_rps"] > 0
    assert result["throughput_warm_rps"] > result["throughput_cold_rps"]


if __name__ == "__main__":
    doc = generate()
    res = doc["results"]
    print(f"cold  p50 {res['cold']['p50_ms']:8.2f} ms   p95 {res['cold']['p95_ms']:8.2f} ms")
    print(f"warm  p50 {res['warm']['p50_ms']:8.2f} ms   p95 {res['warm']['p95_ms']:8.2f} ms")
    print(f"warm speedup (p50): {res['warm_speedup_p50']:.1f}x")
    print(f"throughput cold {res['throughput_cold_rps']:.1f} rps, "
          f"warm {res['throughput_warm_rps']:.1f} rps "
          f"(workers={res['config']['workers']})")
    print(f"wrote {OUT}")
