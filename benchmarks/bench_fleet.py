"""Fleet scale-out benchmark: warm throughput 1 -> N shards.

What sharding buys on this workload is *aggregate cache capacity*: the
consistent-hash ring gives every fingerprint exactly one owner, so a
fleet of N shards holds N x cache_size schedules warm.  The protocol
fixes a working set **larger than one shard's cache** and replays it
round-robin through the router:

* at **1 shard** the LRU thrashes — cyclic replay of W > C keys evicts
  every entry before its reuse, so every request recomputes;
* at **4 shards** each shard owns ~W/4 keys, well under its cache, so
  after one priming pass every request is a warm hit on its owner.

That is the real serving economics of the fleet (and it holds on any
machine, including single-core CI runners, because the win comes from
cache capacity, not CPU parallelism).  Every configuration routes
through the router — the comparison isolates shard count, not proxy
overhead — and a separate check asserts routed responses are
bit-identical to a lone daemon's in both JSON and binary wire formats.

Writes ``BENCH_fleet.json`` at the repo root.  Run directly to
regenerate:

    PYTHONPATH=src python benchmarks/bench_fleet.py

The pytest wrapper re-runs a smaller protocol and enforces the PR's
acceptance floor: >= 2.5x warm throughput at 4 shards vs 1, all-warm at
4 shards, bit-identical routed responses in both wire formats.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

from repro.bench import workloads as W
from repro.instance_io import instance_to_json
from repro.service import (
    EngineConfig,
    ScheduleServer,
    SchedulingEngine,
    ServiceClient,
)
from repro.service.fleet import FleetManager
from repro.service.protocol import compute_schedule_payload
from repro.utils.rng import as_generator
from repro.utils.stats import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_fleet.json"

#: Benchmark protocol.  The working set (96 instances) is 2.4x one
#: shard's cache (40 entries): a single shard thrashes, four shards
#: (~24 keys each) serve everything warm.  60-task DAGs make a
#: recompute cost a few ms — serving-representative, and large enough
#: that the warm/cold gap, not proxy overhead, dominates the measure.
PROTOCOL = dict(working_set=96, cache_size=40, num_tasks=60, num_procs=4,
                alg="HEFT", rounds=3, shard_counts=(1, 2, 4),
                identity_subset=8)

#: Response-envelope fields that vary per request; everything else in a
#: result payload must match bit-for-bit however it was routed.
ENVELOPE = ("cache_hit", "fingerprint", "server_ms", "trace_id")


def _instances(n: int, num_tasks: int, num_procs: int, seed_base: int = 5000):
    return [
        W.random_instance(as_generator(seed_base + i),
                          num_tasks=num_tasks, num_procs=num_procs)
        for i in range(n)
    ]


def _canonical(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k not in ENVELOPE}, sort_keys=True
    )


def _summary(latencies: list[float]) -> dict:
    return {
        "mean_ms": statistics.fmean(latencies),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "max_ms": max(latencies),
    }


async def _measure_shards(shards: int, instances, alg: str, cache_size: int,
                          rounds: int) -> dict:
    """Prime the fleet once, then replay the working set ``rounds``
    times; returns warm throughput and latency shape."""
    manager = FleetManager(shards=shards, workers=0, cache_size=cache_size,
                           health_interval=0.0)
    await manager.start()
    try:
        client = ServiceClient.at(manager.endpoint, request_timeout=300.0)
        for inst in instances:  # priming pass (unmeasured)
            await client.schedule(inst, alg=alg)
        latencies, hits = [], 0
        t0 = time.perf_counter()
        for _ in range(rounds):
            for inst in instances:
                t1 = time.perf_counter()
                result = await client.schedule(inst, alg=alg)
                latencies.append((time.perf_counter() - t1) * 1e3)
                hits += bool(result.cache_hit)
        elapsed = time.perf_counter() - t0
        await client.close()
        requests = rounds * len(instances)
        return {
            "shards": shards,
            "requests": requests,
            "throughput_rps": requests / elapsed,
            "hit_rate": hits / requests,
            "latency": _summary(latencies),
            "router": manager.router.stats.as_dict(),
        }
    finally:
        await manager.stop()


async def _identity_check(instances, alg: str) -> dict:
    """Routed responses must be bit-identical to a lone daemon's, in
    both wire formats (and to the locally computed reference)."""
    reference = [
        _canonical(compute_schedule_payload(instance_to_json(inst), alg))
        for inst in instances
    ]
    solo = ScheduleServer(SchedulingEngine(EngineConfig(workers=0)), port=0)
    await solo.start()
    manager = FleetManager(shards=3, workers=0, health_interval=0.0)
    await manager.start()
    verdict = {}
    try:
        for wire_format in ("json", "bin"):
            solo_client = ServiceClient(port=solo.port, wire=wire_format,
                                        request_timeout=300.0)
            fleet_client = ServiceClient.at(manager.endpoint, wire=wire_format,
                                            request_timeout=300.0)
            ok = True
            for inst, expect in zip(instances, reference):
                a = await solo_client.schedule(inst, alg=alg)
                b = await fleet_client.schedule(inst, alg=alg)
                ok = ok and _canonical(a.payload) == expect
                ok = ok and _canonical(b.payload) == expect
            verdict[wire_format] = ok
            await solo_client.close()
            await fleet_client.close()
    finally:
        await manager.stop()
        await solo.stop()
    return verdict


async def run_benchmark(working_set: int, cache_size: int, num_tasks: int,
                        num_procs: int, alg: str, rounds: int,
                        shard_counts: tuple, identity_subset: int) -> dict:
    instances = _instances(working_set, num_tasks, num_procs)
    scaling = {}
    for shards in shard_counts:
        scaling[str(shards)] = await _measure_shards(
            shards, instances, alg, cache_size, rounds
        )
    identity = await _identity_check(instances[:identity_subset], alg)
    base = scaling[str(shard_counts[0])]["throughput_rps"]
    top = scaling[str(shard_counts[-1])]["throughput_rps"]
    return {
        "config": {
            "working_set": working_set,
            "cache_size_per_shard": cache_size,
            "num_tasks": num_tasks,
            "num_procs": num_procs,
            "alg": alg,
            "rounds": rounds,
        },
        "scaling": scaling,
        "speedup_max_vs_1": top / max(base, 1e-9),
        "identity": identity,
    }


def generate() -> dict:
    doc = {
        "benchmark": "repro.service.fleet warm throughput scaling",
        "results": asyncio.run(run_benchmark(**PROTOCOL)),
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


# ----------------------------------------------------------------------
# pytest wrapper (CI gate, smaller protocol)
# ----------------------------------------------------------------------
def test_fleet_warm_throughput_floor():
    result = asyncio.run(run_benchmark(
        working_set=36, cache_size=15, num_tasks=60, num_procs=4,
        alg="HEFT", rounds=2, shard_counts=(1, 4), identity_subset=6,
    ))
    assert result["identity"] == {"json": True, "bin": True}, (
        "routed responses must be bit-identical to a lone daemon's "
        f"in both wire formats: {result['identity']}"
    )
    one = result["scaling"]["1"]
    four = result["scaling"]["4"]
    assert four["hit_rate"] > 0.95, (
        f"4 shards should serve the working set all-warm, "
        f"hit rate {four['hit_rate']:.2f}"
    )
    assert one["hit_rate"] < 0.5, (
        f"1 shard should thrash on a working set 2.4x its cache, "
        f"hit rate {one['hit_rate']:.2f} — protocol no longer measures "
        f"cache capacity"
    )
    speedup = result["speedup_max_vs_1"]
    assert speedup >= 2.5, (
        f"warm throughput at 4 shards only {speedup:.2f}x over 1 shard "
        f"(floor 2.5x): {four['throughput_rps']:.0f} vs "
        f"{one['throughput_rps']:.0f} req/s"
    )


if __name__ == "__main__":
    doc = generate()
    res = doc["results"]
    for shards, row in res["scaling"].items():
        lat = row["latency"]
        print(f"{shards} shard(s): {row['throughput_rps']:8.1f} req/s   "
              f"hit rate {row['hit_rate']:5.1%}   "
              f"p50 {lat['p50_ms']:7.3f} ms   p95 {lat['p95_ms']:7.3f} ms")
    print(f"speedup {list(res['scaling'])[-1]} vs 1 shard: "
          f"{res['speedup_max_vs_1']:.1f}x")
    print(f"identity (routed == solo): {res['identity']}")
    print(f"wrote {OUT}")
