"""Binary wire format + persistent warm cache benchmark.

Measures what the wire layer actually bought on the warm path, against
the same daemon:

* **JSON warm** — the pre-wire baseline: JSON request/response documents
  over one TCP connection per request (``Connection: close``);
* **binary warm** — the packed-array wire format over a kept-alive
  connection, the server re-serving memoised payload bytes;
* **restart warm** — the daemon stopped and rebooted on the same
  ``--cache-dir``, every request answered from the recovered segment
  without recompute.

It also cross-checks correctness: the schedule decoded from a binary
response must be bit-identical to the one decoded from the JSON
response for every instance.

Writes ``BENCH_wire.json`` at the repo root.  Run directly to
regenerate:

    PYTHONPATH=src python benchmarks/bench_wire.py

The pytest wrapper re-runs a smaller protocol and enforces the PR's
acceptance floor: binary warm p50 at least 10x below the JSON warm
baseline, bit-identical cross-wire schedules, and a restarted daemon
serving warm hits from the persisted segment.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import tempfile
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
OUT = ROOT / "BENCH_wire.json"

#: Benchmark protocol.  Serving-representative DAGs (200 tasks x 8
#: procs): JSON encode/decode cost grows linearly with placement count
#: while the binary path stays transport-bound, so this size shows the
#: wire format's steady-state gap.  (BENCH_service.json keeps the
#: original 80-task protocol for longitudinal comparison.)
PROTOCOL = dict(num_instances=24, num_tasks=200, num_procs=8, workers=2, alg="IMP")

#: Response-envelope fields that vary per request; everything else in a
#: result payload must match bit-for-bit across wire formats.
ENVELOPE = ("cache_hit", "fingerprint", "server_ms", "trace_id")


def _instances(n: int, num_tasks: int, num_procs: int, seed_base: int = 1000):
    return [
        W.random_instance(as_generator(seed_base + i), num_tasks=num_tasks, num_procs=num_procs)
        for i in range(n)
    ]


def _canonical(payload: dict) -> str:
    """A payload's placement content as one comparable string."""
    return json.dumps(
        {k: v for k, v in payload.items() if k not in ENVELOPE}, sort_keys=True
    )


async def _timed_serial(client: ServiceClient, instances, alg: str):
    """Per-request wall latencies (ms) and the result payloads."""
    latencies, payloads = [], []
    for inst in instances:
        t0 = time.perf_counter()
        result = await client.schedule(inst, alg=alg)
        latencies.append((time.perf_counter() - t0) * 1e3)
        payloads.append(result.payload)
    return latencies, payloads


def _summary(latencies: list[float]) -> dict:
    return {
        "mean_ms": statistics.fmean(latencies),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "min_ms": min(latencies),
        "max_ms": max(latencies),
    }


async def _boot(workers: int, cache_dir: str, num_instances: int) -> ScheduleServer:
    engine = SchedulingEngine(
        EngineConfig(workers=workers, cache_size=4 * num_instances,
                     queue_depth=256, cache_dir=cache_dir)
    )
    server = ScheduleServer(engine, port=0)
    await server.start()
    return server


async def run_benchmark(num_instances: int, num_tasks: int, num_procs: int,
                        workers: int, alg: str, cache_dir: str | None = None) -> dict:
    """Full protocol: prime, measure both wire formats warm, restart."""
    instances = _instances(num_instances, num_tasks, num_procs)
    own_dir = tempfile.TemporaryDirectory() if cache_dir is None else None
    cache_dir = cache_dir or own_dir.name
    try:
        server = await _boot(workers, cache_dir, num_instances)
        bin_client = ServiceClient(port=server.port, request_timeout=300.0, wire="bin")
        json_client = ServiceClient(port=server.port, request_timeout=300.0, wire="json")
        try:
            cold, _ = await _timed_serial(bin_client, instances, alg)
            # Unmeasured JSON pass first: it registers each body in the
            # server's exact-body map, so the measured JSON pass below
            # is the *best case* for the baseline (no parsing, no
            # fingerprinting — pure JSON framing + per-request TCP).
            await _timed_serial(json_client, instances, alg)
            json_warm, json_payloads = await _timed_serial(json_client, instances, alg)
            bin_warm, bin_payloads = await _timed_serial(bin_client, instances, alg)
            identical = all(
                _canonical(a) == _canonical(b)
                for a, b in zip(json_payloads, bin_payloads)
            )
            stats = (await bin_client.stats()).as_dict()
        finally:
            await bin_client.close()
            await server.stop()

        # Cold restart on the same segment: the daemon must come back
        # warm — every request a cache hit, zero recompute.
        server = await _boot(workers=0, cache_dir=cache_dir,
                             num_instances=num_instances)
        restart_client = ServiceClient(port=server.port, request_timeout=300.0)
        try:
            recovery = dict(server.engine.recovery_report or {})
            restart_warm, restart_payloads = await _timed_serial(
                restart_client, instances, alg
            )
            restart_hits = sum(bool(p.get("cache_hit")) for p in restart_payloads)
            restart_identical = all(
                _canonical(a) == _canonical(b)
                for a, b in zip(json_payloads, restart_payloads)
            )
        finally:
            await restart_client.close()
            await server.stop()
    finally:
        if own_dir is not None:
            own_dir.cleanup()

    json_p50 = _summary(json_warm)["p50_ms"]
    bin_p50 = _summary(bin_warm)["p50_ms"]
    return {
        "config": {
            "num_instances": num_instances,
            "num_tasks": num_tasks,
            "num_procs": num_procs,
            "workers": workers,
            "alg": alg,
        },
        "cold": _summary(cold),
        "warm_json": _summary(json_warm),
        "warm_bin": _summary(bin_warm),
        "warm_speedup_p50": json_p50 / max(bin_p50, 1e-9),
        "cross_wire_identical": identical,
        "restart": {
            "recovery": recovery,
            "warm": _summary(restart_warm),
            "cache_hits": restart_hits,
            "requests": num_instances,
            "identical_to_prerestart": restart_identical,
        },
        "server_stats": stats,
    }


def generate() -> dict:
    doc = {
        "benchmark": "repro.service binary wire + persistent cache warm path",
        "results": asyncio.run(run_benchmark(**PROTOCOL)),
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


# ----------------------------------------------------------------------
# pytest wrapper (CI gate, smaller protocol)
# ----------------------------------------------------------------------
def test_binary_wire_warm_path_floor():
    result = asyncio.run(
        run_benchmark(num_instances=8, num_tasks=200, num_procs=8, workers=2, alg="IMP")
    )
    json_p50 = result["warm_json"]["p50_ms"]
    bin_p50 = result["warm_bin"]["p50_ms"]
    assert result["cross_wire_identical"], (
        "binary and JSON responses must decode to bit-identical schedules"
    )
    assert bin_p50 * 10 <= json_p50, (
        f"binary warm p50 {bin_p50:.3f}ms not >=10x below JSON warm p50 {json_p50:.3f}ms"
    )
    restart = result["restart"]
    assert restart["cache_hits"] == restart["requests"], (
        "restarted daemon must answer every request from the persisted cache"
    )
    assert restart["identical_to_prerestart"], (
        "recovered payloads must be bit-identical to pre-restart responses"
    )
    assert restart["recovery"]["recovered"] >= restart["requests"]


if __name__ == "__main__":
    doc = generate()
    res = doc["results"]
    print(f"cold        p50 {res['cold']['p50_ms']:8.3f} ms")
    print(f"warm json   p50 {res['warm_json']['p50_ms']:8.3f} ms   "
          f"p95 {res['warm_json']['p95_ms']:8.3f} ms")
    print(f"warm bin    p50 {res['warm_bin']['p50_ms']:8.3f} ms   "
          f"p95 {res['warm_bin']['p95_ms']:8.3f} ms")
    print(f"warm speedup (p50): {res['warm_speedup_p50']:.1f}x "
          f"(cross-wire identical: {res['cross_wire_identical']})")
    rst = res["restart"]
    print(f"restart     p50 {rst['warm']['p50_ms']:8.3f} ms   "
          f"hits {rst['cache_hits']}/{rst['requests']} "
          f"(recovered {rst['recovery'].get('recovered', 0)} records)")
    print(f"wrote {OUT}")
