"""No-op tracer overhead benchmark for the observability layer.

The obs layer's core promise is that *not* tracing costs nothing: the
module-default :class:`~repro.obs.NullTracer` reduces every hot-path
hook to one attribute read (``tracer.enabled``) plus, per phase, a no-op
context manager.  This benchmark measures that claim on the two hottest
instrumented paths and writes ``BENCH_obs.json`` at the repo root:

* ``decode_batch`` — the GA fitness loop of the compiled core — against
  a verbatim replica of its body with the tracer hooks deleted;
* ``HEFT().schedule()`` against a hook-free replica of its compiled
  branch (``priority_order`` → ``schedule_list`` → ``materialize``), the
  path every HEFT call runs, traced or not.

Both comparisons take best-of-``ROUNDS`` timings (noise suppression)
and hard-assert bit-identical outputs.  The enabled-tracer cost is also
recorded, informationally — tracing *on* is allowed to cost something.

Run directly to regenerate the JSON:

    PYTHONPATH=src python benchmarks/bench_obs.py

The pytest wrapper re-checks bit-identity as a hard gate and the no-op
overhead against a soft threshold (CI boxes are noisy; the committed
JSON records the <2% measured on a quiet machine).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench import workloads as W
from repro.compiled import compile_instance
from repro.obs import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.heft import HEFT

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_obs.json"

NUM_TASKS = 60
NUM_PROCS = 8
POP = 32
ROUNDS = 30


def _best_of(fn, rounds: int = ROUNDS) -> float:
    """Minimum wall time of ``fn`` over ``rounds`` runs (seconds)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _instance(seed: int = 17):
    return W.random_instance(
        np.random.default_rng(seed), num_tasks=NUM_TASKS, num_procs=NUM_PROCS
    )


def _bench_decode_overhead() -> dict:
    inst = _instance()
    compiled = compile_instance(inst)
    population = np.random.default_rng(23).integers(
        0, NUM_PROCS, size=(POP, NUM_TASKS)
    )
    decode = compiled.decode_span

    def raw():
        # decode_batch's body with the tracer hooks deleted.
        rows = np.asarray(population)
        return np.array([decode(g) for g in rows.tolist()], dtype=float)

    def noop():
        return compiled.decode_batch(population)

    assert get_tracer() is NULL_TRACER
    baseline = raw()
    assert np.array_equal(noop(), baseline)  # hard gate: bit-identical
    raw_s = _best_of(raw)
    noop_s = _best_of(noop)

    tracer = Tracer()
    with use_tracer(tracer):
        assert np.array_equal(compiled.decode_batch(population), baseline)
        enabled_s = _best_of(lambda: compiled.decode_batch(population), rounds=10)

    return {
        "path": "compiled.decode_batch",
        "num_tasks": NUM_TASKS,
        "population": POP,
        "raw_us_per_batch": raw_s * 1e6,
        "noop_us_per_batch": noop_s * 1e6,
        "noop_overhead_pct": (noop_s / raw_s - 1.0) * 100.0,
        "enabled_overhead_pct": (enabled_s / raw_s - 1.0) * 100.0,
        "bit_identical": True,
    }


def _heft_raw(scheduler: HEFT, inst) -> Schedule:
    """``ListScheduler.schedule``'s compiled branch with the tracer
    hooks deleted."""
    order = scheduler.priority_order(inst)
    if set(order) != set(inst.dag.tasks()) or len(order) != inst.num_tasks:
        raise AssertionError("priority order does not cover the instance")
    ci = compile_instance(inst)
    result = ci.schedule_list(
        ci.order_indices(order),
        insertion=scheduler.insertion,
        policy=scheduler.compiled_policy,
    )
    return ci.materialize(result, inst.machine, f"{scheduler.name}:{inst.name}")


def _bench_heft_overhead() -> dict:
    inst = _instance(seed=29)
    scheduler = HEFT()

    assert get_tracer() is NULL_TRACER
    baseline = _heft_raw(scheduler, inst)
    noop_schedule = scheduler.schedule(inst)
    assert noop_schedule.makespan == baseline.makespan  # hard gate
    raw_s = _best_of(lambda: _heft_raw(scheduler, inst))
    noop_s = _best_of(lambda: scheduler.schedule(inst))

    tracer = Tracer()
    with use_tracer(tracer):
        assert scheduler.schedule(inst).makespan == baseline.makespan
        enabled_s = _best_of(lambda: scheduler.schedule(inst), rounds=10)

    return {
        "path": "HEFT.schedule",
        "num_tasks": NUM_TASKS,
        "num_procs": NUM_PROCS,
        "raw_ms_per_schedule": raw_s * 1e3,
        "noop_ms_per_schedule": noop_s * 1e3,
        "noop_overhead_pct": (noop_s / raw_s - 1.0) * 100.0,
        "enabled_overhead_pct": (enabled_s / raw_s - 1.0) * 100.0,
        "identical_makespan": True,
    }


def run_obs_bench() -> dict:
    decode = _bench_decode_overhead()
    heft = _bench_heft_overhead()
    return {
        "decode": decode,
        "heft": heft,
        "noop_overhead_pct_max": max(
            decode["noop_overhead_pct"], heft["noop_overhead_pct"]
        ),
    }


def test_obs_noop_overhead_gate():
    """Bit-identity is a hard gate; the overhead ceiling is soft (10% in
    CI vs the <2% recorded in BENCH_obs.json on a quiet machine)."""
    report = run_obs_bench()
    assert report["decode"]["bit_identical"]
    assert report["heft"]["identical_makespan"]
    assert report["noop_overhead_pct_max"] < 10.0, report


def main() -> None:
    report = run_obs_bench()
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    d, h = report["decode"], report["heft"]
    print(
        f"decode_batch ({d['num_tasks']}t x {d['population']} genomes): "
        f"raw {d['raw_us_per_batch']:8.1f}us  noop {d['noop_us_per_batch']:8.1f}us "
        f"({d['noop_overhead_pct']:+.2f}%)  enabled {d['enabled_overhead_pct']:+.1f}%"
    )
    print(
        f"HEFT.schedule ({h['num_tasks']}t/{h['num_procs']}p): "
        f"raw {h['raw_ms_per_schedule']:7.3f}ms  noop {h['noop_ms_per_schedule']:7.3f}ms "
        f"({h['noop_overhead_pct']:+.2f}%)  enabled {h['enabled_overhead_pct']:+.1f}%"
    )
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
