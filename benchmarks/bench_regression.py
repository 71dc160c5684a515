"""Hot-path performance regression harness.

Times the E1-style replication sweep four ways — the scalar object path
(serial, through the test-side ``tests/object_path.py`` helper), the
compiled executor (serial), and the parallel runner at 2 and 4 workers
— verifies all four produce *identical* per-replication results,
microbenchmarks the kernel's rank recurrence against its scalar
reference, and writes everything to ``BENCH_hotpath.json`` at the repo
root.

Run directly to regenerate the JSON:

    PYTHONPATH=src python benchmarks/bench_regression.py

The pytest wrapper re-runs the sweep comparison with a soft threshold so
a silent performance regression (or a broken equivalence) fails CI.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    # The object-path helper lives in the tests package; direct
    # ``python benchmarks/bench_regression.py`` runs need the repo root.
    sys.path.insert(0, str(ROOT))

from repro.bench import workloads as W
from repro.bench.runner import run_sweep
from repro.schedulers.ranking import upward_ranks, upward_ranks_scalar
from tests.object_path import object_path

OUT = ROOT / "BENCH_hotpath.json"

# E1-style sweep: the paper's compared set over random DAG sizes.  Sized
# so process-pool startup (~0.1 s) amortizes on small machines while the
# whole harness stays under a couple of minutes.
SWEEP = dict(
    scheduler_names=W.COMPARED,
    x_name="num_tasks",
    x_values=[40, 80, 120],
    instance_factory=W.SweepFactory(kind="random", param="num_tasks"),
    reps=6,
    metric="slr",
    seed=101,
    check=False,
)


def _time_sweep(workers: int, legacy: bool = False) -> tuple[float, object]:
    with object_path() if legacy else nullcontext():
        t0 = time.perf_counter()
        res = run_sweep(workers=workers, **SWEEP)
        elapsed = time.perf_counter() - t0
    return elapsed, res


def _bench_ranks(trials: int = 20, repeats: int = 5) -> dict[str, float]:
    """The kernel's rank recurrence against its scalar reference.

    *Cached*: repeat calls on one instance whose kernel already holds
    the ranks.  *Cold*: the first rank recurrence on each fresh
    instance, each leg on its own freshly built batch.  Both legs read
    the instance kernel (the kernel leg its adjacency memo, the scalar
    leg its per-edge averages through ``Instance.avg_comm_time``), so
    the batch builds every kernel outside the timed region; timed
    inside, both legs were dominated by the same kernel build and the
    ratio sat near 1.0.  The legs alternate which runs first,
    ``gc.collect()`` runs before every timed batch and each figure is the
    median over ``repeats`` batches: timed one after the other, whichever
    leg ran second read about 1.7-1.9x slower.
    """

    def fresh() -> list:
        batch = [
            W.random_instance(np.random.default_rng(5), num_tasks=120, num_procs=8)
            for _ in range(trials)
        ]
        for inst in batch:
            inst.kernel  # built here, outside the timed region
        return batch

    def timed(fn, batch: list) -> float:
        gc.collect()
        t0 = time.perf_counter()
        for inst in batch:
            fn(inst)
        return (time.perf_counter() - t0) / len(batch)

    warm = fresh()[0]
    warm.kernel.upward("mean")  # the kernel's per-aggregation rank cache
    legs = {
        "scalar_s": lambda: timed(upward_ranks_scalar, [warm] * trials),
        "kernel_cached_s": lambda: timed(upward_ranks, [warm] * trials),
        "scalar_cold_s": lambda: timed(upward_ranks_scalar, fresh()),
        "kernel_cold_s": lambda: timed(upward_ranks, fresh()),
    }
    pairs = [("scalar_s", "kernel_cached_s"), ("scalar_cold_s", "kernel_cold_s")]
    samples: dict[str, list[float]] = {name: [] for name in legs}
    for rep in range(repeats):
        for pair in pairs:
            for name in pair if rep % 2 == 0 else reversed(pair):
                samples[name].append(legs[name]())
    out = {name: statistics.median(vals) for name, vals in samples.items()}
    out["speedup_cached"] = out["scalar_s"] / out["kernel_cached_s"]
    out["speedup_cold"] = out["scalar_cold_s"] / out["kernel_cold_s"]
    out["repeats"] = repeats
    return out


def run_regression() -> dict:
    legacy_s, legacy = _time_sweep(workers=1, legacy=True)
    fast_s, fast = _time_sweep(workers=1)
    par2_s, par2 = _time_sweep(workers=2)
    par4_s, par4 = _time_sweep(workers=4)

    identical = all(r.raw == legacy.raw and r.series == legacy.series for r in (fast, par2, par4))

    return {
        "sweep": {
            "config": {k: str(v) if k == "instance_factory" else v for k, v in SWEEP.items()},
            "legacy_serial_s": legacy_s,
            "optimized_serial_s": fast_s,
            "parallel2_s": par2_s,
            "parallel4_s": par4_s,
            "speedup_serial": legacy_s / fast_s,
            "speedup_parallel4_vs_legacy": legacy_s / par4_s,
            "results_identical_across_modes": identical,
        },
        "ranks": _bench_ranks(),
    }


def test_hotpath_regression():
    """Equivalence is a hard gate; speed a soft one (CI boxes vary)."""
    report = run_regression()
    sweep = report["sweep"]
    assert sweep["results_identical_across_modes"], "parallel/compiled results diverged"
    best = min(sweep["optimized_serial_s"], sweep["parallel4_s"])
    assert sweep["legacy_serial_s"] / best >= 1.5, (
        f"hot path slower than expected: {sweep}"
    )
    assert report["ranks"]["speedup_cached"] > 1.0
    # First-call (cold) ranks must not regress below the scalar path:
    # the kernel runs the same recurrence over its memoized adjacency.
    assert report["ranks"]["speedup_cold"] > 1.0


def main() -> None:
    report = run_regression()
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    sweep = report["sweep"]
    print(f"legacy serial     : {sweep['legacy_serial_s']:.3f}s")
    print(f"optimized serial  : {sweep['optimized_serial_s']:.3f}s "
          f"({sweep['speedup_serial']:.2f}x)")
    print(f"parallel x2       : {sweep['parallel2_s']:.3f}s")
    print(f"parallel x4       : {sweep['parallel4_s']:.3f}s "
          f"({sweep['speedup_parallel4_vs_legacy']:.2f}x vs legacy)")
    print(f"identical results : {sweep['results_identical_across_modes']}")
    print(f"rank kernel       : {report['ranks']['speedup_cached']:.1f}x cached, "
          f"{report['ranks']['speedup_cold']:.2f}x cold")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
