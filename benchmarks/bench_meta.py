"""Metaheuristic decode-throughput benchmark for the compiled core.

Times the GA fitness loop both ways on representative instances — the
object path (genome -> assignment dict -> ``decode_assignment`` under
``object_path()``, which places through the object primitives ->
``Schedule.makespan``, what the GA inner loop did before the compiled
core) against ``CompiledInstance.decode_batch`` — verifies the spans are
bit-identical, times full GA/SA runs with the compiled core on vs forced
off, and writes ``BENCH_meta.json`` at the repo root.

Run directly to regenerate the JSON:

    PYTHONPATH=src python benchmarks/bench_meta.py

The pytest wrapper re-checks equivalence as a hard gate and the decode
speedup against a soft threshold (CI boxes vary; the committed JSON
records the >= 5x measured on a quiet machine).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    # The object-path helper lives in the tests package; direct
    # ``python benchmarks/bench_meta.py`` runs need the repo root.
    sys.path.insert(0, str(ROOT))

from repro.bench import workloads as W
from repro.compiled import compile_instance
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from tests.object_path import object_path

OUT = ROOT / "BENCH_meta.json"

#: (num_tasks, num_procs) per workload row; GA-default population size.
SIZES = [(40, 8), (80, 8), (120, 8)]
POP = 24
ROUNDS = 6


def _bench_decode(num_tasks: int, num_procs: int) -> dict:
    inst = W.random_instance(np.random.default_rng(17), num_tasks=num_tasks, num_procs=num_procs)
    compiled = compile_instance(inst)
    order = rank_order(inst)
    tasks = list(order)
    procs = inst.machine.proc_ids()
    rng = np.random.default_rng(23)
    population = rng.integers(0, num_procs, size=(POP, num_tasks))

    # Object path: what GeneticScheduler.evaluate() cost per genome
    # before the compiled core, conversion included.  Outside
    # ``object_path()`` ``decode_assignment`` runs the compiled list pass.
    object_spans = []
    with object_path():
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            object_spans = [
                decode_assignment(
                    inst, {t: procs[int(g)] for t, g in zip(tasks, genome)}, order
                ).makespan
                for genome in population
            ]
        object_s = (time.perf_counter() - t0) / (ROUNDS * POP)

    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        batch_spans = compiled.decode_batch(population)
    batch_s = (time.perf_counter() - t0) / (ROUNDS * POP)

    identical = all(a == b for a, b in zip(object_spans, batch_spans.tolist()))
    return {
        "num_tasks": num_tasks,
        "num_procs": num_procs,
        "population": POP,
        "object_us_per_decode": object_s * 1e6,
        "batch_us_per_decode": batch_s * 1e6,
        "speedup": object_s / batch_s if batch_s > 0 else float("inf"),
        "bit_identical": identical,
    }


def _bench_end_to_end() -> dict:
    from repro.schedulers.meta import GeneticScheduler, SimulatedAnnealingScheduler

    inst = W.random_instance(np.random.default_rng(31), num_tasks=60, num_procs=6)
    report = {}
    for name, make in (
        ("ga", lambda: GeneticScheduler(population=20, generations=20, seed=3)),
        ("sa", lambda: SimulatedAnnealingScheduler(iterations=600, seed=3)),
    ):
        with object_path():
            t0 = time.perf_counter()
            legacy = make().schedule(inst)
            legacy_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = make().schedule(inst)
        fast_s = time.perf_counter() - t0
        report[name] = {
            "object_s": legacy_s,
            "compiled_s": fast_s,
            "speedup": legacy_s / fast_s if fast_s > 0 else float("inf"),
            "identical_makespan": fast.makespan == legacy.makespan,
        }
    return report


def run_meta_bench() -> dict:
    decode = [_bench_decode(n, q) for n, q in SIZES]
    return {
        "decode": decode,
        "decode_speedup_min": min(row["speedup"] for row in decode),
        "end_to_end": _bench_end_to_end(),
    }


def test_meta_decode_gate():
    """Bit-identity is a hard gate; the throughput floor is soft (3x in
    CI vs the >= 5x recorded in BENCH_meta.json on a quiet machine)."""
    report = run_meta_bench()
    assert all(row["bit_identical"] for row in report["decode"]), report["decode"]
    for name, row in report["end_to_end"].items():
        assert row["identical_makespan"], (name, row)
    assert report["decode_speedup_min"] >= 3.0, report["decode"]
    assert report["end_to_end"]["ga"]["speedup"] > 1.5, report["end_to_end"]


def main() -> None:
    report = run_meta_bench()
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["decode"]:
        print(
            f"decode {row['num_tasks']:>3}t/{row['num_procs']}p: "
            f"object {row['object_us_per_decode']:8.1f}us  "
            f"batch {row['batch_us_per_decode']:7.1f}us  "
            f"{row['speedup']:5.1f}x  identical={row['bit_identical']}"
        )
    for name, row in report["end_to_end"].items():
        print(
            f"{name.upper()} end-to-end: object {row['object_s']:.3f}s  "
            f"compiled {row['compiled_s']:.3f}s  ({row['speedup']:.2f}x, "
            f"identical={row['identical_makespan']})"
        )
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
