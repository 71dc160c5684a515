"""Metric declarations, percentiles, seeding and result printing.

Every metric the benchmark prints is declared here, once; the result
printer refuses an undeclared name, and ``perfbench/tests`` check these
tables against ``BENCHMARK.json``.  The module imports nothing heavy at
load time, so the set-up probe's own timing starts before the library
and NumPy are imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SWEEPS = ("sweep-uniform", "sweep-link")
WORKLOADS = (*SWEEPS, "serve-mix", "online-stream")

#: The paper's comparison line-up (``repro.bench.workloads.COMPARED``).
LINEUP = ("IMP", "LA-HEFT", "DUP-HEFT", "HEFT", "CPOP", "HCPT", "PETS", "DLS")

#: End-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one; what an operation is and which corpus sets the
#: quality differ per workload (see NOTES.md):
#:
#: - ``op_ms``: one schedule of the line-up (sweeps), one warm request on
#:   the binary wire (serve-mix), one simulated arrival (online-stream);
#: - ``quality_mean``: IMP's mean SLR over the fixed quality corpus
#:   (sweeps, and serve-mix as the daemon serves it), the reference
#:   stream's mean job slowdown (online-stream).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms": ("ms", "lower", 0.25),
    "quality_mean": ("ratio", "lower", 0.005),
}

#: Per-layer metrics (traced run): name -> (unit, better).  ``op`` is one
#: line-up on the sweeps, one request on serve-mix, one arrival on
#: online-stream; times are rescaled to reference speed like the
#: end-to-end ones.
PER_LAYER = {
    "compiled.lower_ms": ("ms/op", "lower"),
    "compiled.improved_ms": ("ms/op", "lower"),
    "compiled.improved_passes": ("count/op", "lower"),
    "compiled.improved_kept_ratio": ("ratio", "higher"),
    "compiled.list_ms": ("ms/op", "lower"),
    "compiled.materialize_ms": ("ms/op", "lower"),
    "compiled.share": ("ratio", "higher"),
    "compiled.onto_ms": ("ms/op", "lower"),
    "compiled.onto_calls": ("count/op", "lower"),
    "core.place_ms": ("ms/op", "lower"),
    "core.place_calls": ("count/op", "lower"),
    "core.refine_ms": ("ms/op", "lower"),
    "kernels.ready_times_ms": ("ms/op", "lower"),
    "kernels.ready_times_calls": ("count/op", "lower"),
    "schedulers.rank_ms": ("ms/op", "lower"),
    **{f"sched.{alg}.ms": ("ms/op", "lower") for alg in LINEUP},
    "schedule.validate_ms": ("ms/op", "lower"),
    "client.encode_ms": ("ms/op", "lower"),
    "client.decode_ms": ("ms/op", "lower"),
    **{f"service.{c}.framing_ms": ("ms", "lower") for c in ("warm_bin", "warm_json", "cold")},
    **{f"service.{c}.server_ms": ("ms", "lower") for c in ("warm_bin", "warm_json", "cold")},
    "service.cache_hit_ratio": ("ratio", "higher"),
    "service.cache_evictions": ("count", "lower"),
    "service.batch_size_mean": ("jobs/batch", "higher"),
    "service.lowering_hit_ratio": ("ratio", "higher"),
    "service.compiled_schedules": ("count", "higher"),
    "service.compiled_fallbacks": ("count", "lower"),
    "service.errors": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.timeouts": ("count", "lower"),
    "service.respawns": ("count", "lower"),
    "sim.advance_ms": ("ms/op", "lower"),
    "sim.occupy_ms": ("ms/op", "lower"),
    "sim.release_ms": ("ms/op", "lower"),
    "sim.policy_ms": ("ms/op", "lower"),
    "sim.placements_per_arrival": ("count/op", "lower"),
    "sim.peak_live_intervals": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Seconds :func:`calibrate` takes on an unloaded core of the reference
#: host (a VM with 2 vCPUs at 2.1 GHz).  Timed results are rescaled to
#: that speed: on that host CPU speed swings by up to 2x within seconds
#: (two busy vCPUs slow each other down, and other tenants share the
#: machine), and a calibration loop interleaved with the work tracks
#: most of the swing.  Raw values and the slowness factor are printed
#: beside each metric.
CAL_REF_S = 0.0025


def calibrate(iterations: int = 20000) -> float:
    """Seconds 10000 iterations of a fixed pure-Python workload (dict and
    float updates, no library code) take right now, measured over
    ``iterations``."""
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(iterations):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k] if i & 1 else -d[k]
    return (time.perf_counter() - t0) * 10000 / iterations


def calibrate_n(n: int = 5) -> list[float]:
    """``n`` back-to-back :func:`calibrate` samples."""
    return [calibrate() for _ in range(n)]


def speed(cal_s: list[float]) -> float:
    """Machine slowness relative to the reference (>1 means slower) from
    calibration times taken alongside the work; the median keeps one
    interrupted calibration from skewing it."""
    return statistics.median(cal_s) / CAL_REF_S


def derive_seed(*parts: int) -> int:
    """A 62-bit integer seed derived from ``parts`` (stable across runs)."""
    import numpy as np

    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(2))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


class Result:
    """What one run reports: operation counts, problems and metrics."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.env_extra: dict = {}
        self.recorder = None  # SpanRecorder of a traced run

    def problem(self, text: str, failed: int = 1) -> None:
        """Record a failed check (``failed`` operations counted)."""
        self.failed += failed
        if len(self.problems) < 50:
            self.problems.append(text)

    def pct(self, label: str, samples: list[float], q: float) -> float:
        """The ``q`` percentile of ``samples``, printed under ``label``
        with its sample count; fewer than ten samples beyond it fails the
        run."""
        n = len(samples)
        past = beyond(n, q)
        if past < 10:
            self.problem(f"{label}: p{q:g} has {past} samples beyond it (n={n}); need 10", 0)
        value = percentile(samples, q) if samples else 0.0
        self.notes.append(f"{label} = {value:.6g} (p{q:g} of n={n}, {past} beyond)")
        return value

    def set(self, name: str, value: float, note: str = "") -> None:
        """Report metric ``name``."""
        self.metrics[name] = float(value)
        if note:
            self.notes.append(f"{name} = {value:.6g} ({note})")


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the library sources (identifies the code measured
    when the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_block(result: Result) -> dict:
    import networkx
    import numpy as np

    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "daemon_workers": None,
        **result.env_extra,
    }


def emit(result: Result) -> int:
    """Print the environment, the notes and the final result line.

    Every declared metric of the run's kind (end-to-end or per-layer)
    must have been reported, or the run fails.  Returns the process exit
    code: 0 only when every check passed.
    """
    declared = PER_LAYER if result.trace else END_TO_END
    for name in result.metrics:
        if name not in declared:
            raise KeyError(f"undeclared metric {name!r}")
    missing = [name for name in declared if name not in result.metrics]
    if missing:
        result.problem(f"{result.workload} did not report {', '.join(missing)}", 0)
    print(json.dumps({"env": env_block(result)}, sort_keys=True))
    for line in result.notes:
        print(f"# {line}")
    for line in result.problems:
        print(f"# PROBLEM: {line}")
    correct = not result.problems and result.failed == 0 and result.attempted > 0
    units = {n: (PER_LAYER[n] if result.trace else END_TO_END[n])[0] for n in result.metrics}
    doc = {
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result.metrics.items()},
    }
    print(json.dumps(doc), flush=True)
    return 0 if correct else 1


def python_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_setup_probe(workload: str, seed: int, repeats: int = 3) -> list[tuple[float, float]]:
    """``(seconds, slowness)`` of ``repeats`` fresh interpreters that
    import the workload and build its first inputs (the user's set-up
    cost), each timed and calibrated inside the child."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, env=python_env(), check=True, timeout=120,
                              capture_output=True, text=True)
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        out.append((doc["seconds"], speed(doc["calibration_s"])))
    return out


def report_setup(res: "Result", runs: list[tuple[float, float]], what: str) -> None:
    """``setup_s``: median of the rescaled set-up times."""
    scaled = [t / slow for t, slow in runs]
    res.set("setup_s", median_of(scaled),
            f"median of {len(runs)} {what}; raw s {', '.join(f'{t:.3f}' for t, _ in runs)}; "
            f"slowness {', '.join(f'{s:.2f}' for _, s in runs)}")
