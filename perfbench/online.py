"""``online-stream``: Poisson arrivals on one shared cluster, HEFT, ``replace``.

Every stream runs ``simulate_online`` over ``build_templates`` (4
templates around 24 tasks, 8 processors, the library's default template
seed) with a fresh set of ``Instance`` objects, so each stream lowers its
templates cold.  The arrival rate holds utilization near 0.8: each
arrival re-places every pending job, so most of the work is small
``schedule_onto`` placements onto timelines still carrying earlier
jobs, some of them thrown away by the next arrival.

Stream 0 is drawn from a constant seed and is the quality reference
behind ``quality_mean`` (its mean job slowdown), which must read the
same on every run.  Later streams are drawn from ``--seed``.
"""

from __future__ import annotations

import hashlib
import time

from repro import compiled
from repro.sim.arrivals import PoissonArrivals
from repro.sim.online import build_templates, simulate_online

from common import Result, calibrate, derive_seed, median_of, speed

TEMPLATES = {"num_templates": 4, "num_tasks": 24, "num_procs": 8}
RATE = 0.035
JOBS = 1000
ALG = "HEFT"
POLICY = "replace"
QUALITY_SEED = 2007  # stream 0: the fixed quality reference


def stream_inputs(seed: int, k: int):
    """Fresh templates and the realized arrival list of stream ``k``."""
    templates = build_templates(**TEMPLATES)
    stream_seed = QUALITY_SEED if k == 0 else derive_seed(seed, k)
    arrivals = PoissonArrivals(RATE, JOBS, seed=stream_seed).realize(sorted(templates))
    return templates, arrivals


def _pass(res: Result, seed: int, seconds: float) -> dict:
    """Simulate whole streams until ``seconds`` have passed; only
    ``simulate_online`` is timed, bracketed by calibrations."""
    t_end = time.perf_counter() + seconds
    out = {"stream_s": [], "slowness": [], "digests": [], "deltas": [], "placements": 0,
           "util": [], "slowdown": None}
    while not out["stream_s"] or time.perf_counter() < t_end:
        templates, arrivals = stream_inputs(seed, len(out["stream_s"]))
        res.attempted += len(arrivals)
        c0 = compiled.schedule_counters()
        before = calibrate()
        t0 = time.perf_counter()
        result = simulate_online(templates, arrivals, alg=ALG, policy=POLICY)
        out["stream_s"].append(time.perf_counter() - t0)
        out["slowness"].append(speed([before, calibrate()]))
        c1 = compiled.schedule_counters()
        out["deltas"].append(tuple(sorted((k, c1[k] - c0[k]) for k in c1)))
        done = {rec.job_id for rec in result.jobs}
        missing = len({a.job_id for a in arrivals} - done)
        if missing or len(result.jobs) != len(arrivals):
            res.problem(f"stream {len(out['stream_s']) - 1}: {missing} arrivals unfinished",
                        max(missing, 1))
        for rec in result.jobs:
            if not (rec.arrival <= rec.start <= rec.finish):
                res.problem(f"job {rec.job_id}: arrival/start/finish out of order")
        out["digests"].append(hashlib.sha256(result.payload_json().encode()).hexdigest())
        out["placements"] += len(arrivals) + result.replans
        out["util"].append(result.utilization)
        if out["slowdown"] is None:
            out["slowdown"] = result.metrics_dict()["slowdown_mean"]
            out["reference_peak_live"] = result.peak_live_intervals
    return out


def _rate(p: dict) -> float:
    """Arrivals per reference-speed second over a whole pass."""
    return len(p["stream_s"]) * JOBS / sum(t / s for t, s in zip(p["stream_s"], p["slowness"]))


def run(res: Result, seed: int, seconds: float) -> None:
    res.env_extra.update(rate=RATE, jobs_per_stream=JOBS, alg=ALG, policy=POLICY)
    if not res.trace:
        p = _pass(res, seed, seconds)
        util = sum(p["util"]) / len(p["util"])
        res.env_extra["utilization_mean"] = util
        if not 0.75 <= util <= 0.85:
            res.notes.append(f"utilization {util:.3f} outside the intended 0.75-0.85")
        raw = [t * 1e3 / JOBS for t in p["stream_s"]]
        op_ms = [t / s for t, s in zip(raw, p["slowness"])]
        res.set("op_ms", median_of(op_ms),
                f"ms per arrival, median over {len(op_ms)} streams of {JOBS} arrivals at "
                f"reference speed, utilization {util:.3f}; raw median {median_of(raw):.5f}, "
                f"slowness median {median_of(p['slowness']):.2f}")
        res.set("quality_mean", p["slowdown"], "mean job slowdown of reference stream 0")
        return

    from spans import (
        Patcher,
        SpanRecorder,
        instrument_scheduling,
        instrument_sim,
        layer_calls,
        layer_ms,
    )

    plain = _pass(res, seed, seconds / 2)
    rec = SpanRecorder()
    with Patcher(rec) as patcher:
        instrument_scheduling(patcher, (ALG,))
        instrument_sim(patcher, POLICY)
        traced = _pass(res, seed, seconds / 2)
    n = min(len(plain["digests"]), len(traced["digests"]))
    if plain["digests"][:n] != traced["digests"][:n]:
        res.problem("traced payload_json differs from the untraced run")
    if plain["deltas"][:n] != traced["deltas"][:n]:
        res.problem("routing check: traced counter deltas differ from the untraced run")
    ops = len(traced["stream_s"]) * JOBS
    slow = median_of(traced["slowness"])
    onto = rec.calls.get("compiled.onto", 0)
    baselines = len(traced["stream_s"]) * TEMPLATES["num_templates"]
    res.set("compiled.onto_ms", layer_ms(rec, "compiled.onto", ops, slow))
    res.set("compiled.onto_calls", layer_calls(rec, "compiled.onto", ops))
    res.set("compiled.lower_ms", layer_ms(rec, "compiled.lower", ops, slow))
    res.set("compiled.share", (onto - baselines) / traced["placements"],
            "placements through schedule_onto / placements")
    res.set("schedulers.rank_ms", layer_ms(rec, "schedulers.rank", ops, slow))
    for name in ("advance", "occupy", "release", "policy"):
        res.set(f"sim.{name}_ms", layer_ms(rec, f"sim.{name}", ops, slow))
    res.set("sim.placements_per_arrival", traced["placements"] / ops)
    res.set("sim.peak_live_intervals", traced["reference_peak_live"], "reference stream 0")
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    res.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
            f"arrivals/s untraced {plain_rate:.1f} vs traced {traced_rate:.1f}")
    res.env_extra["trace_spans"] = len(rec.names)
    res.recorder = rec
