"""``sweep-uniform`` and ``sweep-link``: the paper's line-up over fresh instances.

Instances come in cycles of twelve: four DAG kinds (Topcuoglu random
DAGs of 100-200 tasks, Gaussian elimination m=14, FFT 32 points,
Laplace 10x10) times three CCRs (0.5, 1, 5), heterogeneity 0.5 on eight
processors.  ``sweep-uniform`` puts them on uniform links;
``sweep-link`` puts the same DAGs and ETC draws on ``ring_machine(8)``,
``mesh_machine(2, 4)`` and ``compute_grid(2, 4)`` in rotation, so each
cycle holds every (machine, kind) pair once.  The random DAGs of a cycle
have 100, 150 and 200 tasks, so every cycle carries the same mix of
sizes and kinds whatever the seed, and cycles differ only in the random
draws.

Cycle 0 is drawn from a constant seed: it is the quality corpus behind
``quality_mean`` (IMP's mean SLR), which must read the same on every
run so that a change which schedules worse shows as a regression.
Later cycles are drawn from ``--seed``.  Every line-up runs on freshly
built ``Instance`` objects, so kernel lowering and rank memos start cold
as they do for a user's first schedule.
"""

from __future__ import annotations

import math
import time

from repro import compiled
from repro.bench.runner import run_instances
from repro.dag.generators import (
    fft_dag,
    gaussian_elimination_dag,
    laplace_dag,
    random_dag,
    scale_ccr,
)
from repro.instance import Instance, make_instance
from repro.machine.etc import generate_etc
from repro.machine.profiles import compute_grid
from repro.machine.topology import mesh_machine, ring_machine

from common import LINEUP, Result, calibrate, derive_seed, median_of, speed

KINDS = ("random", "gaussian", "fft", "laplace")
CCRS = (0.5, 1.0, 5.0)
CYCLE = len(KINDS) * len(CCRS)
QUALITY_SEED = 2007  # cycle 0: the fixed quality corpus
_COUNTERS = ("list_schedules", "dls_schedules", "improved_passes", "fallbacks")


_LINK_MACHINES = (lambda: ring_machine(8), lambda: mesh_machine(2, 4), lambda: compute_grid(2, 4))


def _machine(link: bool, k: int):
    return _LINK_MACHINES[k % 3]() if link else None


def build_cycle(seed: int, cycle: int, link: bool) -> list[Instance]:
    """The twelve fresh instances of one cycle."""
    base = QUALITY_SEED if cycle == 0 else seed
    out = []
    for k in range(CYCLE):
        kind, ccr = KINDS[k % len(KINDS)], CCRS[k // len(KINDS)]
        dag_seed, etc_seed = derive_seed(base, cycle, k, 1), derive_seed(base, cycle, k, 2)
        if kind == "random":
            size = 100 + 50 * (k // len(KINDS))
            dag = random_dag(size, shape=1.0, out_degree=4, ccr=ccr, avg_cost=10.0, seed=dag_seed)
        elif kind == "gaussian":
            dag = scale_ccr(gaussian_elimination_dag(14), ccr)
        elif kind == "fft":
            dag = scale_ccr(fft_dag(32), ccr)
        else:
            dag = scale_ccr(laplace_dag(10), ccr)
        machine = _machine(link, k)
        if machine is None:
            out.append(make_instance(dag, num_procs=8, heterogeneity=0.5, seed=etc_seed))
        else:
            etc = generate_etc(dag, machine, heterogeneity=0.5, seed=etc_seed)
            out.append(Instance(dag=dag, machine=machine, etc=etc))
    return out


def quality_corpus() -> list[Instance]:
    """Cycle 0 on uniform links: the instances behind IMP's ``quality_mean``."""
    return build_cycle(QUALITY_SEED, 0, link=False)


def _pass(res: Result, seed: int, link: bool, seconds: float) -> dict:
    """Run whole cycles until ``seconds`` have passed.

    Only ``run_instances`` is timed; building the inputs is not.
    Calibrations between line-ups bracket each one.  Returns per-cycle
    scheduling times, raw and rescaled to reference speed, per-line-up
    counter deltas and the quality corpus's IMP SLRs.
    """
    t_end = time.perf_counter() + seconds
    cycle_s: list[float] = []
    scaled_s: list[float] = []
    deltas: list[tuple] = []
    slrs: list[float] = []
    while not cycle_s or time.perf_counter() < t_end:
        instances = build_cycle(seed, len(cycle_s), link)
        busy = scaled = 0.0
        cal = calibrate()
        for inst in instances:
            res.attempted += len(LINEUP)
            c0 = compiled.schedule_counters()
            t0 = time.perf_counter()
            try:
                makespans = run_instances(LINEUP, [inst], check=True)
            except Exception as exc:  # noqa: BLE001 - a failed line-up is reported, not fatal
                res.problem(f"{inst.name}: {type(exc).__name__}: {exc}", len(LINEUP))
                makespans = None
            dt = time.perf_counter() - t0
            after = calibrate()
            busy += dt
            scaled += dt / speed([cal, after])
            cal = after
            if makespans is None:
                deltas.append(())
                continue
            c1 = compiled.schedule_counters()
            deltas.append(tuple(c1[k] - c0[k] for k in _COUNTERS))
            for alg in LINEUP:
                span = makespans[alg][0]
                if not (math.isfinite(span) and span > 0):
                    res.problem(f"{alg} on {inst.name}: makespan {span!r}")
            if not cycle_s:
                slrs.append(makespans["IMP"][0] / inst.cp_min_length)
        cycle_s.append(busy)
        scaled_s.append(scaled)
    return {"cycle_s": cycle_s, "scaled_s": scaled_s, "deltas": deltas, "slrs": slrs}


def _rate(p: dict) -> float:
    """Line-ups per reference-speed second over a whole pass."""
    return len(p["deltas"]) / sum(p["scaled_s"])


def _compiled_count(delta: tuple) -> int:
    """Line-up schedules that ran in the compiled executor: every list or
    DLS build, plus IMP when any improved pass ran."""
    lists, dls, improved, _ = delta
    return lists + dls + (1 if improved else 0)


def run(res: Result, seed: int, seconds: float, link: bool) -> None:
    if not res.trace:
        p = _pass(res, seed, link, seconds)
        per_cycle = CYCLE * len(LINEUP)
        raw = [t * 1e3 / per_cycle for t in p["cycle_s"]]
        op_ms = [t * 1e3 / per_cycle for t in p["scaled_s"]]
        res.set("op_ms", median_of(op_ms),
                f"ms per schedule, median over {len(op_ms)} cycles of {per_cycle} schedules "
                f"at reference speed; raw median {median_of(raw):.4f}")
        res.set("quality_mean", sum(p["slrs"]) / len(p["slrs"]),
                f"IMP's mean SLR over the {len(p['slrs'])}-instance quality corpus")
        return

    from spans import Patcher, SpanRecorder, instrument_scheduling, layer_calls, layer_ms

    plain = _pass(res, seed, link, seconds / 2)
    rec = SpanRecorder()
    with Patcher(rec) as patcher:
        instrument_scheduling(patcher, LINEUP)
        traced = _pass(res, seed, link, seconds / 2)
    n = min(len(plain["deltas"]), len(traced["deltas"]))
    if plain["deltas"][:n] != traced["deltas"][:n]:
        res.problem("routing check: traced counter deltas differ from the untraced run")
    ops = len(traced["deltas"])
    slow = sum(traced["cycle_s"]) / sum(traced["scaled_s"])
    schedules = ops * len(LINEUP)
    compiled_n = sum(_compiled_count(d) for d in traced["deltas"] if d)
    passes = sum(d[2] for d in traced["deltas"] if d)
    imp_compiled = sum(1 for d in traced["deltas"] if d and d[2])
    for layer in ("lower", "improved", "list", "materialize", "onto"):
        res.set(f"compiled.{layer}_ms", layer_ms(rec, f"compiled.{layer}", ops, slow))
    res.set("compiled.improved_passes", passes / ops)
    res.set("compiled.improved_kept_ratio", imp_compiled / passes if passes else 0.0,
            "IMP schedules materialised / improved passes run")
    res.set("compiled.share", compiled_n / schedules,
            f"{compiled_n} of {schedules} schedules compiled")
    res.set("compiled.onto_calls", layer_calls(rec, "compiled.onto", ops))
    res.set("core.place_ms", layer_ms(rec, "core.place", ops, slow))
    res.set("core.place_calls", layer_calls(rec, "core.place", ops))
    res.set("core.refine_ms", layer_ms(rec, "core.refine", ops, slow))
    res.set("kernels.ready_times_ms", layer_ms(rec, "kernels.ready_times", ops, slow))
    res.set("kernels.ready_times_calls", layer_calls(rec, "kernels.ready_times", ops))
    res.set("schedulers.rank_ms", layer_ms(rec, "schedulers.rank", ops, slow))
    for alg in LINEUP:
        res.set(f"sched.{alg}.ms", rec.incl_s.get(f"sched.{alg}", 0.0) * 1e3 / ops / slow)
    res.set("schedule.validate_ms", layer_ms(rec, "schedule.validate", ops, slow))
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    res.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
            f"line-ups/s untraced {plain_rate:.3f} vs traced {traced_rate:.3f}")
    res.env_extra["trace_spans"] = len(rec.names)
    res.recorder = rec
