"""Decoder determinism across process restarts and decode paths.

The decode order, tie-breaking and makespans must not depend on Python's
per-process hash randomisation (``PYTHONHASHSEED``) — id ordering comes
from insertion/topological order everywhere, never from set/dict
iteration over hashed ids — nor on which decode path (compiled
flat-array vs object) evaluates the assignment.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.compiled import compile_instance
from repro.schedulers.meta import GeneticScheduler, SimulatedAnnealingScheduler
from repro.schedulers.meta.decoder import decode_assignment, rank_order

ROOT = Path(__file__).resolve().parent.parent.parent

#: Runs in a fresh interpreter per PYTHONHASHSEED; prints one canonical
#: report line covering decode order, object/compiled decode results and
#: the full metaheuristic search trajectories.
_PROBE = """
import numpy as np
from repro.bench import workloads as W
from repro.compiled import compile_instance
from repro.schedulers.meta import GeneticScheduler, SimulatedAnnealingScheduler
from repro.schedulers.meta.decoder import decode_assignment, rank_order

inst = W.random_instance(np.random.default_rng(77), num_tasks=24, num_procs=5)
order = rank_order(inst)
compiled = compile_instance(inst)
genome = np.random.default_rng(3).integers(0, inst.num_procs, size=inst.num_tasks)
span, starts, procs = compiled.decode_fast(genome)
sched = decode_assignment(inst, compiled.assignment_of(genome), order)
ga = GeneticScheduler(population=8, generations=4, seed=1).schedule(inst)
sa = SimulatedAnnealingScheduler(iterations=80, seed=1).schedule(inst)
print(repr((
    [str(t) for t in order],
    span.hex(),
    sched.makespan.hex(),
    [s.hex() for s in starts.tolist()],
    procs.tolist(),
    ga.makespan.hex(),
    sa.makespan.hex(),
)))
"""


def _run_probe(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=ROOT,
    )
    return out.stdout.strip()


def test_identical_across_hashseed_restarts():
    reports = {seed: _run_probe(seed) for seed in ("0", "1", "4242")}
    assert reports["0"] == reports["1"] == reports["4242"], reports


def test_identical_tie_breaking_across_decode_paths():
    """Same instance, same assignment: compiled and object paths pick the
    same processors and start times even when finish-time ties exist
    (a homogeneous machine maximises tie opportunities)."""
    from repro.bench import workloads as W
    from tests.object_path import object_path

    inst = W.homogeneous_random_instance(np.random.default_rng(11), num_tasks=20, num_procs=4)
    compiled = compile_instance(inst)
    order = rank_order(inst)
    rng = np.random.default_rng(5)
    for _ in range(10):
        genome = rng.integers(0, inst.num_procs, size=inst.num_tasks)
        span, starts, procs = compiled.decode_fast(genome)
        with object_path():
            schedule = decode_assignment(inst, compiled.assignment_of(genome), order)
        assert span == schedule.makespan
        for i, task in enumerate(compiled.tasks):
            assert schedule.entry(task).start == starts[i]
            assert schedule.entry(task).proc == compiled.procs[procs[i]]


def test_meta_schedulers_deterministic_within_process():
    from repro.bench import workloads as W

    inst = W.random_instance(np.random.default_rng(13), num_tasks=18, num_procs=4)
    for make in (
        lambda: GeneticScheduler(population=8, generations=4, seed=9),
        lambda: SimulatedAnnealingScheduler(iterations=60, seed=9),
    ):
        a = make().schedule(inst)
        b = make().schedule(inst)
        assert a.makespan == b.makespan
        assert {t: a.entry(t).start for t in a.tasks()} == {
            t: b.entry(t).start for t in b.tasks()
        }
