"""Self-tests of the benchmark: seeded inputs and metric declarations.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The last test runs every workload briefly in a subprocess (about a
minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import common  # noqa: E402
from common import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS  # noqa: E402


def _inputs_bytes(workload: str, seed: int) -> bytes:
    """Every input a workload generates from ``seed``, serialised."""
    from repro.instance_io import instance_to_json

    if workload in common.SWEEPS:
        import sweep

        parts = [instance_to_json(inst)
                 for cycle in (0, 1, 2)
                 for inst in sweep.build_cycle(seed, cycle, link=workload == "sweep-link")]
    elif workload == "serve-mix":
        from itertools import islice

        import serve

        inputs = serve.Inputs(seed)
        parts = [instance_to_json(inst) for inst in inputs.warm + inputs.fillers]
        parts += [instance_to_json(inputs.cold_instance(c, j)) for c in (0, 1) for j in range(3)]
        parts += [repr(list(islice(inputs.requests(c), 400))) for c in (0, 1)]
    else:
        import online

        parts = []
        for k in (0, 1, 2):
            templates, arrivals = online.stream_inputs(seed, k)
            parts += [instance_to_json(templates[name]) for name in sorted(templates)]
            parts.append(repr([(a.time, a.template, a.job_id) for a in arrivals]))
    return "\n".join(parts).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    first = _inputs_bytes(workload, 7)
    assert first == _inputs_bytes(workload, 7)
    assert first != _inputs_bytes(workload, 8)


def test_benchmark_json_matches_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    assert e2e == END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layers == PER_LAYER
    names = [w["name"] for w in doc["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


def test_lineup_is_the_papers_comparison_lineup():
    from repro.bench.workloads import COMPARED

    assert tuple(COMPARED) == common.LINEUP


def test_result_refuses_undeclared_metric():
    res = common.Result("sweep-uniform", 1, trace=False)
    res.attempted = 1
    res.set("not_a_metric", 1.0)
    with pytest.raises(KeyError):
        common.emit(res)


def test_nearest_rank_percentile_and_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert common.percentile(samples, 50) == 50.0
    assert common.percentile(samples, 90) == 90.0
    assert common.percentile(samples, 99) == 99.0
    assert common.beyond(100, 90) == 10
    assert common.beyond(1000, 99) == 10
    assert common.beyond(999, 99) == 9
    res = common.Result("serve-mix", 1, trace=False)
    res.pct("cold_p90_ms", samples[:99], 90)
    assert res.problems  # 9 samples beyond p90 is too few


def test_result_fails_when_a_declared_metric_is_missing():
    res = common.Result("serve-mix", 1, trace=False)
    res.attempted = 1
    for name in list(END_TO_END)[:-1]:
        res.set(name, 1.0)
    assert common.emit(res) == 1
    assert res.problems


#: Per-layer metrics each workload's traced run must find non-zero: the
#: layers it exists to exercise (unreached layers read 0).
REACHED = {
    "sweep-uniform": ("compiled.improved_ms", "compiled.share", "sched.IMP.ms",
                      "schedule.validate_ms"),
    "sweep-link": ("core.place_ms", "kernels.ready_times_ms", "sched.LA-HEFT.ms"),
    "serve-mix": ("client.encode_ms", "client.decode_ms", "service.warm_bin.server_ms",
                  "service.warm_json.framing_ms", "service.cold.server_ms"),
    "online-stream": ("compiled.onto_ms", "sim.advance_ms", "sim.placements_per_arrival"),
}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metric_names_are_declared(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = set(result["metrics"])
    assert printed == set(PER_LAYER if trace else END_TO_END)
    for name in REACHED[workload] if trace else END_TO_END:
        assert result["metrics"][name]["value"] != 0, name
    for name, entry in result["metrics"].items():
        assert NAME_RE.match(name)
        declared = PER_LAYER[name][0] if trace else END_TO_END[name][0]
        assert entry["unit"] == declared
