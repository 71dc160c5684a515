"""Instance fingerprinting: stability, canonicalisation, sensitivity.

The content-addressed schedule cache is only sound if the fingerprint
is (a) equal for equal content no matter how the instance was built or
in which process, and (b) different under *any* perturbation of the
content.  Both directions are pinned here, plus a golden digest so an
accidental algorithm change cannot slip through as "all tests still
self-consistent".
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.instance import Instance, make_instance
from repro.machine.cluster import Machine
from repro.machine.etc import ETCMatrix
from repro.service.cache import request_key

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Golden digest of `_golden_instance()`.  If an *intentional* change to
#: the canonical document invalidates it, bump the format tag in
#: `canonical_instance_doc` and regenerate — silently changing the
#: fingerprint of existing content would orphan every persisted cache.
GOLDEN = "28597548dc13e70ac53ab6cf652ed7ba04af28e87cb0d99089a8c7b3a4d52ea6"

_GOLDEN_SCRIPT = """
import numpy as np
from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.etc import ETCMatrix

dag = TaskDAG("golden")
for tid, cost in (("a", 2.0), ("b", 4.0), ("c", 3.0), ("d", 2.0)):
    dag.add_task(Task(tid, cost=cost))
dag.add_edge("a", "b", data=3.0)
dag.add_edge("a", "c", data=1.0)
dag.add_edge("b", "d", data=2.0)
dag.add_edge("c", "d", data=2.0)
machine = Machine.homogeneous(2, latency=0.5, bandwidth=2.0)
etc = ETCMatrix(["a", "b", "c", "d"], machine.proc_ids(),
                np.array([[1.5, 2.5], [4.0, 3.0], [3.25, 2.75], [2.0, 1.0]]))
print(Instance(dag=dag, machine=machine, etc=etc).fingerprint())
"""


def _golden_instance(task_order=("a", "b", "c", "d"), edge_order=None) -> Instance:
    costs = {"a": 2.0, "b": 4.0, "c": 3.0, "d": 2.0}
    etc_rows = {"a": [1.5, 2.5], "b": [4.0, 3.0], "c": [3.25, 2.75], "d": [2.0, 1.0]}
    edges = edge_order or [("a", "b", 3.0), ("a", "c", 1.0), ("b", "d", 2.0), ("c", "d", 2.0)]
    dag = TaskDAG("golden")
    for tid in task_order:
        dag.add_task(Task(tid, cost=costs[tid]))
    for u, v, d in edges:
        dag.add_edge(u, v, data=d)
    machine = Machine.homogeneous(2, latency=0.5, bandwidth=2.0)
    etc = ETCMatrix(list(task_order), machine.proc_ids(),
                    np.array([etc_rows[t] for t in task_order]))
    return Instance(dag=dag, machine=machine, etc=etc)


def test_golden_digest():
    assert _golden_instance().fingerprint() == GOLDEN


def test_stable_across_process_restarts():
    """Same content, fresh interpreter (fresh hash seed) -> same digest."""
    # The caller's env (PYTHONDONTWRITEBYTECODE included) plus the two
    # settings under test.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == GOLDEN


def test_independent_of_construction_order():
    """Task/edge insertion order and ETC row order are not content."""
    reordered = _golden_instance(
        task_order=("d", "b", "a", "c"),
        edge_order=[("c", "d", 2.0), ("a", "b", 3.0), ("b", "d", 2.0), ("a", "c", 1.0)],
    )
    assert reordered.fingerprint() == GOLDEN


def test_name_is_metadata():
    renamed = _golden_instance()
    object.__setattr__(renamed, "name", "something-else")
    assert renamed.fingerprint() == GOLDEN


def test_json_round_trip_preserves_fingerprint():
    from repro.instance_io import instance_from_json, instance_to_json

    inst = make_instance(
        _golden_instance().dag, num_procs=5, heterogeneity=0.8, seed=99
    )
    assert instance_from_json(instance_to_json(inst)).fingerprint() == inst.fingerprint()


@pytest.mark.parametrize(
    "perturb",
    [
        "edge_data",
        "etc_cell",
        "task_cost",
        "drop_edge",
        "extra_task",
        "proc_speed",
        "comm_latency",
    ],
)
def test_distinct_under_single_perturbation(perturb):
    base = _golden_instance().fingerprint()
    costs = {"a": 2.0, "b": 4.0, "c": 3.0, "d": 2.0}
    etc_rows = {"a": [1.5, 2.5], "b": [4.0, 3.0], "c": [3.25, 2.75], "d": [2.0, 1.0]}
    edges = [("a", "b", 3.0), ("a", "c", 1.0), ("b", "d", 2.0), ("c", "d", 2.0)]
    latency, speeds = 0.5, None

    if perturb == "edge_data":
        edges[2] = ("b", "d", 2.0 + 1e-9)
    elif perturb == "etc_cell":
        etc_rows["c"] = [3.25, 2.7500001]
    elif perturb == "task_cost":
        costs["b"] = 4.5
    elif perturb == "drop_edge":
        edges = edges[:-1]
    elif perturb == "comm_latency":
        latency = 0.25

    dag = TaskDAG("golden")
    for tid, cost in costs.items():
        dag.add_task(Task(tid, cost=cost))
    if perturb == "extra_task":
        dag.add_task(Task("e", cost=1.0))
        etc_rows = {**etc_rows, "e": [1.0, 1.0]}
    for u, v, d in edges:
        dag.add_edge(u, v, data=d)
    if perturb == "proc_speed":
        machine = Machine.from_speeds([1.0, 2.0], latency=latency, bandwidth=2.0)
    else:
        machine = Machine.homogeneous(2, latency=latency, bandwidth=2.0)
    etc = ETCMatrix(list(dag.tasks()), machine.proc_ids(),
                    np.array([etc_rows[t] for t in dag.tasks()]))
    assert Instance(dag=dag, machine=machine, etc=etc).fingerprint() != base


def test_request_key_separates_schedulers():
    """Same instance, different scheduler config -> different cache key."""
    inst = _golden_instance()
    keys = {request_key(inst, alg) for alg in ("HEFT", "HEFT-median", "CPOP", "IMP")}
    assert len(keys) == 4
    assert request_key(inst, "HEFT") == request_key(_golden_instance(), "HEFT")
