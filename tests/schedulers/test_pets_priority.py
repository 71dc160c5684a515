"""PETS's one-pass priority order against the level-by-level original.

:meth:`~repro.schedulers.pets.PETS.priority_order` computes levels and
ranks in one walk over the kernel's adjacency and sorts once.  The
reference below is the original: levels from ``graph_levels``, costs
through the per-task ``Instance`` calls, and one sort per ASAP level.
Both must give the same order, whatever the task ids are.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.analysis import graph_levels
from repro.dag.generators import random_dag
from repro.instance import Instance, make_instance
from repro.schedulers.pets import PETS
from tests.population import build_population


def reference_order(instance: Instance) -> list:
    """PETS's priority order as first written: one pass over the tasks
    per ASAP level."""
    dag = instance.dag
    levels = graph_levels(dag)
    order = dag.topological_order()
    pos = {t: i for i, t in enumerate(order)}

    acc = {t: instance.avg_exec_time(t) for t in dag.tasks()}
    dtc = {
        t: sum(instance.avg_comm_time(t, s) for s in dag.successors(t))
        for t in dag.tasks()
    }
    rank: dict = {}
    for t in order:
        rpt = max((rank[p] for p in dag.predecessors(t)), default=0.0)
        rank[t] = float(round(acc[t] + dtc[t] + rpt))

    max_level = max(levels.values(), default=0)
    out: list = []
    for lvl in range(max_level + 1):
        members = [t for t in dag.tasks() if levels[t] == lvl]
        members.sort(key=lambda t: (-rank[t], acc[t], pos[t]))
        out.extend(members)
    return out


@pytest.fixture(scope="module")
def population():
    return build_population()


def test_order_equals_reference_on_the_corpus(population):
    for label, inst in population:
        assert PETS().priority_order(inst) == reference_order(inst), label


def _relabel(dag, kind: str):
    if kind == "int":
        return dag
    if kind == "str":
        return dag.relabel({t: f"t{t}" for t in dag.tasks()})
    return dag.relabel({t: ("job", t % 3, (t,)) for t in dag.tasks()})


@given(
    st.integers(min_value=1, max_value=40),      # tasks
    st.integers(min_value=1, max_value=6),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.booleans(),                               # round ETC cells (rank ties)
    st.sampled_from(["int", "str", "tuple"]),
    st.integers(min_value=0, max_value=10_000),  # seed
)
@settings(max_examples=80, deadline=None)
def test_order_equals_reference_on_random_dags(n, q, ccr, rounded, ids, seed):
    """Random DAGs with int, str and tuple ids; rounded ETC cells make
    equal ranks and average costs, so the later sort keys decide."""
    dag = _relabel(random_dag(n, ccr=ccr, seed=seed), ids)
    inst = make_instance(dag, num_procs=q, heterogeneity=0.5, seed=seed)
    if rounded:
        from repro.machine.etc import ETCMatrix

        etc = ETCMatrix(inst.etc.task_ids, inst.etc.proc_ids, np.rint(inst.etc.as_array()))
        inst = Instance(dag=inst.dag, machine=inst.machine, etc=etc)
    assert PETS().priority_order(inst) == reference_order(inst)
