"""Multi-DAG composition: schedule several applications on one machine.

Two composition modes:

* :func:`disjoint_union` — applications share the machine concurrently
  (the multi-workflow scheduling setting); task ids are namespaced by
  application,
* :func:`sequential_chain` — applications run back-to-back (each
  application's exits feed the next one's entries with zero data).

:func:`per_dag_spans` recovers each application's own finish time from
a composite schedule, and :func:`unfairness` is the standard slowdown-
spread metric of the multi-workflow literature.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.exceptions import GraphError
from repro.schedule.schedule import Schedule
from repro.types import TaskId


def _namespaced(tag: str, dag: TaskDAG, out: TaskDAG) -> dict[TaskId, tuple]:
    mapping: dict[TaskId, tuple] = {}
    for t in dag.task_objects():
        new_id = (tag, t.id)
        mapping[t.id] = new_id
        out.add_task(Task(id=new_id, cost=t.cost, name=f"{tag}:{t.name}",
                          attrs=dict(t.attrs)))
    for u, v in dag.edges():
        out.add_edge(mapping[u], mapping[v], data=dag.data(u, v))
    return mapping


def disjoint_union(dags: Mapping[str, TaskDAG] | Sequence[TaskDAG], name: str = "union") -> TaskDAG:
    """Concurrent composition: all applications, no cross edges.

    Task ids become ``(app_tag, original_id)``; tags are the mapping
    keys or ``dag.name`` (made unique) for sequences.
    """
    items = _tagged_items(dags)
    out = TaskDAG(name)
    for tag, dag in items:
        _namespaced(tag, dag, out)
    return out


def sequential_chain(dags: Mapping[str, TaskDAG] | Sequence[TaskDAG], name: str = "chain") -> TaskDAG:
    """Back-to-back composition: app k's exits gate app k+1's entries."""
    items = _tagged_items(dags)
    out = TaskDAG(name)
    prev_exits: list = []
    for tag, dag in items:
        mapping = _namespaced(tag, dag, out)
        entries = [mapping[t] for t in dag.entry_tasks()]
        for x in prev_exits:
            for e in entries:
                out.add_edge(x, e, data=0.0)
        prev_exits = [mapping[t] for t in dag.exit_tasks()]
    return out


def _tagged_items(dags) -> list[tuple[str, TaskDAG]]:
    if isinstance(dags, Mapping):
        items = list(dags.items())
    else:
        items = []
        seen: dict[str, int] = {}
        for dag in dags:
            tag = dag.name
            if tag in seen:
                seen[tag] += 1
                tag = f"{tag}#{seen[dag.name]}"
            else:
                seen[tag] = 0
            items.append((tag, dag))
    if not items:
        raise GraphError("no DAGs to compose")
    if len({tag for tag, _ in items}) != len(items):
        raise GraphError("duplicate application tags")
    return items


def per_dag_spans(schedule: Schedule, composite: TaskDAG) -> dict[str, float]:
    """Finish time of each application inside a composite schedule."""
    spans: dict[str, float] = {}
    for t in composite.tasks():
        if not (isinstance(t, tuple) and len(t) == 2):
            raise GraphError(f"task {t!r} is not namespaced (tag, id)")
        tag = t[0]
        spans[tag] = max(spans.get(tag, 0.0), schedule.end_of(t))
    return spans


def unfairness(
    schedule: Schedule,
    composite: TaskDAG,
    solo_spans: Mapping[str, float],
) -> float:
    """Spread of per-application slowdowns (0 = perfectly fair).

    Slowdown of app ``a`` is ``shared_finish(a) / solo_makespan(a)``;
    unfairness is the mean absolute deviation of slowdowns from their
    mean — the standard multi-workflow fairness statistic.
    """
    shared = per_dag_spans(schedule, composite)
    missing = set(shared) - set(solo_spans)
    if missing:
        raise GraphError(f"solo spans missing for: {sorted(missing)}")
    slowdowns = np.array([shared[a] / solo_spans[a] for a in sorted(shared)])
    if np.any(~np.isfinite(slowdowns)):
        raise GraphError("solo spans must be positive and finite")
    return float(np.abs(slowdowns - slowdowns.mean()).mean())
