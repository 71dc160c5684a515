"""Property tests: ``PlacementEngine.place`` and ``refine_schedule`` run
on the compiled executor and leave exactly what the object reference of
``tests/placement_reference.py`` leaves.

Each example draws an instance on a zero, uniform, random per-link or
:class:`~tests.population.OpaqueCommunication` machine (optionally with
zeroed ETC cells and nested tuple task ids) and a schedule from one of
nine schedulers, three of which duplicate.  The complete schedule is
refined; then a task and all its descendants are taken out and placed
back one by one, in topological order.  Both entry points must return
what the reference returns and leave the same placements, in the same
row order for a placement and as the same payload bytes for both, and
both must raise the same typed error for a task whose parent is
unscheduled and for refining a partial schedule.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacementEngine, refine_schedule
from repro.dag.generators import random_dag
from repro.exceptions import ReproError, ScheduleError, SchedulingError
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.etc import ETCMatrix, generate_etc
from repro.machine.processor import Processor
from repro.obs import Tracer, use_tracer
from repro.schedule.schedule import Schedule, ScheduleColumns
from repro.schedule.validation import violations
from repro.schedulers.ranking import upward_ranks
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import object_path
from tests.placement_reference import ReferencePlacementEngine, reference_refine_schedule
from tests.population import OpaqueCommunication, random_machine

#: TDS, DUP-HEFT and IMP leave duplicates; RoundRobin leaves holes
#: that refinement closes.
SCHEDULERS = ["HEFT", "CPOP", "DLS", "ETF", "LC", "TDS", "DUP-HEFT", "IMP", "RoundRobin"]

instance_params = st.tuples(
    st.integers(min_value=1, max_value=24),      # tasks
    st.integers(min_value=1, max_value=5),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=1.5),     # heterogeneity
    st.integers(min_value=0, max_value=10_000),  # seed
)

engine_params = st.tuples(
    st.booleans(),                          # lookahead
    st.booleans(),                          # duplication
    st.booleans(),                          # insertion
    st.integers(min_value=0, max_value=4),  # duplicates per task
)


def build(kind: str, params, tuple_ids: bool, zero_share: float) -> Instance:
    """A random DAG on a ``zero``, ``uniform``, ``link`` (random
    asymmetric tables) or ``opaque`` machine, with ``zero_share`` of its
    ETC cells set to 0.0 (zero-width slots)."""
    n, q, ccr, beta, seed = params
    if kind == "opaque":
        machine = Machine([Processor(id=j, speed=1.0) for j in range(q)],
                          comm=OpaqueCommunication(), name="opaque")
    else:
        machine = random_machine(kind, q, seed)
    dag = random_dag(n, ccr=ccr, seed=seed)
    if tuple_ids:
        dag = dag.relabel({k: (k % 3, ("t", k)) for k in dag.tasks()})
    etc = generate_etc(dag, machine, heterogeneity=beta, seed=seed)
    if zero_share:
        w = etc.as_array().copy()
        w[np.random.default_rng(seed).random(w.shape) < zero_share] = 0.0
        etc = ETCMatrix(etc.task_ids, etc.proc_ids, w)
    return Instance(dag=dag, machine=machine, etc=etc)


def subset(schedule: Schedule, keep=lambda task: True) -> Schedule:
    """A new schedule with the rows of ``schedule`` whose task ``keep``
    accepts, in row order."""
    rows = [i for i, task in enumerate(schedule.columns().task) if keep(task)]
    cols = ScheduleColumns(*([col[i] for i in rows] for col in schedule.columns()))
    return Schedule.from_columns(schedule.machine, cols, name=schedule.name)


def rows(schedule: Schedule) -> list[tuple]:
    return [(p.task, p.proc, p.start, p.end, p.duplicate) for p in schedule.all_placements()]


def payload(schedule: Schedule, instance: Instance) -> str:
    return json.dumps(schedule_payload(schedule, instance, "X"), sort_keys=True)


def error_of(fn):
    """``(error type, message)`` of the typed error ``fn()`` raises, or
    ``None`` when it returns."""
    try:
        fn()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def descendants_of(instance: Instance, task) -> list:
    """``task`` and every task below it, in topological order."""
    kernel = instance.kernel
    seen = {task}
    stack = [task]
    while stack:
        for child in kernel.succ[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen, key=kernel.pos.__getitem__)


@given(instance_params, st.sampled_from(SCHEDULERS),
       st.sampled_from(["zero", "uniform", "link", "opaque"]), st.booleans(),
       st.sampled_from([0.0, 0.0, 0.3, 1.0]), engine_params,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_entry_points_equal_reference(params, alg, kind, tuple_ids, zero_share, flags,
                                      rounds, pick, with_ranks):
    instance = build(kind, params, tuple_ids, zero_share)
    base = get_scheduler(alg).schedule(instance)

    # The complete schedule, refined.
    fast, ref = subset(base), subset(base)
    assert refine_schedule(fast, instance, rounds) == reference_refine_schedule(
        ref, instance, rounds)
    assert violations(fast, instance) == []
    assert payload(fast, instance) == payload(ref, instance)

    # A task and its descendants taken out, then placed back.
    tasks = list(instance.dag.tasks())
    removed = descendants_of(instance, tasks[pick % len(tasks)])
    gone = set(removed)
    partial = subset(base, lambda task: task not in gone)
    if rounds:
        err = error_of(lambda: refine_schedule(subset(partial), instance, rounds))
        assert err is not None and err[0] is ScheduleError
        assert err == error_of(
            lambda: reference_refine_schedule(subset(partial), instance, rounds))
    la, dup, ins, max_dups = flags
    engine = PlacementEngine(lookahead=la, duplication=dup, insertion=ins,
                             max_duplications_per_task=max_dups)
    reference = ReferencePlacementEngine(lookahead=la, duplication=dup, insertion=ins,
                                         max_duplications_per_task=max_dups)
    ranks = upward_ranks(instance) if with_ranks else None
    if len(removed) > 1:
        # removed[1] is a descendant whose parents are not all placed.
        err = error_of(lambda: engine.place(subset(partial), instance, removed[1], ranks))
        assert err is not None and err[0] is SchedulingError
        assert err == error_of(
            lambda: reference.place(subset(partial), instance, removed[1], ranks))
    fast, ref = subset(partial), subset(partial)
    for task in removed:
        assert engine.place(fast, instance, task, ranks) == reference.place(
            ref, instance, task, ranks)
        assert rows(fast) == rows(ref), task
    assert violations(fast, instance) == []
    assert payload(fast, instance) == payload(ref, instance)


def test_entry_points_traced_and_on_object_path():
    """Traced, under ``object_path()`` and both at once, the entry points
    return and leave what they do untraced (the object path runs the
    reference), and a traced placement counts the duplicates it commits
    on ``imp.duplicates``."""
    instance = build("link", (24, 4, 5.0, 1.0, 11), True, 0.3)
    base = get_scheduler("RoundRobin").schedule(instance)
    ranks = upward_ranks(instance)
    removed = descendants_of(instance, list(instance.dag.tasks())[0])
    gone = set(removed)
    engine = PlacementEngine()

    def run():
        refined = subset(base)
        moves = refine_schedule(refined, instance, 3)
        placed = subset(base, lambda task: task not in gone)
        records = [engine.place(placed, instance, task, ranks) for task in removed]
        return moves, records, payload(refined, instance), rows(placed)

    want = run()
    committed = sum(p[4] for p in want[3]) - subset(
        base, lambda task: task not in gone).num_duplicates()
    assert want[0] > 0 and committed > 0
    for traced in (False, True):
        tracer = Tracer(name="t")
        with use_tracer(tracer) if traced else object_path():
            assert run() == want, traced
        if traced:
            assert tracer.counters()["imp.duplicates"] == committed
    with use_tracer(Tracer(name="t")), object_path():
        assert run() == want
