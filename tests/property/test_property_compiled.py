"""Property tests: the compiled executor is indistinguishable from the
object path on arbitrary instances — free (zero-cost) links, uniform
links, a custom model that defines only ``link()`` and random
asymmetric per-link tables, with ETC draws that may zero a share of
their cells (zero-width slots) or round them to integers (ties) — and
schedules are stable across interpreter restarts (hash randomization
must not leak into results).  The gap index answers every slot search
with the float ``scan_slots`` returns, and the improved pass's flat
timelines keep it exact through every add, undo and removal; its
per-task refinement bounds stay below every end a full probe finds,
and the ready vectors it keeps for duplicate planning equal a fresh
fold.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import _FlatState, _gap_index, compile_instance
from repro.core import ImprovedConfig, ImprovedScheduler, PlacementEngine
from repro.dag.generators import random_dag
from repro.instance import Instance, make_instance
from repro.machine.etc import ETCMatrix, generate_etc
from repro.schedule.timeline import EPS as _TL_EPS
from repro.schedule.timeline import scan_slots
from repro.schedule.validation import violations
from repro.schedulers.meta.decoder import decode_assignment, rank_order
from repro.schedulers.ranking import upward_ranks
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import object_path
from tests.population import OpaqueCommunication, random_instance_on, random_machine

instance_params = st.tuples(
    st.integers(min_value=1, max_value=30),      # tasks
    st.integers(min_value=1, max_value=6),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=1.5),     # heterogeneity
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build(params):
    n, q, ccr, beta, seed = params
    dag = random_dag(n, ccr=ccr, seed=seed)
    return make_instance(dag, num_procs=q, heterogeneity=beta, seed=seed)


def build_custom(params):
    """The :func:`build` draw on integer processor ids with
    :class:`~tests.population.OpaqueCommunication` links."""
    from repro.machine.cluster import Machine
    from repro.machine.processor import Processor

    n, q, ccr, beta, seed = params
    dag = random_dag(n, ccr=ccr, seed=seed)
    machine = Machine([Processor(id=j, speed=1.0) for j in range(q)],
                      comm=OpaqueCommunication(), name="opaque")
    etc = generate_etc(dag, machine, heterogeneity=beta, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def build_on(comm, params):
    """The :func:`build` draw on one communication kind: ``zero`` (the
    Machine default: every edge lowers to a 0.0 constant and ranks carry
    no communication term), ``uniform``, ``custom`` (lowered through its
    ``link()`` tables) or ``per-link`` (random asymmetric tables)."""
    if comm == "uniform":
        return build(params)
    if comm == "zero":
        return random_instance_on("zero", *params)
    if comm == "per-link":
        return random_instance_on("link", *params)
    return build_custom(params)


#: ``(share of ETC cells set to 0.0, round the rest to integers)``.
etc_edits = st.tuples(st.sampled_from([0.0, 0.0, 0.25, 0.6, 1.0]), st.booleans())


def edit_etc(instance, edits, seed):
    """``instance`` with a seeded share of its ETC cells zeroed
    (zero-width slots) and/or every cell rounded to an integer (ties in
    arrivals, dominant parents and DLS keys)."""
    share, rounded = edits
    if not share and not rounded:
        return instance
    w = instance.etc.as_array().copy()
    if rounded:
        w = np.rint(w)
    w[np.random.default_rng(seed).random(w.shape) < share] = 0.0
    etc = ETCMatrix(instance.etc.task_ids, instance.etc.proc_ids, w)
    return Instance(dag=instance.dag, machine=instance.machine, etc=etc)


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


@given(instance_params, st.sampled_from(["HEFT", "CPOP", "HCPT", "PETS",
                                         "DLS", "HLFET", "MCP", "IMP"]),
       st.sampled_from(["uniform", "zero", "custom"]), etc_edits)
@settings(max_examples=100, deadline=None)
def test_compiled_equals_object_path(params, name, comm, edits):
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    assert compile_instance(instance) is not None
    scheduler = get_scheduler(name)
    fast = scheduler.schedule(instance)
    with object_path():
        ref = scheduler.schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, name) == _payload(ref, instance, name)


@given(
    instance_params,
    st.booleans(),  # lookahead
    st.booleans(),  # duplication
    st.booleans(),  # insertion
    st.booleans(),  # refinement
    st.integers(min_value=0, max_value=4),  # refinement rounds
    st.lists(st.sampled_from(["mean", "median", "best", "worst"]),
             min_size=1, max_size=3, unique=True),  # rank variants
    st.sampled_from(["zero", "uniform", "custom", "per-link"]),
    etc_edits,
)
@settings(max_examples=40, deadline=None)
def test_improved_config_space_compiled_equals_object(params, la, dup, ins, ref_,
                                                      rounds, variants, comm, edits):
    """Every corner of the IMP feature space stays bit-identical on every
    communication kind, including the duplication passes the compiled
    executor replays through tentative plan/undo, and refinement bounds
    carried across rounds and passes."""
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    cfg = ImprovedConfig(rank_variants=tuple(variants), lookahead=la, duplication=dup,
                         insertion=ins, refinement=ref_, refinement_rounds=rounds)
    fast = ImprovedScheduler(cfg).schedule(instance)
    with object_path():
        ref = ImprovedScheduler(cfg).schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, "IMP") == _payload(ref, instance, "IMP")


link_params = st.tuples(
    st.integers(min_value=1, max_value=24),      # tasks
    st.integers(min_value=1, max_value=5),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=4.0),     # max latency
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build_link(params):
    """A random DAG on a :func:`~tests.population.random_machine` with
    random asymmetric per-link tables: string processor ids, declared in
    a different order than the tables list them, so the lowering's
    canonical reindexing is exercised."""
    n, q, ccr, max_lat, seed = params
    machine = random_machine("link", q, seed, max_latency=max_lat)
    dag = random_dag(n, ccr=ccr, seed=seed)
    etc = generate_etc(dag, machine, heterogeneity=0.6, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


@given(link_params, st.sampled_from(["HEFT", "CPOP", "DLS", "IMP",
                                     "LA-HEFT", "DUP-HEFT"]), etc_edits)
@settings(max_examples=60, deadline=None)
def test_compiled_equals_object_path_on_asymmetric_links(params, name, edits):
    instance = edit_etc(build_link(params), edits, params[-1])
    assert compile_instance(instance) is not None
    scheduler = get_scheduler(name)
    fast = scheduler.schedule(instance)
    with object_path():
        ref = scheduler.schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, name) == _payload(ref, instance, name)


@given(link_params, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_span_equals_object_decode_on_asymmetric_links(params, genome_seed):
    instance = build_link(params)
    compiled = compile_instance(instance)
    genome = np.random.default_rng(genome_seed).integers(0, compiled.q, size=compiled.n)
    with object_path():
        schedule = decode_assignment(instance, compiled.assignment_of(genome),
                                     rank_order(instance))
    assert compiled.decode_span(genome.tolist()) == schedule.makespan


def _live_index(starts, ends):
    """The gaps ``scan_slots`` tests on a start-sorted timeline, rebuilt
    from its slots: ``(end time, positive gaps, last nonzero end)``.
    Each gap runs from the end of the previous nonzero-width slot (0.0
    for the first) to the start of the next one."""
    gaps = []
    prev = 0.0
    for s, e in zip(starts, ends):
        if e - s > _TL_EPS:
            if s > prev:
                gaps.append((prev, s))
            prev = e
    return max(ends, default=0.0), gaps, prev


def _check_index(fs, j, probes):
    """``fs``'s end time and gap index on ``j`` equal those rebuilt
    from the live slots, and its slot search equals ``scan_slots``."""
    starts, ends = fs.tl_starts[j], fs.tl_ends[j]
    end_time, gaps, last_nz = _live_index(starts, ends)
    assert fs.tl_max[j] == end_time
    assert fs.tl_nz[j] == last_nz
    assert list(zip(fs.gap_s[j], fs.gap_e[j])) == gaps
    for ready, duration in probes:
        assert fs.find_slot(j, ready, duration, True) == scan_slots(
            starts, ends, ready, duration), (ready, duration)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=80))
@settings(max_examples=150, deadline=None)
def test_flat_state_bounds_survive_adds_undos_and_removals(seed, steps):
    """Random ``tl_add``/``tl_undo``/``tl_remove`` sequences on the
    improved pass's flat timelines, zero-width slots included, placed
    through ``find_slot`` as the pass places them, plus the remove and
    re-add of a refinement probe that keeps its task: that leaves the
    slots, end time and gap index as they were, and the removal returns
    the end of the previous nonzero-width slot (0.0 when none; ``inf``
    for a zero-width slot, which merges no gap).  After every step the
    slot search equals ``scan_slots`` and ``tl_max``, ``tl_nz`` and the
    gap index equal those rebuilt from the live slots.  Times are
    multiples of 0.5, so every sum is exact."""
    rng = np.random.default_rng(seed)
    q = 2
    fs = _FlatState(steps * 4, q)
    live: list[tuple[int, int, float]] = []  # (proc, task, start)
    durations = [0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.0]
    next_task = 0

    def draw():
        return float(rng.integers(0, 60)) * 0.5, durations[int(rng.integers(len(durations)))]

    def index(j):
        return (fs.tl_max[j], fs.tl_nz[j], list(fs.gap_s[j]), list(fs.gap_e[j]))

    for _ in range(steps):
        j = int(rng.integers(q))
        op = rng.random()
        if op < 0.55 or not live:
            ready, duration = draw()
            start = fs.find_slot(j, ready, duration, True)
            fs.tl_add(j, next_task, start, start + duration)
            live.append((j, next_task, start))
            next_task += 1
        elif op < 0.8:
            # A probe's tentative duplicates on ``j``, then its undo.
            before = (list(fs.tl_starts[j]), list(fs.tl_ends[j]), list(fs.tl_tasks[j]),
                      index(j))
            fs.tl_snapshot(j)
            plans = []
            for _k in range(int(rng.integers(1, 4))):
                ready, duration = draw()
                start = fs.find_slot(j, ready, duration, True)
                fs.dups[next_task].append((j, start, start + duration, duration))
                plans.append((next_task, start, duration,
                               fs.tl_add(j, next_task, start, start + duration)))
                next_task += 1
                _check_index(fs, j, [draw() for _p in range(3)])
            fs.tl_undo(j, plans)
            assert all(not fs.dups[dt] for dt, _s, _d, _i in plans)
            after = (fs.tl_starts[j], fs.tl_ends[j], fs.tl_tasks[j], index(j))
            assert after == before
        elif op < 0.9:
            # A refinement probe that keeps its task in place: remove the
            # slot and re-add it.
            pj, t, start = live[int(rng.integers(len(live)))]
            i = fs.tl_tasks[pj].index(t)
            end = fs.tl_ends[pj][i]
            before = (sorted(zip(fs.tl_starts[pj], fs.tl_ends[pj], fs.tl_tasks[pj])),
                      index(pj))
            prev = 0.0
            for s, e in zip(fs.tl_starts[pj][:i], fs.tl_ends[pj][:i]):
                if e - s > _TL_EPS:
                    prev = e
            gap_lo = fs.tl_remove(pj, t, start)
            assert gap_lo == (prev if end - start > _TL_EPS else math.inf)
            _check_index(fs, pj, [draw() for _p in range(3)])
            fs.tl_add(pj, t, start, end)
            # Equal only up to the order of slots sharing a start: the
            # re-add goes ahead of them.
            after = (sorted(zip(fs.tl_starts[pj], fs.tl_ends[pj], fs.tl_tasks[pj])),
                     index(pj))
            assert after == before
        else:
            pj, t, start = live.pop(int(rng.integers(len(live))))
            fs.tl_remove(pj, t, start)
            assert t not in fs.tl_tasks[pj]
        for k in range(q):
            _check_index(fs, k, [draw() for _p in range(4)])


def _random_timeline(rng):
    """A start-sorted timeline of the kind the passes meet: nonzero-width
    slots that abut, leave a gap (zero, below EPS, EPS or wider) or
    overlap their predecessor by less than EPS, and zero-width slots
    (width 0 or at most EPS) anywhere, some sharing a start with
    another slot and sitting before or after it."""
    tiny = [0.0, _TL_EPS / 2, _TL_EPS, 2 * _TL_EPS]
    slots = []
    frontier = 0.0 if rng.random() < 0.5 else float(rng.integers(0, 3))
    for _ in range(int(rng.integers(0, 12))):
        r = rng.random()
        if r < 0.2:
            start = frontier  # abut
        elif r < 0.35:
            start = frontier - _TL_EPS * float(rng.choice([0.5, 0.1]))  # overlap < EPS
        elif r < 0.55:
            start = frontier + float(rng.choice(tiny[1:]))
        else:
            start = frontier + float(rng.integers(1, 9)) * float(rng.choice([0.25, 1.0]))
        if start < 0.0:
            start = 0.0
        width = float(rng.choice([2.5 * _TL_EPS, 0.5, 1.0, 3.0, float(rng.integers(1, 7))]))
        slots.append((start, start + width))
        frontier = start + width
    points = [0.0] + [s for s, _e in slots] + [e for _s, e in slots]
    for _ in range(int(rng.integers(0, 5))):
        at = float(rng.choice(points)) if rng.random() < 0.6 else float(rng.random()) * (frontier + 1)
        slots.append((at, at + float(rng.choice(tiny[:2]))))
    order = rng.permutation(len(slots))
    slots = sorted((slots[k] for k in order), key=lambda se: se[0])
    return [s for s, _e in slots], [e for _s, e in slots]


def _probes(rng, starts, ends):
    """Ready times at, just before and just after every slot boundary,
    plus random ones; durations 0, EPS and its neighbours, every gap
    width and its EPS neighbours, plus random ones."""
    points = [0.0] + list(starts) + list(ends)
    readies = [p + d for p in points for d in (0.0, -_TL_EPS / 2, _TL_EPS / 2)
               if p + d >= 0.0]
    readies += [float(rng.random()) * (max(ends, default=0.0) + 2) for _ in range(4)]
    _m, gaps, _nz = _live_index(starts, ends)
    durations = [0.0, _TL_EPS / 2, _TL_EPS, 2 * _TL_EPS, 0.5, 1.0]
    for gs, ge in gaps:
        w = ge - gs
        durations += [w, w + _TL_EPS / 2, w + 2 * _TL_EPS, max(w - _TL_EPS, 0.0)]
    durations += [float(rng.random()) * 4 for _ in range(3)]
    return [(r, d) for r in readies for d in durations]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_gap_index_search_equals_scan_slots(seed):
    """On random start-sorted timelines (zero-width slots, equal starts,
    neighbours overlapping by less than EPS) the gap index built in one
    walk equals the one rebuilt from the slots, and the slot search over
    it equals ``scan_slots`` for ready times at every boundary and
    durations including 0 and EPS.  Building the same slots one
    ``tl_add`` at a time, in random order, and taking them out again
    one ``tl_remove`` at a time keeps the index exact after every
    step."""
    rng = np.random.default_rng(seed)
    starts, ends = _random_timeline(rng)
    fs = _FlatState(len(starts), 1)
    fs.tl_starts[0], fs.tl_ends[0] = list(starts), list(ends)
    fs.tl_tasks[0] = list(range(len(starts)))
    fs.tl_max[0], fs.gap_s[0], fs.gap_e[0], fs.tl_nz[0] = _gap_index(starts, ends)
    _check_index(fs, 0, _probes(rng, starts, ends))

    fs = _FlatState(len(starts), 1)
    order = rng.permutation(len(starts)).tolist()
    for t in order:
        fs.tl_add(0, t, starts[t], ends[t])
        _check_index(fs, 0, [(r, d) for r, d in _probes(rng, starts, ends)[::7]])
    rng.shuffle(order)
    for t in order:
        fs.tl_remove(0, t, starts[t])
        _check_index(fs, 0, [(r, d) for r, d in _probes(rng, starts, ends)[::7]])


@given(st.integers(min_value=0, max_value=2**32 - 1), etc_edits)
@settings(max_examples=60, deadline=None)
def test_list_pass_on_seeded_timelines_equals_scan_slots(seed, edits):
    """``schedule_onto`` seeds each processor's gap index from random
    busy timelines (zero-width slots, equal starts, EPS overlaps) and
    floors every ready time at a random ``release``; its placements
    equal the reference list pass, which calls ``scan_slots``."""
    from tests.sim.online_reference import place_reference

    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    instance = edit_etc(build((int(rng.integers(1, 12)), q, 1.0, 0.5, seed % 10_000)),
                        edits, seed % 10_000)
    ci = compile_instance(instance)
    busy = [_random_timeline(rng) for _ in range(q)]
    busy_starts = [s for s, _e in busy]
    busy_ends = [e for _s, e in busy]
    points = [0.0] + [p for s, e in busy for p in s + e]
    release = float(rng.choice(points)) + float(rng.choice([0.0, -_TL_EPS / 2, _TL_EPS / 2]))
    release = max(release, 0.0)
    order = ci.order.tolist()
    for policy in ("eft", "est"):
        got = ci.schedule_onto(order, busy_starts, busy_ends, release=release, policy=policy)
        want, _first, last = place_reference(
            instance, [ci.tasks[t] for t in order], ci._ti, busy_starts, busy_ends,
            release, None, insertion=True, eft=policy == "eft")
        assert [(got.proc[t], got.start[t], got.start[t] + got.darg[t]) for t in order] \
            == want
        assert got.makespan == last


def _check_refinement_bounds(ci, fs):
    """Give every task with a finite ``lb`` and no duplicates a full
    refinement probe on ``fs`` without its slot — fold its parents, run
    the insertion search on every processor — and require every end to
    be at least its bound.  Returns the number of tasks checked."""
    checked = 0
    for t in range(ci.n):
        if fs.dups[t] or not math.isfinite(fs.lb[t]):
            continue
        checked += 1
        ready = ci._fold([0.0] * ci.q, ci._preds[t], fs.pend, fs.pproc, fs.dups)
        for j, duration in enumerate(ci._etc_rows[t]):
            slots = [(s, e) for s, e, k in zip(fs.tl_starts[j], fs.tl_ends[j],
                                               fs.tl_tasks[j]) if k != t]
            starts = [s for s, _e in slots]
            ends = [e for _s, e in slots]
            end = scan_slots(starts, ends, ready[j], duration) + duration
            assert end >= fs.lb[t], (t, j, end, fs.lb[t])
    return checked


@given(instance_params, st.sampled_from(["zero", "uniform", "custom", "per-link"]),
       etc_edits, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_refinement_bounds_are_sound(params, comm, edits, la, dup, ins):
    """After the improved placement pass and after each of four single
    refinement rounds, every task's bound is at most every end a full
    probe of it finds.  Payload identity alone misses a wrong
    invalidation: a stale bound only skips a probe that would have moved
    its task on some other instance."""
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    ci = compile_instance(instance)
    ranks = upward_ranks(instance, "mean")
    pos = instance.kernel.pos
    order = ci.order_indices(sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t])))
    fs = _FlatState(ci.n, ci.q)
    ci._improved_place_pass(fs, order, [ranks[t] for t in ci.tasks], lookahead=la,
                            duplication=dup, insertion=ins, max_dups=3)
    _check_refinement_bounds(ci, fs)
    for _ in range(4):
        ci._refine(fs, 1)
        _check_refinement_bounds(ci, fs)


def test_restore_that_changes_an_end_drops_every_bound():
    """A restore whose ``start + (end - start)`` replay changes the
    recorded end moves the task's data to its children, so no bound
    survives it.  No schedule records such an end, so the state is built
    by hand: the chain a -> b -> c on one processor with b on [s, x),
    where s = 1 + 2**-47 and x = 100 + 2**-46 replay to 100.0."""
    from repro.dag.graph import TaskDAG
    from repro.machine.cluster import Machine
    from repro.machine.processor import Processor

    s, x = 1.0 + 2.0**-47, 100.0 + 2.0**-46
    assert s + (x - s) == 100.0 < x
    dag = TaskDAG()
    for task in "abc":
        dag.add_task(task, 1.0)
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    machine = Machine([Processor(id=0, speed=1.0)])
    etc = ETCMatrix(["a", "b", "c"], [0], np.array([[s], [x - s], [1.0]]))
    ci = compile_instance(Instance(dag=dag, machine=machine, etc=etc))
    fs = _FlatState(ci.n, ci.q)
    for task, start, end in (("a", 0.0, s), ("b", s, x), ("c", x, x + 1.0)):
        t = ci._ti[task]
        fs.pstart[t], fs.pend[t], fs.pdarg[t], fs.pproc[t] = start, end, end - start, 0
        fs.placed[t] = True
        fs.tl_add(0, t, start, end)
    c = ci._ti["c"]
    fs.lb[c] = fs.pend[c]
    assert _check_refinement_bounds(ci, fs) == 1
    ci._refine(fs, 1)
    assert fs.pend[ci._ti["b"]] == 100.0
    _check_refinement_bounds(ci, fs)


@given(instance_params, st.sampled_from(["zero", "uniform", "custom", "per-link"]),
       etc_edits)
@settings(max_examples=40, deadline=None)
def test_dominant_parent_fold_is_the_planner_rule(params, comm, edits):
    """On a DUP-HEFT schedule (primaries plus duplicates), the fold twin
    leaves, per task and processor, the ready time of the plain fold and
    the parent with the largest ``(arrival, -pos)`` — arrivals priced
    copy by copy through ``Instance.comm_time``, ties (integer ETC
    draws, free links) to the earlier topological position, however the
    predecessor lists are ordered."""
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    ci = compile_instance(instance)
    result = ci.schedule_improved(
        ci.order.tolist(), [0.0] * ci.n, lookahead=False, duplication=True,
        insertion=True, refinement=False, refinement_rounds=0)
    schedule = ci.materialize(result, instance.machine, "dup")
    pend = [s + d for s, d in zip(result.start, result.darg)]
    dups = [[] for _ in range(ci.n)]
    for t, j, s, d in result.dups:
        dups[t].append((j, s, s + d, d))
    pos = instance.kernel.pos
    for t, task in enumerate(ci.tasks):
        edges = ci._preds[t]
        dom = [-1] * ci.q
        ready = ci._fold_dom([0.0] * ci.q, dom, edges, pend, result.proc, dups)
        assert ready == ci._fold([0.0] * ci.q, edges, pend, result.proc, dups)
        for j, proc in enumerate(ci.procs):
            arrival = {
                parent: min(c.end + (0.0 if c.proc == proc else
                                     instance.comm_time(parent, task, c.proc, proc))
                            for c in schedule.copies(parent))
                for parent in instance.dag.predecessors(task)
            }
            want = max(arrival, key=lambda p: (arrival[p], -pos[p]), default=None)
            assert dom[j] == (-1 if want is None else ci._ti[want]), (task, proc)


@given(instance_params, st.booleans(), st.booleans(), st.integers(min_value=1, max_value=5),
       st.sampled_from(["zero", "uniform", "custom", "per-link"]), etc_edits)
@settings(max_examples=80, deadline=None)
def test_duplicating_pass_per_task_cap_equals_object(params, la, ins, max_dups, comm, edits):
    """A duplicating ``heft_pass`` under every per-task duplicate cap
    matches the object path.  Round one of duplicate planning runs in
    the probe loop, rounds 2 and later in the scalar planner, so the cap
    decides which of the two places a copy."""
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    engine = PlacementEngine(lookahead=la, duplication=True, insertion=ins,
                             max_duplications_per_task=max_dups)
    fast = engine.heft_pass(instance, "mean", "DUP")
    with object_path():
        ref = engine.heft_pass(instance, "mean", "DUP")
    assert violations(fast, instance) == []
    assert _payload(fast, instance, "DUP") == _payload(ref, instance, "DUP")


@given(instance_params, st.sampled_from(["zero", "uniform", "custom", "per-link"]),
       etc_edits, st.booleans(), st.booleans(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_cached_ready_vectors_equal_a_fresh_fold(params, comm, edits, la, ins, max_dups):
    """After a duplicating placement pass, every ready vector still
    cached on the flat state equals a fresh fold of its task's parents,
    duplicates included, over the final state, element for element.  A
    vector dropped too late feeds round one of duplicate planning a
    stale ``dup_ready``, which payload identity sees only on instances
    where it changes a copy."""
    instance = edit_etc(build_on(comm, params), edits, params[-1])
    ci = compile_instance(instance)
    ranks = upward_ranks(instance, "mean")
    pos = instance.kernel.pos
    order = ci.order_indices(sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t])))
    fs = _FlatState(ci.n, ci.q)
    ci._improved_place_pass(fs, order, [ranks[t] for t in ci.tasks], lookahead=la,
                            duplication=True, insertion=ins, max_dups=max_dups)
    for t in range(ci.n):
        vec = fs.rvec[t]
        if vec is not None:
            assert vec == ci._fold([0.0] * ci.q, ci._preds[t], fs.pend, fs.pproc, fs.dups), t


@given(instance_params)
@settings(max_examples=30, deadline=None)
def test_tds_unaffected_by_executor_switch(params):
    """TDS never routes through the compiled executor (duplication-tree
    policy, not a list scheduler); switching the executor off with the
    object-path helper must be a no-op for it, and so must tracing."""
    from repro.obs import Tracer, use_tracer

    instance = build(params)
    a = get_scheduler("TDS").schedule(instance)
    with object_path():
        b = get_scheduler("TDS").schedule(instance)
    with use_tracer(Tracer(name="t")):
        c = get_scheduler("TDS").schedule(instance)
    assert _payload(a, instance, "TDS") == _payload(b, instance, "TDS")
    assert _payload(a, instance, "TDS") == _payload(c, instance, "TDS")


_RESTART_SNIPPET = """
import json, sys
from repro.bench import workloads as W
from repro.utils.rng import as_generator
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload

out = []
for seed in (11, 12):
    inst = W.random_instance(as_generator(seed), num_tasks=40, num_procs=4)
    for alg in ("HEFT", "IMP"):
        s = get_scheduler(alg).schedule(inst)
        out.append(schedule_payload(s, inst, alg))
sys.stdout.write(json.dumps(out, sort_keys=True))
"""


def _run_with_hashseed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RESTART_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_schedules_stable_across_hash_randomization():
    """Fresh interpreters with different PYTHONHASHSEED values must
    produce byte-identical payloads — dict/set iteration order never
    reaches a scheduling decision on either decode path."""
    assert _run_with_hashseed("1") == _run_with_hashseed("31337")
