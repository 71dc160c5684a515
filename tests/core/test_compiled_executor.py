"""Differential suite for the compiled list-scheduling executor.

``repro.compiled`` gives every production scheduler a flat-array cold
path (``CompiledInstance.schedule_list`` / ``schedule_dls`` /
``schedule_improved``).  The object path through
:class:`~repro.schedule.schedule.Schedule` is the specification; this
suite asserts the compiled executor reproduces it *bit for bit* — full
JSON payloads, not just makespans — across the seeded differential
population (uniform and per-link machines) and on a custom model that
defines only ``link()``, and that every instance routes through the
executor, traced or not.  The reference engine is reached through the
test-side ``tests/object_path.py`` helper.
"""

from __future__ import annotations

import json

import pytest

from repro import compiled
from repro.compiled import CompiledInstance, compile_instance
from repro.dag.generators import random_dag
from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.schedule.validation import validate
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.object_path import FIXED_ORDER, ROUTED, object_path, routed_insertion_off
from tests.population import OpaqueCommunication, build_population, random_instance_on


@pytest.fixture(scope="module")
def population():
    return build_population()


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


def test_full_corpus_payloads_bit_identical(population):
    """Compiled vs object path over the whole population, all routed and
    fixed-order schedulers (GA and SA, whose winners are decoded the
    same way, on a slice), comparing the complete serialized payload
    (placements, duplicates, makespan — everything a service response
    carries)."""
    cases = [(label, inst, alg) for label, inst in population
             for alg in ROUTED + FIXED_ORDER]
    cases += [(label, inst, alg) for label, inst in population[::10] for alg in ("GA", "SA")]
    for label, inst, alg in cases:
        scheduler = get_scheduler(alg)
        fast = scheduler.schedule(inst)
        with object_path():
            ref = scheduler.schedule(inst)
        assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_three_way_equivalence_on_slice(population):
    """Compiled == compiled under a tracer == object path on a corpus
    slice, for every routed scheduler."""
    from repro.obs import Tracer, use_tracer

    for label, inst in population[::7]:
        for alg in ROUTED:
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_tracer(Tracer(name="t")):
                traced = scheduler.schedule(inst)
            with object_path():
                ref = scheduler.schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(traced, inst, alg), (label, alg)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_duplication_schedules_materialize_duplicates(population):
    """IMP duplication actually fires somewhere on the corpus and the
    compiled path reproduces the duplicate placements exactly."""
    total_dups = 0
    for label, inst in population[::5]:
        fast = get_scheduler("IMP").schedule(inst)
        with object_path():
            ref = get_scheduler("IMP").schedule(inst)
        assert fast.num_duplicates() == ref.num_duplicates(), label
        total_dups += fast.num_duplicates()
    assert total_dups > 0, "duplication never fired; corpus slice too easy"


def _instance_on(comm, seed: int = 3) -> Instance:
    from repro.machine.processor import Processor

    dag = random_dag(24, seed=seed)
    machine = Machine([Processor(id=i, speed=1.0) for i in range(3)], comm=comm, name="links")
    etc = generate_etc(dag, machine, heterogeneity=0.6, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def _link_comm() -> LinkCommunication:
    ids = [0, 1, 2]
    lat = {p: {q: 0.1 * (1 + (p + q) % 3) for q in ids if q != p} for p in ids}
    bw = {p: {q: 1.0 + ((p * 7 + q) % 5) for q in ids if q != p} for p in ids}
    return LinkCommunication(ids, lat, bw)


def test_per_link_and_custom_comm_compile():
    """Per-link machines and a custom model that defines only ``link()``
    both lower and route through the executor with no fallback counted,
    and every routed, fixed-order and metaheuristic scheduler's payload
    equals the reference engine's."""
    algs = ROUTED + FIXED_ORDER + ["GA", "SA"]
    for comm in (_link_comm(), OpaqueCommunication()):
        inst = _instance_on(comm)
        assert isinstance(compile_instance(inst), CompiledInstance)
        before = compiled.schedule_counters()
        for alg in algs:
            fast = get_scheduler(alg).schedule(inst)
            with object_path():
                ref = get_scheduler(alg).schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (comm, alg)
        after = compiled.schedule_counters()
        built = ("list_schedules", "dls_schedules", "improved_passes")
        assert sum(after[k] - before[k] for k in built) >= len(algs), comm
        assert after["fallbacks"] == before["fallbacks"] == 0, comm


def test_executor_counters_increment(population):
    _, inst = population[0]
    compiled.reset_schedule_counters()
    get_scheduler("HEFT").schedule(inst)
    get_scheduler("DLS").schedule(inst)
    get_scheduler("IMP").schedule(inst)
    counts = compiled.schedule_counters()
    assert counts["list_schedules"] >= 1
    assert counts["dls_schedules"] >= 1
    assert counts["improved_passes"] >= 1


def test_routing_enabled_under_tracer(population):
    """Traced runs take the compiled executor too: each routed scheduler
    shows up in ``schedule_counters()`` and returns the untraced payload,
    with its phase spans and no per-task spans."""
    from repro.obs import Tracer, use_tracer

    kinds = {"DLS": "dls_schedules", "IMP": "improved_passes",
             "LA-HEFT": "improved_passes", "DUP-HEFT": "improved_passes"}
    for label, inst in (population[0], population[-1]):  # uniform, per-link
        for alg in ROUTED:
            plain = get_scheduler(alg).schedule(inst)
            tracer = Tracer(name="t")
            before = compiled.schedule_counters()
            with use_tracer(tracer):
                assert compile_instance(inst) is not None
                traced = get_scheduler(alg).schedule(inst)
            after = compiled.schedule_counters()
            kind = kinds.get(alg, "list_schedules")
            assert after[kind] > before[kind], (label, alg)
            assert after["fallbacks"] == before["fallbacks"], (label, alg)
            assert _payload(traced, inst, alg) == _payload(plain, inst, alg), (label, alg)
            names = {s["name"] for s in tracer.spans()}
            assert "sched.insert" not in names, (label, alg)
            assert {"sched.run", "sched.rank", "sched.place"} <= names, (label, alg)


def _place_counts(alg, inst):
    """``(payload, names, [(pruned, planned) per sched.place])`` of one
    traced run of ``alg`` on ``inst``."""
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(name="t")
    with use_tracer(tracer):
        schedule = get_scheduler(alg).schedule(inst)
    spans = tracer.spans()
    counts = [(s["attrs"]["pruned"], s["attrs"]["planned"])
              for s in spans if s["name"] == "sched.place"]
    return _payload(schedule, inst, alg), {s["name"] for s in spans}, counts


def test_improved_passes_count_their_probes(population):
    """LA-HEFT and DUP-HEFT carry ``sched.run`` > ``sched.rank`` /
    ``sched.place`` like every list scheduler, and each improved pass's
    ``sched.place`` counts the probes pruned before their slot search
    and those that applied a duplicate plan: the same counts on every
    run, none planned without duplication, and the untraced payload."""
    for label, inst in (population[0], population[-1]):  # uniform, per-link
        for alg, passes, dup_passes in (("LA-HEFT", 1, 0), ("DUP-HEFT", 1, 1), ("IMP", 4, 2)):
            plain = _payload(get_scheduler(alg).schedule(inst), inst, alg)
            payload, names, counts = _place_counts(alg, inst)
            assert payload == plain, (label, alg)
            assert {"sched.run", "sched.rank", "sched.place"} <= names, (label, alg)
            assert len(counts) == passes, (label, alg, counts)
            assert _place_counts(alg, inst)[2] == counts, (label, alg)
            n_probes = inst.num_tasks * inst.num_procs
            assert all(0 <= p <= n_probes and 0 <= d <= n_probes - p
                       for p, d in counts), (label, alg, counts)
            assert sum(d > 0 for _p, d in counts) <= dup_passes, (label, alg, counts)
            assert sum(p for p, _d in counts) > 0, (label, alg, counts)


#: The compiled list schedulers: each ``sched.place`` counts the list
#: pass's dominance prunes and its gap-index walks.
LIST_ROUTED = [alg for alg in ROUTED if alg not in ("DLS", "IMP", "LA-HEFT", "DUP-HEFT")]


def _place_attrs(alg, inst):
    """``(payload, [attrs of each sched.place])`` of one traced run."""
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(name="t")
    with use_tracer(tracer):
        schedule = get_scheduler(alg).schedule(inst)
    return _payload(schedule, inst, alg), [
        s["attrs"] for s in tracer.spans() if s["name"] == "sched.place"]


def test_list_and_improved_passes_count_prunes_and_walks(population):
    """Every compiled list scheduler's ``sched.place`` carries ``pruned``
    (probes its dominance prune skipped) and ``walked`` (slot searches
    that walked the gap index), at most one of the two per probe; every
    improved pass's carries ``walked`` beside its probe counts.  The
    counts are the same on every run, the payload is the untraced one,
    and over the corpus slice both counts fire."""
    totals = {"pruned": 0, "walked": 0}
    for label, inst in population[::6]:
        probes = inst.num_tasks * inst.num_procs
        for alg in LIST_ROUTED + ["IMP", "LA-HEFT", "DUP-HEFT"]:
            plain = _payload(get_scheduler(alg).schedule(inst), inst, alg)
            payload, places = _place_attrs(alg, inst)
            assert payload == plain, (label, alg)
            assert _place_attrs(alg, inst)[1] == places, (label, alg)
            for attrs in places:
                assert type(attrs["walked"]) is int and attrs["walked"] >= 0, (label, alg)
                if alg in LIST_ROUTED:
                    assert attrs["pruned"] + attrs["walked"] <= probes, (label, alg, attrs)
                    totals["pruned"] += attrs["pruned"]
                    totals["walked"] += attrs["walked"]
    assert totals["pruned"] > 0 and totals["walked"] > 0, totals


def test_traced_runs_on_the_object_engine(population):
    """A traced run on the test-side object engine returns the untraced
    payload for every routed scheduler, and the work counts its
    ``sched.place`` spans carry read 0: that engine counts nothing."""
    from repro.obs import Tracer, use_tracer

    for label, inst in (population[0], population[-1]):  # uniform, per-link
        for alg in ROUTED:
            tracer = Tracer(name="t")
            with object_path():
                plain = get_scheduler(alg).schedule(inst)
                with use_tracer(tracer):
                    traced = get_scheduler(alg).schedule(inst)
            assert _payload(traced, inst, alg) == _payload(plain, inst, alg), (label, alg)
            places = [s["attrs"] for s in tracer.spans() if s["name"] == "sched.place"]
            assert places, (label, alg)
            for attrs in places:
                counts = {k: v for k, v in attrs.items() if k in ("pruned", "planned", "walked")}
                assert all(v == 0 for v in counts.values()), (label, alg, attrs)
                assert ("walked" in counts) == (alg != "DLS"), (label, alg, attrs)


def _refine_spans(inst):
    """``(engine, attrs)`` of every ``sched.refine`` span of a traced
    IMP run, plus the run's spans and schedule."""
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(name="t")
    with use_tracer(tracer):
        schedule = get_scheduler("IMP").schedule(inst)
    spans = tracer.spans()
    by_id = {s["id"]: s for s in spans}
    refines = [(by_id[by_id[s["parent"]]["parent"]]["attrs"]["engine"], s["attrs"])
               for s in spans if s["name"] == "sched.refine"]
    return refines, spans, schedule


def test_improved_spans_split_place_refine_and_materialize(population):
    """A traced IMP run on a heterogeneous instance: two rank variants
    times the primary and plain engines make four ``sched.place`` spans,
    each with one ``sched.refine`` child, and the winner is raised under
    one ``sched.materialize`` in ``sched.run``.  Each refinement span
    counts the tasks it visited and probed and the moves it accepted;
    the plain passes probe none.
    The payload is the untraced one."""
    label, inst = population[0]
    assert label.startswith("het") and not inst.is_homogeneous()
    plain = get_scheduler("IMP").schedule(inst)
    refines, spans, traced = _refine_spans(inst)
    by_id = {s["id"]: s for s in spans}
    named = {name: [s for s in spans if s["name"] == name]
             for name in ("sched.place", "sched.refine", "sched.materialize")}
    assert len(named["sched.place"]) == len(named["sched.refine"]) == 4
    assert sorted(s["parent"] for s in named["sched.refine"]) == sorted(
        s["id"] for s in named["sched.place"])
    [materialize] = named["sched.materialize"]
    assert by_id[materialize["parent"]]["name"] == "sched.run"
    assert sorted(engine for engine, _attrs in refines) == ["plain", "plain",
                                                           "primary", "primary"]
    for engine, attrs in refines:
        assert 0 <= attrs["probes"] <= attrs["visits"], (engine, attrs)
        assert type(attrs["moves"]) is int and attrs["moves"] >= 0, (engine, attrs)
        if engine == "plain":
            assert attrs["probes"] == 0, attrs
    assert _payload(traced, inst, "IMP") == _payload(plain, inst, "IMP")


def test_plain_passes_run_no_refinement_probe(population):
    """IMP's plain EFT passes (insertion on) leave every task at the
    least end any processor offers, and nothing after its placement can
    lower that bound: refinement visits every task and probes none."""
    for label, inst in population:
        refines, _spans, _schedule = _refine_spans(inst)
        plain = [attrs for engine, attrs in refines if engine == "plain"]
        assert plain, label
        for attrs in plain:
            assert attrs["visits"] > 0 and attrs["probes"] == 0, (label, attrs)


def test_refine_span_moves_equal_refine_schedule(population):
    """Each ``sched.refine`` span's ``moves`` is the number of moves its
    sweep accepted: ``refine_schedule`` on the schedule the same
    placement pass leaves returns it and ends where the refined pass
    ends."""
    from repro.core import refine_schedule
    from repro.obs import Tracer, use_tracer
    from repro.schedulers.ranking import upward_ranks

    total = 0
    for label, inst in population[::6]:
        ci = compile_instance(inst)
        ranks = upward_ranks(inst)
        pos = inst.kernel.pos
        order = ci.order_indices(sorted(inst.dag.tasks(), key=lambda t: (-ranks[t], pos[t])))
        for la, dup in ((True, True), (False, False), (True, False)):
            def run(refinement):
                return ci.schedule_improved(
                    order, [ranks[t] for t in ci.tasks], lookahead=la, duplication=dup,
                    insertion=True, refinement=refinement, refinement_rounds=2)

            tracer = Tracer(name="t")
            with use_tracer(tracer):
                refined = ci.materialize(run(True), inst.machine, "X")
            [span] = [s for s in tracer.spans() if s["name"] == "sched.refine"]
            moves = span["attrs"]["moves"]
            placed = ci.materialize(run(False), inst.machine, "X")
            assert refine_schedule(placed, inst, 2) == moves, (label, la, dup)
            assert _payload(placed, inst, "X") == _payload(refined, inst, "X"), (label, la, dup)
            total += moves
    assert total > 0


def test_insertion_off_matches_object_path(population):
    """The non-insertion policy (ablation path) replays end-append
    placement identically, for the list, improved and single-pass
    engine schedulers.  Refinement, whose probes search with insertion,
    moves appended tasks into gaps on this slice, so the improved
    pass's refinement bounds are exercised by moves too."""
    from repro.schedulers.ranking import upward_ranks

    moved = 0
    for label, inst in population[::9]:
        for alg, scheduler in routed_insertion_off():
            fast = scheduler.schedule(inst)
            with object_path():
                ref = scheduler.schedule(inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)
        ci = compile_instance(inst)
        ranks = upward_ranks(inst, "mean")
        order = ci.order_indices(sorted(inst.dag.tasks(),
                                        key=lambda t: (-ranks[t], inst.kernel.pos[t])))
        runs = [ci.schedule_improved(order, [ranks[t] for t in ci.tasks], lookahead=True,
                                     duplication=True, insertion=False, refinement=ref_,
                                     refinement_rounds=2)
                for ref_ in (False, True)]
        moved += runs[0].start != runs[1].start
    assert moved > 0


# ----------------------------------------------------------------------
# the list-pass contract: two entry points, one pass
# ----------------------------------------------------------------------
#: Zero-cost machines (the ``Machine`` default) are not in the corpus,
#: which is all uniform or per-link; these add them.
ZERO_COMM = [(f"zero-{seed}", random_instance_on("zero", 20, 4, 2.0, 0.8, seed))
             for seed in range(4)]


@pytest.mark.parametrize("policy", ["eft", "est"])
@pytest.mark.parametrize("insertion", [True, False], ids=["insert", "append"])
def test_schedule_onto_on_empty_timelines_is_schedule_list(population, insertion, policy):
    """``schedule_onto`` with empty seeds, release 0 and no ETC scale
    returns what ``schedule_list`` returns, float for float, on zero,
    uniform and per-link machines; an all-ones scale changes nothing.
    Each entry point counts under its own key."""
    for label, inst in population + ZERO_COMM:
        ci = compile_instance(inst)
        order = ci.order.tolist()
        empty = [[]] * ci.q
        before = compiled.schedule_counters()
        ref = ci.schedule_list(order, insertion=insertion, policy=policy)
        mid = compiled.schedule_counters()
        runs = [ci.schedule_onto(order, empty, empty, insertion=insertion, policy=policy),
                ci.schedule_onto(order, empty, empty, insertion=insertion, policy=policy,
                                 etc_scale=[1.0] * ci.n)]
        after = compiled.schedule_counters()
        for got in runs:
            assert (got.start, got.darg, got.proc, got.makespan) == (
                ref.start, ref.darg, ref.proc, ref.makespan), label
        assert mid["list_schedules"] == before["list_schedules"] + 1, label
        assert mid["online_schedules"] == before["online_schedules"], label
        assert after["online_schedules"] == mid["online_schedules"] + 2, label
        assert after["list_schedules"] == mid["list_schedules"], label


def test_list_pass_rejections(population):
    """An unknown policy is a ``SchedulingError`` on both entry points,
    and so are busy lists for the wrong number of processors; a rejected
    call counts no schedule."""
    _, inst = population[0]
    ci = compile_instance(inst)
    order = ci.order.tolist()
    empty = [[]] * ci.q
    before = compiled.schedule_counters()
    with pytest.raises(SchedulingError, match="unknown placement policy 'lst'"):
        ci.schedule_list(order, policy="lst")
    with pytest.raises(SchedulingError, match="unknown placement policy 'lst'"):
        ci.schedule_onto(order, empty, empty, policy="lst")
    short = f"busy lists cover {ci.q - 1} processors, machine has {ci.q}"
    with pytest.raises(SchedulingError, match=short):
        ci.schedule_onto(order, empty[1:], empty[1:])
    with pytest.raises(SchedulingError, match="busy lists cover"):
        ci.schedule_onto(order, empty, empty + [[]])
    assert compiled.schedule_counters() == before
