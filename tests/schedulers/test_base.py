"""Tests for the shared list-scheduling machinery."""

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.exceptions import (
    ScheduleError,
    SchedulingError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.instance import homogeneous_instance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import validate
from repro.schedulers.base import (
    ListScheduler,
    checked_order,
    decode_assignment,
    eft_placement,
    est_placement,
    placement_on,
    ready_time,
    topological_by_priority,
)


@pytest.fixture
def instance(diamond_dag):
    return homogeneous_instance(diamond_dag, num_procs=2, bandwidth=1.0)


class TestReadyTime:
    def test_entry_task_zero(self, instance):
        s = Schedule(instance.machine)
        assert ready_time(s, instance, "a", 0) == 0.0

    def test_local_parent_no_comm(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        assert ready_time(s, instance, "b", 0) == 2.0

    def test_remote_parent_adds_comm(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        assert ready_time(s, instance, "b", 1) == pytest.approx(5.0)  # 2 + 3

    def test_max_over_parents(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("b", 0, 2.0, 4.0)
        s.add("c", 1, 3.0, 3.0)
        # d on P0: b local (6) vs c remote (6 + 2 = 8)
        assert ready_time(s, instance, "d", 0) == pytest.approx(8.0)

    def test_duplicate_copy_lowers_ready(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("a", 1, 0.0, 2.0, duplicate=True)
        assert ready_time(s, instance, "b", 1) == pytest.approx(2.0)

    def test_unscheduled_parent_raises(self, instance):
        s = Schedule(instance.machine)
        with pytest.raises(SchedulingError):
            ready_time(s, instance, "b", 0)


class TestPlacements:
    def test_placement_on_uses_slots(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        p = placement_on(s, instance, "b", 0)
        assert (p.start, p.end) == (2.0, 6.0)

    def test_eft_prefers_faster_finish(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        # b on P0 finishes at 6; on P1 at 5+4=9.
        assert eft_placement(s, instance, "b").proc == 0

    def test_eft_tie_breaks_by_proc_order(self, instance):
        s = Schedule(instance.machine)
        p = eft_placement(s, instance, "a")
        assert p.proc == 0

    def test_est_vs_eft_difference(self, topcuoglu_instance):
        # EST picks earliest start even if the proc is slow; EFT picks
        # earliest finish.  On task 1 (ETC 14,16,9) from empty schedules
        # both start at 0, so EFT must choose P2 (index 2).
        s = Schedule(topcuoglu_instance.machine)
        assert eft_placement(s, topcuoglu_instance, 1).proc == 2
        assert est_placement(s, topcuoglu_instance, 1).proc == 0

    def test_restricted_procs(self, instance):
        s = Schedule(instance.machine)
        p = eft_placement(s, instance, "a", procs=[1])
        assert p.proc == 1

    def test_empty_proc_list_rejected(self, instance):
        s = Schedule(instance.machine)
        with pytest.raises(SchedulingError):
            eft_placement(s, instance, "a", procs=[])


class TestTopologicalByPriority:
    def test_respects_priority_when_free(self, diamond_dag):
        order = topological_by_priority(diamond_dag, key=lambda t: {"a": 0, "b": 2, "c": 1, "d": 3}[t])
        assert order == ["a", "c", "b", "d"]

    def test_never_violates_precedence(self, diamond_dag):
        # Even with inverted priorities the order stays topological.
        order = topological_by_priority(diamond_dag, key=lambda t: {"a": 9, "b": 0, "c": 0, "d": 0}[t])
        assert order.index("a") < order.index("b")
        assert order.index("b") < order.index("d")


class TestListSchedulerTemplate:
    def test_incomplete_order_rejected(self, instance):
        class Bad(ListScheduler):
            name = "bad"

            def priority_order(self, inst):
                return ["a"]

        with pytest.raises(SchedulingError):
            Bad().schedule(instance)

    def test_non_topological_order_fails_loudly(self, instance):
        class Reversed(ListScheduler):
            name = "rev"

            def priority_order(self, inst):
                return list(reversed(inst.dag.topological_order()))

        with pytest.raises(SchedulingError):
            Reversed().schedule(instance)


@pytest.fixture
def rand12():
    return W.random_instance(np.random.default_rng(3), num_tasks=12, num_procs=3)


def _object_loop_error(instance, order):
    """The error the object primitives raise placing ``order`` one task
    at a time, or ``None`` when every task places."""
    schedule = Schedule(instance.machine)
    try:
        for task in order:
            placed = eft_placement(schedule, instance, task)
            schedule.add(task, placed.proc, placed.start, placed.end - placed.start)
    except SchedulingError as exc:
        return str(exc)
    return None


class TestOrderCheck:
    """One check, coverage plus precedence, runs before every list pass:
    the compiled pass trusts its order and would place a child before
    its parent."""

    @pytest.mark.parametrize("policy", ["eft", "est", None])
    def test_reversed_order_refused_on_every_path(self, rand12, policy):
        class Reversed(ListScheduler):
            name = "rev"
            compiled_policy = policy

            def priority_order(self, inst):
                return list(reversed(inst.dag.topological_order()))

        with pytest.raises(SchedulingError, match="is unscheduled"):
            Reversed().schedule(rand12)

    def test_names_the_pair_the_object_loop_stops_at(self, rand12):
        rng = np.random.default_rng(0)
        tasks = list(rand12.dag.tasks())
        refused = 0
        for k in range(40):
            if k % 4 == 0:
                keys = rng.random(len(tasks))
                order = topological_by_priority(rand12.dag, key=lambda t: keys[tasks.index(t)])
            else:
                order = [tasks[i] for i in rng.permutation(len(tasks))]
            expected = _object_loop_error(rand12, order)
            if expected is None:
                assert checked_order(rand12, order, "x") == [
                    rand12.kernel.ti[t] for t in order
                ]
                continue
            refused += 1
            with pytest.raises(SchedulingError) as exc:
                checked_order(rand12, order, "x")
            assert str(exc.value) == f"x: {expected}"
        assert refused >= 20

    @pytest.mark.parametrize("order", [["a"], ["a", "b", "c", "c"], ["a", "b", "c", "d", "e"]])
    def test_incomplete_order_refused_on_the_compiled_path(self, instance, order):
        class Bad(ListScheduler):
            name = "bad"
            compiled_policy = "eft"

            def priority_order(self, inst):
                return order

        with pytest.raises(SchedulingError):
            Bad().schedule(instance)


class TestDecodeAssignment:
    """``decode_assignment`` runs the compiled pinned list pass, and
    answers malformed input as the object decoder did, one row each."""

    @pytest.fixture
    def case(self, rand12):
        from repro.schedulers.heft import HEFT

        order = rand12.kernel.rank_order("mean")
        return rand12, dict(HEFT().schedule(rand12).assignment()), list(order)

    def test_heft_assignment_decodes(self, case):
        inst, assignment, order = case
        schedule = decode_assignment(inst, assignment, order, name="d")
        validate(schedule, inst)
        assert schedule.name == "d"
        assert dict(schedule.assignment()) == assignment

    def test_task_before_parent(self, case):
        inst, assignment, order = case
        child = next(t for t in order if inst.dag.predecessors(t))
        parent = inst.dag.predecessors(child)[0]
        bad = [t for t in order if t != parent]
        bad.insert(bad.index(child) + 1, parent)
        with pytest.raises(SchedulingError, match="is unscheduled"):
            decode_assignment(inst, assignment, bad)

    def test_task_missing_from_assignment(self, case):
        inst, assignment, order = case
        del assignment[order[-1]]
        with pytest.raises(KeyError):
            decode_assignment(inst, assignment, order)

    def test_unknown_processor(self, case):
        inst, assignment, order = case
        assignment[order[0]] = "nope"
        with pytest.raises(UnknownProcessorError):
            decode_assignment(inst, assignment, order)

    def test_unknown_task_in_order(self, case):
        inst, assignment, order = case
        assignment["ghost"] = inst.machine.proc_ids()[0]
        with pytest.raises(UnknownTaskError):
            decode_assignment(inst, assignment, order + ["ghost"])

    def test_task_listed_twice(self, case):
        inst, assignment, order = case
        with pytest.raises(ScheduleError, match="already has a primary placement"):
            decode_assignment(inst, assignment, order + [order[-1]])

    def test_order_omitting_tasks_refused(self, case):
        inst, assignment, order = case
        with pytest.raises(SchedulingError, match="order lists 5 tasks"):
            decode_assignment(inst, assignment, order[:5])


class TestPlaceOverrides:
    """A compiled list scheduler runs its list pass in the executor only
    while it keeps the template's ``place``; a subclass that overrides
    ``place`` gets its own placement, not the compiled EFT/EST pass."""

    @pytest.fixture
    def gauss(self):
        from repro.dag.generators import gaussian_elimination_dag
        from repro.instance import make_instance

        return make_instance(gaussian_elimination_dag(6), num_procs=4, seed=1)

    def test_heft_subclass_place_is_honoured(self, gauss):
        from repro.compiled import schedule_counters
        from repro.schedule.validation import validate
        from repro.schedulers.heft import HEFT

        class AllOnFirst(HEFT):
            def place(self, schedule, instance, task):
                first = instance.machine.proc_ids()[0]
                return placement_on(schedule, instance, task, first)

        before = schedule_counters()["list_schedules"]
        schedule = AllOnFirst().schedule(gauss)
        assert schedule_counters()["list_schedules"] == before
        validate(schedule, gauss)
        first = gauss.machine.proc_ids()[0]
        assert {p.proc for p in schedule.all_placements()} == {first}
        serial = sum(gauss.exec_time(t, first) for t in gauss.dag.tasks())
        assert schedule.makespan == pytest.approx(serial)
        assert HEFT().schedule(gauss).makespan < schedule.makespan
        assert schedule_counters()["list_schedules"] == before + 1

    @pytest.mark.parametrize("alg", ["MCP", "HLFET"])
    def test_est_policy_places_by_earliest_start(self, gauss, alg):
        from repro.schedulers.registry import get_scheduler

        scheduler = get_scheduler(alg)
        assert scheduler.compiled_policy == "est"
        assert type(scheduler).place is ListScheduler.place
        schedule = Schedule(gauss.machine)
        for task in scheduler.priority_order(gauss):
            placed = scheduler.place(schedule, gauss, task)
            assert placed == est_placement(schedule, gauss, task, insertion=scheduler.insertion)
            schedule.add(task, placed.proc, placed.start, placed.end - placed.start)
        compiled = scheduler.schedule(gauss)
        assert compiled.makespan == schedule.makespan
        assert [compiled.entry(t) for t in gauss.dag.tasks()] == [
            schedule.entry(t) for t in gauss.dag.tasks()
        ]
