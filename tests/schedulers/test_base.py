"""Tests for the shared list-scheduling machinery."""

import pytest

from repro.exceptions import SchedulingError
from repro.instance import homogeneous_instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import (
    ListScheduler,
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
