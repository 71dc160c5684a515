"""Tests for schedule feasibility validation."""

import pytest

from repro.exceptions import ValidationError
from repro.instance import homogeneous_instance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import validate, violations


@pytest.fixture
def instance(diamond_dag):
    # 2 identical procs, bandwidth 1, latency 0: comm time == data volume.
    return homogeneous_instance(diamond_dag, num_procs=2, bandwidth=1.0)


def feasible_schedule(instance) -> Schedule:
    s = Schedule(instance.machine)
    s.add("a", 0, 0.0, 2.0)
    s.add("b", 0, 2.0, 4.0)           # local: no comm
    s.add("c", 1, 3.0, 3.0)           # remote: a ends 2 + data 1 = 3
    s.add("d", 0, 8.0, 2.0)           # b local (6), c remote 6+2=8
    return s


class TestFeasible:
    def test_valid_passes(self, instance):
        validate(feasible_schedule(instance), instance)

    def test_violations_empty(self, instance):
        assert violations(feasible_schedule(instance), instance) == []

    def test_exact_boundary_ok(self, instance):
        # d starts exactly when the last message arrives — legal.
        s = feasible_schedule(instance)
        assert s.start_of("d") == 8.0
        validate(s, instance)


class TestViolations:
    def test_missing_task(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        found = violations(s, instance)
        assert any("not scheduled" in v for v in found)

    def test_wrong_duration(self, instance):
        s = feasible_schedule(instance)
        s.remove("d")
        s.add("d", 0, 8.0, 99.0)
        found = violations(s, instance)
        assert any("ETC says" in v for v in found)

    def test_precedence_violation(self, instance):
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("b", 0, 2.0, 4.0)
        s.add("c", 1, 0.0, 3.0)  # starts before a's data can arrive
        s.add("d", 0, 8.0, 2.0)
        found = violations(s, instance)
        assert any("before data" in v for v in found)

    def test_comm_delay_enforced(self, instance):
        # b on another processor must wait for the 3-unit transfer.
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("b", 1, 2.0, 4.0)  # needs start >= 2 + 3 = 5
        s.add("c", 1, 6.0, 3.0)
        s.add("d", 1, 9.0, 2.0)
        found = violations(s, instance)
        assert any("'b'" in v and "before data" in v for v in found)

    def test_validate_raises_with_details(self, instance):
        s = Schedule(instance.machine)
        with pytest.raises(ValidationError) as e:
            validate(s, instance)
        assert len(e.value.violations) == 4  # all four tasks missing


class TestDuplicationAware:
    def test_duplicate_satisfies_child(self, instance):
        # c reads a's data from a local duplicate instead of waiting.
        s = Schedule(instance.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("a", 1, 0.0, 2.0, duplicate=True)
        s.add("b", 0, 2.0, 4.0)
        s.add("c", 1, 2.0, 3.0)  # legal only thanks to the duplicate
        s.add("d", 0, 8.0, 2.0)
        validate(s, instance)

    def test_duplicate_itself_needs_parents(self, instance):
        # A duplicate of d placed before b's data reaches P1 is a violation
        # (b ends at 6 on P0, transfer 2 -> earliest feasible start is 8).
        s = feasible_schedule(instance)
        s.add("d", 1, 6.0, 2.0, duplicate=True)
        found = violations(s, instance)
        assert any("'d'" in v and "before data" in v for v in found)

    def test_overlap_detected_even_for_duplicates(self, instance):
        s = feasible_schedule(instance)
        # Build a hand-rolled overlapping state by bypassing Timeline:
        # instead just verify Timeline rejects it at add time.
        import pytest as _pytest
        from repro.exceptions import ScheduleError

        with _pytest.raises(ScheduleError):
            s.add("a", 0, 1.0, 1.0, duplicate=True)


class TestCoincidingEntries:
    """Placements sharing a ``(processor, start, str(task))`` key are all
    checked; the per-processor grouping used to keep only the last."""

    @pytest.mark.parametrize("name", ["b", "0"])
    def test_zero_width_copy_overlaps_nothing(self, name):
        """A zero-duration task placed where a busy slot starts (where
        ``scan_slots`` puts it) is feasible, as ``Timeline.add`` holds,
        whether its id sorts after the busy task's or before it; a wide
        slot behind it is still checked against the wide one before."""
        from repro.dag.graph import TaskDAG
        from repro.machine.cluster import Machine
        from repro.machine.etc import ETCMatrix
        from repro.machine.processor import Processor
        from repro.instance import Instance
        from tests.validation_reference import reference_violations

        dag = TaskDAG()
        for t in ("a", name, "z"):
            dag.add_task(t, cost=1.0)
        machine = Machine([Processor(id=0, speed=1.0)], name="one")
        inst = Instance(dag=dag, machine=machine,
                        etc=ETCMatrix(["a", name, "z"], [0], [[5.0], [0.0], [2.0]]))
        s = Schedule(machine)
        s.add("a", 0, 0.0, 5.0)
        s.add(name, 0, 0.0, 0.0)
        s.add("z", 0, 5.0, 2.0)
        assert violations(s, inst) == reference_violations(s, inst) == []
        s.add(name, 0, 6.0, 0.0, duplicate=True, check=False)
        s.add("z", 0, 4.0, 2.0, duplicate=True, check=False)
        want = ["overlap on 0: 'a' [0,5) vs 'z' [4,6)", "overlap on 0: 'z' [4,6) vs 'z' [5,7)"]
        assert violations(s, inst) == reference_violations(s, inst) == want

    def test_primary_and_duplicate_on_one_slot_overlap(self):
        from repro.dag.graph import TaskDAG

        dag = TaskDAG()
        dag.add_task("a", cost=5.0)
        inst = homogeneous_instance(dag, num_procs=2)
        s = Schedule(inst.machine)
        s.add("a", 0, 0.0, 5.0)
        s.add("a", 0, 0.0, 5.0, duplicate=True, check=False)
        assert violations(s, inst) == ["overlap on 0: 'a' [0,5) vs 'a' [0,5)"]
