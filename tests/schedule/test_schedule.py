"""Tests for the Schedule container."""

import pytest

from repro.exceptions import ScheduleError, UnknownProcessorError
from repro.machine.cluster import Machine
from repro.schedule.schedule import Schedule


@pytest.fixture
def machine() -> Machine:
    return Machine.homogeneous(3)


@pytest.fixture
def schedule(machine) -> Schedule:
    s = Schedule(machine, name="s")
    s.add("a", 0, 0.0, 2.0)
    s.add("b", 1, 1.0, 3.0)
    s.add("c", 0, 2.0, 1.0)
    return s


class TestAdd:
    def test_basic(self, schedule):
        assert len(schedule) == 3
        assert schedule.proc_of("b") == 1
        assert schedule.start_of("c") == 2.0
        assert schedule.end_of("c") == 3.0

    def test_makespan(self, schedule):
        assert schedule.makespan == 4.0

    def test_duplicate_primary_rejected(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.add("a", 2, 0.0, 1.0)

    def test_unknown_proc(self, schedule):
        with pytest.raises(UnknownProcessorError):
            schedule.add("x", 99, 0.0, 1.0)

    def test_overlap_rejected(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.add("x", 0, 0.5, 1.0)

    def test_duplicate_copies(self, schedule):
        schedule.add("a", 2, 0.0, 2.0, duplicate=True)
        assert schedule.num_duplicates() == 1
        copies = schedule.copies("a")
        assert len(copies) == 2
        assert copies[0].duplicate is False  # primary first

    def test_duplicate_before_primary_allowed(self, machine):
        s = Schedule(machine)
        s.add("z", 0, 0.0, 1.0, duplicate=True)
        s.add("z", 1, 0.0, 1.0)
        assert len(s.copies("z")) == 2


class TestQueries:
    def test_contains(self, schedule):
        assert "a" in schedule and "zzz" not in schedule

    def test_entry_missing(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.entry("ghost")

    def test_copies_missing(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.copies("ghost")

    def test_proc_entries_sorted(self, schedule):
        entries = schedule.proc_entries(0)
        assert [e.task for e in entries] == ["a", "c"]

    def test_proc_entries_keeps_coinciding_keys(self, machine):
        # Task 1 and task "1" share the (start, str(task)) sort key; both
        # stay, in insertion order (the sort is stable).
        s = Schedule(machine)
        s.add(1, 0, 0.0, 0.0)
        s.add("1", 0, 0.0, 3.0)
        assert [p.task for p in s.proc_entries(0)] == [1, "1"]

    def test_proc_entries_unknown(self, schedule):
        with pytest.raises(UnknownProcessorError):
            schedule.proc_entries(42)

    def test_procs_used(self, schedule):
        assert set(schedule.procs_used()) == {0, 1}

    def test_assignment(self, schedule):
        assert schedule.assignment() == {"a": 0, "b": 1, "c": 0}

    def test_all_placements_includes_duplicates(self, schedule):
        schedule.add("b", 2, 0.0, 3.0, duplicate=True)
        assert len(schedule.all_placements()) == 4

    def test_empty_makespan(self, machine):
        assert Schedule(machine).makespan == 0.0


class TestRemove:
    def test_remove_primary(self, schedule):
        schedule.remove("c")
        assert "c" not in schedule
        assert len(schedule.proc_entries(0)) == 1

    def test_remove_missing(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.remove("ghost")

    def test_remove_then_readd(self, schedule):
        schedule.remove("c")
        schedule.add("c", 2, 0.0, 1.0)
        assert schedule.proc_of("c") == 2

    def test_remove_duplicate(self, schedule):
        schedule.add("a", 2, 0.0, 2.0, duplicate=True)
        schedule.remove_duplicate("a", 2)
        assert schedule.num_duplicates() == 0
        assert "a" in schedule  # primary untouched

    def test_remove_duplicate_missing(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.remove_duplicate("a", 2)

    def test_remove_primary_keeps_duplicate(self, machine):
        s = Schedule(machine)
        s.add("z", 0, 0.0, 1.0)
        s.add("z", 1, 0.0, 1.0, duplicate=True)
        s.remove("z")
        assert "z" not in s
        assert len(s.copies("z")) == 1


class TestGantt:
    def test_contains_all_procs(self, schedule):
        text = schedule.gantt()
        assert text.count("|") >= 6  # three processor rows

    def test_empty(self, machine):
        assert "makespan" in Schedule(machine).gantt()

    def test_duplicate_marked(self, schedule):
        schedule.add("a", 2, 0.0, 2.0, duplicate=True)
        assert "." in schedule.gantt(width=40)
