"""Edge cases for ``Timeline.find_slot``.

These pin down behaviors the schedulers rely on but that are easy to
break when touching the slot search: zero-duration tasks, gaps that
straddle the ready time, zero-width slots in the interval list, and the
``insertion=False`` append-only policy.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ScheduleError
from repro.schedule.timeline import Timeline


def _timeline(*intervals: tuple[float, float]) -> Timeline:
    tl = Timeline()
    for i, (start, end) in enumerate(intervals):
        tl.add(start, end - start, task=f"t{i}")
    return tl


class TestZeroDuration:
    def test_empty_timeline_returns_ready(self):
        assert Timeline().find_slot(3.5, 0.0) == 3.5

    def test_fits_inside_any_gap(self):
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        assert tl.find_slot(3.0, 0.0) == 3.0

    def test_fits_flush_against_slot_boundary(self):
        tl = _timeline((0.0, 2.0), (2.0, 4.0))
        # No gap exists, but a zero-duration task needs none.
        assert tl.find_slot(0.0, 0.0) == 0.0

    def test_after_all_slots(self):
        tl = _timeline((0.0, 2.0))
        assert tl.find_slot(10.0, 0.0) == 10.0


class TestGapStraddlingReady:
    def test_gap_opens_before_ready(self):
        # Gap [2, 5) straddles ready=3: the task starts at ready, not at
        # the gap's opening and not after the next slot.
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        assert tl.find_slot(3.0, 1.0) == 3.0

    def test_straddling_gap_too_small_after_ready(self):
        # Gap [2, 5) has only 1.0 left after ready=4; a 2.0 task must
        # wait for the end.
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        assert tl.find_slot(4.0, 2.0) == 9.0

    def test_ready_inside_busy_slot(self):
        tl = _timeline((0.0, 4.0), (6.0, 7.0))
        assert tl.find_slot(2.0, 1.5) == 4.0

    def test_gap_exactly_duration(self):
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        assert tl.find_slot(0.0, 3.0) == 2.0

    def test_ready_beyond_all_slots(self):
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        assert tl.find_slot(20.0, 4.0) == 20.0


class TestZeroWidthSlots:
    def test_zero_width_slot_does_not_block_gap(self):
        # A zero-width slot at 3 occupies no time; the gap [2, 5) is
        # still usable end to end.
        tl = _timeline((0.0, 2.0), (3.0, 3.0), (5.0, 9.0))
        assert tl.find_slot(0.0, 3.0) == 2.0

    def test_zero_width_slot_before_ready_ignored_as_prev(self):
        # The previous *non-empty* slot determines the gap's opening even
        # when zero-width slots sit in between.
        tl = _timeline((0.0, 2.0), (2.5, 2.5), (6.0, 8.0))
        assert tl.find_slot(3.0, 2.0) == 3.0

    def test_only_zero_width_slots(self):
        tl = _timeline((1.0, 1.0), (2.0, 2.0))
        assert tl.find_slot(0.0, 5.0) == 0.0

    def test_end_time_with_zero_width_tail(self):
        tl = _timeline((0.0, 4.0), (6.0, 6.0))
        # end_time tracks the latest *end*, even of a zero-width slot.
        assert tl.end_time == 6.0

    def test_equal_starts_list_newest_first_on_both_structures(self):
        # Both insertion sites use bisect_left, so a later slot with an
        # equal start goes ahead of the earlier ones.
        from repro.compiled import _FlatState

        tl = Timeline()
        flat = _FlatState(3, 1)
        for t, (task, end) in enumerate((("a", 0.0), ("b", 0.0), ("c", 2.0))):
            tl.add(0.0, end, task=task)
            flat.tl_add(0, t, 0.0, end)
        assert [s.task for s in tl.slots()] == ["c", "b", "a"]
        assert flat.tl_tasks[0] == [2, 1, 0]
        assert flat.tl_ends[0] == [s.end for s in tl.slots()] == [2.0, 0.0, 0.0]


class TestNoInsertion:
    def test_appends_after_end_even_with_gaps(self):
        tl = _timeline((0.0, 2.0), (5.0, 9.0))
        # The [2, 5) gap would fit the task, but insertion=False appends.
        assert tl.find_slot(0.0, 1.0, insertion=False) == 9.0

    def test_ready_after_end(self):
        tl = _timeline((0.0, 2.0))
        assert tl.find_slot(7.0, 1.0, insertion=False) == 7.0

    def test_empty_timeline(self):
        assert Timeline().find_slot(4.0, 1.0, insertion=False) == 4.0


class TestValidation:
    def test_negative_duration_raises(self):
        with pytest.raises(ScheduleError):
            Timeline().find_slot(0.0, -1.0)

    def test_negative_ready_raises(self):
        with pytest.raises(ScheduleError):
            Timeline().find_slot(-0.5, 1.0)

    def test_result_is_feasible_to_add(self):
        tl = _timeline((0.0, 2.0), (5.0, 9.0), (9.0, 12.0))
        for ready, duration in [(0.0, 2.5), (1.0, 3.0), (3.0, 1.0), (4.5, 0.5), (0.0, 0.0)]:
            start = tl.find_slot(ready, duration)
            assert start >= ready
            tl.add(start, duration, task=f"probe-{ready}-{duration}")
            tl = _timeline((0.0, 2.0), (5.0, 9.0), (9.0, 12.0))
