"""Per-processor busy timeline with insertion-based slot search.

Every list scheduler in this library shares this substrate, so
baseline-vs-contribution comparisons measure *policy* differences, not
bookkeeping differences.  A :class:`Timeline` is an ordered set of
non-overlapping :class:`Slot` intervals; :meth:`Timeline.find_slot`
implements the classic *insertion-based* policy (Topcuoglu et al.): the
earliest gap after the ready time that fits the duration, falling back to
the end of the last slot.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ScheduleError
from repro.types import TaskId

#: Tolerance for floating-point interval comparisons.  Two events closer
#: than this are considered simultaneous.
EPS = 1e-9


def scan_slots(starts: list[float], ends: list[float], ready: float, duration: float) -> float:
    """Insertion-policy slot search over parallel start/end lists.

    ``starts``/``ends`` describe non-overlapping busy intervals sorted by
    start time.  Returns the earliest start ``>= ready`` of an idle gap
    that fits ``duration``, falling back to the end of the last busy
    interval — the exact float sequence of :meth:`Timeline.find_slot`,
    shared with the compiled GA/SA decode (:mod:`repro.compiled`).  The
    compiled list and improved passes walk an index of idle gaps
    instead, tested equal to this scan, and call it themselves only
    for ``duration - EPS <= 0``.  Zero-width intervals (``end - start
    <= EPS``) occupy no time and are skipped, as in
    :meth:`Timeline.find_slot`.

    Intervals with equal starts are newest first: every insertion site
    (:meth:`Timeline.add_slot`, the compiled flat timelines) inserts
    with ``bisect_left``, ahead of equal starts.  Only a zero-width
    interval can share its start with another, and the scan skips it,
    so the tie order does not change the returned start.
    """
    if not starts:
        return ready
    idx = bisect.bisect_left(starts, ready)
    prev_end = 0.0
    j = idx - 1
    while j >= 0:
        if ends[j] - starts[j] > EPS:
            prev_end = ends[j]
            break
        j -= 1
    for i in range(idx, len(starts)):
        if ends[i] - starts[i] <= EPS:
            continue
        start = ready if ready > prev_end else prev_end
        if starts[i] - start >= duration - EPS:
            return start
        prev_end = ends[i]
    return ready if ready > prev_end else prev_end


@dataclass(frozen=True, order=True)
class Slot:
    """A half-open busy interval ``[start, end)`` executing ``task``."""

    start: float
    end: float
    task: TaskId = None

    def __post_init__(self) -> None:
        if not (self.end >= self.start >= 0):
            raise ScheduleError(
                f"invalid slot [{self.start}, {self.end}) for task {self.task!r}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Sorted, non-overlapping busy intervals of one processor."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._slots: list[Slot] = []
        self._max_end = 0.0

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self._slots)

    @property
    def end_time(self) -> float:
        """Latest finish time over all slots (0.0 when idle).

        Cached: with zero-width slots in play the *last-by-start* slot is
        not necessarily the latest-ending one.
        """
        return self._max_end

    def busy_time(self) -> float:
        """Total occupied time."""
        return sum(s.duration for s in self._slots)

    def idle_time(self) -> float:
        """Total gap time between time 0 and the last finish."""
        return self.end_time - self.busy_time()

    def find_slot(self, ready: float, duration: float, insertion: bool = True) -> float:
        """Earliest feasible start time for a task of ``duration`` that
        cannot begin before ``ready``.

        With ``insertion=True`` (default) idle gaps between existing slots
        are considered; otherwise the task can only be appended after the
        current end (the *non-insertion* policy of e.g. classic ETF).
        The timeline is not modified.
        """
        if duration < 0:
            raise ScheduleError(f"duration must be >= 0, got {duration}")
        if ready < 0:
            raise ScheduleError(f"ready time must be >= 0, got {ready}")
        if not insertion:
            return max(ready, self.end_time)
        # Scanning starts from the first slot that starts at/after
        # `ready`; earlier gaps close before the task could begin anyway.
        # The gap following the previous *non-empty* slot may still
        # straddle `ready` (zero-width slots occupy no time and are
        # skipped).  The scan itself is shared with the compiled decoder.
        return scan_slots(self._starts, self._ends, ready, duration)

    def add(self, start: float, duration: float, task: TaskId, check: bool = True) -> Slot:
        """Occupy ``[start, start+duration)`` with ``task``.

        Raises :class:`ScheduleError` if the interval overlaps an existing
        slot (beyond floating-point tolerance).  ``check=False`` skips the
        overlap scan for callers that already guarantee feasibility; the
        stored floats are identical either way.
        """
        return self.add_slot(Slot(start=start, end=start + duration, task=task), check=check)

    def add_slot(self, slot: Slot, check: bool = True) -> Slot:
        """Occupy ``slot`` as given (its ``end`` is stored, not recomputed).

        :meth:`add` with the same overlap rules; a schedule's object view
        replays its stored placements through here.
        """
        idx = bisect.bisect_left(self._starts, slot.start)

        if check:
            def overlaps(a: Slot, b: Slot) -> bool:
                # Half-open intervals; zero-width slots are empty sets and
                # never conflict with anything.
                if a.duration <= EPS or b.duration <= EPS:
                    return False
                return a.start < b.end - EPS and b.start < a.end - EPS

            # Forward: any stored slot starting inside the new interval.
            j = idx
            while j < len(self._slots) and self._slots[j].start < slot.end - EPS:
                if overlaps(self._slots[j], slot):
                    raise ScheduleError(
                        f"slot {slot} overlaps {self._slots[j]} on the same processor"
                    )
                j += 1
            # Backward: the nearest earlier non-empty slot is the only earlier
            # one that can reach into the new interval (non-empty stored slots
            # are pairwise disjoint).
            j = idx - 1
            while j >= 0:
                prev = self._slots[j]
                if prev.duration > EPS:
                    if overlaps(prev, slot):
                        raise ScheduleError(
                            f"slot {slot} overlaps {prev} on the same processor"
                        )
                    break
                j -= 1
        self._starts.insert(idx, slot.start)
        self._ends.insert(idx, slot.end)
        self._slots.insert(idx, slot)
        self._max_end = max(self._max_end, slot.end)
        return slot

    def remove(self, task: TaskId, start: float | None = None) -> None:
        """Remove the slot executing ``task``.

        When a task has several copies on one timeline, ``start``
        disambiguates which copy to drop; otherwise the first match goes.
        """
        for i, slot in enumerate(self._slots):
            if slot.task == task and (start is None or abs(slot.start - start) <= EPS):
                del self._slots[i]
                del self._starts[i]
                del self._ends[i]
                self._max_end = max((s.end for s in self._slots), default=0.0)
                return
        raise ScheduleError(f"task {task!r} not on this timeline")

    def slots(self) -> list[Slot]:
        """Copy of the slot list, ordered by start time.

        Slots with equal starts are listed newest first (:meth:`add_slot`
        inserts with ``bisect_left``): zero-width ``a`` and ``b`` and then
        ``c = [0, 2)``, all at 0.0, list as ``[c, b, a]``.
        """
        return list(self._slots)

    def gaps(self) -> list[tuple[float, float]]:
        """Idle intervals between time 0 and the last finish."""
        out: list[tuple[float, float]] = []
        prev = 0.0
        for slot in self._slots:
            if slot.duration <= EPS:
                continue  # zero-width slots occupy no time
            if slot.start > prev + EPS:
                out.append((prev, slot.start))
            prev = max(prev, slot.end)
        return out

    def copy(self) -> "Timeline":
        clone = Timeline()
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._slots = list(self._slots)
        clone._max_end = self._max_end
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timeline(slots={len(self._slots)}, end={self.end_time:g})"
