"""The :class:`Schedule` produced by every scheduler.

A schedule maps each task to one *primary* placement and optionally extra
*duplicate* placements (duplication-based heuristics run redundant copies
of a parent to avoid communication).  Placement bookkeeping is backed by
one :class:`~repro.schedule.timeline.Timeline` per processor, so overlap
violations are impossible to construct silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.exceptions import ScheduleError, UnknownProcessorError
from repro.machine.cluster import Machine
from repro.schedule.timeline import Timeline
from repro.types import ProcId, TaskId


@dataclass(frozen=True)
class ScheduledTask:
    """One placed execution of a task (primary copy or duplicate)."""

    task: TaskId
    proc: ProcId
    start: float
    end: float
    duplicate: bool = False

    def __post_init__(self) -> None:
        if not (self.end >= self.start >= 0):
            raise ScheduleError(
                f"invalid placement of {self.task!r}: [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


def entry_order(placed: ScheduledTask) -> tuple[float, str]:
    """Sort key of a processor's placements: start time, then the task's
    display string.  Sorts using it are stable, so placements sharing a
    key keep :meth:`Schedule.all_placements` order and none is dropped."""
    return (placed.start, str(placed.task))


class Schedule:
    """A (possibly partial) assignment of tasks to processor time slots."""

    def __init__(self, machine: Machine, name: str = "schedule") -> None:
        self.name = name
        self.machine = machine
        self._timelines: dict[ProcId, Timeline] = {p: Timeline() for p in machine.proc_ids()}
        self._primary: dict[TaskId, ScheduledTask] = {}
        self._copies: dict[TaskId, list[ScheduledTask]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(
        self,
        task: TaskId,
        proc: ProcId,
        start: float,
        duration: float,
        duplicate: bool = False,
        check: bool = True,
    ) -> ScheduledTask:
        """Place ``task`` on ``proc`` at ``start`` for ``duration``.

        The first non-duplicate placement of a task becomes its primary
        copy; placing a second primary copy raises.  Duplicates may be
        added before or after the primary.  ``check=False`` forwards to
        :meth:`Timeline.add` to skip the overlap scan when the caller
        guarantees feasibility (compiled-executor materialisation).
        """
        if proc not in self._timelines:
            raise UnknownProcessorError(proc)
        if not duplicate and task in self._primary:
            raise ScheduleError(f"task {task!r} already has a primary placement")
        self._timelines[proc].add(start, duration, task, check=check)
        placed = ScheduledTask(task=task, proc=proc, start=start, end=start + duration, duplicate=duplicate)
        if duplicate:
            self._copies.setdefault(task, []).append(placed)
        else:
            self._primary[task] = placed
        return placed

    def remove(self, task: TaskId) -> None:
        """Remove the primary placement of ``task`` (duplicates stay)."""
        placed = self._primary.pop(task, None)
        if placed is None:
            raise ScheduleError(f"task {task!r} has no primary placement")
        self._timelines[placed.proc].remove(task, start=placed.start)

    def remove_duplicate(self, task: TaskId, proc: ProcId) -> None:
        """Remove the duplicate copy of ``task`` running on ``proc``."""
        copies = self._copies.get(task, [])
        for i, placed in enumerate(copies):
            if placed.proc == proc:
                del copies[i]
                if not copies:
                    del self._copies[task]
                self._timelines[proc].remove(task, start=placed.start)
                return
        raise ScheduleError(f"task {task!r} has no duplicate on {proc!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, task: TaskId) -> bool:
        return task in self._primary

    def __len__(self) -> int:
        return len(self._primary)

    def entry(self, task: TaskId) -> ScheduledTask:
        """The primary placement of ``task``."""
        try:
            return self._primary[task]
        except KeyError:
            raise ScheduleError(f"task {task!r} is not scheduled") from None

    def copies(self, task: TaskId) -> list[ScheduledTask]:
        """All placements of ``task``: primary first, then duplicates."""
        primary = self._primary.get(task)
        extra = self._copies.get(task)
        if primary is not None:
            if not extra:
                return [primary]
            return [primary, *extra]
        if extra:
            return list(extra)
        raise ScheduleError(f"task {task!r} is not scheduled")

    def proc_of(self, task: TaskId) -> ProcId:
        """Processor of the primary copy."""
        return self.entry(task).proc

    def start_of(self, task: TaskId) -> float:
        return self.entry(task).start

    def end_of(self, task: TaskId) -> float:
        return self.entry(task).end

    def tasks(self) -> Iterator[TaskId]:
        """Iterate over primarily scheduled task ids."""
        return iter(self._primary)

    def all_placements(self) -> list[ScheduledTask]:
        """All placed copies (primaries and duplicates), unordered."""
        out = list(self._primary.values())
        for extra in self._copies.values():
            out.extend(extra)
        return out

    def proc_entries(self, proc: ProcId) -> list[ScheduledTask]:
        """Every placement on one processor, ordered by :func:`entry_order`."""
        if proc not in self._timelines:
            raise UnknownProcessorError(proc)
        return sorted(
            (placed for placed in self.all_placements() if placed.proc == proc),
            key=entry_order,
        )

    def timeline(self, proc: ProcId) -> Timeline:
        """The (live) timeline of one processor."""
        try:
            return self._timelines[proc]
        except KeyError:
            raise UnknownProcessorError(proc) from None

    @property
    def makespan(self) -> float:
        """Latest finish time over all placed copies (0.0 when empty)."""
        placements = self.all_placements()
        return max((p.end for p in placements), default=0.0)

    def procs_used(self) -> list[ProcId]:
        """Processors with at least one placement."""
        return [p for p, tl in self._timelines.items() if len(tl) > 0]

    def num_duplicates(self) -> int:
        """Total number of duplicate placements."""
        return sum(len(v) for v in self._copies.values())

    def assignment(self) -> Mapping[TaskId, ProcId]:
        """Task -> processor mapping of the primary copies."""
        return {t: p.proc for t, p in self._primary.items()}

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """Render a proportional ASCII Gantt chart (one row per processor)."""
        span = self.makespan
        lines = [f"schedule {self.name!r}  makespan={span:g}"]
        if span <= 0:
            return lines[0]
        for proc in self.machine.proc_ids():
            entries = self.proc_entries(proc)
            row = [" "] * width
            for placed in entries:
                lo = min(width - 1, int(placed.start / span * width))
                hi = min(width, max(lo + 1, int(placed.end / span * width)))
                label = str(placed.task)
                for i in range(lo, hi):
                    off = i - lo
                    row[i] = label[off] if off < len(label) else ("." if placed.duplicate else "#")
            lines.append(f"P{proc!s:<4}|" + "".join(row) + "|")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.name!r}, tasks={len(self._primary)}, "
            f"dups={self.num_duplicates()}, makespan={self.makespan:g})"
        )
