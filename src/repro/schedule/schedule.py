"""The :class:`Schedule` produced by every scheduler.

A schedule maps each task to one *primary* placement and optionally extra
*duplicate* placements (duplication-based heuristics run redundant copies
of a parent to avoid communication).

Its stored form is flat: parallel columns of task, processor, start, end
and duplicate flag (:class:`ScheduleColumns`).  The compiled executor
fills them in one step (:meth:`Schedule.from_columns`), and the
validator, the response payload and the JSON writer read them directly.
The object view — one :class:`ScheduledTask` per placement and one
:class:`~repro.schedule.timeline.Timeline` per processor, so overlap
violations are impossible to construct silently — is built from the
columns the first time the object API is used.  Schedulers that place
task by task go through :meth:`Schedule.add`, which works on the object
view; the columns are then derived from it when next read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterator, Mapping, NamedTuple

from repro.exceptions import ScheduleError, UnknownProcessorError
from repro.machine.cluster import Machine
from repro.schedule.timeline import Slot, Timeline
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


class ScheduleColumns(NamedTuple):
    """Every placement of a schedule as parallel lists (read-only).

    Rows are in :meth:`Schedule.all_placements` order: the primaries in
    placement order, then the duplicates, each task's together.
    """

    task: list[TaskId]
    proc: list[ProcId]
    start: list[float]
    end: list[float]
    duplicate: list[bool]


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
        #: The flat form; ``None`` after the object view was mutated,
        #: until :meth:`columns` derives it again.
        self._cols: ScheduleColumns | None = ScheduleColumns([], [], [], [], [])
        #: ``(ti, pi, task positions, processor positions)`` of the rows
        #: in one pair of id tables (see :meth:`index_columns`).
        self._index: tuple | None = None
        # The object view; ``_timelines`` is None until :meth:`_view` builds it.
        self._timelines: dict[ProcId, Timeline] | None = None
        self._primary: dict[TaskId, ScheduledTask] = {}
        self._copies: dict[TaskId, list[ScheduledTask]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        machine: Machine,
        columns: ScheduleColumns,
        name: str = "schedule",
        *,
        index: tuple | None = None,
    ) -> "Schedule":
        """A schedule holding ``columns`` as they are, without building
        objects.

        Rows must list every primary before the duplicates, and each
        task's duplicates together (the order :meth:`all_placements`
        reports).  Every row is checked as :meth:`add` checks a placement
        — ``end >= start >= 0``, a processor of ``machine``, one primary
        per task — except for overlaps, which the caller guarantees
        (:meth:`~repro.compiled.CompiledInstance.materialize` takes its
        slots from the executor's own slot search).  ``index`` seeds
        :meth:`index_columns` with ``(ti, pi, task positions, processor
        positions)`` when the caller already knows them.
        """
        task, proc, start, end, duplicate = columns
        k = len(task)
        if not len(proc) == len(start) == len(end) == len(duplicate) == k:
            raise ScheduleError("schedule columns differ in length")
        # A NaN fails ``end >= start``, so ``min`` sees only real starts.
        if not (all(map(ge, end, start)) and min(start, default=0.0) >= 0):
            bad = next(i for i in range(k) if not end[i] >= start[i] >= 0)
            raise ScheduleError(
                f"invalid placement of {task[bad]!r}: [{start[bad]}, {end[bad]})"
            )
        known = set(machine.proc_ids())
        for p in set(proc) - known:
            raise UnknownProcessorError(p)
        n = duplicate.count(False)
        if any(duplicate[:n]):
            raise ScheduleError("schedule columns list a duplicate before a primary")
        if len(set(task[:n])) != n:
            raise ScheduleError("schedule columns give a task two primary placements")
        dups = task[n:]
        runs = [t for i, t in enumerate(dups) if not i or t != dups[i - 1]]
        if len(set(runs)) != len(runs):
            raise ScheduleError("schedule columns split a task's duplicates")
        schedule = cls(machine, name=name)
        schedule._cols = ScheduleColumns(task, proc, start, end, duplicate)
        schedule._index = index
        return schedule

    def _view(self) -> dict[ProcId, Timeline]:
        """The per-processor timelines of the object view, building the
        view (timelines, primaries, duplicates) from the columns first if
        it does not exist yet."""
        timelines = self._timelines
        if timelines is None:
            timelines = {p: Timeline() for p in self.machine.proc_ids()}
            primary, copies = self._primary, self._copies
            for task, proc, start, end, duplicate in zip(*self._cols):
                placed = ScheduledTask(task, proc, start, end, duplicate)
                timelines[proc].add_slot(Slot(start, end, task), check=False)
                if duplicate:
                    copies.setdefault(task, []).append(placed)
                else:
                    primary[task] = placed
            self._timelines = timelines
        return timelines

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
        guarantees feasibility.
        """
        timelines = self._view()
        if proc not in timelines:
            raise UnknownProcessorError(proc)
        if not duplicate and task in self._primary:
            raise ScheduleError(f"task {task!r} already has a primary placement")
        timelines[proc].add(start, duration, task, check=check)
        duplicate = bool(duplicate)
        placed = ScheduledTask(task=task, proc=proc, start=start, end=start + duration, duplicate=duplicate)
        if duplicate:
            self._copies.setdefault(task, []).append(placed)
        else:
            self._primary[task] = placed
        self._cols = self._index = None
        return placed

    def remove(self, task: TaskId) -> None:
        """Remove the primary placement of ``task`` (duplicates stay)."""
        timelines = self._view()
        placed = self._primary.pop(task, None)
        if placed is None:
            raise ScheduleError(f"task {task!r} has no primary placement")
        timelines[placed.proc].remove(task, start=placed.start)
        self._cols = self._index = None

    def remove_duplicate(self, task: TaskId, proc: ProcId) -> None:
        """Remove the duplicate copy of ``task`` running on ``proc``."""
        timelines = self._view()
        copies = self._copies.get(task, [])
        for i, placed in enumerate(copies):
            if placed.proc == proc:
                del copies[i]
                if not copies:
                    del self._copies[task]
                timelines[proc].remove(task, start=placed.start)
                self._cols = self._index = None
                return
        raise ScheduleError(f"task {task!r} has no duplicate on {proc!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def columns(self) -> ScheduleColumns:
        """Every placement as parallel columns (derived from the object
        view after a mutation; shared, so treat the lists as read-only)."""
        cols = self._cols
        if cols is None:
            placements = self.all_placements()
            cols = self._cols = ScheduleColumns(
                [p.task for p in placements],
                [p.proc for p in placements],
                [p.start for p in placements],
                [p.end for p in placements],
                [p.duplicate for p in placements],
            )
        return cols

    def index_columns(
        self, ti: Mapping[TaskId, int], pi: Mapping[ProcId, int]
    ) -> tuple[list[int], list[int]]:
        """Each row's position in the id tables ``ti`` (tasks) and ``pi``
        (processors), ``-1`` for an id a table lacks.  Kept for the last
        pair of tables asked about (an instance kernel's ``ti``/``pi``)."""
        index = self._index
        if index is None or index[0] is not ti or index[1] is not pi:
            cols = self.columns()
            index = self._index = (
                ti, pi, [ti.get(t, -1) for t in cols.task], [pi.get(p, -1) for p in cols.proc]
            )
        return index[2], index[3]

    def __contains__(self, task: TaskId) -> bool:
        self._view()
        return task in self._primary

    def __len__(self) -> int:
        self._view()
        return len(self._primary)

    def entry(self, task: TaskId) -> ScheduledTask:
        """The primary placement of ``task``."""
        self._view()
        try:
            return self._primary[task]
        except KeyError:
            raise ScheduleError(f"task {task!r} is not scheduled") from None

    def copies(self, task: TaskId) -> list[ScheduledTask]:
        """All placements of ``task``: primary first, then duplicates."""
        self._view()
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
        self._view()
        return iter(self._primary)

    def all_placements(self) -> list[ScheduledTask]:
        """All placed copies: primaries, then duplicates (the row order
        of :meth:`columns`)."""
        self._view()
        out = list(self._primary.values())
        for extra in self._copies.values():
            out.extend(extra)
        return out

    def proc_entries(self, proc: ProcId) -> list[ScheduledTask]:
        """Every placement on one processor, ordered by :func:`entry_order`."""
        if proc not in self._view():
            raise UnknownProcessorError(proc)
        return sorted(
            (placed for placed in self.all_placements() if placed.proc == proc),
            key=entry_order,
        )

    def timeline(self, proc: ProcId) -> Timeline:
        """The (live) timeline of one processor."""
        try:
            return self._view()[proc]
        except KeyError:
            raise UnknownProcessorError(proc) from None

    @property
    def makespan(self) -> float:
        """Latest finish time over all placed copies (0.0 when empty)."""
        cols = self._cols
        if cols is not None:
            return max(cols.end, default=0.0)
        return max((p.end for p in self.all_placements()), default=0.0)

    def procs_used(self) -> list[ProcId]:
        """Processors with at least one placement."""
        return [p for p, tl in self._view().items() if len(tl) > 0]

    def num_duplicates(self) -> int:
        """Total number of duplicate placements."""
        return self.columns().duplicate.count(True)

    def assignment(self) -> Mapping[TaskId, ProcId]:
        """Task -> processor mapping of the primary copies."""
        self._view()
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
        dups = self.num_duplicates()
        return (
            f"Schedule({self.name!r}, tasks={len(self.columns().task) - dups}, "
            f"dups={dups}, makespan={self.makespan:g})"
        )
