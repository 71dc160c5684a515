"""Test-side reference of the schedule validator.

:func:`reference_violations` is the per-processor, per-edge validator
that :func:`repro.schedule.validation.violations` replaced with one
grouped pass over the placements, kept verbatim with its tolerances
(the same four rules and messages, every cost asked of ``Instance``),
except that rule 3 skips zero-width copies as ``Timeline.add`` does
(it used to flag one that sorts after a busy slot starting with it).
The differential suite ``tests/schedule/test_validation_equivalence.py``
holds the library's validator to it message for message, as
``tests/object_path.py`` keeps the object scheduling path as the
compiled executor's reference.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedule.schedule import Schedule, ScheduledTask
from repro.schedule.timeline import EPS

#: Relative tolerance for floating-point comparisons in validation.
_RTOL = 1e-6
_ATOL = 1e-6


def _close_geq(a: float, b: float) -> bool:
    """a >= b within tolerance."""
    return a >= b - (_ATOL + _RTOL * max(abs(a), abs(b)))


def reference_violations(schedule: Schedule, instance: Instance) -> list[str]:
    """Collect every feasibility violation (empty list == feasible)."""
    out: list[str] = []
    dag = instance.dag

    # Rule 1: coverage.
    for t in dag.tasks():
        if t not in schedule:
            out.append(f"task {t!r} is not scheduled")
    if out:
        return out  # precedence checks below assume coverage

    # Rules 2 and 3: durations and per-processor exclusivity.
    for proc in schedule.machine.proc_ids():
        entries = schedule.proc_entries(proc)
        prev: ScheduledTask | None = None
        for placed in entries:
            expected = instance.exec_time(placed.task, proc)
            if abs(placed.duration - expected) > _ATOL + _RTOL * max(expected, 1.0):
                out.append(
                    f"copy of {placed.task!r} on {proc!r} runs {placed.duration:g}, "
                    f"ETC says {expected:g}"
                )
            if placed.duration <= EPS:
                continue  # a zero-width copy occupies no time (Timeline's rule)
            if prev is not None and placed.start < prev.end - _ATOL:
                out.append(
                    f"overlap on {proc!r}: {prev.task!r} [{prev.start:g},{prev.end:g}) vs "
                    f"{placed.task!r} [{placed.start:g},{placed.end:g})"
                )
            prev = placed

    # Rule 4: precedence with communication, duplication-aware.
    for child in dag.tasks():
        parents = dag.predecessors(child)
        if not parents:
            continue
        for child_copy in schedule.copies(child):
            for parent in parents:
                arrival = min(
                    pc.end
                    + instance.comm_time(parent, child, pc.proc, child_copy.proc)
                    for pc in schedule.copies(parent)
                )
                if not _close_geq(child_copy.start, arrival):
                    out.append(
                        f"{child!r} on {child_copy.proc!r} starts at {child_copy.start:g} "
                        f"before data from {parent!r} arrives at {arrival:g}"
                    )
    return out
