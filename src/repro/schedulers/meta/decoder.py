"""Assignment decoder shared by the metaheuristics.

A candidate solution is a task -> processor assignment.  Decoding places
tasks in decreasing upward-rank order, each on its assigned processor at
the earliest insertion slot — the same substrate as every list
scheduler, so search quality differences are purely about assignments.

:func:`decode_assignment` builds a real
:class:`~repro.schedule.schedule.Schedule` (the specification, and what
callers use to materialise the final winner); the GA/SA inner loops
evaluate fitness through the compiled flat-array decoder
(:meth:`~repro.compiled.CompiledInstance.decode_batch` /
:meth:`~repro.compiled.CompiledInstance.decode_span`), whose makespans
are bit-identical to it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import schedule_task_on
from repro.types import ProcId, TaskId


def rank_order(instance: Instance) -> list[TaskId]:
    """The decoding order: decreasing upward rank (precedence-valid).

    Served from the per-instance cache on ``Instance.kernel``, so
    thousands of decodes share one rank pass.
    """
    return list(instance.kernel.rank_order("mean"))


def decode_assignment(
    instance: Instance,
    assignment: Mapping[TaskId, ProcId],
    order: Sequence[TaskId] | None = None,
    name: str = "decoded",
) -> Schedule:
    """Build the schedule induced by ``assignment``.

    ``order`` defaults to the rank order; callers running many decodes
    should precompute it once via :func:`rank_order` (or decode through
    the compiled decoder, which is makespan-bit-identical).
    """
    if order is None:
        order = rank_order(instance)
    schedule = Schedule(instance.machine, name=name)
    for task in order:
        schedule_task_on(schedule, instance, task, assignment[task], insertion=True)
    return schedule
