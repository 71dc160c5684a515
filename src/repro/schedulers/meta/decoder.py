"""Assignment decoder shared by the metaheuristics.

A candidate solution is a task -> processor assignment.  Decoding places
tasks in decreasing upward-rank order, each on its assigned processor at
the earliest insertion slot — the same substrate as every list
scheduler, so search quality differences are purely about assignments.

Two decode paths produce bit-identical schedules:

* :func:`decode_assignment` — the object path, building a real
  :class:`~repro.schedule.schedule.Schedule` (the specification, and
  what callers use to materialise the final winner);
* :func:`compiled_decoder` — the flat-array
  :class:`~repro.compiled.CompiledInstance` used for fitness
  evaluation in the GA/SA inner loops on zero, uniform and per-link
  machines (``None`` when the kernel layer is off or the machine uses a
  custom communication model).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.instance import Instance
from repro.kernels import kernels_enabled
from repro.schedule.schedule import Schedule
from repro.schedulers.base import schedule_task_on
from repro.schedulers.ranking import upward_ranks
from repro.types import ProcId, TaskId


def rank_order(instance: Instance) -> list[TaskId]:
    """The decoding order: decreasing upward rank (precedence-valid).

    Served from the per-instance cache on ``Instance.kernel`` when the
    kernel layer is on — thousands of decodes share one rank pass —
    with the scalar recomputation kept as the reference path.
    """
    if kernels_enabled():
        return list(instance.kernel.rank_order("mean"))
    ranks = upward_ranks(instance)
    pos = {t: i for i, t in enumerate(instance.dag.topological_order())}
    return sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))


def compiled_decoder(instance: Instance):
    """The instance's :class:`~repro.compiled.CompiledInstance`, or ``None``.

    ``None`` when the kernel layer is disabled (differential tests and
    the benchmark baseline run the object path) or when the machine's
    communication model is a custom one the lowering cannot price.
    """
    if not kernels_enabled():
        return None
    return instance.kernel.compiled()


def decode_assignment(
    instance: Instance,
    assignment: Mapping[TaskId, ProcId],
    order: Sequence[TaskId] | None = None,
    name: str = "decoded",
) -> Schedule:
    """Build the schedule induced by ``assignment``.

    ``order`` defaults to the rank order; callers running many decodes
    should precompute it once via :func:`rank_order` (or decode through
    :func:`compiled_decoder`, which is makespan-bit-identical).
    """
    if order is None:
        order = rank_order(instance)
    schedule = Schedule(instance.machine, name=name)
    for task in order:
        schedule_task_on(schedule, instance, task, assignment[task], insertion=True)
    return schedule
