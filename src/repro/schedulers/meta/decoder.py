"""Assignment decoder shared by the metaheuristics.

A candidate solution is a task -> processor assignment.  Decoding places
tasks in decreasing upward-rank order, each on its assigned processor at
the earliest insertion slot — the same substrate as every list
scheduler, so search quality differences are purely about assignments.

:func:`decode_assignment` (defined in :mod:`repro.schedulers.base`)
builds the final winner's :class:`~repro.schedule.schedule.Schedule`
through the compiled list pass; the GA/SA inner loops evaluate fitness
through the compiled flat-array decoder
(:meth:`~repro.compiled.CompiledInstance.decode_batch` /
:meth:`~repro.compiled.CompiledInstance.decode_span`), whose makespans
are bit-identical to it.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedulers.base import decode_assignment
from repro.types import TaskId

__all__ = ["decode_assignment", "rank_order"]


def rank_order(instance: Instance) -> list[TaskId]:
    """The decoding order: decreasing upward rank (precedence-valid).

    Served from the per-instance cache on ``Instance.kernel``, so
    thousands of decodes share one rank pass.
    """
    return list(instance.kernel.rank_order("mean"))
