"""Makespan-monotone refinement post-pass (improvement 4).

After the list pass, tasks are revisited in decreasing start-time order;
each is tentatively removed and re-inserted at the placement minimising
its finish time, subject to every already-scheduled consumer still
receiving its data on time.  A move is accepted only when the task's
finish strictly decreases, so the makespan never increases and the pass
reaches a fixed point in finitely many sweeps.

Tasks that own duplicates are skipped (their copies collectively feed
consumers and moving the primary could starve one); duplicates
themselves are never moved.  The sweep runs on the compiled executor;
the object sweep it replays is the test-side reference
``tests/placement_reference.py``.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedule.schedule import Schedule


def refine_schedule(
    schedule: Schedule,
    instance: Instance,
    max_rounds: int = 2,
) -> int:
    """Refine ``schedule`` in place; returns the number of accepted moves.

    Each round sweeps every task once (latest start first).  Rounds stop
    early when a full sweep accepts nothing
    (:meth:`~repro.compiled.CompiledInstance.refine`).
    """
    return instance.kernel.compiled().refine(schedule, max_rounds)
