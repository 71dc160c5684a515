"""Makespan-monotone refinement post-pass (improvement 4).

After the list pass, tasks are revisited in decreasing start-time order;
each is tentatively removed and re-inserted at the placement minimising
its finish time, subject to every already-scheduled consumer still
receiving its data on time.  A move is accepted only when the task's
finish strictly decreases, so the makespan never increases and the pass
reaches a fixed point in finitely many sweeps.

Tasks that own duplicates are skipped (their copies collectively feed
consumers and moving the primary could starve one); duplicates
themselves are never moved.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Placement
from repro.types import TaskId

_EPS = 1e-12
_TOL = 1e-9


def _children_deadline_ok(
    schedule: Schedule,
    instance: Instance,
    task: TaskId,
    new_proc,
    new_end: float,
) -> bool:
    """Would every consumer copy still get ``task``'s data in time?

    A consumer is safe if data from the *new* primary placement — or from
    any surviving duplicate of ``task`` — arrives by its start.
    """
    duplicates = [c for c in schedule.copies(task) if c.duplicate] if task in schedule else []
    for child in instance.successors_of(task):
        if child not in schedule:
            continue
        for child_copy in schedule.copies(child):
            arrival = new_end + instance.comm_time(task, child, new_proc, child_copy.proc)
            for dup in duplicates:
                arrival = min(
                    arrival,
                    dup.end + instance.comm_time(task, child, dup.proc, child_copy.proc),
                )
            if arrival > child_copy.start + _TOL:
                return False
    return True


def refine_schedule(
    schedule: Schedule,
    instance: Instance,
    max_rounds: int = 2,
) -> int:
    """Refine ``schedule`` in place; returns the number of accepted moves.

    Each round sweeps every task once (latest start first).  Rounds stop
    early when a full sweep accepts nothing.
    """
    dag = instance.dag
    moves = 0
    for _ in range(max_rounds):
        changed = False
        order = sorted(
            dag.tasks(),
            key=lambda t: (-schedule.entry(t).start, str(t)),
        )
        for task in order:
            copies = schedule.copies(task)
            if any(c.duplicate for c in copies):
                continue  # duplicated tasks are pinned (see module doc)
            old = schedule.entry(task)
            schedule.remove(task)
            best = None
            ready_vec = instance.kernel.ready_times(schedule, task)
            for j, proc in enumerate(instance.machine.proc_ids()):
                duration = instance.exec_time(task, proc)
                start = schedule.timeline(proc).find_slot(
                    ready_vec[j], duration, insertion=True
                )
                cand = Placement(proc=proc, start=start, end=start + duration)
                if not _children_deadline_ok(schedule, instance, task, proc, cand.end):
                    continue
                if best is None or cand.end < best.end - _EPS:
                    best = cand
            # The old placement is always feasible, so best exists and is
            # no worse than old; accept only strict improvement.
            if best is not None and best.end < old.end - _TOL:
                schedule.add(task, best.proc, best.start, best.end - best.start)
                moves += 1
                changed = True
            else:
                schedule.add(task, old.proc, old.start, old.end - old.start)
        if not changed:
            break
    return moves
