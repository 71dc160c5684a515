"""Feasibility validation of schedules against an instance.

A schedule is *feasible* when:

1. every task of the DAG has a primary placement,
2. every placement's duration equals the ETC entry of its (task, proc),
3. placements on one processor never overlap (guaranteed by the
   :class:`~repro.schedule.timeline.Timeline` but re-checked here so
   deserialised or hand-built schedules are covered too),
4. every copy of a child starts no earlier than, for **each** parent,
   the earliest time that parent's data can arrive — i.e. the minimum
   over the parent's copies of ``copy.end + comm(copy.proc -> child.proc)``.

Duplication semantics: a duplicate copy of a parent is a full re-execution,
so it must itself satisfy rule 4 with respect to *its* parents.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ValidationError
from repro.instance import Instance
from repro.kernels import InstanceKernel
from repro.schedule.schedule import Schedule, ScheduledTask, entry_order
from repro.types import ProcId, TaskId

#: Relative tolerance for floating-point comparisons in validation.
_RTOL = 1e-6
_ATOL = 1e-6


def _close_geq(a: float, b: float) -> bool:
    """a >= b within tolerance."""
    return a >= b - (_ATOL + _RTOL * max(abs(a), abs(b)))


def _arrival_fn(
    kernel: InstanceKernel,
    copies: dict[TaskId, list[ScheduledTask]],
    known_procs: bool,
) -> Callable[[TaskId, TaskId, ProcId], float]:
    """``arrival(parent, child, dst)``: the earliest time ``parent``'s
    data reaches ``dst``, i.e. the min over the parent's copies of
    ``end + comm`` — priced from the kernel's per-pair constants (or its
    latency/bandwidth tables on a per-link machine) with the floats
    :meth:`InstanceKernel.comm_time` returns.  A custom model, or a
    placement on a processor the instance's machine lacks, goes through
    ``comm_time`` itself (which raises for the unknown processor)."""
    consts = kernel.out_const
    links = kernel.link_tables() if consts is None and known_procs else None
    inf = float("inf")
    if consts is not None and known_procs:

        def arrival(parent, child, dst):
            const = consts[parent][child]
            best = inf
            for pc in copies[parent]:
                cand = pc.end + (0.0 if pc.proc == dst else const)
                if cand < best:
                    best = cand
            return best

    elif links is not None:
        lat, bw = links
        pi = kernel.pi
        edge_data = kernel.edge_data

        def arrival(parent, child, dst):
            data = float(edge_data[parent][child])
            j = pi[dst]
            best = inf
            for pc in copies[parent]:
                if pc.proc == dst:
                    cand = pc.end + 0.0
                else:
                    i = pi[pc.proc]
                    cand = pc.end + (lat[i][j] + data / bw[i][j])
                if cand < best:
                    best = cand
            return best

    else:
        comm_time = kernel.comm_time

        def arrival(parent, child, dst):
            return min(pc.end + comm_time(parent, child, pc.proc, dst) for pc in copies[parent])

    return arrival


def violations(schedule: Schedule, instance: Instance) -> list[str]:
    """Collect every feasibility violation (empty list == feasible).

    One pass over :meth:`Schedule.all_placements` groups the copies per
    task (primary first, as :meth:`Schedule.copies` lists them) and per
    processor (in :func:`entry_order`); durations come from the kernel's
    exec table and transfer times from its communication tables.
    """
    kernel = instance.kernel
    tasks = kernel.tasks

    # Rule 1: coverage.
    out = [f"task {t!r} is not scheduled" for t in tasks if t not in schedule]
    if out:
        return out  # precedence checks below assume coverage

    by_proc: dict[ProcId, list[ScheduledTask]] = {p: [] for p in schedule.machine.proc_ids()}
    copies: dict[TaskId, list[ScheduledTask]] = {}
    for placed in schedule.all_placements():
        by_proc[placed.proc].append(placed)
        copies.setdefault(placed.task, []).append(placed)

    # Rules 2 and 3: durations and per-processor exclusivity.
    table = kernel.exec_table()
    for proc, entries in by_proc.items():
        entries.sort(key=entry_order)
        prev: ScheduledTask | None = None
        for placed in entries:
            try:
                expected = table[placed.task][proc]
            except KeyError:
                expected = instance.exec_time(placed.task, proc)  # the ETC's value or error
            if abs(placed.duration - expected) > _ATOL + _RTOL * max(expected, 1.0):
                out.append(
                    f"copy of {placed.task!r} on {proc!r} runs {placed.duration:g}, "
                    f"ETC says {expected:g}"
                )
            if prev is not None and placed.start < prev.end - _ATOL:
                out.append(
                    f"overlap on {proc!r}: {prev.task!r} [{prev.start:g},{prev.end:g}) vs "
                    f"{placed.task!r} [{placed.start:g},{placed.end:g})"
                )
            prev = placed

    # Rule 4: precedence with communication, duplication-aware.
    pi = kernel.pi
    known = all(p in pi for p, entries in by_proc.items() if entries)
    arrival = _arrival_fn(kernel, copies, known)
    pred = kernel.pred
    for child in tasks:
        parents = pred[child]
        if not parents:
            continue
        for child_copy in copies[child]:
            start = child_copy.start
            for parent in parents:
                ready = arrival(parent, child, child_copy.proc)
                # start >= ready passes every tolerance; only an earlier
                # start needs the tolerant comparison.
                if start < ready and not _close_geq(start, ready):
                    out.append(
                        f"{child!r} on {child_copy.proc!r} starts at {start:g} "
                        f"before data from {parent!r} arrives at {ready:g}"
                    )
    return out


def validate(schedule: Schedule, instance: Instance) -> None:
    """Raise :class:`~repro.exceptions.ValidationError` if infeasible."""
    found = violations(schedule, instance)
    if found:
        raise ValidationError(found)
