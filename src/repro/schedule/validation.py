"""Feasibility validation of schedules against an instance.

A schedule is *feasible* when:

1. every task of the DAG has a primary placement,
2. every placement's duration equals the ETC entry of its (task, proc),
3. placements on one processor never overlap (``Schedule.add`` checks
   this through the :class:`~repro.schedule.timeline.Timeline`, but
   ``Schedule.from_columns`` trusts its caller, so it is re-checked here
   for every schedule),
4. every copy of a child starts no earlier than, for **each** parent,
   the earliest time that parent's data can arrive — i.e. the minimum
   over the parent's copies of ``copy.end + comm(copy.proc -> child.proc)``.

Duplication semantics: a duplicate copy of a parent is a full re-execution,
so it must itself satisfy rule 4 with respect to *its* parents.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.instance import Instance
from repro.schedule.schedule import Schedule

#: Relative tolerance for floating-point comparisons in validation.
_RTOL = 1e-6
_ATOL = 1e-6


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``range(first[k], first[k] + count[k])``."""
    offset = count.cumsum() - count
    return (first - offset).repeat(count) + np.arange(int(count.sum()))


def violations(schedule: Schedule, instance: Instance) -> list[str]:
    """Collect every feasibility violation (empty list == feasible).

    Reads the schedule's columns (:meth:`Schedule.columns`) as arrays:
    rules 2 and 3 walk the rows per processor in
    :func:`~repro.schedule.schedule.entry_order`, rule 4 prices every
    (child copy, parent, parent copy) triple at once — copies of a task
    in row order, primary first, as :meth:`Schedule.copies` lists them —
    from the kernel's ETC array, predecessor CSR and communication
    tables, with the floats :meth:`InstanceKernel.comm_time` returns.  A
    row on a processor the instance's machine lacks is priced through
    ``comm_time`` itself (which raises for the unknown processor).  Ids
    are looked up in the instance's own tables, so a schedule built on
    another instance is checked against this one.
    Messages come in the order of the rules, then processors, rows,
    children, child copies and parents.
    """
    kernel = instance.kernel
    tasks = kernel.tasks
    task_col, proc_col, start_col, end_col, dup_col = schedule.columns()

    # Rule 1: coverage.  Rows list every primary before the duplicates.
    primaries = set(task_col[: dup_col.count(False)])
    if not primaries.issuperset(tasks):
        return [f"task {t!r} is not scheduled" for t in tasks if t not in primaries]
    out: list[str] = []

    m = len(task_col)
    start = np.array(start_col, dtype=float)
    end = np.array(end_col, dtype=float)
    tix, pix = (np.array(c, dtype=np.intp) for c in schedule.index_columns(kernel.ti, kernel.pi))

    # Rules 2 and 3: durations and per-processor exclusivity, row by row
    # in processor order, then (start, str(task)) — the strings only
    # break ties, so they are built only when two starts coincide.
    procs = schedule.machine.proc_ids()
    if procs == kernel.procs:
        prank = pix
    else:
        rank = {p: r for r, p in enumerate(procs)}
        prank = np.fromiter(map(rank.__getitem__, proc_col), np.intp, m)
    order = np.lexsort((start, prank))
    ps, ss = prank[order], start[order]
    if np.any((ps[1:] == ps[:-1]) & (ss[1:] == ss[:-1])):
        key = list(zip(prank.tolist(), start_col, map(str, task_col)))
        order = np.array(sorted(range(m), key=key.__getitem__), dtype=np.intp)
        ps, ss = prank[order], start[order]
    known = (tix >= 0) & (pix >= 0)
    if known.all():
        expected = kernel.etc_arr[tix, pix]
    else:
        expected = np.zeros(m)
        expected[known] = kernel.etc_arr[tix[known], pix[known]]
        for r in order[~known[order]].tolist():
            expected[r] = instance.exec_time(task_col[r], proc_col[r])  # the ETC's value or error
    bad = np.abs((end - start) - expected) > _ATOL + _RTOL * np.maximum(expected, 1.0)
    overlap = np.zeros(m, dtype=bool)
    overlap[1:] = (ps[1:] == ps[:-1]) & (ss[1:] < end[order[:-1]] - _ATOL)
    for at in np.flatnonzero(bad[order] | overlap).tolist():
        r = int(order[at])
        task, proc = task_col[r], procs[prank[r]]
        if bad[r]:
            out.append(
                f"copy of {task!r} on {proc!r} runs {end_col[r] - start_col[r]:g}, "
                f"ETC says {float(expected[r]):g}"
            )
        if overlap[at]:
            prev = int(order[at - 1])
            out.append(
                f"overlap on {proc!r}: {task_col[prev]!r} "
                f"[{start_col[prev]:g},{end_col[prev]:g}) vs "
                f"{task!r} [{start_col[r]:g},{end_col[r]:g})"
            )

    # Rule 4: precedence with communication, duplication-aware.  The rows
    # of DAG tasks grouped by task, each task's copies in row order.
    ptr, edge_child, parent, operand = kernel.pred_csr()
    if not len(parent):
        return out
    rows = np.flatnonzero(tix >= 0)
    rows = rows[np.argsort(tix[rows], kind="stable")]
    if len(rows) == len(tasks):
        # One copy per task: one pair per edge, whose one candidate
        # arrival is from the parent's row.
        pair_row, pair_edge, pair_parent = rows[edge_child], np.arange(len(parent)), parent
        cand_pair, cand_row, cand_start = pair_edge, rows[parent], None
    else:
        # One pair per (child copy, parent edge), child-major as the
        # messages go, ...
        child = tix[rows]
        count = np.bincount(child, minlength=len(tasks))
        deg = ptr[child + 1] - ptr[child]
        pair_row = rows.repeat(deg)
        pair_edge = _ranges(ptr[child], deg)
        pair_parent = parent[pair_edge]
        # ... and one candidate arrival per (pair, parent copy).
        ncand = count[pair_parent]
        cand_pair = np.arange(len(pair_edge)).repeat(ncand)
        cand_row = rows[_ranges((count.cumsum() - count)[pair_parent], ncand)]
        cand_start = ncand.cumsum() - ncand
    dst_row = pair_row[cand_pair]
    if (pix >= 0).all():
        src, dst = pix[cand_row], pix[dst_row]
        cost = operand[pair_edge[cand_pair]]
        links = kernel.link_tables()
        if links is not None:
            lat, bw = np.array(links[0]), np.array(links[1])
            cost = lat[src, dst] + cost / bw[src, dst]
        arrival = end[cand_row] + np.where(src == dst, 0.0, cost)
    else:
        comm_time = kernel.comm_time
        arrival = np.array([
            end_col[k] + comm_time(tasks[u], tasks[c], proc_col[k], proc_col[i])
            for k, u, c, i in zip(cand_row.tolist(), pair_parent[cand_pair].tolist(),
                                  tix[dst_row].tolist(), dst_row.tolist())
        ], dtype=float)
    ready = arrival if cand_start is None else np.minimum.reduceat(arrival, cand_start)
    at = start[pair_row]
    # start >= ready passes every tolerance; only an earlier start needs
    # the tolerant comparison (a >= b within tolerance).
    late = (at < ready) & ~(at >= ready - (_ATOL + _RTOL * np.maximum(np.abs(at), np.abs(ready))))
    for k in np.flatnonzero(late).tolist():
        r = int(pair_row[k])
        out.append(
            f"{tasks[tix[r]]!r} on {proc_col[r]!r} starts at {start_col[r]:g} "
            f"before data from {tasks[pair_parent[k]]!r} arrives at {float(ready[k]):g}"
        )
    return out


def validate(schedule: Schedule, instance: Instance) -> None:
    """Raise :class:`~repro.exceptions.ValidationError` if infeasible."""
    found = violations(schedule, instance)
    if found:
        raise ValidationError(found)
