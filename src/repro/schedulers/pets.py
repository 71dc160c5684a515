"""PETS — Performance Effective Task Scheduling (Ilavarasan &
Thambidurai, 2007).

A contemporaneous low-complexity competitor of the target paper: tasks
are processed level by level (ASAP depth); within a level the priority
is ``rank = round(ACC + DTC + RPT)`` where ACC is the average
computation cost, DTC the total outgoing communication and RPT the
highest parent rank.  Placement is insertion-based EFT.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedulers.base import ListScheduler
from repro.types import TaskId


class PETS(ListScheduler):
    """Performance Effective Task Scheduling."""

    insertion = True
    name = "PETS"
    compiled_policy = "eft"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        # One walk in topological order gives each task its ASAP level
        # and its rank; the costs are the floats ``avg_exec_time`` and
        # ``avg_comm_time`` return, summed in successor order.
        kernel = instance.kernel
        pred = kernel.pred
        succ = kernel.succ
        avg = kernel.edge_avg
        acc = kernel.weights("mean")
        pos = kernel.pos
        level: dict[TaskId, int] = {}
        rank: dict[TaskId, float] = {}
        for t in kernel.topo:
            row = avg[t]
            dtc = sum([row[s] for s in succ[t]])
            parents = pred[t]
            if parents:
                level[t] = 1 + max([level[p] for p in parents])
                rpt = max([rank[p] for p in parents])
            else:
                level[t] = 0
                rpt = 0.0
            # The published algorithm rounds the rank to an integer.
            rank[t] = float(round(acc[t] + dtc + rpt))
        # Level by level; within a level higher rank first, ties by
        # smaller average cost, then by topological position.
        return sorted(kernel.topo, key=lambda t: (level[t], -rank[t], acc[t], pos[t]))
