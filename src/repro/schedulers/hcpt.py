"""HCPT — Heterogeneous Critical Parent Trees (Hagras & Janecek, 2003).

A low-complexity listing heuristic: tasks with zero slack (average
earliest start == average latest start) form the critical path; the
listing phase walks each critical node's unlisted-parent tree so parents
are always listed first, then placement is insertion-based EFT.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedulers.base import ListScheduler
from repro.schedulers.ranking import RankAggregation, alap_times, est_times
from repro.types import TaskId


class HCPT(ListScheduler):
    """Heterogeneous Critical Parent Trees scheduler."""

    insertion = True
    compiled_policy = "eft"

    def __init__(self, agg: RankAggregation = "mean") -> None:
        self.agg = agg
        self.name = "HCPT" if agg == "mean" else f"HCPT-{agg}"

    def priority_order(self, instance: Instance) -> list[TaskId]:
        kernel = instance.kernel
        tasks, pred, pos = kernel.tasks, kernel.pred, kernel.pos
        aest = est_times(instance, self.agg)
        alst = alap_times(instance, self.agg)

        slack_tol = 1e-9 * (1.0 + max(alst.values(), default=0.0))
        critical = [t for t in tasks if abs(alst[t] - aest[t]) <= slack_tol]
        if not critical:
            # Degenerate numerics: fall back to the minimum-slack task.
            critical = sorted(tasks, key=lambda t: (alst[t] - aest[t], pos[t]))[:1]
        # Stack initialised with critical tasks, smallest ALST on top.
        stack = sorted(critical, key=lambda t: (-alst[t], -pos[t]))

        listed: list[TaskId] = []
        listed_set: set[TaskId] = set()
        while stack:
            top = stack[-1]
            unlisted_parents = [p for p in pred[top] if p not in listed_set]
            if unlisted_parents:
                # Push the most urgent (smallest ALST) unlisted parent.
                parent = min(unlisted_parents, key=lambda p: (alst[p], pos[p]))
                stack.append(parent)
            else:
                stack.pop()
                if top not in listed_set:
                    listed.append(top)
                    listed_set.add(top)

        # Non-critical leftovers (tasks not on any critical parent tree,
        # e.g. descendants of the CP) follow in urgency order.
        for t in sorted(tasks, key=lambda t: (alst[t], pos[t])):
            if t not in listed_set:
                # Parents may also be unlisted; emit them first.
                chain: list[TaskId] = []
                stack2 = [t]
                while stack2:
                    u = stack2[-1]
                    missing = [p for p in pred[u] if p not in listed_set]
                    if missing:
                        stack2.append(min(missing, key=lambda p: (alst[p], pos[p])))
                    else:
                        stack2.pop()
                        if u not in listed_set:
                            chain.append(u)
                            listed_set.add(u)
                listed.extend(chain)
        return listed
