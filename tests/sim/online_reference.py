"""Object-path reference for the online simulator's placements.

:class:`~repro.sim.online.OnlineScheduler` places every job through
:meth:`~repro.compiled.CompiledInstance.schedule_onto`.  This module
keeps an independent specification of that placement: it reads every
cost through the public :class:`~repro.instance.Instance` API
(``exec_time``, ``comm_time``, ``predecessors_of``) and replays the list
pass float for float.  :func:`simulate_reference` runs a whole
simulation with it, so the suites can compare the compiled simulator's
``payload_json`` against it on any machine, per-link ones included.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping, Sequence

from repro.instance import Instance
from repro.schedule.timeline import scan_slots
from repro.sim.arrivals import Arrival
from repro.sim.online import OnlineResult, OnlineScheduler

_EPS = 1e-12


def place_reference(
    inst: Instance,
    order_ids: Sequence,
    ti: Mapping,
    busy_starts: Sequence[Sequence[float]],
    busy_ends: Sequence[Sequence[float]],
    release: float,
    factors: list[float] | None,
    *,
    insertion: bool,
    eft: bool,
) -> tuple[list[tuple[int, float, float]], float, float]:
    """One list pass of ``order_ids`` against pre-occupied timelines.

    Returns every task's ``(proc index, start, end)`` interval in
    placement order, the job's first start and its finish.
    """
    procs = inst.machine.proc_ids()
    q = len(procs)
    tl_starts = [list(s) for s in busy_starts]
    tl_ends = [list(e) for e in busy_ends]
    tl_max = [max(e, default=0.0) for e in tl_ends]
    end_of: dict = {}
    proc_of: dict = {}
    intervals: list[tuple[int, float, float]] = []
    first = math.inf
    last = 0.0
    for task in order_ids:
        scale = 1.0 if factors is None else factors[ti[task]]
        ready_vec = [release] * q
        for parent in inst.predecessors_of(task):
            eu = end_of[parent]
            pu = proc_of[parent]
            for j in range(q):
                a = eu if j == pu else eu + inst.comm_time(parent, task, procs[pu], procs[j])
                if a > ready_vec[j]:
                    ready_vec[j] = a
        best_j = -1
        best_start = 0.0
        best_end = 0.0
        for j in range(q):
            duration = inst.exec_time(task, procs[j])
            if factors is not None:
                duration = duration * scale
            ready = ready_vec[j]
            if best_j >= 0:
                if eft:
                    if ready + duration >= best_end - _EPS:
                        continue
                elif ready >= best_start - _EPS:
                    continue
            if insertion:
                start = scan_slots(tl_starts[j], tl_ends[j], ready, duration)
            else:
                m = tl_max[j]
                start = ready if ready > m else m
            end = start + duration
            if best_j < 0 or (end < best_end - _EPS if eft else start < best_start - _EPS):
                best_j = j
                best_start = start
                best_end = end
        darg = best_end - best_start
        rend = best_start + darg
        end_of[task] = rend
        proc_of[task] = best_j
        intervals.append((best_j, best_start, rend))
        starts = tl_starts[best_j]
        i = bisect_left(starts, best_start)
        starts.insert(i, best_start)
        tl_ends[best_j].insert(i, rend)
        if rend > tl_max[best_j]:
            tl_max[best_j] = rend
        if best_start < first:
            first = best_start
        if rend > last:
            last = rend
    return intervals, (0.0 if math.isinf(first) else first), last


class ReferenceOnlineScheduler(OnlineScheduler):
    """The online simulator with every placement made by
    :func:`place_reference` instead of the compiled executor."""

    def _schedule_job(self, state, busy_starts, busy_ends, release, factors):
        return place_reference(
            state.instance,
            state.order_ids,
            state.ti,
            busy_starts,
            busy_ends,
            release,
            factors,
            insertion=self.alg.insertion,
            eft=self.alg.compiled_policy == "eft",
        )


def simulate_reference(
    templates: Mapping[str, Instance], arrivals: Sequence[Arrival], **kwargs
) -> OnlineResult:
    """:func:`~repro.sim.online.simulate_online` over the reference placer."""
    return ReferenceOnlineScheduler(templates, **kwargs).run(list(arrivals))
