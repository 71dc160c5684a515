"""The online simulator's per-placement re-lowering baseline.

:class:`~repro.sim.online.OnlineScheduler` lowers each template once and
re-seeds only the cluster timelines per arrival.
:class:`RelowerOnlineScheduler` instead re-lowers from a fresh
:class:`~repro.instance.Instance` copy — fresh kernel, fresh compiled
arrays, recomputed priority order — on every placement: the same
schedules at a higher cost.  The suites check the two agree byte for
byte, and ``benchmarks/bench_online.py`` times one against the other.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.instance import Instance
from repro.sim.arrivals import Arrival
from repro.sim.online import OnlineResult, OnlineScheduler, _TemplateState


class RelowerOnlineScheduler(OnlineScheduler):
    """The online simulator with a full re-lowering per placement."""

    def _state_for(self, name: str) -> _TemplateState:
        inst = self.templates[name]
        fresh = Instance(
            dag=inst.dag, machine=inst.machine, etc=inst.etc,
            name=inst.name, deadline=inst.deadline,
        )
        return _TemplateState(name, fresh, self.alg)


def simulate_relowered(
    templates: Mapping[str, Instance], arrivals: Sequence[Arrival], **kwargs
) -> OnlineResult:
    """:func:`~repro.sim.online.simulate_online` re-lowering per placement."""
    return RelowerOnlineScheduler(templates, **kwargs).run(list(arrivals))
