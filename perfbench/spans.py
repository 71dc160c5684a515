"""Span recording and call-site patching for the traced benchmark run.

The traced run times calls into the library's public functions from the
benchmark's own code: each wrapped name records a span (name, start,
end, parent) into an in-memory :class:`SpanRecorder`, and the spans are
written out once the run ends.  ``repro.obs`` is never enabled, because
an enabled library tracer reroutes every scheduler to the object path
and would change what is being measured.

Wrappers are installed where callers look the names up: a function
imported by name into several modules is replaced in each of them, and
methods are replaced on the class that callers reach them through.
:class:`Patcher` undoes every replacement on exit.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from functools import wraps

_now = time.perf_counter


class SpanRecorder:
    """In-memory spans plus per-name self time, inclusive time and calls.

    Synchronous spans nest through a stack: a span's parent is the span
    open when it began, and its self time is its duration minus the
    time its direct children covered.  Every wrapped library call is
    synchronous, so nesting holds even when an asyncio client
    interleaves requests between awaits.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children]

    def top(self) -> str | None:
        """Name of the innermost open span, or ``None``."""
        return self.names[self._stack[-1][0]] if self._stack else None

    def wrap(self, name: str, fn):
        """``fn`` wrapped so every call records one span called ``name``."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _now()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                ends[sid] = t1
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                incl_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    def write(self, path) -> None:
        """Write every span as gzipped JSON (parallel arrays, times in s)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Patcher:
    """Installs wrappers at their lookup sites; restores them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def function(self, name: str, fn) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        wrapped = self.recorder.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(lambda m=module, a=attr: setattr(m, a, fn))

    def attr(self, owner, attr: str, name: str, kind: str = "plain") -> None:
        """Wrap ``owner.attr``: a plain function, ``"classmethod"`` or
        ``"property"``.  An inherited method is shadowed on ``owner``
        itself, so sibling subclasses keep their own span names."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if kind == "classmethod":
            new = classmethod(self.recorder.wrap(name, original.__func__))
        elif kind == "property":
            new = property(self.recorder.wrap(name, original.fget))
        else:
            new = self.recorder.wrap(name, original)
        setattr(owner, attr, new)
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def module_attr(self, module, attr: str, value) -> None:
        """Set ``module.attr`` to ``value`` until exit."""
        original = getattr(module, attr)
        setattr(module, attr, value)
        self._undo.append(lambda: setattr(module, attr, original))


def instrument_scheduling(patcher: Patcher, lineup) -> None:
    """Wrap the scheduling layers: compiled executor, core engine,
    kernels, rank functions, validation and each line-up scheduler."""
    from repro import compiled, kernels
    from repro.core import placement, refinement
    from repro.schedule import validation
    from repro.schedulers import ranking
    from repro.schedulers.registry import get_scheduler

    ci = compiled.CompiledInstance
    patcher.attr(ci, "__init__", "compiled.lower")
    patcher.attr(ci, "schedule_improved", "compiled.improved")
    patcher.attr(ci, "schedule_list", "compiled.list")
    patcher.attr(ci, "schedule_dls", "compiled.list")
    patcher.attr(ci, "schedule_onto", "compiled.onto")
    patcher.attr(ci, "materialize", "compiled.materialize")
    patcher.attr(placement.PlacementEngine, "place", "core.place")
    patcher.function("core.refine", refinement.refine_schedule)
    patcher.attr(kernels.InstanceKernel, "ready_times", "kernels.ready_times")
    for fn in (ranking.upward_ranks, ranking.downward_ranks, ranking.est_times,
               ranking.alap_times, ranking.machine_static_levels):
        patcher.function("schedulers.rank", fn)
    patcher.function("schedule.validate", validation.validate)
    for alg in lineup:
        cls = type(get_scheduler(alg))
        patcher.attr(cls, "schedule", f"sched.{alg}")
        if "priority_order" in vars(cls):
            patcher.attr(cls, "priority_order", "schedulers.rank")


def instrument_sim(patcher: Patcher, policy_name: str) -> None:
    """Wrap the online simulator's cluster bookkeeping and policy."""
    from repro.sim.cluster import ClusterState
    from repro.sim.policies import get_policy

    patcher.attr(ClusterState, "advance", "sim.advance")
    patcher.attr(ClusterState, "occupy", "sim.occupy")
    patcher.attr(ClusterState, "release", "sim.release")
    patcher.attr(type(get_policy(policy_name)), "plan", "sim.policy")


def instrument_client(patcher: Patcher) -> None:
    """Wrap the service client's request encoding and response decoding.

    JSON responses are parsed by ``json.loads`` inside an async method,
    so the client module's ``json`` name is swapped for a shim whose
    ``loads`` records a decode span — except when called while a
    request body is being encoded, where it belongs to encoding.
    """
    import json as json_mod
    import types

    from repro.service import client, protocol

    rec = patcher.recorder
    patcher.attr(client.ServiceClient, "_schedule_body", "client.encode")
    patcher.attr(protocol.ScheduleResult, "from_payload", "client.decode", kind="classmethod")
    patcher.attr(protocol.WireScheduleResult, "placements", "client.decode", kind="property")
    patcher.module_attr(client, "ResponseView", rec.wrap("client.decode", client.ResponseView))
    patcher.module_attr(client, "WireScheduleResult",
                        rec.wrap("client.decode", client.WireScheduleResult))
    traced_loads = rec.wrap("client.decode", json_mod.loads)

    def loads(*args, **kwargs):
        if rec.top() == "client.encode":
            return json_mod.loads(*args, **kwargs)
        return traced_loads(*args, **kwargs)

    shim = types.SimpleNamespace(
        loads=loads, dumps=json_mod.dumps, JSONDecodeError=json_mod.JSONDecodeError
    )
    patcher.module_attr(client, "json", shim)


def layer_ms(rec: SpanRecorder, name: str, ops: int, slowness: float = 1.0) -> float:
    """Self time of every ``name`` span, in ms per operation, rescaled to
    reference speed."""
    return rec.self_s.get(name, 0.0) * 1e3 / ops / slowness if ops else 0.0


def layer_calls(rec: SpanRecorder, name: str, ops: int) -> float:
    """Calls of ``name`` per operation."""
    return rec.calls.get(name, 0) / ops if ops else 0.0
