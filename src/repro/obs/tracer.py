"""The tracer core: spans, counters, gauges; thread-safe; no-op default.

Design constraints, in order:

1. **The disabled path must cost nothing.**  The module default is a
   shared :class:`NullTracer`; ``span()`` on it returns one preallocated
   no-op context manager and ``count``/``gauge`` return immediately.
   Hot loops additionally guard per-item spans behind
   ``tracer.enabled``, so the per-task cost with tracing off is a
   single attribute read (asserted <2% on the compiled decode and HEFT
   hot paths by ``benchmarks/bench_obs.py``).
2. **Thread-safe recording, thread-local nesting.**  Finished spans,
   counters and gauges live behind one lock; the *parent* of a new span
   comes from a per-thread stack, so concurrent schedulers produce
   correctly nested, independent subtrees.  Async code (the service
   engine), where one thread interleaves many logical requests, passes
   ``parent=`` explicitly instead — explicit-parent spans never touch
   the stack.
3. **Bounded memory.**  A long-running service must be traceable
   forever: the span store is a ``deque(maxlen=max_spans)``; counters
   and gauges are keyed by a fixed vocabulary of instrument names.

Spans are stored as plain dicts (``name``, ``id``, ``parent``, ``pid``,
``tid``, ``t0``, ``t1``, ``attrs``) so a worker process can export its
trace, ship it over a pickle boundary and have the parent
:meth:`Tracer.absorb` it into one merged trace.  Timestamps come from
``time.perf_counter()`` (CLOCK_MONOTONIC — one timebase across local
processes on the platforms we run on).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class _NullSpan:
    """The shared do-nothing span handle of :class:`NullTracer`."""

    __slots__ = ()
    sid = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One active span; records itself on the tracer when it exits."""

    __slots__ = ("_tracer", "name", "sid", "parent", "attrs", "t0", "t1", "_on_stack")

    def __init__(self, tracer: "Tracer", name: str, sid: int,
                 parent: int | None, on_stack: bool, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.sid = sid
        self.parent = parent
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0
        self._on_stack = on_stack

    def set(self, **attrs) -> None:
        """Attach attributes to the span while (or after) it is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        if self._on_stack:
            stack = tracer._stack()
            if self.parent is None and stack:
                self.parent = stack[-1]
            stack.append(self.sid)
        self.t0 = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.t1 = tracer._clock()
        if self._on_stack:
            stack = tracer._stack()
            if stack and stack[-1] == self.sid:
                stack.pop()
            elif self.sid in stack:  # pragma: no cover - defensive
                stack.remove(self.sid)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._record(self)
        return False


class Tracer:
    """A recording tracer: span tree + counters + gauges.

    Parameters
    ----------
    name:
        Label carried into exported traces (Chrome process name).
    max_spans:
        Bound on retained finished spans (oldest dropped first), so an
        always-on tracer — the service engine's — cannot grow without
        limit.
    clock:
        Injectable monotonic clock, for deterministic tests/fixtures.
    """

    enabled = True

    def __init__(self, name: str = "trace", max_spans: int = 100_000,
                 clock: Callable[[], float] | None = None) -> None:
        from collections import deque

        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.name = name
        self.max_spans = max_spans
        self._clock = clock or time.perf_counter
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: "deque[dict]" = deque(maxlen=max_spans)
        self._dropped = 0
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._local = threading.local()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, parent: int | None = None,
             detach: bool = False, **attrs) -> _Span:
        """A context manager timing one phase.

        With no keywords the span nests under the innermost open span of
        the *current thread*.  ``parent=<sid>`` links it explicitly (and
        keeps it off the thread stack) — required in async code where
        one thread interleaves many logical operations.  ``detach=True``
        makes an explicit root.
        """
        on_stack = parent is None and not detach
        return _Span(self, name, next(self._ids), parent, on_stack, attrs)

    def record_span(self, name: str, t0: float, t1: float, *,
                    parent: int | None = None, **attrs) -> int:
        """Record an already-measured interval (e.g. queue wait) as a span."""
        span = _Span(self, name, next(self._ids), parent, False, attrs)
        span.t0 = t0
        span.t1 = t1
        self._record(span)
        return span.sid

    def _record(self, span: _Span) -> None:
        entry = {
            "name": span.name,
            "id": span.sid,
            "parent": span.parent,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "t0": span.t0,
            "t1": span.t1,
            "attrs": span.attrs,
        }
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(entry)

    def count(self, name: str, inc: float = 1) -> None:
        """Increment a monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge."""
        with self._lock:
            self._gauges[name] = value

    # ------------------------------------------------------------------
    # reading / merging
    # ------------------------------------------------------------------
    def spans(self) -> list[dict]:
        """Finished spans in completion order (copies of the entries)."""
        with self._lock:
            return [dict(s) for s in self._spans]

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    @property
    def dropped_spans(self) -> int:
        """Spans evicted by the ``max_spans`` bound."""
        with self._lock:
            return self._dropped

    def export(self) -> dict:
        """The whole trace as one picklable/JSON-able dict."""
        with self._lock:
            return {
                "name": self.name,
                "spans": [dict(s) for s in self._spans],
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    def absorb(self, trace: dict | Sequence[dict], *,
               parent: int | None = None) -> dict[int, int]:
        """Merge a foreign trace (a worker's :meth:`export`) into this one.

        Foreign span ids are remapped onto this tracer's id sequence
        (parent links inside the batch follow); foreign *root* spans are
        attached under ``parent`` when given.  Foreign counters add into
        this tracer's counters; gauges overwrite.  Returns the id map.
        Original ``pid``/``tid`` values are preserved, so a merged trace
        still shows which process did the work.
        """
        if isinstance(trace, dict):
            spans = trace.get("spans", [])
            counters = trace.get("counters", {})
            gauges = trace.get("gauges", {})
        else:
            spans, counters, gauges = list(trace), {}, {}
        id_map: dict[int, int] = {}
        for entry in spans:
            id_map[entry["id"]] = next(self._ids)
        with self._lock:
            for entry in spans:
                old_parent = entry.get("parent")
                merged = dict(entry)
                merged["id"] = id_map[entry["id"]]
                merged["parent"] = id_map.get(old_parent, parent)
                if len(self._spans) == self._spans.maxlen:
                    self._dropped += 1
                self._spans.append(merged)
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges)
        return id_map

    def clear(self) -> None:
        """Drop all recorded spans, counters and gauges."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._gauges.clear()
            self._dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(name={self.name!r}, spans={len(self._spans)}, "
            f"counters={len(self._counters)})"
        )


class NullTracer:
    """The do-nothing tracer: every operation returns immediately.

    ``enabled`` is ``False`` so hot loops can skip even the cheap no-op
    calls for per-item spans.
    """

    enabled = False
    name = "null"

    def span(self, name: str, *, parent: int | None = None,
             detach: bool = False, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, t0: float, t1: float, *,
                    parent: int | None = None, **attrs) -> None:
        return None

    def count(self, name: str, inc: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def spans(self) -> list[dict]:
        return []

    def counters(self) -> dict[str, float]:
        return {}

    def gauges(self) -> dict[str, float]:
        return {}

    def export(self) -> dict:
        return {"name": self.name, "spans": [], "counters": {}, "gauges": {}}

    def absorb(self, trace, *, parent: int | None = None) -> dict[int, int]:
        return {}

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The shared no-op tracer (also the initial module default).
NULL_TRACER = NullTracer()

_TRACER: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide current tracer (the no-op default unless set)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` as the process-wide default (``None`` resets)."""
    global _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Temporarily install ``tracer`` as the module default.

    The previous tracer is restored even on exception.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
