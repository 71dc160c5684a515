"""Built-in service metrics: counters, gauges and latency percentiles.

Everything is process-local and loop-thread-only (no locks), updated by
the engine and the server, and exposed two ways:

* :meth:`ServiceMetrics.snapshot` — a frozen :class:`ServiceStats`
  dataclass, the programmatic API used by tests and the in-process
  client;
* :meth:`ServiceMetrics.render` — a Prometheus-style text exposition
  served under ``GET /metrics``.

Latency percentiles come from a sliding reservoir of the most recent
completions (default 2048), which bounds memory while tracking the
distribution the operator actually cares about: *recent* tail latency.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass

from repro.utils.stats import percentile


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the service counters."""

    requests: int = 0
    completed: int = 0
    errors: int = 0
    rejected: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    cache_evictions: int = 0
    coalesced: int = 0
    retries: int = 0
    respawns: int = 0
    batches: int = 0
    batched_jobs: int = 0
    lowering_hits: int = 0
    lowering_misses: int = 0
    compiled_schedules: int = 0
    compiled_fallbacks: int = 0
    queue_depth: int = 0
    inflight: int = 0
    workers: int = 0
    uptime_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all lookups (0.0 before any lookup)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class ServiceMetrics:
    """Mutable counter bundle behind :class:`ServiceStats` snapshots."""

    def __init__(self, reservoir_size: int = 2048) -> None:
        self.requests = 0
        self.completed = 0
        self.errors = 0
        self.rejected = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.retries = 0
        self.respawns = 0
        self.batches = 0
        self.batched_jobs = 0
        self.lowering_hits = 0
        self.lowering_misses = 0
        self.compiled_schedules = 0
        self.compiled_fallbacks = 0
        self._latencies_ms: deque[float] = deque(maxlen=reservoir_size)
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def request(self) -> None:
        self.requests += 1

    def complete(self, latency_ms: float) -> None:
        self.completed += 1
        self._latencies_ms.append(latency_ms)

    def error(self) -> None:
        self.errors += 1

    def reject(self) -> None:
        self.rejected += 1

    def timeout(self) -> None:
        self.timeouts += 1

    def cache_hit(self) -> None:
        self.cache_hits += 1

    def cache_miss(self) -> None:
        self.cache_misses += 1

    def coalesce(self) -> None:
        self.coalesced += 1

    def retry(self) -> None:
        """One transparent re-execution of an in-flight job (pool heal)."""
        self.retries += 1

    def respawn(self) -> None:
        """One successful worker-pool respawn."""
        self.respawns += 1

    def batch(self, size: int) -> None:
        self.batches += 1
        self.batched_jobs += size

    def worker_stats(self, deltas: dict) -> None:
        """Fold one worker call's counter deltas into the totals.

        Workers are separate processes, so their lowering-memo and
        compiled-executor counters can't be read directly; each cold
        call ships its deltas back with the payload and the engine
        accumulates them here for ``/metrics``.
        """
        self.lowering_hits += int(deltas.get("lowering_hits", 0))
        self.lowering_misses += int(deltas.get("lowering_misses", 0))
        self.compiled_schedules += int(deltas.get("compiled_schedules", 0))
        self.compiled_fallbacks += int(deltas.get("compiled_fallbacks", 0))

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def snapshot(
        self,
        queue_depth: int = 0,
        inflight: int = 0,
        workers: int = 0,
        cache_size: int = 0,
        cache_evictions: int = 0,
    ) -> ServiceStats:
        lat = list(self._latencies_ms)
        return ServiceStats(
            requests=self.requests,
            completed=self.completed,
            errors=self.errors,
            rejected=self.rejected,
            timeouts=self.timeouts,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_size=cache_size,
            cache_evictions=cache_evictions,
            coalesced=self.coalesced,
            retries=self.retries,
            respawns=self.respawns,
            batches=self.batches,
            batched_jobs=self.batched_jobs,
            lowering_hits=self.lowering_hits,
            lowering_misses=self.lowering_misses,
            compiled_schedules=self.compiled_schedules,
            compiled_fallbacks=self.compiled_fallbacks,
            queue_depth=queue_depth,
            inflight=inflight,
            workers=workers,
            uptime_s=time.monotonic() - self._started,
            p50_ms=percentile(lat, 50),
            p95_ms=percentile(lat, 95),
            p99_ms=percentile(lat, 99),
        )

    def render(self, extra: str = "", **gauges) -> str:
        """Prometheus-style text form of :meth:`snapshot`.

        Counter names carry the conventional ``_total`` suffix; gauges
        and summaries keep their snapshot names.  ``extra`` is appended
        verbatim — the engine uses it to unify its tracer's counters
        (:func:`repro.obs.to_prometheus`) into the same exposition.
        """
        stats = self.snapshot(**gauges)
        counters = {
            "requests",
            "completed",
            "errors",
            "rejected",
            "timeouts",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "coalesced",
            "retries",
            "respawns",
            "batches",
            "batched_jobs",
            "lowering_hits",
            "lowering_misses",
            "compiled_schedules",
            "compiled_fallbacks",
        }
        lines = []
        for name, value in stats.as_dict().items():
            metric = f"repro_service_{name}" + ("_total" if name in counters else "")
            lines.append(f"{metric} {value:g}")
        text = "\n".join(lines) + "\n"
        if extra:
            text += extra if extra.endswith("\n") else extra + "\n"
        return text
