"""Counters, percentiles and the Prometheus exposition."""

from __future__ import annotations

from repro.service.metrics import ServiceMetrics, ServiceStats
from repro.utils.stats import percentile


def test_percentile_empty_is_zero():
    assert percentile([], 50) == 0.0
    assert percentile([], 99) == 0.0


def test_percentile_nearest_rank():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0


def test_percentile_order_independent():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_percentile_nearest_rank_uses_ceil():
    # Regression: banker's round() picked rank 94 for p95 of 99 samples
    # (0.95 * 99 = 94.05 -> round 94); nearest-rank is ceil -> 95.
    samples = [float(i) for i in range(1, 100)]  # 1..99
    assert percentile(samples, 95) == 95.0
    assert percentile(samples, 99) == 99.0  # ceil(98.01) = 99, round gave 98
    assert percentile(samples, 50) == 50.0  # ceil(49.5) = 50, round gave 50 too


def test_percentile_small_sample_ceil_pins():
    # n=2: p50 must be the first sample (ceil(1.0)=1), p51 the second.
    assert percentile([10.0, 20.0], 50) == 10.0
    assert percentile([10.0, 20.0], 51) == 20.0
    # n=1: every quantile is the sample itself.
    assert percentile([7.0], 1) == 7.0
    assert percentile([7.0], 99) == 7.0
    # n=4: ceil(0.25*4)=1 keeps p25 at the minimum, round would too,
    # but p26 must step to the second sample (ceil(1.04)=2).
    assert percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 26) == 2.0


def test_percentile_zero_q_clamps_to_minimum():
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0


def test_snapshot_counts_and_latency():
    m = ServiceMetrics()
    for _ in range(3):
        m.request()
    m.cache_miss()
    m.complete(10.0)
    m.cache_hit()
    m.complete(1.0)
    m.reject()
    m.timeout()
    m.error()
    m.coalesce()
    m.batch(4)
    stats = m.snapshot(queue_depth=2, inflight=1, workers=2, cache_size=7,
                       cache_evictions=1)
    assert stats.requests == 3
    assert stats.completed == 2
    assert stats.cache_hits == 1 and stats.cache_misses == 1
    assert stats.rejected == 1 and stats.timeouts == 1 and stats.errors == 1
    assert stats.coalesced == 1
    assert stats.batches == 1 and stats.batched_jobs == 4
    assert stats.queue_depth == 2 and stats.inflight == 1 and stats.workers == 2
    assert stats.cache_size == 7 and stats.cache_evictions == 1
    assert stats.p50_ms in (1.0, 10.0)
    assert stats.uptime_s >= 0.0
    assert 0.0 < stats.hit_rate < 1.0


def test_hit_rate_zero_before_any_lookup():
    assert ServiceStats().hit_rate == 0.0


def test_reservoir_is_sliding():
    m = ServiceMetrics(reservoir_size=4)
    for ms in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
        m.complete(ms)
    assert m.snapshot().p99_ms == 1.0  # old spikes aged out


def test_render_prometheus_shape():
    m = ServiceMetrics()
    m.request()
    m.cache_miss()
    m.complete(5.0)
    text = m.render(queue_depth=3, workers=2)
    lines = dict(line.rsplit(" ", 1) for line in text.strip().splitlines())
    assert lines["repro_service_requests_total"] == "1"
    assert lines["repro_service_cache_misses_total"] == "1"
    assert lines["repro_service_queue_depth"] == "3"
    assert lines["repro_service_workers"] == "2"
    assert float(lines["repro_service_p50_ms"]) == 5.0
    assert text.endswith("\n")


def test_stats_as_dict_round_trip():
    stats = ServiceMetrics().snapshot()
    assert ServiceStats(**stats.as_dict()) == stats
