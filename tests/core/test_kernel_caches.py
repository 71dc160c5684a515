"""Bounding policy of the per-instance kernel caches.

Every lazy cache on :class:`~repro.kernels.InstanceKernel` is either
keyed by a validated rank aggregation (bounded at 4 entries) or a
singleton memo; ``cache_info()`` exposes sizes and caps so this is an
asserted invariant, not a comment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.exceptions import ConfigurationError


@pytest.fixture
def instance():
    return W.random_instance(np.random.default_rng(21), num_tasks=15, num_procs=4)


def _assert_bounded(info):
    for name, entry in info.items():
        assert entry["size"] <= entry["maxsize"], (name, entry)


def test_caches_start_empty_and_stay_bounded(instance):
    kernel = instance.kernel
    info = kernel.cache_info()
    assert all(entry["size"] == 0 for entry in info.values()), info
    _assert_bounded(info)
    for agg in ("mean", "median", "best", "worst"):
        kernel.upward(agg)
        kernel.downward(agg)
        kernel.rank_order(agg)
        _assert_bounded(kernel.cache_info())
    kernel.exec_table()
    kernel.compiled()
    info = kernel.cache_info()
    _assert_bounded(info)
    assert info["weights"]["size"] == 4
    assert info["rank_order"]["size"] == 4
    assert info["compiled"]["size"] == 1
    assert info["exec_table"]["size"] == 1


def test_unknown_aggregation_rejected_before_caching(instance):
    kernel = instance.kernel
    for call in (kernel.weights, kernel.upward, kernel.downward, kernel.rank_order):
        with pytest.raises(ConfigurationError):
            call("p99")
    assert all(entry["size"] == 0 for entry in kernel.cache_info().values())


def test_repeat_calls_return_cached_objects(instance):
    kernel = instance.kernel
    assert kernel.rank_order("mean") is kernel.rank_order("mean")
    assert kernel.compiled() is kernel.compiled()
    assert kernel.upward("best") is kernel.upward("best")
    info = kernel.cache_info()
    assert info["rank_order"]["size"] == 1
    # rank_order("mean") pulled upward("mean") in; plus the explicit "best".
    assert info["upward"]["size"] == 2


def test_rank_order_matches_decoder(instance):
    from repro.schedulers.meta.decoder import rank_order
    from repro.schedulers.ranking import upward_ranks_scalar

    ranks = upward_ranks_scalar(instance)
    pos = {t: i for i, t in enumerate(instance.dag.topological_order())}
    legacy = sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))
    cached = rank_order(instance)
    assert cached == legacy
    # The decoder hands out a copy; mutating it must not poison the cache.
    cached.reverse()
    assert rank_order(instance) == legacy
