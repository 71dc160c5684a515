"""Descriptive statistics used by metrics and the bench harness.

These are intentionally dependency-light (plain ``math``/``numpy``) and
defined once so every experiment reports averages the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _as_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sequence of numbers")
    return arr


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("mean of empty sequence")
    return float(arr.mean())


def median(values: Iterable[float]) -> float:
    """Median; raises on an empty sequence."""
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("median of empty sequence")
    return float(np.median(arr))


def stdev(values: Iterable[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for a single value."""
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("stdev of empty sequence")
    if arr.size == 1:
        return 0.0
    return float(arr.std(ddof=1))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of raw samples.

    Nearest-rank is defined with a *ceiling*: the result is the smallest
    sample such that at least ``q`` percent of the data is <= to it,
    i.e. ``ordered[ceil(q/100 * n)]`` (1-based).  Banker's ``round()``
    here would under-report by one rank whenever the fractional rank
    falls below .5 (e.g. p95 of 99 samples is rank 95, not 94).

    Returns 0.0 on an empty sample set — a metrics endpoint should
    render before the first request, not raise.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The canonical aggregate for ratio metrics such as SLR across
    heterogeneous workloads.
    """
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def confidence_interval95(values: Iterable[float]) -> tuple[float, float]:
    """Normal-approximation 95% confidence interval of the mean.

    Returns ``(lo, hi)``.  With fewer than two samples the interval
    degenerates to the point estimate.
    """
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("confidence interval of empty sequence")
    m = float(arr.mean())
    if arr.size < 2:
        return (m, m)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (m - half, m + half)


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample used in experiment reports."""

    n: int
    mean: float
    stdev: float
    min: float
    max: float
    median: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean:.4g} sd={self.stdev:.4g} "
            f"min={self.min:.4g} med={self.median:.4g} max={self.max:.4g}"
        )


def describe(values: Sequence[float]) -> Summary:
    """Summarise a sample into a :class:`Summary`."""
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("describe of empty sequence")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        stdev=0.0 if arr.size == 1 else float(arr.std(ddof=1)),
        min=float(arr.min()),
        max=float(arr.max()),
        median=float(np.median(arr)),
    )
