"""Expected-time-to-compute (ETC) matrices.

The ETC matrix gives the estimated execution time of every task on every
processor and is how the literature expresses *computation*
heterogeneity.  Two generation protocols are provided:

* **range-based** (Topcuoglu et al., TPDS 2002): each task ``i`` has an
  average cost ``w_i`` (taken from the DAG's nominal cost) and
  ``w[i][p]`` is drawn uniformly from ``[w_i*(1-β/2), w_i*(1+β/2)]``
  where ``β`` is the heterogeneity factor.  ``β = 0`` degenerates to a
  homogeneous system.
* **CVB** (coefficient-of-variation based, Ali et al., 2000): gamma
  distributed task and machine factors with coefficients of variation
  ``v_task`` and ``v_machine``.

Both support the three consistency classes of the literature:
``consistent`` (processor ordering identical for every task — i.e. some
machines are uniformly faster), ``inconsistent`` (no structure) and
``partially-consistent`` (consistent on half of the processors).
"""

from __future__ import annotations

import math
from typing import Literal, Mapping, Sequence

import numpy as np

from repro.dag.graph import TaskDAG
from repro.exceptions import (
    ConfigurationError,
    CostError,
    MachineError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.machine.cluster import Machine
from repro.types import ProcId, TaskId
from repro.utils.rng import SeedLike, as_generator

Consistency = Literal["consistent", "inconsistent", "partially-consistent"]

#: Row reductions behind :meth:`ETCMatrix.row_aggregate`, one per rank
#: aggregation (see ``repro.schedulers.ranking.RankAggregation``).
_ROW_REDUCTIONS = {
    "mean": lambda w: w.mean(axis=1),
    "median": lambda w: np.median(w, axis=1),
    "best": lambda w: w.min(axis=1),
    "worst": lambda w: w.max(axis=1),
}


class ETCMatrix:
    """Dense task x processor execution-time table with id-based access."""

    def __init__(
        self,
        task_ids: Sequence[TaskId],
        proc_ids: Sequence[ProcId],
        values: np.ndarray,
    ) -> None:
        # An own C-contiguous read-only copy: a caller mutating its array
        # afterwards must not change the matrix (or desync the cached
        # aggregates and every kernel snapshot built from it).
        values = np.array(values, dtype=float, order="C")
        if values.shape != (len(task_ids), len(proc_ids)):
            raise MachineError(
                f"ETC shape {values.shape} does not match "
                f"{len(task_ids)} tasks x {len(proc_ids)} processors"
            )
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise CostError("ETC entries must be finite and >= 0")
        self._tasks = list(task_ids)
        self._procs = list(proc_ids)
        self._trow: dict[TaskId, int] = {t: i for i, t in enumerate(self._tasks)}
        self._pcol: dict[ProcId, int] = {p: j for j, p in enumerate(self._procs)}
        if len(self._trow) != len(self._tasks):
            raise MachineError("duplicate task ids in ETC")
        if len(self._pcol) != len(self._procs):
            raise MachineError("duplicate processor ids in ETC")
        values.flags.writeable = False
        self._w = values
        self._aggs: dict[str, list[float]] = {}

    # -- access --------------------------------------------------------
    def time(self, task: TaskId, proc: ProcId) -> float:
        """Execution time of ``task`` on ``proc``."""
        i = self._row_index(task)
        try:
            j = self._pcol[proc]
        except KeyError:
            raise UnknownProcessorError(proc) from None
        return float(self._w[i, j])

    def row(self, task: TaskId) -> Mapping[ProcId, float]:
        """All per-processor times of one task."""
        i = self._row_index(task)
        return {p: float(self._w[i, j]) for j, p in enumerate(self._procs)}

    def row_aggregate(self, agg: str) -> list[float]:
        """One aggregate (``mean``, ``median``, ``best`` = min or
        ``worst`` = max) of every row, in :attr:`task_ids` order.

        Computed once per aggregation by one axis reduction over the
        C-contiguous matrix, which gives each row the float a reduction
        of that row alone gives.  The list is shared: treat it as
        read-only.
        """
        cached = self._aggs.get(agg)
        if cached is None:
            reduce = _ROW_REDUCTIONS.get(agg)
            if reduce is None:
                raise ConfigurationError(f"unknown rank aggregation {agg!r}")
            cached = self._aggs[agg] = reduce(self._w).tolist()
        return cached

    def _row_index(self, task: TaskId) -> int:
        try:
            return self._trow[task]
        except KeyError:
            raise UnknownTaskError(task) from None

    def mean(self, task: TaskId) -> float:
        """Mean execution time of a task across processors (HEFT's w̄)."""
        return self.row_aggregate("mean")[self._row_index(task)]

    def median(self, task: TaskId) -> float:
        return self.row_aggregate("median")[self._row_index(task)]

    def best(self, task: TaskId) -> float:
        """Minimum (fastest-processor) execution time of a task."""
        return self.row_aggregate("best")[self._row_index(task)]

    def worst(self, task: TaskId) -> float:
        """Maximum (slowest-processor) execution time of a task."""
        return self.row_aggregate("worst")[self._row_index(task)]

    def best_proc(self, task: TaskId) -> ProcId:
        """Processor on which the task runs fastest (deterministic ties)."""
        i = self._row_index(task)
        return self._procs[int(np.argmin(self._w[i]))]

    @property
    def task_ids(self) -> list[TaskId]:
        return list(self._tasks)

    @property
    def proc_ids(self) -> list[ProcId]:
        return list(self._procs)

    def as_array(self) -> np.ndarray:
        """Copy of the underlying (tasks x procs) array."""
        return self._w.copy()

    def is_consistent(self) -> bool:
        """True if one processor ordering is fastest for every task."""
        if self._w.shape[0] <= 1 or self._w.shape[1] <= 1:
            return True
        order = np.argsort(self._w[0], kind="stable")
        sorted_rows = self._w[:, order]
        return bool(np.all(np.diff(sorted_rows, axis=1) >= -1e-12))

    def heterogeneity(self) -> float:
        """Mean relative spread ``(max-min)/mean`` across tasks.

        0.0 for a homogeneous matrix; grows with β.
        """
        means = self._w.mean(axis=1)
        spread = self._w.max(axis=1) - self._w.min(axis=1)
        mask = means > 0
        if not np.any(mask):
            return 0.0
        return float((spread[mask] / means[mask]).mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ETCMatrix(tasks={len(self._tasks)}, procs={len(self._procs)})"


def etc_from_speeds(dag: TaskDAG, machine: Machine) -> ETCMatrix:
    """Derive a (fully consistent) ETC matrix from processor speeds.

    ``etc[i][p] = cost_i / speed_p`` — the natural model for homogeneous
    machines and speed-scaled heterogeneous ones.
    """
    tasks = list(dag.tasks())
    procs = machine.proc_ids()
    costs = np.array([dag.cost(t) for t in tasks], dtype=float)
    speeds = np.array([machine.speed(p) for p in procs], dtype=float)
    return ETCMatrix(tasks, procs, costs[:, None] / speeds[None, :])


def _apply_consistency(
    w: np.ndarray, consistency: Consistency, rng: np.random.Generator
) -> np.ndarray:
    """Impose a consistency class on an unstructured sample matrix."""
    if consistency == "inconsistent":
        return w
    if consistency == "consistent":
        # Sorting every row by one global processor order makes machine j
        # faster than machine k for *all* tasks.
        return np.sort(w, axis=1)
    if consistency == "partially-consistent":
        # Classic construction: sort only the even-indexed columns.
        out = w.copy()
        even = np.arange(0, w.shape[1], 2)
        out[:, even] = np.sort(w[:, even], axis=1)
        return out
    raise MachineError(f"unknown consistency class {consistency!r}")


def generate_etc(
    dag: TaskDAG,
    machine: Machine,
    heterogeneity: float = 0.5,
    consistency: Consistency = "inconsistent",
    method: Literal["range", "cvb"] = "range",
    v_machine: float | None = None,
    seed: SeedLike = None,
) -> ETCMatrix:
    """Generate an ETC matrix for ``dag`` on ``machine``.

    Parameters
    ----------
    heterogeneity:
        The β factor of the range-based protocol, in [0, 2): entry
        ``w[i][p] ~ U[w_i (1-β/2), w_i (1+β/2)]``.  For the CVB method it
        is interpreted as the task coefficient of variation.  β = 0
        produces a homogeneous matrix equal to the nominal costs.
    consistency:
        Consistency class (see module docstring).
    method:
        ``"range"`` (default, the TPDS-2002 protocol) or ``"cvb"``.
    v_machine:
        CVB machine coefficient of variation (defaults to
        ``heterogeneity``); ignored by the range method.
    seed:
        Seed or generator for reproducibility.
    """
    if heterogeneity < 0:
        raise MachineError(f"heterogeneity must be >= 0, got {heterogeneity}")
    rng = as_generator(seed)
    tasks = list(dag.tasks())
    procs = machine.proc_ids()
    n, q = len(tasks), len(procs)
    costs = np.array([dag.cost(t) for t in tasks], dtype=float)

    if n == 0:
        return ETCMatrix(tasks, procs, np.zeros((0, q)))

    if method == "range":
        if heterogeneity >= 2:
            raise MachineError("range method requires heterogeneity < 2 (else negative times)")
        lo = costs * (1 - heterogeneity / 2)
        hi = costs * (1 + heterogeneity / 2)
        w = rng.uniform(lo[:, None], np.maximum(hi, lo + 1e-300)[:, None], size=(n, q))
        # Zero-cost tasks (virtual endpoints) must stay exactly zero.
        w[costs == 0, :] = 0.0
    elif method == "cvb":
        v_task = heterogeneity
        v_mach = heterogeneity if v_machine is None else v_machine
        if v_task <= 0 or v_mach <= 0:
            # Degenerate CV: no variation on that axis.
            task_factor = np.ones(n) if v_task <= 0 else None
            mach_factor = np.ones(q) if v_mach <= 0 else None
        else:
            task_factor = mach_factor = None
        if task_factor is None:
            alpha_t = 1.0 / (v_task * v_task)
            task_factor = rng.gamma(shape=alpha_t, scale=1.0 / alpha_t, size=n)
        if mach_factor is None:
            alpha_m = 1.0 / (v_mach * v_mach)
            mach_factor = rng.gamma(shape=alpha_m, scale=1.0 / alpha_m, size=(n, q))
        w = costs[:, None] * task_factor[:, None] * mach_factor
        w[costs == 0, :] = 0.0
    else:
        raise MachineError(f"unknown ETC method {method!r}")

    w = _apply_consistency(w, consistency, rng)
    if math.isclose(heterogeneity, 0.0):
        # β = 0 must be *exactly* homogeneous for the homogeneous benches.
        w = np.repeat(costs[:, None], q, axis=1)
    return ETCMatrix(tasks, procs, w)
