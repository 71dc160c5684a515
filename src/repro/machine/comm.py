"""Inter-processor communication-cost models.

The static-scheduling literature uses a contention-free link model: the
cost of sending ``data`` units from processor ``p`` to processor ``q`` is

    ``time = startup_latency(p, q) + data / bandwidth(p, q)``

and is zero when ``p == q`` (a child co-located with its parent reads the
data from local memory).  That affine per-link cost is the contract:
every model implements :meth:`CommunicationModel.link`, the
``(latency, bandwidth)`` of one ordered pair, and inherits
:meth:`~CommunicationModel.time` from it, so a custom model defines
``link()`` and ``average_time()`` and lowers into the compiled engine
like the built-in ones.  Topology builders in
:mod:`repro.machine.topology` precompute effective per-pair latency and
bandwidth over multi-hop routes, so every topology reduces to
:class:`LinkCommunication` at scheduling time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

from repro.exceptions import MachineError
from repro.types import ProcId


class CommunicationModel(ABC):
    """Abstract per-pair communication-cost model."""

    @abstractmethod
    def link(self, src: ProcId, dst: ProcId) -> tuple[float, float]:
        """``(latency, bandwidth)`` of the ``src -> dst`` link (distinct
        processors; the diagonal is never asked for).

        The contract: latency ``>= 0`` and bandwidth ``> 0``, neither
        NaN, so every transfer costs ``>= 0`` (the compiled engine's
        exact pruning bounds rely on it).  Lowering an instance checks
        every link and raises :class:`~repro.exceptions.MachineError`
        naming the first one that breaks it.
        """

    def time(self, data: float, src: ProcId, dst: ProcId) -> float:
        """Transfer time of ``data`` units from ``src`` to ``dst``:
        0.0 when ``src == dst``, else ``latency + data / bandwidth``."""
        data = self.validate_pair(data)
        if src == dst:
            return 0.0
        lat, bw = self.link(src, dst)
        return lat + data / bw

    @abstractmethod
    def average_time(self, data: float) -> float:
        """Expected transfer time over a uniformly random *distinct* pair.

        This is the quantity the HEFT family averages communication with
        when computing machine-aware task ranks.
        """

    def validate_pair(self, data: float) -> float:
        data = float(data)
        if math.isnan(data) or data < 0:
            raise MachineError(f"data volume must be >= 0, got {data!r}")
        return data


class ZeroCommunication(CommunicationModel):
    """Shared-memory model: all transfers are free.

    Useful for homogeneous shared-memory experiments and as the CCR -> 0
    limit in sweeps.
    """

    def link(self, src: ProcId, dst: ProcId) -> tuple[float, float]:
        return 0.0, math.inf

    def time(self, data: float, src: ProcId, dst: ProcId) -> float:
        # Not ``0.0 + data / inf``: an infinite volume would read NaN.
        self.validate_pair(data)
        return 0.0

    def average_time(self, data: float) -> float:
        self.validate_pair(data)
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ZeroCommunication()"


class UniformCommunication(CommunicationModel):
    """Fully connected network with identical links.

    Parameters
    ----------
    latency:
        Per-message startup cost (>= 0).
    bandwidth:
        Link bandwidth in data units per time unit (> 0).
    """

    def __init__(self, latency: float = 0.0, bandwidth: float = 1.0) -> None:
        if latency < 0 or math.isnan(latency):
            raise MachineError(f"latency must be >= 0, got {latency!r}")
        if bandwidth <= 0 or math.isnan(bandwidth):
            raise MachineError(f"bandwidth must be > 0, got {bandwidth!r}")
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)

    def link(self, src: ProcId, dst: ProcId) -> tuple[float, float]:
        return self.latency, self.bandwidth

    def average_time(self, data: float) -> float:
        data = self.validate_pair(data)
        return self.latency + data / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformCommunication(latency={self.latency}, bandwidth={self.bandwidth})"


class LinkCommunication(CommunicationModel):
    """Explicit per-pair latency/bandwidth tables.

    ``latency[src][dst]`` and ``bandwidth[src][dst]`` must be defined for
    every ordered pair of distinct processors; diagonal entries are
    ignored.  Asymmetric links are allowed.
    """

    def __init__(
        self,
        proc_ids: Sequence[ProcId],
        latency: Mapping[ProcId, Mapping[ProcId, float]],
        bandwidth: Mapping[ProcId, Mapping[ProcId, float]],
    ) -> None:
        self._ids = list(proc_ids)
        if len(set(self._ids)) != len(self._ids):
            raise MachineError("duplicate processor ids in communication model")
        self._lat: dict[ProcId, dict[ProcId, float]] = {}
        self._bw: dict[ProcId, dict[ProcId, float]] = {}
        for src in self._ids:
            self._lat[src] = {}
            self._bw[src] = {}
            for dst in self._ids:
                if src == dst:
                    continue
                try:
                    lat = float(latency[src][dst])
                    bw = float(bandwidth[src][dst])
                except KeyError:
                    raise MachineError(f"missing link {src!r} -> {dst!r}") from None
                if lat < 0 or math.isnan(lat):
                    raise MachineError(f"link {src!r}->{dst!r}: latency must be >= 0")
                if bw <= 0 or math.isnan(bw):
                    raise MachineError(f"link {src!r}->{dst!r}: bandwidth must be > 0")
                self._lat[src][dst] = lat
                self._bw[src][dst] = bw
        n = len(self._ids)
        pairs = max(n * (n - 1), 1)
        self._avg_lat = sum(v for row in self._lat.values() for v in row.values()) / pairs
        inv_bw = sum(1.0 / v for row in self._bw.values() for v in row.values()) / pairs
        self._avg_inv_bw = inv_bw

    def average_time(self, data: float) -> float:
        data = self.validate_pair(data)
        return self._avg_lat + data * self._avg_inv_bw

    def link(self, src: ProcId, dst: ProcId) -> tuple[float, float]:
        """The stored ``(latency, bandwidth)`` of the ``src -> dst`` link.

        The floats are returned verbatim; encoders and the compiled
        lowering read the tables through this rather than re-deriving
        them from :meth:`time`, which loses the last ulp of the
        bandwidth.
        """
        try:
            return self._lat[src][dst], self._bw[src][dst]
        except KeyError:
            raise MachineError(f"unknown link {src!r} -> {dst!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkCommunication(procs={len(self._ids)})"
