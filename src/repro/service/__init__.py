"""repro.service — scheduling as a service.

The serving side of the library: a long-lived asyncio daemon that
accepts "DAG + machine + ETC, schedule it with algorithm X" requests
over local TCP (or in-process), answers repeats from a
content-addressed cache keyed on
:meth:`repro.instance.Instance.fingerprint`, fans cold requests out to
a process pool, and exposes its own counters and latency percentiles.

Pieces
------
* :mod:`repro.service.engine` — coalescing compute core
  (:class:`SchedulingEngine`, :class:`EngineConfig`)
* :mod:`repro.service.cache` — content-addressed LRU
  (:class:`ScheduleCache`, :func:`request_key`)
* :mod:`repro.service.metrics` — counters + p50/p95/p99
  (:class:`ServiceMetrics`, :class:`ServiceStats`)
* :mod:`repro.service.server` / :mod:`repro.service.client` — minimal
  HTTP endpoint and matching async client
* :mod:`repro.service.http` — the HTTP/1.1 framing both of them and the
  fleet router use
* :mod:`repro.service.protocol` — request/response documents and the
  picklable cold-path compute function
* :mod:`repro.service.fleet` — horizontal scale-out: consistent-hash
  router + multi-daemon manager (:class:`FleetRouter`,
  :class:`FleetManager`, :class:`HashRing`)

Quickstart (in-process)::

    engine = SchedulingEngine(EngineConfig(workers=2))
    await engine.start()
    payload = await engine.submit(instance, "IMP")
    await engine.stop()

Quickstart (daemon)::

    $ repro-sched serve --port 8787 --workers 4 &
    $ repro-sched submit --dag graph.json --alg IMP --endpoint 127.0.0.1:8787
"""

from repro.service.cache import ScheduleCache, SegmentStore, request_key
from repro.service.client import ServiceClient, parse_endpoint
from repro.service.engine import EngineConfig, SchedulingEngine
from repro.service.errors import (
    RequestError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    StaleConnectionError,
    TransportError,
    WireFormatError,
    WireVersionError,
    WorkerError,
)
from repro.service.faults import FaultInjected, FaultPlan, FaultRule
from repro.service.fleet import (
    FleetManager,
    FleetRouter,
    FleetSpawnError,
    HashRing,
)
from repro.service.metrics import ServiceMetrics, ServiceStats
from repro.service.protocol import ScheduleResult, compute_schedule_payload
from repro.service.resilience import Deadline, RetryPolicy, RetryStats
from repro.service.server import ScheduleServer
from repro.service.wire import BINARY_CONTENT_TYPE, WIRE_VERSION

__all__ = [
    "BINARY_CONTENT_TYPE",
    "Deadline",
    "EngineConfig",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "FleetManager",
    "FleetRouter",
    "FleetSpawnError",
    "HashRing",
    "RequestError",
    "RetryPolicy",
    "RetryStats",
    "ScheduleCache",
    "ScheduleResult",
    "ScheduleServer",
    "SchedulingEngine",
    "SegmentStore",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "ServiceStats",
    "ServiceTimeoutError",
    "StaleConnectionError",
    "TransportError",
    "WIRE_VERSION",
    "WireFormatError",
    "WireVersionError",
    "WorkerError",
    "compute_schedule_payload",
    "parse_endpoint",
    "request_key",
]
