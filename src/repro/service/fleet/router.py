"""Consistent-hash front door: one endpoint, N scheduling daemons.

:class:`FleetRouter` is the fleet's single client-facing listener.  It
frames requests and responses with :mod:`repro.service.http`, the module
the daemon and the client use — the JSON *and* binary wire protocols
pass through byte-for-byte unchanged — and proxies every schedule
request to the backend shard that owns the instance's fingerprint on a
:class:`~repro.service.fleet.ring.HashRing`.  Ownership is the whole
design: every fingerprint has exactly one cache owner, so a warm hit is
warm *fleet-wide* — no shard ever recomputes what a sibling already
holds, and the aggregate cache is the sum of the shards' caches.

Routing never decodes an instance:

* binary requests carry the fingerprint in their fixed prefix
  (:func:`repro.service.wire.peek_request_fingerprint` reads it without
  touching the instance blob);
* JSON requests from this library's client carry it in the
  ``X-Repro-Fingerprint`` header;
* anything else (curl, foreign clients) falls back to the SHA-256 of
  the request body — still deterministic, so byte-identical resubmits
  keep one owner and the shard's exact-body fast path answers them.

Failure handling is layered.  Every proxy attempt that dies in transport
(refused connection, reset, mid-response EOF, a malformed response) is
retried transparently on the key's *next* ring owner — safe because
scheduling is pure and content-addressed, and exactly where the key
re-homes once the dead shard leaves the ring.  Repeated failures
quarantine the shard (ring rehash); an active health-check loop probes
every registered shard and re-admits it when it answers again, warm
cache and all.  Non-schedule surfaces are fleet-aware: ``/metrics`` and
``/v1/stats`` aggregate over the live shards (sums for counters and
gauges, maxima for latency percentiles), ``/healthz`` reports fleet
liveness, and ``/v1/shutdown`` drains every shard.

The router holds no schedule state — only sockets and the ring — so it
stays I/O-bound: per request it parses one header block, one SHA-256 at
worst, a bisect, and two socket round trips over pooled keep-alive
backend connections.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field

from repro.obs import NullTracer, Tracer, get_tracer
from repro.service import http, wire
from repro.service.errors import StaleConnectionError, TransportError
from repro.service.fleet.ring import HashRing

__all__ = ["FleetRouter", "FleetStats", "Shard"]

#: Headers copied verbatim from the client request to the backend (the
#: ones that change what the backend computes or how it answers).
_FORWARD_HEADERS = (
    ("content-type", "Content-Type"),
    ("accept", "Accept"),
    ("x-repro-deadline", "X-Repro-Deadline"),
    ("x-repro-fingerprint", "X-Repro-Fingerprint"),
)

#: Headers copied verbatim from the backend response to the client.
_RELAY_HEADERS = (
    ("content-type", "Content-Type"),
    ("retry-after", "Retry-After"),
)


@dataclass
class Shard:
    """One registered backend daemon and its routing state."""

    name: str
    host: str
    port: int
    alive: bool = True          #: currently on the ring
    failures: int = 0           #: consecutive proxy/health failures
    proxied: int = 0            #: requests answered by this shard
    quarantines: int = 0        #: times this shard was taken off the ring

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class FleetStats:
    """Router-side counters (shard counters live in the shards)."""

    requests: int = 0           #: schedule requests routed
    proxied: int = 0            #: proxy attempts that returned a response
    retries: int = 0            #: attempts re-routed to a next owner
    quarantines: int = 0        #: shards taken off the ring
    readmissions: int = 0       #: shards health-checked back onto the ring
    no_backend: int = 0         #: requests failed with no live shard
    key_sources: dict = field(default_factory=dict)  #: header/wire/body counts

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "proxied": self.proxied,
            "retries": self.retries,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "no_backend": self.no_backend,
            "key_sources": dict(self.key_sources),
        }


class FleetRouter:
    """Routes one service endpoint across N backend shards."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8800,
                 vnodes: int = 128, fail_threshold: int = 2,
                 health_interval: float = 0.5,
                 probe_timeout: float = 2.0,
                 backend_timeout: float = 300.0,
                 tracer: Tracer | NullTracer | None = None) -> None:
        if fail_threshold < 1:
            raise ValueError(f"fail_threshold must be >= 1, got {fail_threshold}")
        self.host = host
        self._port = port
        self.ring = HashRing(vnodes=vnodes)
        self.stats = FleetStats()
        self.fail_threshold = fail_threshold
        self.health_interval = health_interval
        self.probe_timeout = probe_timeout
        self.backend_timeout = backend_timeout
        self._tracer = tracer
        self._shards: dict[str, Shard] = {}
        # Idle keep-alive connections per shard, reused across requests.
        self._pools: dict[str, list[tuple[asyncio.StreamReader,
                                          asyncio.StreamWriter]]] = {}
        self._server: asyncio.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._conns: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Tracer | NullTracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def shards(self) -> dict[str, Shard]:
        """Registered shards by name (live and quarantined)."""
        return dict(self._shards)

    def alive_shards(self) -> list[Shard]:
        return [s for s in self._shards.values() if s.alive]

    def add_shard(self, name: str, host: str, port: int) -> None:
        """Register a backend and put it on the ring."""
        self._shards[name] = Shard(name=name, host=host, port=port)
        self._pools.setdefault(name, [])
        self.ring.add(name)

    def remove_shard(self, name: str) -> None:
        """Deregister a backend entirely (quarantine keeps it registered)."""
        self._shards.pop(name, None)
        self.ring.remove(name)
        self._drain_pool(name)

    def update_shard(self, name: str, host: str, port: int) -> None:
        """Point a registered shard at a new address (post-respawn).

        The ring hashes the shard *name*, not the address, so the
        shard's keyspace — and its on-disk cache segment — survives the
        address change; only the connection pool is dropped.
        """
        shard = self._shards.get(name)
        if shard is None:
            self.add_shard(name, host, port)
            return
        shard.host = host
        shard.port = port
        self._drain_pool(name)

    def quarantine(self, name: str, cause: str = "") -> None:
        """Take a shard off the ring; its keys re-home to ring successors."""
        shard = self._shards.get(name)
        if shard is None or not shard.alive:
            return
        shard.alive = False
        shard.quarantines += 1
        self.stats.quarantines += 1
        self.ring.remove(name)
        self._drain_pool(name)
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("fleet.quarantines")
            with tracer.span("fleet.quarantine", detach=True, shard=name,
                             cause=cause or "proxy-failure"):
                pass

    def readmit(self, name: str) -> None:
        """Put a health-checked shard back on the ring."""
        shard = self._shards.get(name)
        if shard is None or shard.alive:
            return
        shard.alive = True
        shard.failures = 0
        self.stats.readmissions += 1
        self.ring.add(name)
        if self.tracer.enabled:
            self.tracer.count("fleet.readmissions")

    def _drain_pool(self, name: str) -> None:
        for _, writer in self._pools.get(name, []):
            writer.close()
        self._pools[name] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self._port)
        if self.health_interval > 0:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="fleet-health"
            )

    @property
    def bound_port(self) -> int | None:
        """The actually-bound listener port (``None`` before start)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return None

    @property
    def port(self) -> int:
        return self.bound_port if self.bound_port is not None else self._port

    def request_shutdown(self) -> None:
        self._shutdown.set()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conns):
            writer.close()
        for name in list(self._pools):
            self._drain_pool(name)
        self._shutdown.set()

    # ------------------------------------------------------------------
    # health checks
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.check_health()

    async def check_health(self) -> dict[str, bool]:
        """Probe every registered shard once; quarantine/readmit.

        Returns ``{shard_name: healthy}`` — callable directly by tests
        and by the manager after a respawn, without waiting a cycle.
        """
        results: dict[str, bool] = {}
        for shard in list(self._shards.values()):
            healthy = await self._probe(shard)
            results[shard.name] = healthy
            if healthy:
                if not shard.alive:
                    self.readmit(shard.name)
                shard.failures = 0
            else:
                shard.failures += 1
                if shard.alive and shard.failures >= self.fail_threshold:
                    self.quarantine(shard.name, cause="health-check")
        return results

    async def _probe(self, shard: Shard) -> bool:
        """One ``GET /healthz`` against a shard; healthy = ok + not draining."""
        body = await self._backend_call(shard, "GET", "/healthz")
        if body is None:
            return False
        try:
            doc = json.loads(body.decode("utf-8"))
        except ValueError:
            return False
        return doc.get("status") == "ok" and not doc.get("draining", False)

    # ------------------------------------------------------------------
    # connection handling (client side)
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._conns.add(writer)
        try:
            await http.serve_connection(reader, writer, self._route,
                                        lambda: self._server is not None)
        finally:
            self._conns.discard(writer)

    async def _route(self, request: http.Request) -> http.Reply:
        method, path = request.method, request.path
        if path == "/healthz":
            alive = len(self.alive_shards())
            return http.json_response(200, {
                "status": "ok" if alive else "error",
                "draining": alive == 0,
                "fleet": {"shards": len(self._shards), "alive": alive},
            })
        if path == "/metrics":
            return (200, "text/plain; version=0.0.4",
                    (await self.render_metrics()).encode(), {})
        if path == "/v1/stats":
            return await self._aggregate_stats()
        if path == "/v1/shutdown":
            if method != "POST":
                return http.json_response(405, {"status": "error", "error": "use POST"})
            await self._broadcast_shutdown()
            asyncio.get_running_loop().call_soon(self.request_shutdown)
            return http.json_response(200, {"status": "ok", "shutting_down": True})
        if path == "/v1/schedule":
            if method != "POST":
                return http.json_response(405, {"status": "error", "error": "use POST"})
            return await self._route_schedule(request.body, request.headers)
        return http.json_response(404, {"status": "error", "error": f"no such route {path}"})

    # ------------------------------------------------------------------
    # schedule routing
    # ------------------------------------------------------------------
    def routing_key(self, body: bytes, headers: dict[str, str]) -> tuple[str, str]:
        """The ``(key, source)`` a schedule request routes by.

        Preference order: the ``X-Repro-Fingerprint`` header, the
        fingerprint in a binary request's fixed prefix, then the SHA-256
        of the body.  All are deterministic, so one request body always
        has one owner; the first two are *content* addresses, so every
        serialisation of the same instance shares that owner.
        """
        fp = headers.get("x-repro-fingerprint", "").strip()
        if fp:
            return fp, "header"
        if wire.is_wire(body):
            try:
                fp = wire.peek_request_fingerprint(body)
            except Exception:
                fp = ""
            if fp:
                return fp, "wire"
        return hashlib.sha256(body).hexdigest(), "body"

    async def _route_schedule(self, body: bytes, headers: dict[str, str]):
        self.stats.requests += 1
        tracer = self.tracer
        key, source = self.routing_key(body, headers)
        self.stats.key_sources[source] = self.stats.key_sources.get(source, 0) + 1
        with tracer.span("fleet.route", detach=True, key=key[:12],
                         source=source) as route_span:
            attempts = 0
            tried: set[str] = set()
            while True:
                shard = self._next_owner(key, tried)
                if shard is None:
                    self.stats.no_backend += 1
                    if tracer.enabled:
                        tracer.count("fleet.no_backend")
                    return http.json_response(503, {
                        "status": "error",
                        "error": "no live backend shard for this request; "
                                 "fleet is rebuilding, retry later",
                    }, {"Retry-After": f"{max(self.health_interval, 0.1):g}"})
                tried.add(shard.name)
                try:
                    with tracer.span("fleet.proxy", parent=route_span.sid,
                                     shard=shard.name, attempt=attempts):
                        status, resp_headers, payload = await self._proxy(
                            shard, body, headers
                        )
                except (OSError, asyncio.TimeoutError, TransportError):
                    # Transport failure or a malformed response: safe to
                    # re-route (scheduling is pure and content-addressed),
                    # and the next ring owner is where the key re-homes
                    # anyway.
                    shard.failures += 1
                    if shard.failures >= self.fail_threshold:
                        self.quarantine(shard.name, cause="proxy-failure")
                    attempts += 1
                    self.stats.retries += 1
                    if tracer.enabled:
                        tracer.count("fleet.proxy_retries")
                    continue
                shard.failures = 0
                shard.proxied += 1
                self.stats.proxied += 1
                route_span.set(shard=shard.name, attempts=attempts)
                extra = {
                    out: resp_headers[name]
                    for name, out in _RELAY_HEADERS[1:] if name in resp_headers
                }
                ctype = resp_headers.get("content-type", "application/json")
                return status, ctype, payload, extra

    def _next_owner(self, key: str, tried: set[str]) -> Shard | None:
        """The first live, untried shard in the key's failover sequence."""
        if not self.ring:
            return None
        for name in self.ring.owners(key):
            shard = self._shards.get(name)
            if shard is not None and shard.alive and name not in tried:
                return shard
        return None

    async def _proxy(self, shard: Shard, body: bytes,
                     headers: dict[str, str]) -> http.Response:
        """One request/response exchange with a backend shard.

        Backend connections are kept alive and pooled per shard.  A
        pooled connection the backend closed while idle is stale
        (:func:`repro.service.http.exchange`): it gets one fresh
        connection, not a shard-failure mark.
        """
        forward = {out: headers[name] for name, out in _FORWARD_HEADERS if name in headers}
        data = http.request_head("POST", "/v1/schedule", shard.endpoint, len(body),
                                 forward, keep_alive=True) + body
        pool = self._pools.setdefault(shard.name, [])
        reused = bool(pool)
        if reused:
            reader, writer = pool.pop()
        else:
            reader, writer = await asyncio.open_connection(shard.host, shard.port)
        while True:
            try:
                response = await http.exchange(reader, writer, data,
                                               self.backend_timeout, reused)
                break
            except StaleConnectionError:
                writer.close()
                reader, writer = await asyncio.open_connection(shard.host, shard.port)
                reused = False
            except BaseException:
                writer.close()
                raise
        if http.keep_alive(response.headers):
            pool.append((reader, writer))
        else:
            writer.close()
        return response

    # ------------------------------------------------------------------
    # aggregation surfaces
    # ------------------------------------------------------------------
    async def _backend_call(self, shard: Shard, method: str, path: str) -> bytes | None:
        """One bodiless request to a shard on a fresh connection, within
        ``probe_timeout``; the body of a 200 answer, else ``None``."""
        try:
            async with asyncio.timeout(self.probe_timeout):
                reader, writer = await asyncio.open_connection(shard.host, shard.port)
                try:
                    response = await http.exchange(
                        reader, writer, http.request_head(method, path, shard.endpoint, 0),
                        None,
                    )
                finally:
                    writer.close()
        except (OSError, asyncio.TimeoutError, TransportError):
            return None
        return response.body if response.status == 200 else None

    async def _aggregate_stats(self):
        """Summed :class:`~repro.service.metrics.ServiceStats` across the
        live shards, shaped exactly like a single daemon's ``/v1/stats``
        (so :meth:`ServiceClient.stats` keeps working), plus a ``fleet``
        section with the router's own counters and per-shard detail."""
        from repro.service.metrics import ServiceStats

        totals: dict[str, float] = {}
        per_shard: dict[str, dict] = {}
        for shard in self.alive_shards():
            raw = await self._backend_call(shard, "GET", "/v1/stats")
            if raw is None:
                continue
            try:
                stats = json.loads(raw.decode("utf-8"))["stats"]
            except (ValueError, KeyError):
                continue
            per_shard[shard.name] = stats
            for name, value in stats.items():
                if not isinstance(value, (int, float)):
                    continue
                if name.endswith("_ms") or name == "uptime_s":
                    totals[name] = max(totals.get(name, 0.0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        fields = set(ServiceStats.__dataclass_fields__)
        merged = ServiceStats(**{k: v for k, v in totals.items() if k in fields})
        return http.json_response(200, {
            "status": "ok",
            "stats": merged.as_dict(),
            "fleet": {
                "router": self.stats.as_dict(),
                "shards": {
                    name: {
                        "alive": s.alive,
                        "endpoint": s.endpoint,
                        "proxied": s.proxied,
                        "quarantines": s.quarantines,
                    }
                    for name, s in self._shards.items()
                },
                "per_shard_stats": per_shard,
            },
        })

    async def render_metrics(self) -> str:
        """One Prometheus-style exposition for the whole fleet.

        Shard counters and gauges are summed; latency percentiles and
        uptime take the max (a sum of percentiles means nothing).  The
        router prepends its own ``repro_fleet_*`` series, including one
        labelled ``repro_fleet_shard_up`` per registered shard, so a
        scrape shows exactly which shards are carrying the ring.
        """
        sums: dict[str, float] = {}
        maxes: dict[str, float] = {}
        order: list[str] = []
        for shard in self.alive_shards():
            raw = await self._backend_call(shard, "GET", "/metrics")
            if raw is None:
                continue
            for line in raw.decode("utf-8", "replace").splitlines():
                parts = line.split()
                if len(parts) != 2 or line.startswith("#"):
                    continue
                name, text = parts
                try:
                    value = float(text)
                except ValueError:
                    continue
                target = maxes if (
                    name.endswith("_ms") or name.endswith("uptime_s")
                ) else sums
                if name not in sums and name not in maxes:
                    order.append(name)
                target[name] = (
                    max(target.get(name, 0.0), value) if target is maxes
                    else target.get(name, 0.0) + value
                )
        lines = [
            f"repro_fleet_shards {len(self._shards):g}",
            f"repro_fleet_shards_alive {len(self.alive_shards()):g}",
            f"repro_fleet_requests_total {self.stats.requests:g}",
            f"repro_fleet_proxied_total {self.stats.proxied:g}",
            f"repro_fleet_proxy_retries_total {self.stats.retries:g}",
            f"repro_fleet_quarantines_total {self.stats.quarantines:g}",
            f"repro_fleet_readmissions_total {self.stats.readmissions:g}",
            f"repro_fleet_no_backend_total {self.stats.no_backend:g}",
        ]
        for name, shard in sorted(self._shards.items()):
            lines.append(
                f'repro_fleet_shard_up{{shard="{name}"}} {1 if shard.alive else 0}'
            )
            lines.append(
                f'repro_fleet_shard_proxied_total{{shard="{name}"}} {shard.proxied:g}'
            )
        for name in order:
            value = sums.get(name, maxes.get(name, 0.0))
            lines.append(f"{name} {value:g}")
        return "\n".join(lines) + "\n"

    async def _broadcast_shutdown(self) -> None:
        """Ask every registered shard to drain (best effort)."""
        for shard in list(self._shards.values()):
            await self._backend_call(shard, "POST", "/v1/shutdown")
