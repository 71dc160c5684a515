"""Minimal asyncio HTTP endpoint in front of the engine.

Stdlib-only by design (``asyncio.start_server`` plus the framing of
:mod:`repro.service.http`): the service has to run in the same
environments the library does, with no web-framework dependency.  The
surface is deliberately tiny:

====================  =================================================
``POST /v1/schedule``  schedule one instance (JSON request document)
``GET  /v1/stats``     :class:`ServiceStats` snapshot as JSON
``GET  /metrics``      Prometheus-style text exposition
``GET  /healthz``      liveness probe
``POST /v1/shutdown``  request a graceful drain-and-exit
====================  =================================================

Error mapping: every :class:`~repro.service.errors.ServiceError`
subclass carries its HTTP status (400 bad request, 429 backpressure,
503 draining, 504 timeout, 500 worker failure), so the handler is a
single try/except.

Two cache layers answer repeats: a byte-exact map from request-body
digest to request key (skips parsing and fingerprinting altogether)
backed by the engine's canonical content-addressed cache (catches the
same instance serialised differently).  Both serve the identical stored
payload, so hits are bit-identical either way.

Wire negotiation: a ``POST /v1/schedule`` body is JSON unless its
``Content-Type`` is :data:`~repro.service.wire.BINARY_CONTENT_TYPE`,
and the response is JSON unless the request's ``Accept`` names the
binary type — so existing JSON clients keep working unchanged while
binary clients skip document building on both sides.  Errors are
always JSON (they must stay debuggable from a shell).  Connections
close after one exchange unless the client asks ``Connection:
keep-alive``; the binary client does, which removes the per-request
TCP connect from the warm path.  A malformed request, or one whose body
is past :data:`~repro.service.http.MAX_BODY`, gets a JSON 400 or 413
and the connection closes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict

from repro.service import http, wire
from repro.service.cache import request_key_from_fingerprint
from repro.service.engine import SchedulingEngine
from repro.service.errors import RequestError, ServiceError
from repro.service.protocol import parse_request_doc

#: Entries kept in the exact-body fast-path map (body digest -> request
#: key).  Each entry is two hex digests, so this is a few hundred kB.
EXACT_MAP_SIZE = 4096

#: Entries kept in the encoded-payload memo (request key -> wire bytes).
#: Cached payloads are immutable, so a warm binary hit re-serves the
#: same bytes instead of re-encoding.
ENCODED_MAP_SIZE = 1024

#: Request header carrying the client's absolute ``time.monotonic()``
#: deadline.  A header (not a body field) so that byte-identical bodies
#: stay byte-identical across requests — the exact-body fast path and
#: the client's body memo both depend on that.
DEADLINE_HEADER = "x-repro-deadline"


class ScheduleServer:
    """Serves one :class:`SchedulingEngine` over local TCP."""

    def __init__(self, engine: SchedulingEngine, host: str = "127.0.0.1",
                 port: int = 8787) -> None:
        self.engine = engine
        self.host = host
        self._port = port
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        # Exact-body fast path: sha256(request body) -> request key.  A
        # byte-identical resubmission skips JSON parsing and instance
        # fingerprinting and answers straight from the schedule cache;
        # semantically-equal-but-differently-serialised requests still
        # hit through the canonical fingerprint path in the engine.
        self._exact: OrderedDict[str, str] = OrderedDict()
        # Binary warm path: request key -> wire-encoded payload bytes.
        self._encoded: OrderedDict[str, bytes] = OrderedDict()
        # Live connections, so stop() can nudge parked keep-alive
        # handlers (blocked reading the next request) to exit cleanly.
        self._conns: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the engine and begin accepting connections."""
        await self.engine.start()
        self._server = await asyncio.start_server(self._handle, self.host, self._port)

    @property
    def bound_port(self) -> int | None:
        """The port the listener actually bound, or ``None`` before
        :meth:`start`.  With ``port=0`` this is the kernel-assigned
        ephemeral port — the value startup output must print, and the
        one :class:`~repro.service.fleet.FleetManager` parses to
        discover its backends."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return None

    @property
    def port(self) -> int:
        """The bound port while listening, else the configured one."""
        bound = self.bound_port
        return bound if bound is not None else self._port

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_shutdown` to drain and exit."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` (or ``POST /v1/shutdown``),
        then stop gracefully."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting connections, drain the engine, shut down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the listener doesn't touch established connections:
        # keep-alive handlers parked waiting for a next request would
        # otherwise linger until the client goes away.  Feed them EOF.
        for writer in list(self._conns):
            writer.close()
        await self.engine.stop(drain=drain)
        self._shutdown.set()

    # ------------------------------------------------------------------
    # connection handling
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
        """Dispatch one request to its endpoint."""
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                return http.json_response(405, {"status": "error", "error": "use GET"})
            return http.json_response(200, {"status": "ok", "draining": self.engine.draining})
        if path == "/metrics":
            if method != "GET":
                return http.json_response(405, {"status": "error", "error": "use GET"})
            return (200, "text/plain; version=0.0.4",
                    self.engine.render_metrics().encode(), {})
        if path == "/v1/stats":
            if method != "GET":
                return http.json_response(405, {"status": "error", "error": "use GET"})
            return http.json_response(200, {"status": "ok", "stats": self.engine.stats().as_dict()})
        if path == "/v1/shutdown":
            if method != "POST":
                return http.json_response(405, {"status": "error", "error": "use POST"})
            # Respond first, then trip the shutdown event: the caller
            # gets its 200 before the listener closes.
            asyncio.get_running_loop().call_soon(self.request_shutdown)
            return http.json_response(200, {"status": "ok", "shutting_down": True})
        if path == "/v1/schedule":
            if method != "POST":
                return http.json_response(405, {"status": "error", "error": "use POST"})
            return await self._handle_schedule(request.body, request.headers)
        return http.json_response(404, {"status": "error", "error": f"no such route {path}"})

    async def _handle_schedule(self, body: bytes, headers: dict[str, str]):
        binary_request = (
            headers.get("content-type", "").split(";", 1)[0].strip().lower()
            == wire.BINARY_CONTENT_TYPE
        )
        binary_response = wire.BINARY_CONTENT_TYPE in headers.get("accept", "").lower()
        tracer = self.engine.tracer
        try:
            deadline = self._parse_deadline(headers)
            if binary_request:
                # Binary requests carry the instance's content address,
                # so the warm path is a direct cache-key lookup — no
                # body hashing, no instance decode.  The claimed
                # fingerprint is only ever a lookup hint: entries are
                # stored under server-computed keys, so a wrong claim
                # misses and the request is computed honestly.
                blob, alg, fingerprint, timeout, trace_id = wire.decode_request(body)
                if fingerprint:
                    payload = self.engine.submit_cached(
                        request_key_from_fingerprint(fingerprint, alg)
                    )
                    if payload is not None:
                        return self._respond_schedule(payload, binary_response)
                if blob is None:
                    # Compact request missed: the client optimistically
                    # sent only the content address.  This exact error
                    # text is the protocol's "send the full form" signal.
                    raise RequestError(
                        f"unknown instance fingerprint {fingerprint[:16]}..."
                    )
                with tracer.span("service.decode", detach=True, wire="bin"):
                    self._check_alg(alg)
                    instance = wire.decode_instance(blob)
                payload = await self.engine.submit(instance, alg, timeout=timeout,
                                                   trace_id=trace_id,
                                                   deadline=deadline,
                                                   encoded=bytes(blob))
            else:
                body_key = hashlib.sha256(body).hexdigest()
                known_key = self._exact.get(body_key)
                if known_key is not None:
                    payload = self.engine.submit_cached(known_key)
                    if payload is not None:
                        self._exact.move_to_end(body_key)
                        return self._respond_schedule(payload, binary_response)
                with tracer.span("service.decode", detach=True, wire="json"):
                    try:
                        doc = json.loads(body.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                        raise RequestError(f"invalid JSON body: {exc}") from None
                    instance, alg, timeout, trace_id = parse_request_doc(doc)
                payload = await self.engine.submit(instance, alg, timeout=timeout,
                                                   trace_id=trace_id, deadline=deadline)
                self._remember_exact(body_key, payload["fingerprint"])
        except ServiceError as exc:
            # Errors are always JSON, whatever the negotiated format —
            # a failed exchange must stay readable from curl.
            kind = "rejected" if exc.status == 429 else "error"
            extra = {}
            if exc.status == 429:
                hint = getattr(exc, "retry_after", None)
                if hint is None:
                    hint = self.engine.retry_after_hint()
                extra["Retry-After"] = f"{hint:g}"
            return http.json_response(exc.status, {"status": kind, "error": str(exc)}, extra)
        return self._respond_schedule(payload, binary_response)

    @staticmethod
    def _check_alg(alg: str) -> None:
        """Reject unknown schedulers before they occupy queue space
        (the JSON path does this inside ``parse_request_doc``)."""
        from repro.schedulers.registry import all_scheduler_names

        if not alg:
            raise RequestError("request needs a scheduler name under 'alg'")
        if alg not in all_scheduler_names():
            raise RequestError(
                f"unknown scheduler {alg!r}; known: {', '.join(all_scheduler_names())}"
            )

    def _respond_schedule(self, payload: dict, binary: bool):
        """Serialise one successful schedule answer in the negotiated form."""
        if not binary:
            return http.json_response(200, {"status": "ok", "result": payload})
        result = dict(payload)
        cache_hit = bool(result.pop("cache_hit", False))
        fingerprint = str(result.pop("fingerprint", ""))
        server_ms = float(result.pop("server_ms", 0.0))
        trace_id = result.pop("trace_id", None)
        with self.engine.tracer.span("service.encode", detach=True, wire="bin"):
            encoded = self._encoded.get(fingerprint)
            if encoded is None:
                encoded = wire.encode_payload(result)
                self._encoded[fingerprint] = encoded
                while len(self._encoded) > ENCODED_MAP_SIZE:
                    self._encoded.popitem(last=False)
            else:
                self._encoded.move_to_end(fingerprint)
            body = wire.encode_response(
                encoded, cache_hit=cache_hit, fingerprint=fingerprint,
                server_ms=server_ms, trace_id=trace_id,
            )
        return (200, wire.BINARY_CONTENT_TYPE, body, {})

    @staticmethod
    def _parse_deadline(headers: dict[str, str]) -> float | None:
        """The client's absolute-monotonic deadline, if it sent one."""
        raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise RequestError(
                f"invalid {DEADLINE_HEADER} header {raw!r}: "
                "expected an absolute monotonic timestamp"
            ) from None

    def _remember_exact(self, body_key: str, request_key: str) -> None:
        self._exact[body_key] = request_key
        self._exact.move_to_end(body_key)
        while len(self._exact) > EXACT_MAP_SIZE:
            self._exact.popitem(last=False)
