"""Async (and sync-wrapped) client for the scheduling service.

:class:`ServiceClient` frames its requests and reads its responses with
:mod:`repro.service.http`, the module the daemon and the fleet router
use; JSON response documents are decoded here.  Schedule requests default
to the binary wire format (``wire="bin"``): bodies and responses are the
packed-array messages of :mod:`repro.service.wire`, and the connection
is kept alive across requests, which removes JSON encode/decode *and*
the per-request TCP connect from the warm path.  ``wire="json"`` forces
the original one-connection-per-request JSON dialect; a binary client
talking to an old JSON-only server downgrades itself automatically (the
server rejects the unreadable body with 400, which the client recognises
and retries as JSON — once, permanently).  Server-side failures come back
as the same exception types the in-process engine raises — a caller can
move between ``engine.submit(...)`` and ``client.schedule(...)`` without
changing its error handling.

Fault tolerance (see :mod:`repro.service.resilience`):

* Every ``schedule`` call carries one :class:`Deadline` for its whole
  life — connect, send, wait, read all spend from the same budget, and
  the server receives it (``X-Repro-Deadline``) so the engine-side wait
  shrinks by the time already burned in transport and queueing.
* With a :class:`RetryPolicy` installed, retryable failures — 429
  backpressure, connection refused/reset, a connection dropped
  mid-response — are retried under decorrelated-jitter backoff,
  honoring the server's ``Retry-After`` hint, within the policy's
  retry count, backoff budget and the request deadline.  Safe by
  construction: the schedule computation is pure and content-addressed,
  so a duplicate submission is at worst a cache hit.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict

from repro.instance import Instance
from repro.instance_io import instance_to_json
from repro.obs import get_tracer
from repro.service import http
from repro.service.errors import (
    PayloadTooLargeError,
    RequestError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    StaleConnectionError,
    TransportError,
    WorkerError,
)
from repro.service.metrics import ServiceStats
from repro.service.protocol import (
    ScheduleResult,
    WireScheduleResult,
    make_request_doc,
)
from repro.service.resilience import Deadline, RetryPolicy, RetryStats, _RetryState
from repro.service.wire import (
    BINARY_CONTENT_TYPE,
    ResponseView,
    encode_instance,
    encode_request,
)

_ERROR_BY_STATUS = {
    400: RequestError,
    404: RequestError,
    405: RequestError,
    413: PayloadTooLargeError,
    429: ServiceOverloadedError,
    503: ServiceClosedError,
    504: ServiceTimeoutError,
}

#: Failures worth retrying: backpressure, refused/reset connections and
#: transport-level breakage.  ``OSError`` covers ``ConnectionRefusedError``
#: and ``TimeoutError`` (both are subclasses in 3.10+).
RETRYABLE = (ServiceOverloadedError, TransportError, OSError)

#: Encoded request bodies memoised per client (instance fingerprint x
#: alg x timeout).  Resubmitting an instance skips re-serialisation and
#: sends byte-identical bodies, which the server's exact-body fast path
#: answers without parsing.
_BODY_CACHE_SIZE = 128


def parse_endpoint(endpoint: str, default_port: int = 8787) -> tuple[str, int]:
    """Parse ``host``, ``host:port`` or ``http://host:port`` strings.

    IPv6 literals use the standard bracket form (``[::1]:8787``); a
    bare multi-colon literal (``::1``) is accepted as a host with the
    default port, since no port split is unambiguous there.
    """
    text = endpoint.strip()
    for prefix in ("http://", "https://"):
        if text.startswith(prefix):
            text = text[len(prefix):]
    text = text.rstrip("/")
    if text.startswith("["):
        # Bracketed IPv6: [host] or [host]:port.
        host, bracket, rest = text[1:].partition("]")
        if not bracket or not host:
            raise RequestError(f"invalid endpoint {endpoint!r}")
        if not rest:
            return host, default_port
        if not rest.startswith(":"):
            raise RequestError(f"invalid endpoint {endpoint!r}")
        port_text = rest[1:]
    elif text.count(":") > 1:
        # Unbracketed IPv6 literal: all host, no port to split off.
        return text, default_port
    else:
        host, _, port_text = text.partition(":")
        if not host:
            host = "127.0.0.1"
        if not port_text:
            return host, default_port
    try:
        port = int(port_text)
    except ValueError:
        raise RequestError(f"invalid endpoint {endpoint!r}") from None
    if not 0 <= port <= 65535:
        raise RequestError(f"invalid endpoint {endpoint!r}: port out of range")
    return host, port


class ServiceClient:
    """Talks to one running :class:`~repro.service.server.ScheduleServer`.

    ``retry_policy=None`` (the default) preserves fail-fast semantics:
    every error surfaces immediately.  Install a
    :class:`~repro.service.resilience.RetryPolicy` to retry retryable
    failures; :attr:`retry_stats` then accounts what the loop did.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 connect_timeout: float = 5.0, request_timeout: float = 120.0,
                 retry_policy: RetryPolicy | None = None,
                 wire: str = "bin") -> None:
        if wire not in ("bin", "json"):
            raise ValueError(f"wire must be 'bin' or 'json', got {wire!r}")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry_policy = retry_policy
        self.retry_stats = RetryStats()
        self.wire = wire
        self._body_cache: OrderedDict[tuple, bytes] = OrderedDict()
        # (fingerprint, alg) pairs the server has answered: those go
        # compact (content-addressed, no instance blob) from then on.
        self._acked: OrderedDict[tuple, bool] = OrderedDict()
        # The kept-alive connection of the binary path, tagged with the
        # event loop that owns it: asyncio transports are loop-bound,
        # and the sync wrappers create a fresh loop per call, so a
        # connection must never be reused across loops.
        self._conn: tuple[asyncio.AbstractEventLoop, asyncio.StreamReader,
                          asyncio.StreamWriter] | None = None

    @classmethod
    def at(cls, endpoint: str, **kwargs) -> "ServiceClient":
        """Build a client from an ``host:port`` endpoint string."""
        host, port = parse_endpoint(endpoint)
        return cls(host=host, port=port, **kwargs)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _stage_timeout(self, deadline: Deadline | None, default: float) -> float:
        """Per-I/O-stage timeout: the deadline's remainder when one is
        carried, else the stage default.  Raising here (instead of
        waiting out a doomed stage) is what makes the deadline end-to-end."""
        if deadline is None:
            return default
        remaining = deadline.remaining()
        if remaining <= 0:
            raise ServiceTimeoutError(
                f"request deadline expired ({-remaining:g}s past)"
            )
        return remaining

    def _drop_conn(self) -> None:
        """Discard the kept-alive connection, whatever loop owns it.

        Same-loop: a normal transport close.  Cross-loop (a sync
        wrapper's previous ``asyncio.run`` owned it): the transport API
        is off-limits, so the underlying socket is closed directly —
        its loop is already gone and will never flush anything.
        """
        conn, self._conn = self._conn, None
        if conn is None:
            return
        loop, _, writer = conn
        try:
            same_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            same_loop = False
        if same_loop:
            writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already gone
                pass

    async def close(self) -> None:
        """Close the kept-alive connection (if any).  Optional — every
        exchange also survives the server closing it first."""
        self._drop_conn()

    async def _request(self, method: str, path: str,
                       body: bytes | None = None,
                       deadline: Deadline | None = None,
                       content_type: str = "application/json",
                       accept: str | None = None,
                       keep_alive: bool = False,
                       fingerprint: str | None = None,
                       ) -> http.Response:
        payload = body or b""
        headers = {"Content-Type": content_type}
        if accept is not None:
            headers["Accept"] = accept
        if deadline is not None:
            headers["X-Repro-Deadline"] = repr(deadline.at)
        # The instance's content address, as a header: bodies stay
        # byte-identical (the server's exact-body memo keeps working)
        # while a fleet router can pick the owning shard without
        # parsing the body.  Binary bodies already carry it in their
        # prefix; this covers the JSON dialect.
        if fingerprint:
            headers["X-Repro-Fingerprint"] = fingerprint
        data = http.request_head(method, path, f"{self.host}:{self.port}",
                                 len(payload), headers, keep_alive) + payload

        loop = asyncio.get_running_loop()
        reader = writer = None
        reused = False
        if keep_alive and self._conn is not None:
            if self._conn[0] is loop:
                _, reader, writer = self._conn
                self._conn = None  # in use; one outstanding request per conn
                reused = True
            else:
                self._drop_conn()
        try:
            while True:
                if reader is None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        self._stage_timeout(deadline, self.connect_timeout),
                    )
                    reused = False
                try:
                    response = await http.exchange(
                        reader, writer, data,
                        self._stage_timeout(deadline, self.request_timeout), reused,
                    )
                    break
                except StaleConnectionError:
                    # The server closed this kept-alive connection while
                    # it sat idle; zero bytes of this exchange ever
                    # happened.  Replace the connection and redo the
                    # exchange — pool hygiene, not a retry, so no retry
                    # budget slot is consumed.
                    writer.close()
                    reader = writer = None
                    continue
        except BaseException:
            if writer is not None:
                writer.close()
            raise
        if keep_alive and http.keep_alive(response.headers):
            self._conn = (loop, reader, writer)
        else:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        return response

    @staticmethod
    def _raise_for_status(status: int, headers: dict[str, str],
                          payload: bytes) -> None:
        """Map a non-200 response (always a JSON error doc) to its
        engine-equivalent exception."""
        try:
            answer = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            answer = {"status": "error", "error": payload.decode("latin-1", "replace")}
        exc_type = _ERROR_BY_STATUS.get(status, WorkerError)
        exc = exc_type(answer.get("error", f"HTTP {status}"))
        if status == 429:
            try:
                exc.retry_after = float(headers["retry-after"])
            except (KeyError, ValueError):
                pass
        raise exc

    async def _request_json(self, method: str, path: str,
                            doc: dict | None = None,
                            body: bytes | None = None,
                            deadline: Deadline | None = None,
                            fingerprint: str | None = None) -> dict:
        if body is None and doc is not None:
            body = json.dumps(doc).encode("utf-8")
        status, headers, payload = await self._request(method, path, body,
                                                       deadline=deadline,
                                                       fingerprint=fingerprint)
        if status != 200:
            self._raise_for_status(status, headers, payload)
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise TransportError(
                f"malformed JSON response from {self.host}:{self.port}"
            ) from None

    async def _request_bin(self, body: bytes,
                           deadline: Deadline | None = None) -> ResponseView:
        """One binary schedule exchange; returns the zero-copy view."""
        status, headers, payload = await self._request(
            "POST", "/v1/schedule", body, deadline=deadline,
            content_type=BINARY_CONTENT_TYPE, accept=BINARY_CONTENT_TYPE,
            keep_alive=True,
        )
        if status != 200:
            self._raise_for_status(status, headers, payload)
        content_type = headers.get("content-type", "").split(";", 1)[0].strip().lower()
        if content_type != BINARY_CONTENT_TYPE:
            raise TransportError(
                f"server answered a binary request with {content_type!r}"
            )
        return ResponseView(payload)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def _schedule_body(self, instance: Instance, alg: str,
                       timeout: float | None,
                       trace_id: str | None = None,
                       wire_format: str = "json",
                       compact: bool = False) -> bytes:
        key = (wire_format, compact, instance.fingerprint(), alg, timeout, trace_id)
        body = self._body_cache.get(key)
        if body is None:
            if wire_format == "bin" and compact:
                body = encode_request(None, alg, timeout, trace_id=trace_id,
                                      fingerprint=instance.fingerprint(),
                                      compact=True)
            elif wire_format == "bin":
                # The instance blob dominates the encoding cost and is
                # shared across algorithms, so it gets its own memo slot.
                blob_key = ("bin-instance", instance.fingerprint())
                blob = self._body_cache.get(blob_key)
                if blob is None:
                    blob = encode_instance(instance)
                    self._body_cache[blob_key] = blob
                else:
                    self._body_cache.move_to_end(blob_key)
                body = encode_request(instance, alg, timeout, trace_id=trace_id,
                                      instance_bytes=blob,
                                      fingerprint=instance.fingerprint())
            else:
                doc = make_request_doc(json.loads(instance_to_json(instance)), alg,
                                       timeout, trace_id=trace_id)
                body = json.dumps(doc).encode("utf-8")
            self._body_cache[key] = body
            while len(self._body_cache) > _BODY_CACHE_SIZE:
                self._body_cache.popitem(last=False)
        else:
            self._body_cache.move_to_end(key)
        return body

    async def schedule(self, instance: Instance, alg: str = "IMP",
                       timeout: float | None = None,
                       trace_id: str | None = None) -> ScheduleResult:
        """Submit one instance; returns the placement result.

        ``timeout`` bounds the whole call — including every retry the
        client's :class:`RetryPolicy` takes — via one deadline that is
        also propagated to the server.  ``trace_id`` (optional) is
        echoed back in the result and stamped on every server/worker
        span this request produces.
        """
        deadline = Deadline.after(timeout if timeout is not None else self.request_timeout)
        policy = self.retry_policy
        if policy is None:
            return await self._schedule_once(instance, alg, timeout, trace_id, deadline)
        tracer = get_tracer()
        state = _RetryState(policy, self.retry_stats, deadline)
        while True:
            self.retry_stats.attempts += 1
            try:
                return await self._schedule_once(instance, alg, timeout, trace_id,
                                                 deadline)
            except RETRYABLE as exc:
                retry_after = getattr(exc, "retry_after", None)
                if tracer.enabled:
                    with tracer.span("client.backoff", detach=True, alg=alg,
                                     cause=type(exc).__name__,
                                     retry_after=retry_after or 0.0):
                        retried = await state.backoff(retry_after)
                else:
                    retried = await state.backoff(retry_after)
                if not retried:
                    raise
                if tracer.enabled:
                    tracer.count("client.retries")

    async def _schedule_once(self, instance: Instance, alg: str,
                             timeout: float | None, trace_id: str | None,
                             deadline: Deadline) -> ScheduleResult:
        """One schedule attempt in the client's current wire format.

        A binary request a server answers with "invalid JSON body" is
        the signature of a pre-wire JSON-only server reading binary
        bytes as a document — downgrade to JSON permanently (this
        client keeps talking JSON) and redo the attempt; any other
        error is the request's own problem and surfaces unchanged.
        """
        if self.wire == "bin":
            result = await self._schedule_bin(instance, alg, timeout, trace_id,
                                              deadline)
            if result is not None:
                return result
            # fell through: downgraded to JSON mid-attempt
        body = self._schedule_body(instance, alg, timeout, trace_id)
        answer = await self._request_json("POST", "/v1/schedule", body=body,
                                          deadline=deadline,
                                          fingerprint=instance.fingerprint())
        return ScheduleResult.from_payload(answer["result"])

    async def _schedule_bin(self, instance: Instance, alg: str,
                            timeout: float | None, trace_id: str | None,
                            deadline: Deadline) -> WireScheduleResult | None:
        """One binary attempt; ``None`` means "downgraded, retry as JSON".

        Once the server has answered for an ``(instance, alg)`` pair its
        content-addressed cache holds the result, so subsequent requests
        go *compact* — fingerprint only, no instance blob, a few dozen
        bytes.  A compact miss (eviction, restart without the segment)
        comes back as an ``unknown instance fingerprint`` error and the
        full request is resent once, transparently.
        """
        acked_key = (instance.fingerprint(), alg)
        compact = acked_key in self._acked
        body = self._schedule_body(instance, alg, timeout, trace_id,
                                   wire_format="bin", compact=compact)
        try:
            try:
                view = await self._request_bin(body, deadline=deadline)
            except RequestError as exc:
                if compact and "unknown instance fingerprint" in str(exc):
                    self._acked.pop(acked_key, None)
                    body = self._schedule_body(instance, alg, timeout, trace_id,
                                               wire_format="bin")
                    view = await self._request_bin(body, deadline=deadline)
                else:
                    raise
        except RequestError as exc:
            if "invalid JSON body" not in str(exc):
                raise
            self.wire = "json"
            return None
        self._acked[acked_key] = True
        self._acked.move_to_end(acked_key)
        while len(self._acked) > _BODY_CACHE_SIZE:
            self._acked.popitem(last=False)
        return WireScheduleResult(view)

    async def stats(self) -> ServiceStats:
        """Fetch the server's counter snapshot."""
        answer = await self._request_json("GET", "/v1/stats")
        return ServiceStats(**answer["stats"])

    async def metrics_text(self) -> str:
        """Fetch the Prometheus-style exposition text."""
        status, _, payload = await self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"GET /metrics -> HTTP {status}")
        return payload.decode("utf-8")

    async def health(self) -> bool:
        """True when the daemon is up and not draining."""
        try:
            answer = await self._request_json("GET", "/healthz")
        except (OSError, asyncio.TimeoutError, ServiceError):
            return False
        return answer.get("status") == "ok" and not answer.get("draining", False)

    async def shutdown(self) -> None:
        """Ask the daemon to drain and exit."""
        await self._request_json("POST", "/v1/shutdown")

    # ------------------------------------------------------------------
    # sync conveniences (CLI, scripts)
    # ------------------------------------------------------------------
    def schedule_sync(self, instance: Instance, alg: str = "IMP",
                      timeout: float | None = None,
                      trace_id: str | None = None) -> ScheduleResult:
        return asyncio.run(self.schedule(instance, alg, timeout, trace_id=trace_id))

    def stats_sync(self) -> ServiceStats:
        return asyncio.run(self.stats())

    def health_sync(self) -> bool:
        return asyncio.run(self.health())

    def shutdown_sync(self) -> None:
        asyncio.run(self.shutdown())
