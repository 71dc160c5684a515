"""Service-layer exception hierarchy.

Every serving failure derives from :class:`ServiceError` (itself a
:class:`~repro.exceptions.ReproError`) and carries the HTTP status code
the server maps it to, so the transport layer never needs a big
``isinstance`` ladder.
"""

from __future__ import annotations

from repro.exceptions import ReproError


class ServiceError(ReproError):
    """Base class for serving-layer failures."""

    #: HTTP status the server responds with for this error class.
    status = 500


class RequestError(ServiceError):
    """The request document is malformed (bad JSON, unknown scheduler,
    invalid instance)."""

    status = 400


class PayloadTooLargeError(RequestError):
    """The request body is past :data:`repro.service.http.MAX_BODY`.

    Raised before any body byte is read; the server answers 413 and
    closes the connection."""

    status = 413


class WireFormatError(RequestError):
    """A binary wire blob is malformed (bad magic, wrong kind, short
    buffer, corrupt section).  A :class:`RequestError` — the server maps
    it to 400 — but typed so codec callers can tell framing problems
    from semantic ones."""


class WireVersionError(WireFormatError):
    """The blob's wire version byte is not the one this build speaks.

    Raised *before* any section is decoded, so an old-format blob is
    rejected loudly instead of being garbage-decoded."""


class ServiceOverloadedError(ServiceError):
    """The bounded request queue is full — backpressure, retry later.

    ``retry_after`` (seconds) is the server's load-aware backoff hint;
    the server surfaces it as a ``Retry-After`` header on the 429 and
    the client's :class:`~repro.service.resilience.RetryPolicy` treats
    it as a floor under its jittered delay.
    """

    status = 429
    retry_after: float | None = None


class TransportError(ServiceError):
    """The connection failed mid-exchange (closed early, malformed
    framing).  Client-side only — safe to retry, since the schedule
    computation is pure and content-addressed."""

    status = 502


class StaleConnectionError(TransportError):
    """A pooled keep-alive connection was dead on first use — zero
    response bytes read (the server closed it while it sat idle:
    restart, idle timeout).  Not a real transport failure: nothing was
    ever exchanged on this attempt, so the client replaces the
    connection and redoes the exchange *without* spending a retry
    budget slot.  Distinct from :class:`TransportError` precisely so
    the retry loop can tell the two apart; still a subclass, so it
    stays retryable if it ever escapes."""


class ServiceTimeoutError(ServiceError):
    """The per-request deadline elapsed before a result was ready."""

    status = 504


class ServiceClosedError(ServiceError):
    """The engine is draining or stopped and accepts no new work."""

    status = 503


class WorkerError(ServiceError):
    """The scheduling computation itself raised in the worker."""

    status = 500
