"""HTTP/1.1 framing: the only code in :mod:`repro.service` that reads or
writes frames, shared by the daemon, the fleet router and the client.

A head is read with one ``readuntil`` and is bounded by the stream's
limit (asyncio's default 64 KiB).  A body is exactly ``Content-Length``
bytes, never read-to-EOF: pool workers forked on the server side may
hold an inherited copy of a socket, delaying EOF indefinitely.
``Content-Length`` must be a non-negative decimal integer, and a request
body past :data:`MAX_BODY` is refused unread.  On malformed input
:func:`read_request` raises only :class:`RequestError` (the 413
:class:`PayloadTooLargeError` past :data:`MAX_BODY`) and
:func:`read_response` only :class:`TransportError`;
:func:`serve_connection` answers a request error with its JSON error
and ``Connection: close``, so no byte of a refused request is ever
parsed as the next one.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Awaitable, Callable, NamedTuple

from repro.service.errors import (
    PayloadTooLargeError,
    RequestError,
    StaleConnectionError,
    TransportError,
)

#: Largest accepted request body (a ~100k-task instance document).
MAX_BODY = 64 * 1024 * 1024

#: Reason phrases for the statuses the service answers with.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_HEAD_END = b"\r\n\r\n"

#: A route's answer: status, content type, body, extra response headers.
Reply = tuple[int, str, bytes, dict[str, str]]


class Request(NamedTuple):
    """One parsed request: the path without its query string, lowercase
    header names."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes


class Response(NamedTuple):
    """One parsed response; header names are lowercase."""

    status: int
    headers: dict[str, str]
    body: bytes


class _Unanswered(TransportError):
    """The connection closed or reset before a response head arrived."""


def keep_alive(headers: dict[str, str]) -> bool:
    """Whether a parsed head asks to keep its connection open."""
    return headers.get("connection", "").lower() == "keep-alive"


def _parse_head(head: bytes, error: type[Exception]) -> tuple[str, dict[str, str]]:
    """Split a head into its first line and lowercase-named headers."""
    lines = head[:-len(_HEAD_END)].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise error(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    if "" in headers:
        raise error("malformed header line: empty name")
    return lines[0], headers


def _content_length(headers: dict[str, str], error: type[Exception]) -> int:
    raw = headers.get("content-length", "0")
    # Heads decode as latin-1, where 0-9 are the only decimal characters.
    if not raw.isdecimal():
        raise error(f"malformed Content-Length header {raw[:80]!r}")
    digits = raw.lstrip("0")
    # int() refuses digit strings past a few thousand characters, and a
    # length this long is past every limit anyway.
    return int(digits or "0") if len(digits) <= 18 else sys.maxsize


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request; ``None`` when the peer closed cleanly between
    requests.  A body past :data:`MAX_BODY` raises
    :class:`PayloadTooLargeError` before any of it is read."""
    try:
        head = await reader.readuntil(_HEAD_END)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise RequestError("connection closed inside the request head") from None
        return None
    except asyncio.LimitOverrunError:
        raise RequestError("request head too long") from None
    first, headers = _parse_head(head, RequestError)
    parts = first.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise RequestError(f"malformed request line {first[:80]!r}")
    length = _content_length(headers, RequestError)
    if length > MAX_BODY:
        raise PayloadTooLargeError(
            f"request body too large: Content-Length over {MAX_BODY} bytes"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise RequestError("connection closed inside the request body") from None
    return Request(parts[0].upper(), parts[1].split("?", 1)[0], headers, body)


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Read one response; a malformed, truncated or reset one raises
    :class:`TransportError`."""
    try:
        head = await reader.readuntil(_HEAD_END)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        if getattr(exc, "partial", b""):
            raise TransportError("connection closed mid-response") from None
        raise _Unanswered("connection closed before any response byte") from exc
    except asyncio.LimitOverrunError:
        raise TransportError("response head too long") from None
    first, headers = _parse_head(head, TransportError)
    parts = first.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith("HTTP/") or len(parts[1]) != 3
            or not parts[1].isdecimal()):
        raise TransportError(f"malformed status line {first[:80]!r}")
    length = _content_length(headers, TransportError)
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        raise TransportError("connection closed mid-response") from None
    return Response(int(parts[1]), headers, body)


def _tail(headers: dict[str, str] | None, keep_alive: bool) -> str:
    """A head's extra header lines, its Connection line and the blank line."""
    extra = "".join([f"{name}: {value}\r\n" for name, value in headers.items()]) if headers else ""
    return f"{extra}Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"


def request_head(method: str, path: str, host: str, length: int,
                 headers: dict[str, str] | None = None,
                 keep_alive: bool = False) -> bytes:
    """The head of a request carrying a ``length``-byte body."""
    return (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n"
            + _tail(headers, keep_alive)).encode("latin-1")


def response_head(status: int, content_type: str, length: int,
                  headers: dict[str, str] | None = None,
                  keep_alive: bool = False) -> bytes:
    """The head of a response carrying a ``length``-byte body."""
    return (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {length}\r\n"
            + _tail(headers, keep_alive)).encode("latin-1")


def json_response(status: int, doc: dict,
                  headers: dict[str, str] | None = None) -> Reply:
    """A route's answer carrying ``doc`` as JSON."""
    return status, "application/json", json.dumps(doc).encode("utf-8"), headers or {}


async def serve_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           route: Callable[[Request], Awaitable[Reply]],
                           accepting: Callable[[], bool]) -> None:
    """Answer the requests on one connection through ``route``, then
    close it.

    The connection stays open after a response only when the request
    asked for keep-alive and ``accepting()`` still holds (a stopping
    listener always closes).  A framing error is answered with its JSON
    error and ``Connection: close``.
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except RequestError as exc:
                status, ctype, payload, extra = json_response(
                    exc.status, {"status": "error", "error": str(exc)}
                )
                keep = False
            else:
                if request is None:
                    return
                status, ctype, payload, extra = await route(request)
                keep = keep_alive(request.headers) and accepting()
            writer.write(response_head(status, ctype, len(payload), extra, keep) + payload)
            await writer.drain()
            if not keep:
                return
    except (ConnectionResetError, BrokenPipeError):
        pass  # the peer went away mid-exchange
    except asyncio.CancelledError:
        # Loop teardown cancelled a parked keep-alive handler.
        # Swallowing (not re-raising) keeps the stdlib streams
        # done-callback from logging a spurious traceback.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass


async def exchange(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                   data: bytes, timeout: float | None,
                   reused: bool = False) -> Response:
    """Send one request (``data`` is head plus body) and read its
    response; draining the write and reading the response share one
    ``asyncio.timeout`` scope, which unlike ``wait_for`` spawns no
    wrapper task on the warm path.

    ``reused=True`` marks a kept-alive connection from a pool.  A
    failure on it before any response byte arrives (reset on the write,
    EOF or reset before the head) is the signature of the peer having
    closed it while it sat idle, and raises
    :class:`StaleConnectionError`: the caller swaps in a fresh
    connection without charging a retry.  Later failures are real
    :class:`TransportError`\\ s, as on any connection.
    """
    # write() never blocks, and a dead connection surfaces in drain() or
    # the read.  Sending before arming the timer keeps that work off the
    # round trip.
    writer.write(data)
    async with asyncio.timeout(timeout):
        try:
            await writer.drain()
            return await read_response(reader)
        except (ConnectionError, _Unanswered) as exc:
            if reused:
                raise StaleConnectionError(
                    f"stale keep-alive connection ({str(exc) or type(exc).__name__})"
                ) from exc
            raise
