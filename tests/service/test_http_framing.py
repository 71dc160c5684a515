"""HTTP/1.1 framing: the readers of :mod:`repro.service.http`, fuzzed,
and the framing defects they close, checked end to end on both
listeners (a lone ``ScheduleServer`` and a ``FleetRouter`` in front of
one).

The readers take untrusted bytes, so their contract is total:
``read_request`` returns a request or ``None`` or raises
``RequestError``; ``read_response`` returns a response or raises
``TransportError``.  The fuzz layer feeds them arbitrary bytes and
byte-level mutations of the heads this library really emits (captured
from ``ServiceClient``, the router and a live daemon, not retyped), and
fails on any other exception type, or on an example that outlives its
deadline.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import workloads as W
from repro.instance_io import instance_to_json
from repro.service import (
    EngineConfig,
    ScheduleServer,
    SchedulingEngine,
    ServiceClient,
    ServiceClosedError,
)
from repro.service import http
from repro.service.errors import PayloadTooLargeError, RequestError, TransportError
from repro.service.fleet import FleetRouter
from repro.service.protocol import make_request_doc
from repro.service.resilience import Deadline
from repro.service.wire import BINARY_CONTENT_TYPE, encode_request
from repro.utils.rng import as_generator


def _instance(seed: int = 3, num_tasks: int = 6):
    return W.random_instance(as_generator(seed), num_tasks=num_tasks, num_procs=2)


def _reader(data: bytes, limit: int = 2 ** 16) -> asyncio.StreamReader:
    """A stream holding exactly ``data``, then EOF (call inside a loop)."""
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _all_requests(data: bytes, limit: int = 2 ** 16) -> list[http.Request]:
    """Every request in ``data`` up to a clean close; raises on the first
    malformed one."""
    reader = _reader(data, limit)
    requests = []
    while (request := await http.read_request(reader)) is not None:
        requests.append(request)
    return requests


async def _response(data: bytes, limit: int = 2 ** 16) -> http.Response:
    return await http.read_response(_reader(data, limit))


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# request reader
# ----------------------------------------------------------------------
def test_read_request_parses_pipelined_requests():
    data = (
        b"POST /v1/schedule?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
        b"X-Mixed-Case:  v \r\nConnection: Keep-Alive\r\n\r\nabc"
        b"get /healthz HTTP/1.1\r\nHost: h\r\n\r\n"
    )
    first, second = _run(_all_requests(data))
    assert first == ("POST", "/v1/schedule",
                     {"host": "h", "content-length": "3", "x-mixed-case": "v",
                      "connection": "Keep-Alive"}, b"abc")
    assert http.keep_alive(first.headers)
    assert second.method == "GET" and second.body == b"" and not http.keep_alive(second.headers)


def test_read_request_clean_close_is_none():
    assert _run(_all_requests(b"")) == []


@pytest.mark.parametrize("data, match", [
    (b"GET / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello", "malformed Content-Length"),
    (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "malformed Content-Length"),
    (b"GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", "malformed Content-Length"),
    (b"GET / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nhi", "malformed Content-Length"),
    (b"GET / HTTP/1.1\r\nContent-Length:\r\n\r\n", "malformed Content-Length"),
    (b"GET /\r\n\r\n", "malformed request line"),
    (b"GET / HTTP/1.1 extra\r\n\r\n", "malformed request line"),
    (b"\r\n\r\n", "malformed request line"),
    (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header line"),
    (b"GET / HTTP/1.1\r\n: empty name\r\n\r\n", "malformed header line"),
    (b"GET / HTTP/1.1\r\nHost: h\r\n \t: blank name\r\n\r\n", "malformed header line"),
    (b"GET / HTTP/1.1\r\nHost: h\r\n", "inside the request head"),
    (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", "inside the request body"),
])
def test_read_request_rejects_malformed_input(data, match):
    with pytest.raises(RequestError, match=match) as excinfo:
        _run(_all_requests(data))
    assert excinfo.value.status == 400


def test_read_request_head_past_the_stream_limit_is_a_request_error():
    data = b"GET / HTTP/1.1\r\nX-Pad: " + b"p" * 200 + b"\r\n\r\n"
    with pytest.raises(RequestError, match="head too long"):
        _run(_all_requests(data, limit=64))


@pytest.mark.parametrize("length", [http.MAX_BODY + 1, 999999999999, "9" * 5000])
def test_read_request_refuses_oversize_bodies_unread(length):
    data = b"POST / HTTP/1.1\r\nContent-Length: %s\r\n\r\nGET / HTTP/1.1\r\n\r\n" % (
        str(length).encode()
    )

    async def scenario():
        reader = _reader(data)
        with pytest.raises(PayloadTooLargeError) as excinfo:
            await http.read_request(reader)
        assert excinfo.value.status == 413
        # nothing past the head was consumed
        assert await reader.read() == b"GET / HTTP/1.1\r\n\r\n"

    _run(scenario())


def test_read_request_accepts_a_body_of_exactly_max_body(monkeypatch):
    monkeypatch.setattr(http, "MAX_BODY", 4)
    (request,) = _run(_all_requests(b"PUT / HTTP/1.1\r\nContent-Length: 04\r\n\r\nabcd"))
    assert request.body == b"abcd"


# ----------------------------------------------------------------------
# response reader
# ----------------------------------------------------------------------
def test_read_response_parses_status_headers_and_exact_body():
    data = (b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0.5\r\n"
            b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}trailing")

    async def scenario():
        reader = _reader(data)
        response = await http.read_response(reader)
        assert response == (429, {"retry-after": "0.5", "content-length": "2",
                                  "connection": "keep-alive"}, b"{}")
        assert http.keep_alive(response.headers)
        assert await reader.read() == b"trailing"

    _run(scenario())


@pytest.mark.parametrize("data, match", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n{}", "malformed Content-Length"),
    (b"HTTP/1.1 2000 OK\r\n\r\n", "malformed status line"),
    (b"HTTP/1.1 abc OK\r\n\r\n", "malformed status line"),
    (b"SMTP 200 OK\r\n\r\n", "malformed status line"),
    (b"HTTP/1.1 200 OK\r\nbroken\r\n\r\n", "malformed header line"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}", "closed mid-response"),
    (b"HTTP/1.1 200 OK\r\nContent-Le", "closed mid-response"),
    (b"", "before any response byte"),
])
def test_read_response_rejects_malformed_input(data, match):
    with pytest.raises(TransportError, match=match):
        _run(_response(data))


# ----------------------------------------------------------------------
# writers round-trip through the readers
# ----------------------------------------------------------------------
_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
_VALUE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=20)


@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(method=st.sampled_from(["GET", "POST", "PUT"]),
       path=st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E),
                    min_size=1, max_size=30),
       headers=st.dictionaries(_TOKEN.filter(
           lambda n: n not in ("host", "content-length", "connection")), _VALUE,
           max_size=4),
       bodies=st.lists(st.binary(max_size=64), min_size=1, max_size=3),
       keep_alive=st.booleans())
def test_request_head_round_trips_through_read_request(method, path, headers,
                                                       bodies, keep_alive):
    data = b"".join(
        http.request_head(method, path, "h:1", len(body), headers, keep_alive) + body
        for body in bodies
    )
    requests = _run(_all_requests(data))
    assert [r.body for r in requests] == bodies
    for request in requests:
        assert (request.method, request.path, http.keep_alive(request.headers)) == (
            method, path.split("?")[0], keep_alive)
        assert {k: request.headers[k] for k in headers} == headers


@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(status=st.sampled_from(sorted(http.REASONS) + [299]),
       headers=st.dictionaries(_TOKEN.filter(
           lambda n: n not in ("content-type", "content-length", "connection")),
           _VALUE, max_size=4),
       body=st.binary(max_size=128), keep_alive=st.booleans())
def test_response_head_round_trips_through_read_response(status, headers, body,
                                                         keep_alive):
    data = http.response_head(status, "application/json", len(body), headers,
                              keep_alive) + body
    response = _run(_response(data))
    assert (response.status, response.body, http.keep_alive(response.headers)) == (
        status, body, keep_alive)
    assert {k: response.headers[k] for k in headers} == headers


# ----------------------------------------------------------------------
# fuzz: arbitrary bytes and mutations of real heads
# ----------------------------------------------------------------------
def _declared_length(head: bytes) -> int:
    """Content-Length of a well-formed head (test oracle)."""
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value)
    return 0


async def _capture_heads() -> tuple[list[bytes], list[bytes]]:
    """Requests as ``ServiceClient`` and ``FleetRouter`` send them, and
    responses as a live daemon sends them, byte for byte."""
    requests: list[bytes] = []
    canned = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
              b"Content-Length: 15\r\nConnection: keep-alive\r\n\r\n"
              b'{"status":"ok"}')

    async def record(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                requests.append(head + await reader.readexactly(_declared_length(head)))
                writer.write(canned)
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    inst = _instance()
    json_body = json.dumps(
        make_request_doc(json.loads(instance_to_json(inst)), "HEFT")
    ).encode()
    bin_body = encode_request(inst, "HEFT", fingerprint=inst.fingerprint())
    sink = await asyncio.start_server(record, "127.0.0.1", 0)
    port = sink.sockets[0].getsockname()[1]
    client = ServiceClient(port=port)
    await client._request("POST", "/v1/schedule", json_body,
                          deadline=Deadline.after(60.0), fingerprint=inst.fingerprint())
    await client._request("POST", "/v1/schedule", bin_body,
                          content_type=BINARY_CONTENT_TYPE,
                          accept=BINARY_CONTENT_TYPE, keep_alive=True)
    await client._request("GET", "/healthz")
    await client.close()
    router = FleetRouter(port=0, health_interval=0)
    router.add_shard("sink", "127.0.0.1", port)
    await router._proxy(router.shards["sink"], bin_body,
                        {"content-type": BINARY_CONTENT_TYPE,
                         "accept": BINARY_CONTENT_TYPE,
                         "x-repro-deadline": "123.5"})
    await router.check_health()
    await router._broadcast_shutdown()
    await router.stop()
    sink.close()
    await sink.wait_closed()

    # The daemon's answers to the client's three requests: a JSON and
    # a binary schedule, and a health check.
    responses: list[bytes] = []
    server = ScheduleServer(SchedulingEngine(EngineConfig(workers=0)), port=0)
    await server.start()
    try:
        for blob in requests[:3]:
            head, sep, body = blob.partition(b"\r\n\r\n")
            reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
            writer.write(head.replace(b"keep-alive", b"close") + sep + body)
            responses.append(await reader.read())
            writer.close()
    finally:
        await server.stop()
    return requests, responses


@pytest.fixture(scope="module")
def real_heads():
    requests, responses = asyncio.run(_capture_heads())
    assert len(requests) == 6
    assert [r[:12] for r in responses] == [b"HTTP/1.1 200"] * 3
    return requests, responses


_EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.integers(0, 2 ** 16), st.binary(min_size=1, max_size=4))


def _mutate(seed: bytes, edits, cut: int | None, tail: bytes) -> bytes:
    data = bytearray(seed)
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "replace":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        else:
            del data[at:at + len(chunk)]
    if cut is not None:
        del data[cut % (len(data) + 1):]
    return bytes(data) + tail


_FUZZ = settings(max_examples=300, deadline=timedelta(milliseconds=500))
_LIMIT = st.sampled_from([32, 2 ** 16])


async def _check_requests(data: bytes, limit: int) -> None:
    async with asyncio.timeout(2.0):
        try:
            requests = await _all_requests(data, limit)
        except RequestError:
            return
    for request in requests:
        assert isinstance(request, http.Request)
        assert len(request.body) == int(request.headers.get("content-length", "0"))
    assert sum(len(r.body) + 4 for r in requests) <= len(data)


async def _check_response(data: bytes, limit: int) -> None:
    async with asyncio.timeout(2.0):
        try:
            response = await _response(data, limit)
        except TransportError:
            return
    assert isinstance(response, http.Response)
    assert 100 <= response.status <= 999
    assert len(response.body) == int(response.headers.get("content-length", "0"))


@_FUZZ
@given(data=st.binary(max_size=512), limit=_LIMIT)
def test_fuzz_arbitrary_bytes(data, limit):
    _run(_check_requests(data, limit))
    _run(_check_response(data, limit))


@_FUZZ
@given(pick=st.data(), edits=st.lists(_EDIT, max_size=6),
       cut=st.none() | st.integers(0, 2 ** 16), tail=st.binary(max_size=64),
       limit=_LIMIT)
def test_fuzz_mutated_request_heads(real_heads, pick, edits, cut, tail, limit):
    seed = pick.draw(st.sampled_from(real_heads[0]))
    _run(_check_requests(_mutate(seed, edits, cut, tail), limit))


@_FUZZ
@given(pick=st.data(), edits=st.lists(_EDIT, max_size=6),
       cut=st.none() | st.integers(0, 2 ** 16), tail=st.binary(max_size=64),
       limit=_LIMIT)
def test_fuzz_mutated_response_heads(real_heads, pick, edits, cut, tail, limit):
    seed = pick.draw(st.sampled_from(real_heads[1]))
    _run(_check_response(_mutate(seed, edits, cut, tail), limit))


# ----------------------------------------------------------------------
# both listeners: framing errors answer once and close
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def _listener(kind: str):
    """The port of a lone daemon, or of a router with that daemon as its
    only shard."""
    server = ScheduleServer(SchedulingEngine(EngineConfig(workers=0)), port=0)
    await server.start()
    router = None
    try:
        if kind == "router":
            router = FleetRouter(port=0, health_interval=0)
            await router.start()
            router.add_shard("shard-0", "127.0.0.1", server.bound_port)
            yield router.bound_port
        else:
            yield server.bound_port
    finally:
        if router is not None:
            await router.stop()
        await server.stop()


async def _raw(port: int, blob: bytes) -> bytes:
    """Send ``blob`` and read until the listener closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()


def _responses(raw: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a byte stream of well-formed responses (test oracle,
    independent of the reader under test)."""
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v for k, v in (line.split(": ", 1) for line in lines)}
        length = int(headers.get("content-length", "0"))
        out.append((int(status_line.split()[1]), headers, raw[:length]))
        raw = raw[length:]
    return out


_NEXT = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("kind", ["daemon", "router"])
@pytest.mark.parametrize("length", [b"5x", b"-5"])
def test_malformed_content_length_is_400_and_closes(kind, length):
    """``Content-Length: 5x`` used to be coerced to 0, so the pipelined
    ``GET /nope`` body was answered as a second request (400 then 404);
    ``-5`` raised ValueError out of the handler and dropped the
    connection unanswered."""

    async def scenario():
        async with _listener(kind) as port:
            raw = await _raw(port, b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
                                   b"Connection: keep-alive\r\nContent-Length: "
                             + length + b"\r\n\r\n" + _NEXT)
        return _responses(raw)

    (status, headers, body), *rest = _run(scenario())
    assert (status, rest) == (400, [])
    assert headers["connection"] == "close"
    assert json.loads(body) == {
        "status": "error",
        "error": f"malformed Content-Length header {length.decode()!r}",
    }


@pytest.mark.parametrize("kind", ["daemon", "router"])
def test_oversize_body_is_413_and_closes(kind):
    """The 413 used to keep the connection open with the body unread, so
    a pipelined ``GET /healthz`` got a 200 as if it were a request."""

    async def scenario():
        async with _listener(kind) as port:
            raw = await _raw(port, b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
                                   b"Connection: keep-alive\r\n"
                                   b"Content-Length: 999999999999\r\n\r\n"
                                   b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        return _responses(raw)

    (status, headers, body), *rest = _run(scenario())
    assert (status, rest) == (413, [])
    assert headers["connection"] == "close"
    assert "too large" in json.loads(body)["error"]


@pytest.mark.parametrize("kind", ["daemon", "router"])
def test_body_starting_with_the_old_sentinel_is_an_ordinary_body(kind):
    """Oversize used to be signalled in-band by a body starting with
    ``\\x00too-large``, so any such 24-byte body was answered 413."""
    body = b"\x00too-large is not a flag"  # 24 bytes

    async def scenario():
        async with _listener(kind) as port:
            raw = await _raw(port, b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
                                   b"Content-Length: 24\r\n\r\n" + body)
        return _responses(raw)

    ((status, _, answer),) = _run(scenario())
    assert status == 400
    assert "invalid JSON body" in json.loads(answer)["error"]


# ----------------------------------------------------------------------
# router: a malformed backend response is a transport failure
# ----------------------------------------------------------------------
async def _broken_backend() -> asyncio.Server:
    """A backend that answers every request with ``Content-Length: 12x``."""

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                await reader.readexactly(_declared_length(head))
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                             b"Content-Length: 12x\r\nConnection: keep-alive\r\n\r\n"
                             b'{"status":1}')
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


@pytest.mark.parametrize("wire", ["bin", "json"])
def test_router_reroutes_malformed_backend_responses(wire):
    """Used to be relayed as ``200 OK`` with an empty body, counted as
    proxied, with no failure charged to the shard."""

    async def scenario():
        bad = await _broken_backend()
        good = ScheduleServer(SchedulingEngine(EngineConfig(workers=0)), port=0)
        await good.start()
        router = FleetRouter(port=0, health_interval=0, fail_threshold=2)
        await router.start()
        router.add_shard("bad", "127.0.0.1", bad.sockets[0].getsockname()[1])
        router.add_shard("good", "127.0.0.1", good.bound_port)
        client = ServiceClient(port=router.bound_port, wire=wire, request_timeout=30.0)
        try:
            owned_by_bad = [inst for inst in map(_instance, range(40))
                            if router.ring.owner(inst.fingerprint()) == "bad"][:2]
            first = await client.schedule(owned_by_bad[0], alg="HEFT")
            assert router.shards["bad"].failures == 1 and router.shards["bad"].alive
            await client.schedule(owned_by_bad[1], alg="HEFT")
            assert not router.shards["bad"].alive  # fail_threshold reached
            assert first.makespan > 0
            assert router.stats.retries == 2 and router.stats.proxied == 2
            assert router.shards["bad"].proxied == 0
            assert router.shards["good"].proxied == 2
            await client.close()
        finally:
            await router.stop()
            await good.stop()
            bad.close()
            await bad.wait_closed()

    _run(scenario())


def test_router_answers_503_when_only_malformed_backends_remain():
    async def scenario():
        bad = await _broken_backend()
        router = FleetRouter(port=0, health_interval=0, fail_threshold=1)
        await router.start()
        router.add_shard("bad", "127.0.0.1", bad.sockets[0].getsockname()[1])
        client = ServiceClient(port=router.bound_port, wire="json")
        try:
            with pytest.raises(ServiceClosedError, match="no live backend"):
                await client.schedule(_instance(), alg="HEFT")
            assert router.stats.proxied == 0 and router.stats.no_backend == 1
            assert router.stats.quarantines == 1
        finally:
            await router.stop()
            bad.close()
            await bad.wait_closed()

    _run(scenario())
