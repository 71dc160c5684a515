"""Length-prefixed binary wire format for instances and schedules.

The JSON documents of :mod:`repro.service.protocol` are self-describing
but expensive: the warm path of the service spends more time in
``json.dumps``/``json.loads`` than in scheduling (BENCH_service.json).
This module defines the binary alternative the server and client
negotiate via ``Content-Type``/``Accept`` (see
:data:`BINARY_CONTENT_TYPE`): the same information, serialised as
length-prefixed sections of packed little-endian scalars and flat
``float64``/``uint32`` arrays — the form the compiled core
(:mod:`repro.compiled`) already keeps instances in.

Deliberately stdlib-only (``struct``/``array``/``memoryview``): the
encoder packs straight out of the kernel's flat arrays (topo-ordered
task table, edge arrays, the dense ETC matrix) and the decoder reads
``memoryview`` slices in place — no intermediate dict tree is ever
materialised on either side.

Message layout (all integers little-endian)::

    header   magic b"RPWF" | version u8 | kind u8
    kinds    1 = instance    (a full problem instance)
             2 = request     (alg + options + nested instance blob)
             3 = payload     (a computed schedule, cache-value form)
             4 = response    (envelope + nested payload blob)

Primitives::

    str      u32 byte-length + UTF-8 bytes
    blob     u32 byte-length + raw bytes (a nested message)
    f64[n]   u32 count + n * 8 bytes packed float64
    u32[n]   u32 count + n * 4 bytes packed uint32
    id       tag u8 + body — 0 none, 1 false, 2 true, 3 i64,
             4 big-int (decimal string), 5 f64, 6 str,
             7 tuple (u32 count + ids; nested at most 32 deep)

Every decode checks the magic, then the version byte, then the kind:
a blob from a different format version raises
:class:`~repro.service.errors.WireVersionError` before any section is
touched, never a garbage decode.  The exact byte layout is pinned by
golden fixtures under ``tests/service/golden/`` and specified in
``docs/file-formats.md`` — change it only with a version bump.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from repro.service.errors import WireFormatError, WireVersionError
from repro.utils.encoding import decode_id, encode_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instance import Instance

__all__ = [
    "BINARY_CONTENT_TYPE",
    "MAGIC",
    "WIRE_VERSION",
    "KIND_INSTANCE",
    "KIND_REQUEST",
    "KIND_PAYLOAD",
    "KIND_RESPONSE",
    "PayloadColumns",
    "decode_instance",
    "decode_payload",
    "decode_request",
    "decode_response",
    "encode_instance",
    "encode_payload",
    "encode_request",
    "encode_response",
    "is_wire",
    "read_payload",
]

#: HTTP content type that selects this format (request bodies via
#: ``Content-Type``, response bodies via ``Accept``).
BINARY_CONTENT_TYPE = "application/x-repro-bin"

MAGIC = b"RPWF"
WIRE_VERSION = 1

KIND_INSTANCE = 1
KIND_REQUEST = 2
KIND_PAYLOAD = 3
KIND_RESPONSE = 4

_KIND_NAMES = {
    KIND_INSTANCE: "instance",
    KIND_REQUEST: "request",
    KIND_PAYLOAD: "payload",
    KIND_RESPONSE: "response",
}

_HEADER = struct.Struct("<4sBB")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Communication-model tags (section ``comm`` of an instance message).
_COMM_ZERO, _COMM_UNIFORM, _COMM_LINKS = 0, 1, 2

#: Optional trailing-section tags.  Trailers ride after the last
#: mandatory section of a message; a message without them is
#: byte-identical to the pre-trailer encoding, which keeps the golden
#: hex fixtures (and every cached blob) valid without a version bump.
_TRAILER_DEADLINE = 1       # instance: f64 end-to-end deadline
_TRAILER_SCHEDULABILITY = 1  # payload: canonical-JSON schedulability doc

#: Id tags.
_ID_NONE, _ID_FALSE, _ID_TRUE, _ID_I64, _ID_BIG, _ID_F64, _ID_STR, _ID_TUPLE = range(8)

#: Deepest tuple-id nesting a decoder accepts.  Real ids nest a level or
#: two; the bound keeps a hostile blob from exhausting the stack.
_MAX_ID_DEPTH = 32

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: Fixed-width scalar prefix of a payload message (directly after the
#: 6-byte header): num_tasks, num_procs, num_duplicates, placement
#: count, makespan.  One struct so lazy readers grab it in one call.
_PAYLOAD_PREFIX = struct.Struct("<IIIId")

_BIG_ENDIAN = sys.byteorder == "big"

#: The eight flags of each byte of a bitset, least significant bit first.
_BYTE_BITS = tuple(tuple(bool(b >> k & 1) for k in range(8)) for b in range(256))


# ----------------------------------------------------------------------
# low-level writer / reader
# ----------------------------------------------------------------------
class _Writer:
    """Accumulates packed sections; one ``b"".join`` at the end."""

    __slots__ = ("parts",)

    def __init__(self, kind: int) -> None:
        self.parts: list[bytes] = [_HEADER.pack(MAGIC, WIRE_VERSION, kind)]

    def u8(self, value: int) -> None:
        self.parts.append(_U8.pack(value))

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def f64(self, value: float) -> None:
        self.parts.append(_F64.pack(value))

    def str(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.parts.append(_U32.pack(len(raw)))
        self.parts.append(raw)

    def blob(self, raw: bytes) -> None:
        self.parts.append(_U32.pack(len(raw)))
        self.parts.append(raw)

    def f64s(self, values) -> None:
        """A float64 array section from any iterable of floats.

        ``numpy`` arrays take the fast path — their buffer is already
        packed IEEE-754 doubles, so the bytes are copied verbatim.
        """
        tobytes = getattr(values, "tobytes", None)
        if tobytes is not None and getattr(values, "dtype", None) is not None:
            if str(values.dtype) != "float64":  # pragma: no cover - defensive
                values = values.astype("float64")
            raw = values.tobytes()
            count = values.size
        else:
            arr = array("d", values)
            if _BIG_ENDIAN:  # pragma: no cover - little-endian on the wire
                arr.byteswap()
            raw = arr.tobytes()
            count = len(arr)
        if _BIG_ENDIAN and tobytes is not None:  # pragma: no cover
            raw = values.astype("<f8").tobytes()
        self.parts.append(_U32.pack(count))
        self.parts.append(raw)

    def u32s(self, values: Sequence[int]) -> None:
        arr = array("I", values)
        if arr.itemsize != 4:  # pragma: no cover - 'I' is 4 bytes on all majors
            raise WireFormatError("platform lacks a 4-byte unsigned array type")
        if _BIG_ENDIAN:  # pragma: no cover
            arr.byteswap()
        self.parts.append(_U32.pack(len(arr)))
        self.parts.append(arr.tobytes())

    def id(self, value) -> None:
        if value is None:
            self.u8(_ID_NONE)
        elif value is False:
            self.u8(_ID_FALSE)
        elif value is True:
            self.u8(_ID_TRUE)
        elif isinstance(value, int):
            if _I64_MIN <= value <= _I64_MAX:
                self.u8(_ID_I64)
                self.parts.append(_I64.pack(value))
            else:
                self.u8(_ID_BIG)
                self.str(str(value))
        elif isinstance(value, float):
            self.u8(_ID_F64)
            self.f64(value)
        elif isinstance(value, str):
            self.u8(_ID_STR)
            self.str(value)
        elif isinstance(value, tuple):
            self.u8(_ID_TUPLE)
            self.u32(len(value))
            for item in value:
                self.id(item)
        else:
            raise WireFormatError(
                f"cannot encode id of type {type(value).__name__}: {value!r}"
            )

    def ids(self, values) -> None:
        """An id table: count, mode byte, then the ids.

        Mode 1 is the packed fast path — every id is a plain ``int`` in
        i64 range (the overwhelmingly common case for task/processor
        ids), stored as one contiguous i64 block the decoder can unpack
        in a single call.  Mode 0 falls back to per-id tags.
        """
        values = list(values)
        self.u32(len(values))
        if values and all(
            type(v) is int and _I64_MIN <= v <= _I64_MAX for v in values
        ):
            self.u8(1)
            self.parts.append(struct.pack(f"<{len(values)}q", *values))
        else:
            self.u8(0)
            for value in values:
                self.id(value)

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Sequential reader over one message; slices are ``memoryview``\\ s."""

    __slots__ = ("view", "off")

    def __init__(self, buf) -> None:
        self.view = memoryview(buf)
        self.off = 0

    def _take(self, n: int) -> memoryview:
        end = self.off + n
        if end > len(self.view):
            raise WireFormatError(
                f"truncated wire blob: wanted {n} bytes at offset {self.off}, "
                f"have {len(self.view) - self.off}"
            )
        out = self.view[self.off:end]
        self.off = end
        return out

    def u8(self) -> int:
        return _U8.unpack_from(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self._take(4))[0]

    def f64(self) -> float:
        return _F64.unpack_from(self._take(8))[0]

    def str(self) -> str:
        n = self.u32()
        try:
            return bytes(self._take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in wire string: {exc}") from None

    def blob(self) -> memoryview:
        return self._take(self.u32())

    def f64s(self) -> array:
        n = self.u32()
        arr = array("d")
        arr.frombytes(self._take(8 * n))
        if _BIG_ENDIAN:  # pragma: no cover
            arr.byteswap()
        return arr

    def u32s(self) -> array:
        n = self.u32()
        arr = array("I")
        arr.frombytes(self._take(4 * n))
        if _BIG_ENDIAN:  # pragma: no cover
            arr.byteswap()
        return arr

    def id(self, depth: int = 0):
        tag = self.u8()
        if tag == _ID_NONE:
            return None
        if tag == _ID_FALSE:
            return False
        if tag == _ID_TRUE:
            return True
        if tag == _ID_I64:
            return _I64.unpack_from(self._take(8))[0]
        if tag == _ID_BIG:
            text = self.str()
            try:
                return int(text)
            except ValueError:
                raise WireFormatError(f"invalid big-int id {text[:40]!r}") from None
        if tag == _ID_F64:
            return self.f64()
        if tag == _ID_STR:
            return self.str()
        if tag == _ID_TUPLE:
            if depth >= _MAX_ID_DEPTH:
                raise WireFormatError(
                    f"tuple id nested deeper than {_MAX_ID_DEPTH} levels"
                )
            return tuple(self.id(depth + 1) for _ in range(self.u32()))
        raise WireFormatError(f"unknown id tag {tag}")

    def ids(self) -> list:
        n = self.u32()
        mode = self.u8()
        if mode == 1:
            return list(struct.unpack(f"<{n}q", self._take(8 * n)))
        if mode != 0:
            raise WireFormatError(f"unknown id-table mode {mode}")
        return [self.id() for _ in range(n)]

    def done(self) -> bool:
        return self.off == len(self.view)


def is_wire(buf: bytes | memoryview) -> bool:
    """Cheap sniff: does ``buf`` start with this format's magic?"""
    return len(buf) >= 4 and bytes(buf[:4]) == MAGIC


def _open(buf, kind: int) -> _Reader:
    """Validate the header of one message and position a reader after it."""
    reader = _Reader(buf)
    head = bytes(reader._take(_HEADER.size)) if len(reader.view) >= _HEADER.size else None
    if head is None:
        raise WireFormatError(
            f"wire blob too short for a header ({len(reader.view)} bytes)"
        )
    magic, version, got_kind = _HEADER.unpack(head)
    if magic != MAGIC:
        raise WireFormatError(f"bad wire magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )
    if got_kind != kind:
        raise WireFormatError(
            f"wrong wire kind {_KIND_NAMES.get(got_kind, got_kind)!r} "
            f"(expected {_KIND_NAMES[kind]!r})"
        )
    return reader


# ----------------------------------------------------------------------
# instance
# ----------------------------------------------------------------------
def encode_instance(instance: "Instance") -> bytes:
    """Serialise a full instance to its binary wire form.

    Sources the hot sections from the instance's kernel lowering — the
    canonical task table, flat edge arrays and the dense ETC matrix —
    so encoding is array packing, not document building.  Lossless:
    names, task attrs, ETC row/column order and the communication model
    all round-trip exactly (``decode_instance(encode_instance(x))``
    re-serialises byte-identically to ``x``).
    """
    from repro.machine.comm import (
        LinkCommunication,
        UniformCommunication,
        ZeroCommunication,
    )

    dag = instance.dag
    machine = instance.machine
    etc = instance.etc
    kernel = instance.kernel
    tasks = kernel.tasks
    procs = kernel.procs
    ti = kernel.ti
    pi = kernel.pi

    w = _Writer(KIND_INSTANCE)
    w.str(instance.name)
    w.str(dag.name)
    w.str(machine.name)

    edges = list(dag.edges())
    w.u32(len(tasks))
    w.u32(len(procs))
    w.u32(len(edges))

    w.ids(tasks)
    w.f64s(dag.cost(t) for t in tasks)
    for t in tasks:
        task = dag.task(t)
        w.str("" if task.name == str(t) else task.name)
    attrs = [(i, dag.task(t).attrs) for i, t in enumerate(tasks) if dag.task(t).attrs]
    w.u32(len(attrs))
    for i, mapping in attrs:
        w.u32(i)
        w.str(json.dumps(dict(mapping), sort_keys=True, default=str))

    # Flat edge arrays in the DAG's own iteration order, so the decoded
    # graph replays the exact construction sequence (iteration order is
    # part of the library's determinism contract).
    w.u32s([ti[u] for u, _ in edges])
    w.u32s([ti[v] for _, v in edges])
    w.f64s(dag.data(u, v) for u, v in edges)

    w.ids(procs)
    w.f64s(machine.speed(p) for p in procs)
    for p in procs:
        w.str(machine.processor(p).name)

    comm = machine.comm
    if isinstance(comm, ZeroCommunication):
        w.u8(_COMM_ZERO)
    elif isinstance(comm, UniformCommunication):
        w.u8(_COMM_UNIFORM)
        w.f64(comm.latency)
        w.f64(comm.bandwidth)
    elif isinstance(comm, LinkCommunication):
        w.u8(_COMM_LINKS)
        pairs = [(src, dst) for src in procs for dst in procs if src != dst]
        w.u32(len(pairs))
        for src, dst in pairs:
            latency, bandwidth = comm.link(src, dst)
            w.u32(pi[src])
            w.u32(pi[dst])
            w.f64(latency)
            w.f64(bandwidth)
    else:
        raise WireFormatError(
            f"cannot encode communication model {type(comm).__name__}"
        )

    # The ETC matrix in *its own* row/column order (which may differ
    # from the canonical kernel order): permutation indices into the id
    # tables, then the dense float block verbatim.
    w.u32s([ti[t] for t in etc.task_ids])
    w.u32s([pi[p] for p in etc.proc_ids])
    w.f64s(etc.as_array().reshape(-1))
    # Optional trailing constraint sections (tag u8 + body).  Absent for
    # unconstrained instances, so those encode byte-identically to wire
    # version 1 before constraints existed — the golden fixtures pin it.
    if instance.deadline is not None:
        w.u8(_TRAILER_DEADLINE)
        w.f64(instance.deadline)
    return w.bytes()


def decode_instance(buf: bytes | memoryview) -> "Instance":
    """Rebuild an :class:`~repro.instance.Instance` from its wire form.

    Reads packed sections straight out of the buffer (``memoryview``
    slices, no intermediate document) and replays the original
    construction order, so iteration orders — and therefore scheduling
    results — are identical to the instance that was encoded.
    """
    import numpy as np

    from repro.dag.graph import TaskDAG
    from repro.dag.task import Task
    from repro.instance import MAX_TIME_SCALE, Instance
    from repro.machine.cluster import Machine
    from repro.machine.comm import (
        LinkCommunication,
        UniformCommunication,
        ZeroCommunication,
    )
    from repro.machine.etc import ETCMatrix
    from repro.machine.processor import Processor

    r = _open(buf, KIND_INSTANCE)
    name = r.str()
    dag_name = r.str()
    machine_name = r.str()
    n = r.u32()
    q = r.u32()
    n_edges = r.u32()

    task_ids = r.ids()
    if len(task_ids) != n:
        raise WireFormatError(f"task table holds {len(task_ids)} ids, expected {n}")
    costs = r.f64s()
    names = [r.str() for _ in range(n)]
    attrs: dict[int, dict] = {}
    for _ in range(r.u32()):
        i = r.u32()
        try:
            mapping = json.loads(r.str())
        except (ValueError, RecursionError) as exc:
            raise WireFormatError(f"invalid task attrs JSON: {exc}") from None
        if not isinstance(mapping, dict):
            raise WireFormatError(
                f"task attrs must be a JSON object, got {type(mapping).__name__}"
            )
        attrs[i] = mapping

    src = r.u32s()
    dst = r.u32s()
    data = r.f64s()
    if not (len(src) == len(dst) == len(data) == n_edges):
        raise WireFormatError(
            f"edge sections disagree: {len(src)}/{len(dst)}/{len(data)} vs {n_edges}"
        )

    proc_ids = r.ids()
    if len(proc_ids) != q:
        raise WireFormatError(f"proc table holds {len(proc_ids)} ids, expected {q}")
    speeds = r.f64s()
    proc_names = [r.str() for _ in range(q)]

    comm_tag = r.u8()
    if comm_tag == _COMM_ZERO:
        comm = ZeroCommunication()
    elif comm_tag == _COMM_UNIFORM:
        comm = UniformCommunication(r.f64(), r.f64())
    elif comm_tag == _COMM_LINKS:
        lat: dict = {p: {} for p in proc_ids}
        bw: dict = {p: {} for p in proc_ids}
        for _ in range(r.u32()):
            i, j = r.u32(), r.u32()
            if i >= q or j >= q:
                raise WireFormatError(f"link record references processor {max(i, j)} of {q}")
            s, d = proc_ids[i], proc_ids[j]
            lat[s][d] = r.f64()
            bw[s][d] = r.f64()
        comm = LinkCommunication(proc_ids, lat, bw)
    else:
        raise WireFormatError(f"unknown communication tag {comm_tag}")

    etc_task_perm = r.u32s()
    etc_proc_perm = r.u32s()
    etc_values = r.f64s()
    rows, cols = len(etc_task_perm), len(etc_proc_perm)
    if len(etc_values) != rows * cols:
        raise WireFormatError(
            f"ETC block holds {len(etc_values)} values, expected {rows}x{cols}"
        )

    # Trailing constraint sections (absent in pre-constraint encodings).
    deadline = None
    while not r.done():
        tag = r.u8()
        if tag == _TRAILER_DEADLINE:
            deadline = r.f64()
        else:
            raise WireFormatError(f"unknown instance trailer tag {tag}")

    try:
        dag = TaskDAG(dag_name)
        for i, tid in enumerate(task_ids):
            dag.add_task(Task(id=tid, cost=costs[i], name=names[i],
                              attrs=attrs.get(i, {})))
        for k in range(n_edges):
            dag.add_edge(task_ids[src[k]], task_ids[dst[k]], data=data[k])
        machine = Machine(
            [Processor(id=p, speed=speeds[j], name=proc_names[j])
             for j, p in enumerate(proc_ids)],
            comm, name=machine_name,
        )
        etc = ETCMatrix(
            [task_ids[i] for i in etc_task_perm],
            [proc_ids[j] for j in etc_proc_perm],
            np.array(etc_values, dtype=float).reshape(rows, cols),
        )
        instance = Instance(dag=dag, machine=machine, etc=etc, name=name,
                            deadline=deadline)
    except IndexError:
        raise WireFormatError("wire instance references an out-of-range index") from None
    if not instance.time_scale() <= MAX_TIME_SCALE:  # NaN fails too
        raise WireFormatError(f"instance time scale exceeds {MAX_TIME_SCALE!r}")
    return instance


# ----------------------------------------------------------------------
# request
# ----------------------------------------------------------------------
_REQ_HAS_TIMEOUT = 1
_REQ_HAS_TRACE = 2
_REQ_NO_INSTANCE = 4


def encode_request(instance: "Instance", alg: str, timeout: float | None = None,
                   trace_id: str | None = None,
                   instance_bytes: bytes | None = None,
                   fingerprint: str | None = None,
                   compact: bool = False) -> bytes:
    """Assemble the binary body of a ``POST /v1/schedule`` request.

    ``instance_bytes`` (an already-encoded instance message) skips
    re-encoding — the client memoises encoded instances by fingerprint
    the same way it memoises JSON bodies.

    ``fingerprint`` is the instance's content address.  Carrying it in
    the request lets the server answer a warm hit by direct cache-key
    lookup — no body hashing, no instance decode.  It is only ever a
    lookup hint: entries are stored under the key the *server* computes
    from the decoded instance, so a wrong claim merely misses and gets
    recomputed honestly.

    ``compact=True`` omits the instance blob entirely — a content-
    addressed request a few dozen bytes long.  Valid only with a
    ``fingerprint``; the server answers from its cache or rejects with
    an ``unknown instance fingerprint`` error, upon which the client
    resends the full form.
    """
    w = _Writer(KIND_REQUEST)
    w.str(alg)
    w.str(fingerprint if fingerprint is not None
          else (instance.fingerprint() if instance is not None else ""))
    flags = (_REQ_HAS_TIMEOUT if timeout is not None else 0) | (
        _REQ_HAS_TRACE if trace_id is not None else 0
    ) | (_REQ_NO_INSTANCE if compact else 0)
    w.u8(flags)
    if timeout is not None:
        w.f64(float(timeout))
    if trace_id is not None:
        w.str(trace_id)
    if not compact:
        w.blob(instance_bytes if instance_bytes is not None
               else encode_instance(instance))
    return w.bytes()


def decode_request(
    buf: bytes | memoryview,
) -> tuple[memoryview | None, str, str, float | None, str | None]:
    """Split a binary request into ``(instance_blob, alg, fingerprint,
    timeout, trace_id)``.

    The nested instance message is returned *encoded* (a zero-copy
    ``memoryview``): the server decodes it via :func:`decode_instance`
    only on a cache miss, and ships the same bytes to the worker, which
    decodes packed arrays without any intermediate JSON document.
    ``fingerprint`` is the client's claimed content address (empty
    string when absent) — a cache lookup hint, never a storage key.
    ``instance_blob`` is ``None`` for a compact (fingerprint-only)
    request.
    """
    r = _open(buf, KIND_REQUEST)
    alg = r.str()
    fingerprint = r.str()
    flags = r.u8()
    timeout = r.f64() if flags & _REQ_HAS_TIMEOUT else None
    trace_id = r.str() if flags & _REQ_HAS_TRACE else None
    if flags & _REQ_NO_INSTANCE:
        if not fingerprint:
            raise WireFormatError("compact request carries no fingerprint")
        blob = None
    else:
        blob = r.blob()
    if timeout is not None and timeout <= 0:
        raise WireFormatError(f"timeout must be > 0, got {timeout}")
    return blob, alg, fingerprint, timeout, trace_id


def peek_request_fingerprint(buf: bytes | memoryview) -> str:
    """The fingerprint a binary request carries, from its fixed prefix.

    Requests put ``alg`` and ``fingerprint`` immediately after the
    header, before flags and the instance blob, precisely so a router
    can read its routing key without touching (or validating) the
    potentially-large remainder.  Returns ``""`` when the request
    carries no fingerprint; raises :class:`WireFormatError` /
    :class:`WireVersionError` like :func:`decode_request` when even the
    prefix is malformed.
    """
    r = _open(buf, KIND_REQUEST)
    r.str()  # alg
    return r.str()


# ----------------------------------------------------------------------
# schedule payload (the cache-value form)
# ----------------------------------------------------------------------
def encode_payload(payload: dict) -> bytes:
    """Serialise one response payload (:func:`~repro.service.protocol.
    schedule_payload` form) into flat placement arrays.

    Task/processor ids are interned into per-message tables; the
    placements become four packed arrays plus a duplicate bitset.
    Content-addressed cache entries are immutable, so the server encodes
    each payload once and serves the same bytes to every warm hit.
    """
    placements = payload["placements"]
    w = _Writer(KIND_PAYLOAD)
    # Fixed-width scalars first (one struct for lazy readers), then the
    # variable-length names, then the arrays.
    w.parts.append(_PAYLOAD_PREFIX.pack(
        int(payload["num_tasks"]),
        int(payload["num_procs"]),
        int(payload.get("num_duplicates", 0)),
        len(placements),
        float(payload["makespan"]),
    ))
    w.str(payload["alg"])
    w.str(str(payload.get("instance", "")))
    task_table: dict = {}
    proc_table: dict = {}
    task_refs: list[int] = []
    proc_refs: list[int] = []
    for rec in placements:
        task = decode_id(rec["task"])
        proc = decode_id(rec["proc"])
        task_refs.append(task_table.setdefault(task, len(task_table)))
        proc_refs.append(proc_table.setdefault(proc, len(proc_table)))
    w.ids(list(task_table))
    w.ids(list(proc_table))
    w.u32s(task_refs)
    w.u32s(proc_refs)
    w.f64s(float(rec["start"]) for rec in placements)
    w.f64s(float(rec["end"]) for rec in placements)
    bits = bytearray((len(placements) + 7) // 8)
    for i, rec in enumerate(placements):
        if rec.get("duplicate", False):
            bits[i >> 3] |= 1 << (i & 7)
    w.parts.append(bytes(bits))
    # Optional trailing sections.  The schedulability verdict is a small
    # nested document with no hot-path consumers, so it rides as its
    # canonical JSON encoding (sorted keys, compact separators) rather
    # than growing the packed-array vocabulary; payloads without it are
    # byte-identical to the pre-trailer encoding.
    schedulability = payload.get("schedulability")
    if schedulability is not None:
        w.u8(_TRAILER_SCHEDULABILITY)
        w.str(json.dumps(schedulability, sort_keys=True, separators=(",", ":")))
    return w.bytes()


class PayloadColumns:
    """One payload message read into parallel columns.

    What :func:`read_payload` returns: the scalar prefix, the task and
    processor id tables exactly as decoded (tuples stay tuples), and
    one list per placement field — ``task_refs``/``proc_refs`` index the
    id tables (every ref already checked in range), ``starts``/``ends``
    are floats and ``duplicates`` bools.  ``trailers`` maps trailer
    names to their decoded values.

    Every read of a binary payload is built from these columns:
    :meth:`placements` zips them into ``(task, proc, start, end,
    duplicate)`` tuples with no per-id encode or decode, and
    :meth:`to_dict` is the JSON-shaped payload dict, encoding each id
    table once.
    """

    __slots__ = ("num_tasks", "num_procs", "num_duplicates", "makespan", "alg",
                 "instance", "task_ids", "proc_ids", "task_refs", "proc_refs",
                 "starts", "ends", "duplicates", "trailers")

    def placements(self) -> tuple:
        """Every placement as a ``(task, proc, start, end, duplicate)``
        tuple, in wire order, ids as decoded."""
        return tuple(zip(
            map(self.task_ids.__getitem__, self.task_refs),
            map(self.proc_ids.__getitem__, self.proc_refs),
            self.starts, self.ends, self.duplicates,
        ))

    def to_dict(self) -> dict:
        """The payload dict the JSON wire delivers for the encoded
        payload, ids in their JSON encoding
        (:func:`~repro.utils.encoding.encode_id`), each table encoded
        once."""
        tasks = [encode_id(t) for t in self.task_ids]
        procs = [encode_id(p) for p in self.proc_ids]
        out = {
            "alg": self.alg,
            "instance": self.instance,
            "num_tasks": self.num_tasks,
            "num_procs": self.num_procs,
            "makespan": self.makespan,
            "num_duplicates": self.num_duplicates,
            "placements": [
                {"task": tasks[t], "proc": procs[p], "start": s, "end": e, "duplicate": d}
                for t, p, s, e, d in zip(self.task_refs, self.proc_refs,
                                         self.starts, self.ends, self.duplicates)
            ],
        }
        out.update(self.trailers)
        return out


def read_payload(buf: bytes | memoryview) -> PayloadColumns:
    """The one column reader of a payload message.

    A single pass over the packed sections: it checks the header, that
    every array holds the declared placement count, that every task and
    processor ref falls inside its id table, and every trailer, and
    raises :class:`WireFormatError` (never a bare ``IndexError``) on the
    first violation.  The arrays convert to Python lists once, in bulk:
    indexing an ``array`` allocates a fresh object per access.
    """
    r = _open(buf, KIND_PAYLOAD)
    cols = PayloadColumns()
    (cols.num_tasks, cols.num_procs, cols.num_duplicates, count, cols.makespan) = (
        _PAYLOAD_PREFIX.unpack_from(r._take(_PAYLOAD_PREFIX.size))
    )
    cols.alg = r.str()
    cols.instance = r.str()
    cols.task_ids = task_ids = r.ids()
    cols.proc_ids = proc_ids = r.ids()
    cols.task_refs = task_refs = r.u32s().tolist()
    cols.proc_refs = proc_refs = r.u32s().tolist()
    cols.starts = r.f64s().tolist()
    cols.ends = r.f64s().tolist()
    bits = r._take((count + 7) // 8)
    if len(task_refs) != count or len(proc_refs) != count:
        raise WireFormatError("placement reference arrays disagree with count")
    if len(cols.starts) != count or len(cols.ends) != count:
        raise WireFormatError("placement time arrays disagree with count")
    if count and (max(task_refs) >= len(task_ids) or max(proc_refs) >= len(proc_ids)):
        raise WireFormatError("placement references an out-of-range id")
    cols.duplicates = list(chain.from_iterable(map(_BYTE_BITS.__getitem__, bits)))[:count]
    cols.trailers = {}
    while not r.done():
        tag = r.u8()
        if tag == _TRAILER_SCHEDULABILITY:
            try:
                cols.trailers["schedulability"] = json.loads(r.str())
            except (ValueError, RecursionError) as exc:
                raise WireFormatError(f"invalid schedulability JSON: {exc}") from None
        else:
            raise WireFormatError(f"unknown payload trailer tag {tag}")
    return cols


def decode_payload(buf: bytes | memoryview) -> dict:
    """Inverse of :func:`encode_payload`: the exact payload dict back.

    The dict view of :func:`read_payload`'s columns; a reader that wants
    the placements themselves should zip the columns instead
    (:meth:`PayloadColumns.placements`) and skip the dict tree.
    """
    return read_payload(buf).to_dict()


# ----------------------------------------------------------------------
# response envelope
# ----------------------------------------------------------------------
_RSP_CACHE_HIT = 1
_RSP_HAS_TRACE = 2


def encode_response(payload_bytes: bytes, *, cache_hit: bool, fingerprint: str,
                    server_ms: float, trace_id: str | None = None) -> bytes:
    """Wrap one encoded payload in the per-request response envelope.

    The envelope carries exactly the fields the engine adds on top of
    the cached payload (``cache_hit``/``fingerprint``/``server_ms``/
    ``trace_id``) — they vary per request, the payload bytes never do,
    which is what lets a warm hit reuse the stored encoding verbatim.
    """
    w = _Writer(KIND_RESPONSE)
    flags = (_RSP_CACHE_HIT if cache_hit else 0) | (
        _RSP_HAS_TRACE if trace_id is not None else 0
    )
    w.u8(flags)
    w.f64(float(server_ms))
    w.str(fingerprint)
    if trace_id is not None:
        w.str(trace_id)
    w.blob(payload_bytes)
    return w.bytes()


def decode_response(buf: bytes | memoryview) -> dict:
    """Decode a binary response into the merged result dict.

    Returns the same shape the JSON path's ``answer["result"]`` has —
    the payload fields plus ``cache_hit``/``fingerprint``/``server_ms``
    (and ``trace_id`` when present) — so
    :meth:`~repro.service.protocol.ScheduleResult.from_payload` consumes
    either wire format unchanged.
    """
    return ResponseView(buf).payload


class ResponseView:
    """Zero-copy view of one binary schedule response.

    Construction parses only the envelope and the payload's scalar
    prefix (algorithm, instance name, makespan, counts) — a few dozen
    bytes.  The placement arrays stay untouched in the receive buffer
    until :attr:`columns` is first read, which runs :func:`read_payload`
    once; :attr:`payload`, the merged result dict, is the dict view of
    those columns and is only built for a caller that reads it.  A
    consumer that only needs the makespan never reads the arrays, and
    one that reads the placement tuples
    (:class:`~repro.service.protocol.WireScheduleResult`) never builds a
    placement dict.
    """

    __slots__ = ("cache_hit", "fingerprint", "server_ms", "trace_id",
                 "alg", "instance", "num_tasks", "num_procs", "makespan",
                 "num_duplicates", "num_placements", "_payload_buf",
                 "_columns", "_payload")

    def __init__(self, buf: bytes | memoryview) -> None:
        r = _open(buf, KIND_RESPONSE)
        flags = r.u8()
        self.cache_hit = bool(flags & _RSP_CACHE_HIT)
        self.server_ms = r.f64()
        self.fingerprint = r.str()
        self.trace_id = r.str() if flags & _RSP_HAS_TRACE else None
        self._payload_buf = r.blob()
        p = _open(self._payload_buf, KIND_PAYLOAD)
        (self.num_tasks, self.num_procs, self.num_duplicates,
         self.num_placements, self.makespan) = (
            _PAYLOAD_PREFIX.unpack_from(p._take(_PAYLOAD_PREFIX.size))
        )
        self.alg = p.str()
        self.instance = p.str()
        self._columns = None
        self._payload = None

    @property
    def columns(self) -> PayloadColumns:
        """The payload's placement columns, read on first access and
        memoised."""
        if self._columns is None:
            self._columns = read_payload(self._payload_buf)
        return self._columns

    @property
    def payload(self) -> dict:
        """The merged result dict, built from :attr:`columns` on first
        access and memoised — identical to what the JSON path's
        ``answer["result"]`` carries."""
        if self._payload is None:
            result = self.columns.to_dict()
            result["cache_hit"] = self.cache_hit
            result["fingerprint"] = self.fingerprint
            result["server_ms"] = self.server_ms
            if self.trace_id is not None:
                result["trace_id"] = self.trace_id
            self._payload = result
        return self._payload
