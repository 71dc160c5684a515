"""Regression tests: decoders of untrusted input raise typed errors.

Every decoder of untrusted bytes or documents must return a valid object
or raise a :class:`~repro.exceptions.ReproError`.  Each case below used
to escape as a bare built-in exception:

- a per-link wire instance whose link record names a processor index
  past the processor table raised ``IndexError`` (and a live
  ``repro serve`` dropped the connection instead of answering 400);
- a big-int id whose text is not a number raised ``ValueError`` from
  ``decode_payload``, ``decode_response`` and ``ResponseView.payload``;
- a JSON DAG edge without ``dst`` raised ``KeyError``, and a ragged ETC
  row raised NumPy's ``ValueError``;
- deeply nested JSON raised ``RecursionError``, and a schedule document
  record without ``start`` raised ``KeyError``;
- an instance whose link latency decoded as 3.8e129 (four mutated bytes
  of a golden frame) came back, and HEFT then placed three tasks at
  that time with every duration rounded away, a schedule ``validate``
  rejects; both decoders now refuse an instance whose time scale passes
  ``MAX_TIME_SCALE``.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.dag.generators import random_dag
from repro.dag.io import from_json, to_json
from repro.exceptions import ParseError
from repro.instance import Instance, make_instance
from repro.instance_io import instance_from_json, instance_to_json
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.schedule.io import schedule_from_json, schedule_to_json
from repro.schedulers.registry import get_scheduler
from repro.service import EngineConfig, ScheduleServer, SchedulingEngine, wire
from repro.service.errors import WireFormatError

#: Latency of every link: its f64 bytes locate the link records.
_MARKER_LAT = 0.1234567


def _link_instance() -> Instance:
    procs = [0, 1, 2]
    lat = {s: {d: _MARKER_LAT for d in procs if d != s} for s in procs}
    bw = {s: {d: 2.0 for d in procs if d != s} for s in procs}
    machine = Machine([Processor(id=p, speed=1.0) for p in procs],
                      LinkCommunication(procs, lat, bw), name="links")
    dag = random_dag(8, seed=1)
    return Instance(dag=dag, machine=machine, etc=generate_etc(dag, machine, seed=1))


def _bad_link_index(blob: bytes, field: int, index: int) -> bytes:
    """``blob`` with the first link record's source (``field=0``) or
    destination (``field=1``) processor index replaced by ``index``.  A
    record is ``u32 src, u32 dst, f64 latency, f64 bandwidth``."""
    marker = struct.pack("<d", _MARKER_LAT)
    assert blob.count(marker) == 6
    at = blob.index(marker) - 8 + 4 * field
    return blob[:at] + struct.pack("<I", index) + blob[at + 4:]


@pytest.mark.parametrize("index", [3, 0xFFFFFFFF])
@pytest.mark.parametrize("field", [0, 1], ids=["src", "dst"])
def test_link_record_naming_a_missing_processor_is_rejected(field, index):
    blob = wire.encode_instance(_link_instance())
    assert _bad_link_index(blob, field, field) == blob  # the first record is 0 -> 1
    with pytest.raises(WireFormatError, match="link record"):
        wire.decode_instance(_bad_link_index(blob, field, index))


def test_live_server_answers_400_to_a_bad_link_record():
    body = _bad_link_index(wire.encode_request(_link_instance(), "HEFT"), 0, 7)
    request = (
        b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: " + wire.BINARY_CONTENT_TYPE.encode() + b"\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body

    async def scenario() -> bytes:
        server = ScheduleServer(SchedulingEngine(EngineConfig(workers=0)), port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(request)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            return raw
        finally:
            await server.stop()

    raw = asyncio.run(scenario())
    assert raw.startswith(b"HTTP/1.1 400"), raw[:80]
    assert b"link record" in raw


_BIG = 2**70


def _big_id_payload() -> dict:
    return {
        "alg": "HEFT", "instance": "big", "num_tasks": 1, "num_procs": 1,
        "makespan": 1.0, "num_duplicates": 0,
        "placements": [{"task": _BIG, "proc": 0, "start": 0.0, "end": 1.0,
                        "duplicate": False}],
    }


def _corrupt_big_id(blob: bytes) -> bytes:
    digits = str(_BIG).encode()
    assert blob.count(digits) == 1
    return blob.replace(digits, b"x" * len(digits))


def _bad_response() -> bytes:
    payload = _corrupt_big_id(wire.encode_payload(_big_id_payload()))
    return wire.encode_response(payload, cache_hit=False, fingerprint="f" * 64, server_ms=1.0)


def test_big_int_id_roundtrips():
    assert wire.decode_payload(wire.encode_payload(_big_id_payload()))["placements"][0]["task"] == _BIG


@pytest.mark.parametrize("decode", [
    lambda: wire.decode_payload(_corrupt_big_id(wire.encode_payload(_big_id_payload()))),
    lambda: wire.decode_response(_bad_response()),
    lambda: wire.ResponseView(_bad_response()).payload,
], ids=["decode_payload", "decode_response", "ResponseView.payload"])
def test_non_numeric_big_int_id_is_rejected(decode):
    with pytest.raises(WireFormatError, match="big-int id"):
        decode()


def test_bad_schedulability_trailer_is_rejected():
    payload = dict(_big_id_payload(), schedulability={"deadline": 1.0})
    blob = wire.encode_payload(payload)
    good = b'{"deadline":1.0}'
    assert blob.count(good) == 1
    with pytest.raises(WireFormatError, match="schedulability"):
        wire.decode_payload(blob.replace(good, b'{"deadline":1.0!'))


def _dag_doc() -> dict:
    return json.loads(to_json(random_dag(6, seed=2)))


def _instance_doc() -> dict:
    return json.loads(instance_to_json(make_instance(random_dag(6, seed=2), num_procs=3, seed=2)))


@pytest.mark.parametrize("key", ["src", "dst"])
def test_dag_edge_without_an_endpoint_is_a_parse_error(key):
    doc = _dag_doc()
    del doc["edges"][0][key]
    with pytest.raises(ParseError, match="malformed DAG JSON"):
        from_json(json.dumps(doc))
    inst = _instance_doc()
    del inst["dag"]["edges"][0][key]
    with pytest.raises(ParseError, match="malformed DAG JSON"):
        instance_from_json(json.dumps(inst))


@pytest.mark.parametrize("change", [
    lambda doc: doc["tasks"][0].pop("id"),
    lambda doc: doc["tasks"].__setitem__(0, 5),
    lambda doc: doc["tasks"][0].__setitem__("cost", "heavy"),
    lambda doc: doc["tasks"][0].__setitem__("id", [1, 2]),
], ids=["task-without-id", "task-not-object", "cost-not-number", "unhashable-id"])
def test_malformed_dag_records_are_parse_errors(change):
    doc = _dag_doc()
    change(doc)
    with pytest.raises(ParseError, match="malformed DAG JSON"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("change", [
    lambda doc: doc["etc"]["values"][1].pop(),
    lambda doc: doc["etc"]["values"][0].__setitem__(0, "slow"),
    lambda doc: doc.pop("etc"),
    lambda doc: doc["etc"].pop("procs"),
    lambda doc: doc["machine"].__setitem__("processors", 3),
], ids=["ragged-etc-row", "etc-cell-not-number", "no-etc", "etc-without-procs",
        "processors-not-list"])
def test_malformed_instance_documents_are_parse_errors(change):
    doc = _instance_doc()
    change(doc)
    with pytest.raises(ParseError, match="malformed instance JSON"):
        instance_from_json(json.dumps(doc))


def test_instance_document_that_is_not_an_object_is_a_parse_error():
    with pytest.raises(ParseError, match="must be an object"):
        instance_from_json("[1, 2]")


def test_typed_errors_inside_documents_keep_their_type():
    from repro.exceptions import CycleError

    doc = _dag_doc()
    first = doc["edges"][0]
    doc["edges"].append({"src": first["dst"], "dst": first["src"], "data": 0.0})
    with pytest.raises(CycleError):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("decode", [
    from_json, instance_from_json, lambda text: schedule_from_json(text, Machine.homogeneous(2)),
], ids=["dag.from_json", "instance_from_json", "schedule_from_json"])
@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 50_000 + "1" + "}" * 50_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_json_is_a_parse_error(decode, text):
    with pytest.raises(ParseError, match="invalid JSON"):
        decode(text)


def _schedule_doc() -> tuple[dict, Machine]:
    inst = make_instance(random_dag(6, seed=2), num_procs=3, seed=2)
    return json.loads(schedule_to_json(get_scheduler("HEFT").schedule(inst))), inst.machine


@pytest.mark.parametrize("change", [
    lambda doc: doc["placements"][0].pop("start"),
    lambda doc: doc["placements"][0].__setitem__("end", "late"),
    lambda doc: doc["placements"].__setitem__(0, 7),
    lambda doc: doc["placements"][0].__setitem__("proc", [0]),
], ids=["no-start", "end-not-number", "record-not-object", "unhashable-proc"])
def test_malformed_schedule_documents_are_parse_errors(change):
    doc, machine = _schedule_doc()
    assert schedule_from_json(json.dumps(doc), machine).makespan > 0
    change(doc)
    with pytest.raises(ParseError, match="malformed schedule JSON"):
        schedule_from_json(json.dumps(doc), machine)


def test_instance_past_the_time_scale_is_rejected_by_both_decoders():
    from pathlib import Path

    from repro.instance import MAX_TIME_SCALE
    from repro.machine.comm import UniformCommunication
    from repro.schedule.validation import violations

    golden = Path(__file__).parent / "service" / "golden" / "consistent-small.instance.hex"
    frame = bytearray(bytes.fromhex(golden.read_text().strip()))
    # The four bytes a mutation probe replaced: the latency's f64.
    frame[470:474] = b"\x04\xf7\xd5Z"
    with pytest.raises(WireFormatError, match="time scale"):
        wire.decode_instance(bytes(frame))
    good = wire.decode_instance(bytes.fromhex(golden.read_text().strip()))
    huge = Instance(dag=good.dag, machine=Machine(
        [good.machine.processor(p) for p in good.machine.proc_ids()],
        UniformCommunication(3.8e129, 1.0)), etc=good.etc)
    assert huge.time_scale() > MAX_TIME_SCALE
    assert violations(get_scheduler("HEFT").schedule(huge), huge)
    with pytest.raises(WireFormatError, match="time scale"):
        wire.decode_instance(wire.encode_instance(huge))
    with pytest.raises(ParseError, match="time scale"):
        instance_from_json(instance_to_json(huge))
    assert good.time_scale() <= MAX_TIME_SCALE
    assert instance_from_json(instance_to_json(good)).fingerprint() == good.fingerprint()
