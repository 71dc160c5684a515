"""Golden-fixture layer: the binary wire format is pinned to disk.

``tests/service/golden/`` holds hex dumps of encoded instances (and one
schedule payload) produced by wire version 1, plus a manifest of their
fingerprints.  These tests fail if the byte layout drifts in ANY way —
which is the point: a layout change must bump :data:`wire.WIRE_VERSION`
and regenerate the fixtures deliberately, never slip in silently,
because persisted cache segments and old clients hold version-1 bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.instance_io import instance_to_json
from repro.service import wire
from repro.service.errors import WireFormatError, WireVersionError

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
NAMES = sorted(MANIFEST["instances"])


def _blob(name: str, kind: str = "instance") -> bytes:
    return bytes.fromhex((GOLDEN / f"{name}.{kind}.hex").read_text().strip())


def test_fixtures_were_generated_by_current_version():
    assert MANIFEST["wire_version"] == wire.WIRE_VERSION, (
        "wire version bumped: regenerate the golden fixtures deliberately"
    )


@pytest.mark.parametrize("name", NAMES)
def test_golden_instance_decodes_to_pinned_content(name):
    expect = MANIFEST["instances"][name]
    blob = _blob(name)
    assert len(blob) == expect["bytes"]
    instance = wire.decode_instance(blob)
    assert instance.fingerprint() == expect["fingerprint"]
    assert instance.num_tasks == expect["num_tasks"]
    assert instance.num_procs == expect["num_procs"]
    canonical = (GOLDEN / f"{name}.canonical.json").read_text().rstrip("\n")
    assert instance_to_json(instance) == canonical


@pytest.mark.parametrize("name", NAMES)
def test_encoder_is_byte_stable_against_golden(name):
    """Re-encoding the decoded instance reproduces the golden bytes
    exactly — the encoder is deterministic and layout-stable."""
    blob = _blob(name)
    assert wire.encode_instance(wire.decode_instance(blob)) == blob


def test_golden_payload_decodes_and_reencodes():
    blob = _blob("het-small", "payload")
    assert len(blob) == MANIFEST["payload"]["bytes"]
    payload = wire.decode_payload(blob)
    expected = json.loads((GOLDEN / "het-small.payload.json").read_text())
    assert payload == expected
    assert payload["makespan"] == MANIFEST["payload"]["makespan"]
    assert wire.encode_payload(payload) == blob


# ----------------------------------------------------------------------
# version negotiation: old readers must reject future blobs loudly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_version_byte_bump_is_rejected_with_typed_error(name):
    blob = bytearray(_blob(name))
    blob[4] = wire.WIRE_VERSION + 1  # the version byte follows the magic
    with pytest.raises(WireVersionError) as err:
        wire.decode_instance(bytes(blob))
    assert str(wire.WIRE_VERSION + 1) in str(err.value)
    # WireVersionError is a WireFormatError is a RequestError: the
    # server maps it to HTTP 400 without special-casing.
    assert isinstance(err.value, WireFormatError)


def test_bad_magic_is_rejected():
    blob = bytearray(_blob(NAMES[0]))
    blob[0] ^= 0xFF
    with pytest.raises(WireFormatError):
        wire.decode_instance(bytes(blob))


def test_truncated_golden_blob_is_rejected():
    blob = _blob(NAMES[0])
    with pytest.raises(WireFormatError):
        wire.decode_instance(blob[: len(blob) // 2])


def _instance_with_task_table(table: bytes) -> bytes:
    """A wire instance header whose task-id table is ``table``."""
    import struct

    head = struct.pack("<4sBB", wire.MAGIC, wire.WIRE_VERSION, wire.KIND_INSTANCE)
    empty_str = struct.pack("<I", 0)
    counts = struct.pack("<III", 1, 1, 0)
    return head + empty_str * 3 + counts + table


def test_deeply_nested_tuple_id_is_rejected():
    """5,000 nested tuple tags (about 25 KB) must raise a typed error,
    not exhaust the interpreter stack."""
    import struct

    depth = 5000
    nested = (struct.pack("<BI", 7, 1) * depth) + struct.pack("<Bq", 3, 0)
    table = struct.pack("<IB", 1, 0) + nested
    with pytest.raises(WireFormatError, match="nested"):
        wire.decode_instance(_instance_with_task_table(table))


@pytest.mark.parametrize("corrupt", [b'{"k": 1!', b'["k", 1]'], ids=["syntax", "not-object"])
def test_malformed_task_attrs_json_is_rejected(corrupt):
    """The task-attrs section carries a JSON object; malformed text or a
    non-object must surface as a WireFormatError, not a JSONDecodeError
    or a task whose attrs are not a mapping."""
    from repro.dag.graph import TaskDAG
    from repro.dag.task import Task
    from repro.instance import make_instance

    dag = TaskDAG("attrs")
    dag.add_task(Task(id=0, cost=1.0, attrs={"k": 1}))
    encoded = wire.encode_instance(make_instance(dag, num_procs=1, seed=0))
    good = b'{"k": 1}'
    assert encoded.count(good) == 1
    with pytest.raises(WireFormatError, match="attrs"):
        wire.decode_instance(encoded.replace(good, corrupt))
