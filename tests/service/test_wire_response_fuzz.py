"""Binary schedule responses, fuzzed: every client read is total.

A client decodes whatever bytes the network hands it, so each read of a
binary response must return a value or raise a typed ``ReproError``
within a bounded time — never ``IndexError``, ``ValueError``,
``struct.error`` or ``UnicodeDecodeError``.  The seeds are real
responses: the golden payload of ``tests/service/golden/`` and a
DUP-HEFT payload of a deadline instance, which carries duplicates and
the schedulability trailer, each wrapped by
:func:`~repro.service.wire.encode_response`.
Each example applies one to four edits of one to four bytes and runs
every read on a fresh view: ``ResponseView``, ``.payload``,
``WireScheduleResult.placements``, ``.to_schedule`` and
``decode_response``.  The placement tuples and the payload dict come
from one column reader, so one succeeds exactly when the other does,
and then they agree.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.registry import get_scheduler
from repro.service import wire
from repro.service.protocol import WireScheduleResult, schedule_payload
from repro.utils.encoding import decode_id
from tests.mutation import EDIT, mutate, read

GOLDEN = Path(__file__).parent / "golden"


def _hex(name: str) -> bytes:
    return bytes.fromhex((GOLDEN / name).read_text().strip())


_INSTANCE = wire.decode_instance(_hex("het-small.instance.hex"))
_DEADLINE = _INSTANCE.with_deadline(60.0)


def _deadline_payload() -> bytes:
    payload = schedule_payload(get_scheduler("DUP-HEFT").schedule(_DEADLINE), _DEADLINE,
                               "DUP-HEFT")
    assert "schedulability" in payload and payload["num_duplicates"] > 0
    return wire.encode_payload(payload)


SEEDS = [
    wire.encode_response(_hex("het-small.payload.hex"), cache_hit=True,
                         fingerprint=_INSTANCE.fingerprint(), server_ms=0.015),
    wire.encode_response(_deadline_payload(), cache_hit=False,
                         fingerprint=_DEADLINE.fingerprint(), server_ms=4.5,
                         trace_id="req-1"),
]

def _tuples(payload: dict) -> tuple:
    return tuple((decode_id(r["task"]), decode_id(r["proc"]), r["start"], r["end"],
                  r["duplicate"]) for r in payload["placements"])


def _check(buf: bytes) -> None:
    ok_view, _ = read(lambda: wire.ResponseView(buf))
    ok_decode, decoded = read(lambda: wire.decode_response(buf))
    if not ok_view:
        assert not ok_decode
        return
    ok_payload, payload = read(lambda: wire.ResponseView(buf).payload)
    assert ok_decode == ok_payload
    result = WireScheduleResult(wire.ResponseView(buf))
    ok_placements, placements = read(lambda: result.placements)
    assert ok_placements == ok_payload
    ok_schedule, _ = read(lambda: result.to_schedule(_INSTANCE.machine))
    assert ok_placements or not ok_schedule
    if ok_payload:
        # ``repr`` compares floats bit for bit, NaN included.
        assert repr(decoded) == repr(payload)
        assert repr(placements) == repr(_tuples(payload))


@pytest.mark.parametrize("seed", SEEDS, ids=["golden", "deadline"])
def test_unmutated_seeds_read_whole(seed):
    result = WireScheduleResult(wire.ResponseView(seed))
    assert result.placements == _tuples(result.payload)
    schedule = result.to_schedule(_INSTANCE.machine)
    assert schedule.makespan == result.makespan


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(pick=st.sampled_from(SEEDS), edits=st.lists(EDIT, min_size=1, max_size=4))
def test_fuzz_mutated_binary_responses(pick, edits):
    _check(mutate(pick, edits))


@settings(max_examples=100, deadline=timedelta(milliseconds=500))
@given(pick=st.sampled_from(SEEDS), cut=st.integers(0, 2 ** 16))
def test_fuzz_truncated_binary_responses(pick, cut):
    _check(pick[:cut % (len(pick) + 1)])
