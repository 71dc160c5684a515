"""Binary instance and request frames, fuzzed: every server read is total.

A server decodes whatever bytes a client sends, so each read of a binary
instance or request frame must return a value or raise a typed
``ReproError`` within a bounded time.  The seeds are the three golden
instance frames of ``tests/service/golden/`` and a per-link instance
with a deadline and nested tuple task ids, each encoded alone and
wrapped by :func:`~repro.service.wire.encode_request` (with a timeout
and a trace id).  Each example applies one to four edits of one to four
bytes, or a truncation, and runs ``decode_request``,
``peek_request_fingerprint`` and ``decode_instance`` on the frame (and
``decode_instance`` on a request's nested instance).  An instance that
decodes must lower and give a HEFT schedule that passes ``validate``,
or raise a typed ``ReproError`` on the way; a schedule that comes out
but fails validation fails the example.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.validation import validate
from repro.schedulers.registry import get_scheduler
from repro.service import wire
from tests.mutation import EDIT, check_schedules, mutate, read
from tests.population import random_instance_on

GOLDEN = Path(__file__).parent / "golden"


def _hex(name: str) -> bytes:
    return bytes.fromhex((GOLDEN / f"{name}.instance.hex").read_text().strip())


_LINK = random_instance_on("link", 8, 3, 2.0, 0.5, 5, tuple_ids=True, deadline_factor=2.0)
_FRAMES = [_hex(name) for name in ("het-small", "consistent-small", "homog-small")]
_FRAMES.append(wire.encode_instance(_LINK))
SEEDS = _FRAMES + [
    wire.encode_request(None, "HEFT", timeout=5.0, trace_id="req-7", instance_bytes=frame,
                        fingerprint=wire.decode_instance(frame).fingerprint())
    for frame in _FRAMES
]
IDS = ["het", "consistent", "homog", "link"] + [
    f"{name}-request" for name in ("het", "consistent", "homog", "link")]

def _check_instance(buf) -> None:
    ok, instance = read(lambda: wire.decode_instance(buf))
    if ok:
        check_schedules(instance)


def _check(buf: bytes) -> None:
    ok_request, request = read(lambda: wire.decode_request(buf))
    ok_peek, fingerprint = read(lambda: wire.peek_request_fingerprint(buf))
    assert ok_peek or not ok_request
    if ok_request:
        assert request[2] == fingerprint
        if request[0] is not None:
            _check_instance(request[0])
    _check_instance(buf)


@pytest.mark.parametrize("seed", SEEDS, ids=IDS)
def test_unmutated_seeds_decode_and_schedule(seed):
    if seed in _FRAMES:
        instance = wire.decode_instance(seed)
    else:
        blob, alg, fingerprint, timeout, trace_id = wire.decode_request(seed)
        assert (alg, timeout, trace_id) == ("HEFT", 5.0, "req-7")
        instance = wire.decode_instance(blob)
        assert fingerprint == instance.fingerprint() == wire.peek_request_fingerprint(seed)
    validate(get_scheduler("HEFT").schedule(instance), instance)


def test_link_seed_keeps_deadline_and_tuple_ids():
    decoded = wire.decode_instance(_FRAMES[-1])
    assert decoded.deadline == _LINK.deadline
    assert list(decoded.dag.tasks()) == list(_LINK.dag.tasks())
    assert decoded.fingerprint() == _LINK.fingerprint()


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(pick=st.sampled_from(SEEDS), edits=st.lists(EDIT, min_size=1, max_size=4))
def test_fuzz_mutated_instance_and_request_frames(pick, edits):
    _check(mutate(pick, edits))


@settings(max_examples=100, deadline=timedelta(milliseconds=500))
@given(pick=st.sampled_from(SEEDS), cut=st.integers(0, 2 ** 16))
def test_fuzz_truncated_instance_and_request_frames(pick, cut):
    _check(pick[:cut % (len(pick) + 1)])
