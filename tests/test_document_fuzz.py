"""JSON instance documents, STG files, schedule documents and segment
files, fuzzed: every decoder of them is total.

``repro schedule --dag``, library callers and a restarting daemon read
these formats from files they did not write, so each decoder must
return a value or raise a typed ``ReproError`` within a bounded time.
The seeds are three :func:`~repro.instance_io.instance_to_json`
documents (uniform links; asymmetric per-link tables with a deadline and
nested tuple task ids; free transfers), a :func:`~repro.dag.io.dump_stg`
file, a DUP-HEFT :func:`~repro.schedule.io.schedule_to_json` document
(duplicates included) and a :class:`~repro.service.cache.SegmentStore`
segment holding two records.  Each example applies one to four edits of
one to four bytes, or a truncation (``tests/mutation.py``), then runs
``instance_from_json``, ``parse_stg``, ``schedule_from_json`` or
``SegmentStore.recover`` on it; text decoders get the bytes as UTF-8
with undecodable bytes replaced.  An instance that decodes must lower
and give a HEFT schedule that passes ``validate``, or raise a typed
``ReproError`` on the way.
"""

from __future__ import annotations

import tempfile
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import workloads as W
from repro.dag.io import dump_stg, parse_stg
from repro.instance_io import instance_from_json, instance_to_json
from repro.schedule.io import schedule_from_json, schedule_to_json
from repro.schedulers.registry import get_scheduler
from repro.service.cache import SegmentStore
from tests.mutation import EDIT, check_schedules, mutate, read
from tests.population import random_instance_on

_UNIFORM = W.random_instance(np.random.default_rng(11), num_tasks=9, num_procs=3)
_LINK = random_instance_on("link", 8, 3, 2.0, 0.5, 5, tuple_ids=True, deadline_factor=2.0)
_ZERO = random_instance_on("zero", 8, 3, 1.0, 0.5, 6)
_DUP = get_scheduler("DUP-HEFT").schedule(_UNIFORM)


def _segment() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        store = SegmentStore(tmp)
        store.append("ab" * 32, b"first payload")
        store.append("cd" * 32, bytes(range(40)))
        store.close()
        with open(store.path, "rb") as fh:
            return fh.read()


def _check_instance_doc(buf: bytes) -> None:
    ok, instance = read(lambda: instance_from_json(buf.decode("utf-8", "replace")))
    if ok:
        check_schedules(instance)


def _check_stg(buf: bytes) -> None:
    read(lambda: parse_stg(buf.decode("utf-8", "replace")))


def _check_schedule_doc(buf: bytes) -> None:
    read(lambda: schedule_from_json(buf.decode("utf-8", "replace"), _UNIFORM.machine))


def _recover(buf: bytes):
    """``SegmentStore.recover`` on a segment file holding ``buf``."""
    with tempfile.TemporaryDirectory() as tmp:
        store = SegmentStore(tmp)
        with open(store.path, "wb") as fh:
            fh.write(buf)
        try:
            return store.recover()
        finally:
            store.close()


def _check_segment(buf: bytes) -> None:
    ok, result = read(lambda: _recover(buf))
    if ok:
        entries, report = result
        assert report["recovered"] == len(entries) <= 2


#: (seed bytes, check) per input; the ids name them in failures.
SEEDS = {
    "instance-uniform": (instance_to_json(_UNIFORM).encode(), _check_instance_doc),
    "instance-link": (instance_to_json(_LINK).encode(), _check_instance_doc),
    "instance-zero": (instance_to_json(_ZERO).encode(), _check_instance_doc),
    "stg": (dump_stg(_UNIFORM.dag).encode(), _check_stg),
    "schedule-dup-heft": (schedule_to_json(_DUP).encode(), _check_schedule_doc),
    "segment": (_segment(), _check_segment),
}


def test_seeds_cover_what_they_claim():
    assert _DUP.num_duplicates() > 0
    assert _LINK.deadline is not None and isinstance(next(iter(_LINK.dag.tasks())), tuple)
    link = instance_from_json(SEEDS["instance-link"][0].decode())
    assert link.fingerprint() == _LINK.fingerprint() and link.deadline == _LINK.deadline
    assert list(parse_stg(SEEDS["stg"][0].decode()).tasks()) == list(_UNIFORM.dag.tasks())
    restored = schedule_from_json(SEEDS["schedule-dup-heft"][0].decode(), _UNIFORM.machine)
    assert restored.num_duplicates() == _DUP.num_duplicates()
    entries, report = _recover(SEEDS["segment"][0])
    assert report["recovered"] == 2 and entries["ab" * 32] == b"first payload"


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_unmutated_seeds_decode(name):
    seed, check = SEEDS[name]
    check(seed)


@settings(max_examples=400, deadline=timedelta(milliseconds=500))
@given(name=st.sampled_from(sorted(SEEDS)), edits=st.lists(EDIT, min_size=1, max_size=4))
def test_fuzz_mutated_documents(name, edits):
    seed, check = SEEDS[name]
    check(mutate(seed, edits))


@settings(max_examples=120, deadline=timedelta(milliseconds=500))
@given(name=st.sampled_from(sorted(SEEDS)), cut=st.integers(0, 2 ** 16))
def test_fuzz_truncated_documents(name, cut):
    seed, check = SEEDS[name]
    check(seed[:cut % (len(seed) + 1)])

