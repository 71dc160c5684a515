"""The byte-mutation layer shared by the decoder fuzz suites.

An example applies one to four :data:`EDIT`\\ s (replace, insert or
delete one to four bytes at a position taken modulo the length) to a
seed encoding; :func:`read` runs one decoder call and separates a typed
``ReproError`` from a value, letting any other exception fail the
example, and :func:`check_schedules` holds a decoded instance to a valid
HEFT schedule.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.compiled import compile_instance
from repro.exceptions import ReproError
from repro.schedule.validation import validate
from repro.schedulers.registry import get_scheduler

EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                 st.integers(0, 2 ** 16), st.binary(min_size=1, max_size=4))


def mutate(seed: bytes, edits) -> bytes:
    data = bytearray(seed)
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "replace":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        else:
            del data[at:at + len(chunk)]
    return bytes(data)


def read(call):
    """``(True, value)`` or ``(False, None)`` on a typed error; any other
    exception propagates and fails the example."""
    try:
        return True, call()
    except ReproError:
        return False, None


def _lower_and_schedule(instance):
    compile_instance(instance)
    return get_scheduler("HEFT").schedule(instance)


def check_schedules(instance) -> None:
    """Lower ``instance`` and schedule it with HEFT: either step may raise
    a typed error, but a schedule that comes out must be valid."""
    ok, schedule = read(lambda: _lower_and_schedule(instance))
    if ok:
        validate(schedule, instance)
