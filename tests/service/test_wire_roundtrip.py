"""Round-trip property layer for the binary wire format.

Three layers of guarantees, from strongest to broadest:

* **Corpus round-trips** — every member of the shared differential
  corpus (uniform and per-link machines) survives ``decode(encode(x))``
  with an identical canonical JSON form and content fingerprint.
* **Cross-wire identity** — for schedules, the dict decoded from the
  binary payload equals the dict the JSON wire would deliver
  (``json.loads(json.dumps(payload))``), checked across every
  registered scheduler; a binary response's placement tuples and
  rebuilt ``Schedule`` equal the JSON client's.
* **Hypothesis sweeps** — randomly drawn instances on zero, uniform and
  random asymmetric per-link machines, with or without nested tuple
  task ids and a deadline, request field combinations and synthetic
  payloads all round-trip exactly; an instance decoded from either wire
  format keeps its fingerprint and deadline and schedules to the same
  payload bytes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.generators import random_dag
from repro.instance import Instance, make_instance
from repro.instance_io import instance_from_json, instance_to_json
from repro.machine.etc import generate_etc
from repro.machine.profiles import compute_grid
from repro.schedulers.registry import all_scheduler_names, get_scheduler
from repro.service import wire
from repro.service.protocol import ScheduleResult, WireScheduleResult, schedule_payload
from tests.population import COMM_KINDS, build_population, random_instance_on

CORPUS = build_population()

#: One representative per corpus family, for the expensive
#: every-scheduler sweeps (the last is the first per-link member).
FAMILY_REPS = [CORPUS[0], CORPUS[14], CORPUS[28], CORPUS[42], CORPUS[56]]


def _canonical(instance) -> str:
    return instance_to_json(instance)


def _json_wire(payload: dict) -> dict:
    """What the JSON wire format delivers for ``payload``."""
    return json.loads(json.dumps(payload))


_ENVELOPE = {"cache_hit": True, "fingerprint": "f" * 64, "server_ms": 1.25}


def _client_results(payload: dict) -> tuple[ScheduleResult, WireScheduleResult]:
    """What the JSON client and the binary client return for ``payload``."""
    body = wire.encode_response(wire.encode_payload(payload), **_ENVELOPE)
    return (ScheduleResult.from_payload(_json_wire(dict(payload, **_ENVELOPE))),
            WireScheduleResult(wire.ResponseView(body)))


def _schedule_state(schedule) -> tuple:
    return schedule.name, schedule.all_placements(), schedule.makespan


# ----------------------------------------------------------------------
# instances: the full corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label, instance", CORPUS, ids=[l for l, _ in CORPUS])
def test_corpus_instance_roundtrip(label, instance):
    decoded = wire.decode_instance(wire.encode_instance(instance))
    assert _canonical(decoded) == _canonical(instance)
    assert decoded.fingerprint() == instance.fingerprint()


# ----------------------------------------------------------------------
# schedules: every registered scheduler, binary == JSON after decode
# ----------------------------------------------------------------------
#: The branch-and-bound oracle refuses corpus-sized instances, so it
#: gets purpose-built small ones (one heterogeneous, one homogeneous).
SMALL_REPS = [
    ("small-het", make_instance(random_dag(8, ccr=1.0, seed=71), num_procs=3,
                                heterogeneity=0.5, seed=71)),
    ("small-homog", make_instance(random_dag(10, ccr=4.0, seed=72), num_procs=2,
                                  heterogeneity=0.0, seed=72)),
]


@pytest.mark.parametrize("alg", all_scheduler_names())
def test_every_scheduler_payload_cross_wire_identical(alg):
    for label, instance in (SMALL_REPS if alg == "OPT-BB" else FAMILY_REPS):
        payload = schedule_payload(get_scheduler(alg).schedule(instance),
                                   instance, alg)
        decoded = wire.decode_payload(wire.encode_payload(payload))
        assert decoded == _json_wire(payload), (
            f"{alg} on {label}: binary decode differs from JSON wire"
        )


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_per_link_payloads_identical_across_encoders(seed):
    """A per-link instance prices every edge, and schedules, the same
    locally, after a binary wire round-trip and after a JSON document
    round-trip: both encoders carry each link's latency and bandwidth
    verbatim (``compute_grid``'s bandwidth 10.0 must not come back as
    10.000000000000002)."""
    machine = compute_grid(2, 4, seed=seed)
    dag = random_dag(40, seed=seed)
    local = Instance(dag=dag, machine=machine,
                     etc=generate_etc(dag, machine, heterogeneity=0.5, seed=seed))
    via_wire = wire.decode_instance(wire.encode_instance(local))
    via_json = instance_from_json(instance_to_json(local))
    procs = machine.proc_ids()
    volumes = sorted({dag.data(u, v) for u, v in dag.edges()})
    for copy in (via_wire, via_json):
        assert copy.fingerprint() == local.fingerprint()
        for src in procs:
            for dst in procs:
                assert [copy.machine.comm.time(d, src, dst) for d in volumes] == [
                    machine.comm.time(d, src, dst) for d in volumes], (src, dst)
    for alg in ("HEFT", "DLS", "IMP"):
        expected = schedule_payload(get_scheduler(alg).schedule(local), local, alg)
        for copy in (via_wire, via_json):
            got = schedule_payload(get_scheduler(alg).schedule(copy), copy, alg)
            got["instance"] = expected["instance"]
            assert got == expected, alg


def test_corpus_payload_roundtrip_reference_scheduler():
    for label, instance in CORPUS:
        payload = schedule_payload(get_scheduler("IMP").schedule(instance),
                                   instance, "IMP")
        decoded = wire.decode_payload(wire.encode_payload(payload))
        assert decoded == _json_wire(payload), label


# ----------------------------------------------------------------------
# requests and responses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timeout", [None, 0.25, 120.0])
@pytest.mark.parametrize("trace_id", [None, "req-00000042"])
def test_request_roundtrip_field_combinations(timeout, trace_id):
    _, instance = CORPUS[3]
    body = wire.encode_request(instance, "HEFT", timeout, trace_id=trace_id)
    blob, alg, fingerprint, out_timeout, out_trace = wire.decode_request(body)
    assert alg == "HEFT"
    assert fingerprint == instance.fingerprint()
    assert out_timeout == timeout
    assert out_trace == trace_id
    assert wire.decode_instance(blob).fingerprint() == instance.fingerprint()


def test_compact_request_roundtrip_omits_instance():
    _, instance = CORPUS[5]
    body = wire.encode_request(None, "IMP", fingerprint=instance.fingerprint(),
                               compact=True)
    assert len(body) < 128
    blob, alg, fingerprint, timeout, trace = wire.decode_request(body)
    assert blob is None
    assert (alg, fingerprint) == ("IMP", instance.fingerprint())


def test_compact_request_requires_fingerprint():
    body = wire.encode_request(None, "IMP", fingerprint="", compact=True)
    with pytest.raises(wire.WireFormatError, match="fingerprint"):
        wire.decode_request(body)


def test_response_roundtrip_envelope_and_view():
    label, instance = CORPUS[7]
    payload = schedule_payload(get_scheduler("HEFT").schedule(instance),
                               instance, "HEFT")
    encoded = wire.encode_payload(payload)
    body = wire.encode_response(encoded, cache_hit=True, fingerprint="f" * 64,
                                server_ms=1.25, trace_id="req-7")
    view = wire.ResponseView(body)
    assert view.cache_hit is True
    assert view.fingerprint == "f" * 64
    assert view.server_ms == 1.25
    assert view.trace_id == "req-7"
    assert view.makespan == payload["makespan"]
    assert view.num_placements == len(payload["placements"])
    merged = dict(_json_wire(payload), cache_hit=True, fingerprint="f" * 64,
                  server_ms=1.25, trace_id="req-7")
    assert view.payload == merged
    assert wire.decode_response(body) == merged


def test_binary_placements_build_no_payload_dict():
    """``placements`` and ``to_schedule`` read the columns: the view's
    payload dict stays unbuilt until a caller asks for ``payload``."""
    _, instance = CORPUS[7]
    payload = schedule_payload(get_scheduler("IMP").schedule(instance), instance, "IMP")
    via_json, via_bin = _client_results(payload)
    view = via_bin._view
    assert via_bin.placements == via_json.placements
    assert _schedule_state(via_bin.to_schedule(instance.machine)) == \
        _schedule_state(via_json.to_schedule(instance.machine))
    assert view._payload is None
    assert via_bin.payload == via_json.payload
    assert view._payload is not None


# ----------------------------------------------------------------------
# hypothesis sweeps
# ----------------------------------------------------------------------
instance_params = st.tuples(
    st.integers(min_value=1, max_value=30),      # tasks
    st.integers(min_value=1, max_value=6),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=1.5),     # heterogeneity
    st.integers(min_value=0, max_value=10_000),  # seed
)


#: Instance variants on top of the machine kind: nested tuple task ids
#: or not, and no deadline or one at a multiple of ``cp_min_length``.
instance_variants = st.fixed_dictionaries({
    "tuple_ids": st.booleans(),
    "deadline_factor": st.one_of(st.none(), st.floats(min_value=0.5, max_value=4.0)),
})


def _both_wires(instance):
    """``instance`` after a binary wire and after a JSON document round trip."""
    return (wire.decode_instance(wire.encode_instance(instance)),
            instance_from_json(instance_to_json(instance)))


@given(st.sampled_from(COMM_KINDS), instance_params, instance_variants)
@settings(max_examples=60, deadline=None)
def test_random_instance_roundtrip(kind, params, variant):
    instance = random_instance_on(kind, *params, **variant)
    for decoded in _both_wires(instance):
        assert _canonical(decoded) == _canonical(instance)
        assert decoded.fingerprint() == instance.fingerprint()
        assert decoded.deadline == instance.deadline


@given(st.sampled_from(COMM_KINDS), instance_params, instance_variants,
       st.sampled_from(["HEFT", "CPOP", "TDS", "IMP"]))
@settings(max_examples=40, deadline=None)
def test_random_schedule_payload_cross_wire(kind, params, variant, alg):
    instance = random_instance_on(kind, *params, **variant)
    payload = schedule_payload(get_scheduler(alg).schedule(instance),
                               instance, alg)
    decoded = wire.decode_payload(wire.encode_payload(payload))
    assert decoded == _json_wire(payload)
    via_json, via_bin = _client_results(payload)
    assert via_bin.placements == via_json.placements
    assert _schedule_state(via_bin.to_schedule(instance.machine)) == \
        _schedule_state(via_json.to_schedule(instance.machine))
    expected = (json.dumps(payload), wire.encode_payload(payload))
    for copy in _both_wires(instance):
        assert copy.fingerprint() == instance.fingerprint()
        assert copy.deadline == instance.deadline
        got = schedule_payload(get_scheduler(alg).schedule(copy), copy, alg)
        assert (json.dumps(got), wire.encode_payload(got)) == expected


_id = st.one_of(
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**80),
    st.text(max_size=12),
)


@given(
    st.lists(
        st.tuples(_id, _id,
                  st.floats(min_value=0, max_value=1e9, allow_nan=False),
                  st.floats(min_value=0, max_value=1e9, allow_nan=False),
                  st.booleans()),
        max_size=40,
    ),
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_synthetic_payload_roundtrip(rows, makespan):
    from repro.utils.encoding import encode_id

    payload = {
        "alg": "X",
        "instance": "synthetic",
        "num_tasks": len(rows),
        "num_procs": 3,
        "makespan": makespan,
        "num_duplicates": sum(1 for r in rows if r[4]),
        "placements": [
            {"task": encode_id(t), "proc": encode_id(p),
             "start": s, "end": e, "duplicate": d}
            for t, p, s, e, d in rows
        ],
    }
    decoded = wire.decode_payload(wire.encode_payload(payload))
    assert decoded == _json_wire(payload)
