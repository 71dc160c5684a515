"""Wire model of the scheduling service.

One request = one instance + one scheduler name.  The request document
is plain JSON (the instance in :mod:`repro.instance_io` v1 format), the
response is a *payload* dict listing every placement in a deterministic
order plus the makespan — deterministic so that "bit-identical" is a
string-equality property, not a tolerance.

:func:`compute_schedule_payload` is the cold path, and
:func:`compute_in_worker` the one wrapper the engine ships to a
:class:`~concurrent.futures.ProcessPoolExecutor` per job.  Both are
module-level functions of picklable arguments (JSON text or wire bytes
+ scheduler name), following the same pattern as
``repro.bench.runner._run_replication``.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.instance import Instance
from repro.schedule.io import placement_records
from repro.schedule.schedule import Schedule
from repro.service.wire import (  # noqa: F401  (re-exported: wire lives here too)
    BINARY_CONTENT_TYPE,
    WIRE_VERSION,
    decode_instance,
    decode_payload,
    decode_request,
    decode_response,
    encode_instance,
    encode_payload,
    encode_request,
    encode_response,
)
from repro.utils.encoding import decode_id

#: Version tag of the request/response documents.
PROTOCOL = "repro-service-v1"

#: Worker-side memo of lowered instances, keyed by content fingerprint
#: (with an exact-body alias so repeats skip parsing entirely).  Bounded.
_LOWERED_CAPACITY = 32


class _LoweredInstances:
    """Fingerprint-keyed LRU of parsed-and-lowered instances.

    A cold request costs parse + kernel/compiled lowering before any
    scheduling happens.  Warm requests for the *same content* — the
    same instance under a different scheduler, or a cache-evicted
    payload — hit this memo instead: the stored :class:`Instance`
    carries its ``kernel`` (ranks, ETC arrays, compiled decoder) so the
    lowering is skipped.  Lives in each pool worker process (and in the
    ``workers=0`` thread path); sized for instances, not requests.
    """

    def __init__(self, capacity: int = _LOWERED_CAPACITY) -> None:
        self.capacity = capacity
        self._by_fp: OrderedDict[str, Instance] = OrderedDict()
        self._body_alias: OrderedDict[str, str] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, instance_text: str | bytes) -> Instance:
        """Lowered instance for a request body — JSON text or wire bytes.

        Both forms share the fingerprint-keyed store, so a binary client
        and a JSON client sending the same content hit the same lowered
        instance (exactly as they share the response cache).
        """
        raw = instance_text if isinstance(instance_text, bytes) else instance_text.encode("utf-8")
        body_key = hashlib.sha256(raw).hexdigest()
        fp = self._body_alias.get(body_key)
        if fp is not None and fp in self._by_fp:
            self.hits += 1
            self._by_fp.move_to_end(fp)
            return self._by_fp[fp]
        if isinstance(instance_text, bytes):
            instance = decode_instance(instance_text)
        else:
            from repro.instance_io import instance_from_json

            instance = instance_from_json(instance_text)
        fp = instance.fingerprint()
        memoized = self._by_fp.get(fp)
        if memoized is not None:
            # Same content, different body (task order, names): reuse
            # the already-lowered instance — consistent with the
            # fingerprint-keyed response cache, which likewise answers
            # for the first-seen body.
            self.hits += 1
            self._by_fp.move_to_end(fp)
            instance = memoized
        else:
            self.misses += 1
            instance.kernel.compiled()  # lower once, up front
            self._by_fp[fp] = instance
            while len(self._by_fp) > self.capacity:
                self._by_fp.popitem(last=False)
        self._body_alias[body_key] = fp
        while len(self._body_alias) > 4 * self.capacity:
            self._body_alias.popitem(last=False)
        return instance

    def cache_info(self) -> dict[str, int]:
        return {
            "size": len(self._by_fp),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._by_fp.clear()
        self._body_alias.clear()
        self.hits = 0
        self.misses = 0


_LOWERED = _LoweredInstances()


def lowering_cache_info() -> dict[str, int]:
    """Counters of this process's lowered-instance memo (for tests)."""
    return _LOWERED.cache_info()


def clear_lowering_cache() -> None:
    """Drop this process's lowered-instance memo (for tests)."""
    _LOWERED.clear()


# ----------------------------------------------------------------------
# response payload (what the engine computes, caches and returns)
# ----------------------------------------------------------------------
def schedule_payload(schedule: Schedule, instance: Instance, alg: str) -> dict:
    """Serialise a computed schedule into the canonical response payload.

    Placements are the records :func:`repro.schedule.io.schedule_to_json`
    writes (:func:`~repro.schedule.io.placement_records`, read from the
    schedule's columns and sorted by ``(start, proc, task)``), so two
    runs that produce the same schedule produce byte-identical payload
    JSON.

    Deadline-annotated instances additionally carry the structured
    schedulability verdict (met/missed and slack per task, see
    :func:`repro.schedulers.resilient.schedulability_doc`) — a trailing
    optional key, so deadline-free payloads are unchanged byte for byte.
    """
    payload = {
        "alg": alg,
        "instance": instance.name,
        "num_tasks": instance.num_tasks,
        "num_procs": instance.num_procs,
        "makespan": schedule.makespan,
        "num_duplicates": schedule.num_duplicates(),
        "placements": placement_records(schedule),
    }
    if instance.deadline is not None:
        from repro.schedulers.resilient import schedulability_doc

        payload["schedulability"] = schedulability_doc(schedule, instance)
    return payload


def compute_schedule_payload(instance_text: str | bytes, alg: str) -> dict:
    """Cold-path computation: parse, schedule, validate, serialise.

    ``instance_text`` is either the JSON instance document or its binary
    wire form (:func:`encode_instance` bytes) — binary bodies are
    decoded straight from the packed arrays, no intermediate dict tree.

    Runs inside pool workers; imports are deferred so a worker process
    only pays for what it uses.  Parsing and lowering go through the
    fingerprint-keyed memo, so a warm request for known content (same
    instance, different scheduler; or evicted from the response cache)
    reuses the compiled flat-array form instead of rebuilding it.

    Each stage runs under a span of the current tracer (the no-op
    default unless the caller installed one — see
    :func:`compute_in_worker`), and the lowering memo's
    hit/miss deltas land in ``worker.lowering_hits``/``_misses``.
    """
    from repro.obs import get_tracer
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler
    from repro.service import faults

    faults.fire("worker.start")
    tracer = get_tracer()
    wire_format = "bin" if isinstance(instance_text, bytes) else "json"
    hits0, misses0 = _LOWERED.hits, _LOWERED.misses
    with tracer.span("worker.parse", alg=alg, wire=wire_format):
        instance = _LOWERED.get(instance_text)
    if tracer.enabled:
        tracer.count("worker.lowering_hits", _LOWERED.hits - hits0)
        tracer.count("worker.lowering_misses", _LOWERED.misses - misses0)
    with tracer.span("worker.schedule", alg=alg, tasks=instance.num_tasks):
        schedule = get_scheduler(alg).schedule(instance)
    with tracer.span("worker.validate", alg=alg):
        validate(schedule, instance)
    faults.fire("worker.finish")
    with tracer.span("worker.encode", alg=alg, wire=wire_format):
        faults.fire("worker.encode")
        return schedule_payload(schedule, instance, alg)


def compute_in_worker(
    instance_text: str | bytes, alg: str, traced: bool = False,
    trace_id: str | None = None,
) -> tuple[dict, dict | None, dict[str, int]]:
    """The pool worker's one entry point: one job, traced or not.

    Returns ``(payload, trace export or None, counter deltas)``.  Calls
    :func:`compute_schedule_payload` through the module global, so test
    monkeypatches apply on the in-thread (``workers=0``) path.  With
    ``traced`` it runs under a fresh local :class:`~repro.obs.Tracer`
    inside one ``worker.compute`` root span carrying ``trace_id``; the
    engine absorbs the export under the request's ``service.compute``
    span.  The deltas (lowering-memo hits/misses, compiled schedules and
    fallbacks) ride back with the payload because the engine cannot
    read a worker process's counters.
    """
    from repro import compiled as compiled_mod

    hits0, misses0 = _LOWERED.hits, _LOWERED.misses
    counts0 = compiled_mod.schedule_counters()
    trace = None
    if traced:
        from repro.obs import Tracer, use_tracer

        local = Tracer(name="service-worker")
        with use_tracer(local), local.span("worker.compute", alg=alg, trace_id=trace_id):
            payload = compute_schedule_payload(instance_text, alg)
        trace = local.export()
    else:
        payload = compute_schedule_payload(instance_text, alg)
    counts1 = compiled_mod.schedule_counters()
    built = ("list_schedules", "dls_schedules", "improved_passes")
    return payload, trace, {
        "lowering_hits": _LOWERED.hits - hits0,
        "lowering_misses": _LOWERED.misses - misses0,
        "compiled_schedules": sum(counts1[k] - counts0[k] for k in built),
        "compiled_fallbacks": counts1["fallbacks"] - counts0["fallbacks"],
    }


def payload_to_schedule(payload: dict, machine) -> Schedule:
    """Rebuild a :class:`Schedule` from a response payload.

    Needs the machine the instance was built with (timelines are
    machine-scoped).  Primaries are placed before duplicates, as in
    :func:`repro.schedule.io.schedule_from_json`.
    """
    placements = [
        (decode_id(rec["task"]), decode_id(rec["proc"]), rec["start"], rec["end"],
         bool(rec.get("duplicate", False)))
        for rec in payload["placements"]
    ]
    return _placements_to_schedule(placements, machine, str(payload.get("instance", "served")))


def _placements_to_schedule(placements, machine, name: str) -> Schedule:
    """A :class:`Schedule` named ``name`` from ``(task, proc, start, end,
    duplicate)`` tuples: every primary, then every duplicate, each in
    list order."""
    schedule = Schedule(machine, name=name)
    for want_duplicate in (False, True):
        for task, proc, start, end, duplicate in placements:
            if duplicate != want_duplicate:
                continue
            start = float(start)
            schedule.add(task, proc, start, float(end) - start, duplicate=want_duplicate)
    return schedule


# ----------------------------------------------------------------------
# client-side result view
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleResult:
    """What a client gets back from one scheduling request."""

    alg: str
    instance: str
    makespan: float
    placements: tuple = ()
    num_duplicates: int = 0
    cache_hit: bool = False
    fingerprint: str = ""
    server_ms: float = 0.0
    trace_id: str = ""
    payload: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "ScheduleResult":
        return cls(
            alg=payload["alg"],
            instance=str(payload.get("instance", "")),
            makespan=float(payload["makespan"]),
            placements=tuple(
                (decode_id(r["task"]), decode_id(r["proc"]), r["start"], r["end"], r["duplicate"])
                for r in payload["placements"]
            ),
            num_duplicates=int(payload.get("num_duplicates", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            fingerprint=str(payload.get("fingerprint", "")),
            server_ms=float(payload.get("server_ms", 0.0)),
            trace_id=str(payload.get("trace_id", "")),
            payload=payload,
        )

    def to_schedule(self, machine) -> Schedule:
        """Materialise the placements onto ``machine``."""
        return payload_to_schedule(self.payload, machine)


class WireScheduleResult:
    """A :class:`ScheduleResult` over a binary response, decoded lazily.

    Scalars (makespan, algorithm, cache/trace metadata) come straight
    from the response envelope and payload prefix, which the
    :class:`~repro.service.wire.ResponseView` parsed in a few
    microseconds.  ``placements`` zips the view's placement columns
    (:func:`~repro.service.wire.read_payload`) into tuples on first
    access and memoises them; ``to_schedule`` places those tuples.
    Neither builds a placement dict: only a caller that reads
    ``payload`` pays for the dict tree.

    Duck-types :class:`ScheduleResult` exactly: same attributes, same
    value types, same ``to_schedule``.
    """

    __slots__ = ("alg", "instance", "makespan", "num_duplicates",
                 "cache_hit", "fingerprint", "server_ms", "trace_id",
                 "_view", "_placements")

    def __init__(self, view) -> None:
        self.alg = view.alg
        self.instance = view.instance
        self.makespan = view.makespan
        self.num_duplicates = view.num_duplicates
        self.cache_hit = view.cache_hit
        self.fingerprint = view.fingerprint
        self.server_ms = view.server_ms
        self.trace_id = view.trace_id or ""
        self._view = view
        self._placements = None

    @property
    def payload(self) -> dict:
        return self._view.payload

    @property
    def placements(self) -> tuple:
        if self._placements is None:
            self._placements = self._view.columns.placements()
        return self._placements

    def to_schedule(self, machine) -> Schedule:
        """Materialise the placements onto ``machine``."""
        return _placements_to_schedule(self.placements, machine, self.instance)


# ----------------------------------------------------------------------
# request document
# ----------------------------------------------------------------------
def make_request_doc(instance_doc: dict, alg: str, timeout: float | None = None,
                     trace_id: str | None = None) -> dict:
    """Assemble the body of a ``POST /v1/schedule`` request.

    ``trace_id`` is an opaque client-chosen correlation id; the server
    echoes it in the response and stamps it on every span the request
    produces, so one id follows the request client -> server -> worker.
    """
    doc = {"protocol": PROTOCOL, "alg": alg, "instance": instance_doc}
    if timeout is not None:
        doc["timeout"] = float(timeout)
    if trace_id is not None:
        doc["trace_id"] = str(trace_id)
    return doc


def parse_request_doc(doc: object) -> tuple[Instance, str, float | None, str | None]:
    """Validate a request document into ``(instance, alg, timeout, trace_id)``.

    Raises :class:`~repro.service.errors.RequestError` on any shape or
    content problem, including an unknown scheduler name — rejecting bad
    requests *before* they occupy queue space.
    """
    from repro.instance_io import instance_from_json
    from repro.service.errors import RequestError
    from repro.schedulers.registry import all_scheduler_names

    if not isinstance(doc, dict):
        raise RequestError("request body must be a JSON object")
    alg = doc.get("alg")
    if not isinstance(alg, str) or not alg:
        raise RequestError("request needs a scheduler name under 'alg'")
    if alg not in all_scheduler_names():
        raise RequestError(
            f"unknown scheduler {alg!r}; known: {', '.join(all_scheduler_names())}"
        )
    instance_doc = doc.get("instance")
    if not isinstance(instance_doc, dict):
        raise RequestError("request needs an instance document under 'instance'")
    try:
        instance = instance_from_json(json.dumps(instance_doc))
    except Exception as exc:
        raise RequestError(f"invalid instance document: {exc}") from exc
    timeout = doc.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise RequestError(f"invalid timeout {timeout!r}") from None
        if timeout <= 0:
            raise RequestError(f"timeout must be > 0, got {timeout}")
    trace_id = doc.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise RequestError(f"trace_id must be a string, got {trace_id!r}")
    return instance, alg, timeout, trace_id
