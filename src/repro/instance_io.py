"""Lossless serialisation of whole scheduling instances.

An :class:`~repro.instance.Instance` bundles a DAG, a machine and an
ETC matrix; being able to write the bundle to one JSON file makes
experiments *shareable* — a bug report or a paper artifact can pin the
exact instance, not just the seeds that produced it.

Supported communication models: Zero, Uniform and Link (the three this
library ships).  A custom model serialises only if it is one of these.

This module is also the home of the *canonical form* behind
:meth:`repro.instance.Instance.fingerprint`: an order-independent
document over the same fields the lossless serialiser writes, hashed to
content-address instances in the serving layer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.dag import io as dag_io
from repro.exceptions import ParseError, ReproError
from repro.instance import MAX_TIME_SCALE, Instance
from repro.machine.cluster import Machine
from repro.machine.comm import (
    CommunicationModel,
    LinkCommunication,
    UniformCommunication,
    ZeroCommunication,
)
from repro.machine.etc import ETCMatrix
from repro.machine.processor import Processor
from repro.utils.encoding import decode_id, encode_id

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# machine
# ----------------------------------------------------------------------
def _comm_to_dict(comm: CommunicationModel, proc_ids) -> dict:
    if isinstance(comm, ZeroCommunication):
        return {"type": "zero"}
    if isinstance(comm, UniformCommunication):
        return {"type": "uniform", "latency": comm.latency, "bandwidth": comm.bandwidth}
    if isinstance(comm, LinkCommunication):
        links = []
        for src in proc_ids:
            for dst in proc_ids:
                if src == dst:
                    continue
                latency, bandwidth = comm.link(src, dst)
                links.append(
                    {
                        "src": encode_id(src),
                        "dst": encode_id(dst),
                        "latency": latency,
                        "bandwidth": bandwidth,
                    }
                )
        return {"type": "links", "links": links}
    raise ParseError(f"cannot serialise communication model {type(comm).__name__}")


def _comm_from_dict(doc: dict, proc_ids) -> CommunicationModel:
    kind = doc.get("type")
    if kind == "zero":
        return ZeroCommunication()
    if kind == "uniform":
        return UniformCommunication(doc["latency"], doc["bandwidth"])
    if kind == "links":
        lat: dict = {p: {} for p in proc_ids}
        bw: dict = {p: {} for p in proc_ids}
        for rec in doc["links"]:
            src = decode_id(rec["src"])
            dst = decode_id(rec["dst"])
            lat[src][dst] = rec["latency"]
            bw[src][dst] = rec["bandwidth"]
        return LinkCommunication(proc_ids, lat, bw)
    raise ParseError(f"unknown communication model type {kind!r}")


def machine_to_dict(machine: Machine) -> dict:
    """Serialise a machine (processors + communication model)."""
    ids = machine.proc_ids()
    return {
        "name": machine.name,
        "processors": [
            {
                "id": encode_id(p),
                "speed": machine.speed(p),
                "name": machine.processor(p).name,
            }
            for p in ids
        ],
        "comm": _comm_to_dict(machine.comm, ids),
    }


def machine_from_dict(doc: dict) -> Machine:
    """Rebuild a machine from :func:`machine_to_dict` output."""
    try:
        procs = [
            Processor(id=decode_id(rec["id"]), speed=rec.get("speed", 1.0),
                      name=rec.get("name", ""))
            for rec in doc["processors"]
        ]
        comm = _comm_from_dict(doc["comm"], [p.id for p in procs])
    except KeyError as exc:
        raise ParseError(f"machine document missing key: {exc}") from None
    return Machine(procs, comm, name=doc.get("name", "machine"))


# ----------------------------------------------------------------------
# instance
# ----------------------------------------------------------------------
def instance_to_json(instance: Instance) -> str:
    """Serialise a complete instance to JSON text."""
    doc = {
        "format": "repro-instance-v1",
        "name": instance.name,
        "dag": json.loads(dag_io.to_json(instance.dag)),
        "machine": machine_to_dict(instance.machine),
        "etc": {
            "tasks": [encode_id(t) for t in instance.etc.task_ids],
            "procs": [encode_id(p) for p in instance.etc.proc_ids],
            "values": instance.etc.as_array().tolist(),
        },
    }
    # Constraints are optional trailing fields: deadline-free instances
    # serialise byte-identically to the pre-constraint format.
    if instance.deadline is not None:
        doc["deadline"] = instance.deadline
    return json.dumps(doc, indent=1)


def instance_from_json(text: str) -> Instance:
    """Rebuild an instance from :func:`instance_to_json` output."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("instance JSON must be an object")
    if doc.get("format") != "repro-instance-v1":
        raise ParseError(f"unsupported instance format {doc.get('format')!r}")
    try:
        dag = dag_io.from_json(json.dumps(doc["dag"]))
        machine = machine_from_dict(doc["machine"])
        etc_doc = doc["etc"]
        etc = ETCMatrix(
            [decode_id(t) for t in etc_doc["tasks"]],
            [decode_id(p) for p in etc_doc["procs"]],
            np.asarray(etc_doc["values"], dtype=float),
        )
        instance = Instance(
            dag=dag, machine=machine, etc=etc,
            name=doc.get("name", ""), deadline=doc.get("deadline"),
        )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A missing section, a field of the wrong type or a ragged ETC row.
        raise ParseError(f"malformed instance JSON: {type(exc).__name__}: {exc}") from None
    if not instance.time_scale() <= MAX_TIME_SCALE:  # NaN fails too
        raise ParseError(f"instance time scale exceeds {MAX_TIME_SCALE!r}")
    return instance


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def _id_key(value) -> str:
    """Total order over mixed-type ids via their canonical JSON encoding."""
    return json.dumps(encode_id(value), sort_keys=True, separators=(",", ":"))


def canonical_instance_doc(instance: Instance) -> dict:
    """Order-independent canonical document of an instance's *content*.

    Two instances that describe the same problem — same tasks, edges,
    processors, communication model and ETC values — produce the same
    document regardless of construction order (task/edge insertion
    sequence, ETC row/column order).  Metadata that does not change the
    problem (instance/DAG/machine names, processor display names) is
    deliberately excluded, so renaming an instance does not defeat
    content addressing.
    """
    dag = instance.dag
    machine = instance.machine
    task_order = sorted(dag.tasks(), key=_id_key)
    proc_order = sorted(machine.proc_ids(), key=_id_key)
    comm = _comm_to_dict(machine.comm, machine.proc_ids())
    if comm.get("type") == "links":
        comm["links"] = sorted(comm["links"], key=lambda r: (_id_key(r["src"]), _id_key(r["dst"])))
    doc = {
        "format": "repro-instance-fingerprint-v1",
        "tasks": [[encode_id(t), dag.cost(t)] for t in task_order],
        "edges": sorted(
            ([encode_id(u), encode_id(v), dag.data(u, v)] for u, v in dag.edges()),
            key=lambda rec: (_id_key(decode_id(rec[0])), _id_key(decode_id(rec[1]))),
        ),
        "procs": [[encode_id(p), machine.speed(p)] for p in proc_order],
        "comm": comm,
        "etc": [[instance.etc.time(t, p) for p in proc_order] for t in task_order],
    }
    # The deadline is *content* — it changes which schedules are
    # acceptable — so it participates in the digest.  It is included
    # only when set, so every deadline-free instance hashes exactly as
    # it did before constraints existed (cache keys stay warm).
    if instance.deadline is not None:
        doc["deadline"] = instance.deadline
    return doc


def instance_fingerprint(instance: Instance) -> str:
    """SHA-256 hex digest of :func:`canonical_instance_doc`.

    Stable across processes and Python sessions (no reliance on
    ``hash()``) and exact in the float values: ``json.dumps`` emits the
    shortest round-trip ``repr`` of each float, so any single-ULP
    perturbation of an ETC cell, edge weight or task cost changes the
    digest.
    """
    text = json.dumps(canonical_instance_doc(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_instance(instance: Instance, path: PathLike) -> None:
    """Write the instance JSON to disk."""
    Path(path).write_text(instance_to_json(instance))


def load_instance(path: PathLike) -> Instance:
    """Read an instance JSON from disk."""
    return instance_from_json(Path(path).read_text())
