"""Task-graph file I/O: STG, JSON and DOT.

Three formats are supported:

* **STG** — the Standard Task Graph format of Tobita & Kasahara
  (``kasahara.cs.waseda.ac.jp``), the de-facto benchmark exchange format
  of the 2000s static-scheduling literature.  Each line reads
  ``<task> <cost> <npred> <pred...>``; the classic format has no
  communication costs, so an extended variant with per-predecessor
  ``pred:data`` pairs is also accepted and emitted when data is present.
* **JSON** — a lossless round-trip format for this library.
* **DOT** — Graphviz export for visual inspection, plus an importer for
  the subset :func:`to_dot` emits (ids stringify on the way back).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TextIO, Union

from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.exceptions import ParseError, ReproError

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# STG
# ----------------------------------------------------------------------
def parse_stg(text: str, name: str = "stg") -> TaskDAG:
    """Parse an STG document into a :class:`TaskDAG`.

    Task ids become integers.  Predecessor tokens may be plain ids
    (``3``) or extended ``id:data`` pairs (``3:12.5``).  Lines starting
    with ``#`` and blank lines are ignored.
    """
    dag = TaskDAG(name)
    lines = text.splitlines()
    declared: int | None = None
    entries: list[tuple[int, int, float, list[tuple[int, float]]]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if declared is None:
            if len(tokens) != 1:
                raise ParseError("first data line must be the task count", lineno)
            try:
                declared = int(tokens[0])
            except ValueError:
                raise ParseError(f"invalid task count {tokens[0]!r}", lineno) from None
            if declared < 0:
                raise ParseError(f"negative task count {declared}", lineno)
            continue
        if len(tokens) < 3:
            raise ParseError("task line needs at least <id> <cost> <npred>", lineno)
        try:
            tid = int(tokens[0])
            cost = float(tokens[1])
            npred = int(tokens[2])
        except ValueError as exc:
            raise ParseError(f"malformed task line: {exc}", lineno) from None
        preds_tokens = tokens[3:]
        if len(preds_tokens) != npred:
            raise ParseError(
                f"task {tid}: declared {npred} predecessors, found {len(preds_tokens)}",
                lineno,
            )
        preds: list[tuple[int, float]] = []
        for tok in preds_tokens:
            if ":" in tok:
                pid_s, data_s = tok.split(":", 1)
            else:
                pid_s, data_s = tok, "0"
            try:
                preds.append((int(pid_s), float(data_s)))
            except ValueError:
                raise ParseError(f"malformed predecessor token {tok!r}", lineno) from None
        entries.append((lineno, tid, cost, preds))

    if declared is None:
        raise ParseError("empty STG document")

    for lineno, tid, cost, _ in entries:
        if dag.has_task(tid):
            raise ParseError(f"task {tid} defined twice", lineno)
        dag.add_task(Task(id=tid, cost=cost))
    for lineno, tid, _, preds in entries:
        for pid, data in preds:
            if not dag.has_task(pid):
                raise ParseError(f"task {tid} references unknown predecessor {pid}", lineno)
            dag.add_edge(pid, tid, data=data)

    # The classic format declares the count excluding the two dummy
    # endpoint tasks; accept either convention but reject wild mismatch.
    n = dag.num_tasks
    if n not in (declared, declared + 2):
        raise ParseError(f"declared {declared} tasks but parsed {n}")
    dag.validate()
    return dag


def load_stg(path: PathLike) -> TaskDAG:
    """Read an STG file from disk."""
    p = Path(path)
    return parse_stg(p.read_text(), name=p.stem)


def dump_stg(dag: TaskDAG, stream: TextIO | None = None) -> str:
    """Serialise a DAG whose ids are integers to STG text.

    Extended ``pred:data`` tokens are emitted for edges with non-zero
    data so the round trip is lossless.
    """
    for tid in dag.tasks():
        if not isinstance(tid, int):
            raise ParseError(f"STG requires integer task ids, got {tid!r}")
    out: list[str] = [str(dag.num_tasks)]
    for tid in sorted(dag.tasks()):
        preds = sorted(dag.predecessors(tid))
        toks = []
        for pid in preds:
            data = dag.data(pid, tid)
            toks.append(f"{pid}:{data:g}" if data else str(pid))
        out.append(f"{tid} {dag.cost(tid):g} {len(preds)}" + ("" if not toks else " " + " ".join(toks)))
    text = "\n".join(out) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def save_stg(dag: TaskDAG, path: PathLike) -> None:
    """Write an STG file to disk."""
    Path(path).write_text(dump_stg(dag))


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def to_json(dag: TaskDAG) -> str:
    """Serialise a DAG to the library's JSON format (lossless).

    Tuple ids are encoded with a ``__tuple__`` tag (see
    :mod:`repro.utils.encoding`) so they round-trip exactly instead of
    degrading to JSON arrays.
    """
    from repro.utils.encoding import encode_id

    doc = {
        "name": dag.name,
        "tasks": [
            {"id": encode_id(t.id), "cost": t.cost, "name": t.name, "attrs": dict(t.attrs)}
            for t in dag.task_objects()
        ],
        "edges": [
            {"src": encode_id(u), "dst": encode_id(v), "data": dag.data(u, v)}
            for u, v in dag.edges()
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False, default=str)


def from_json(text: str) -> TaskDAG:
    """Parse the library's JSON format back into a :class:`TaskDAG`."""
    from repro.utils.encoding import decode_id

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError("JSON document must be an object with a 'tasks' key")
    dag = TaskDAG(doc.get("name", "dag"))
    try:
        for rec in doc["tasks"]:
            dag.add_task(
                Task(
                    id=decode_id(rec["id"]),
                    cost=rec.get("cost", 1.0),
                    name=rec.get("name", ""),
                    attrs=rec.get("attrs", {}),
                )
            )
        for rec in doc.get("edges", []):
            dag.add_edge(decode_id(rec["src"]), decode_id(rec["dst"]), data=rec.get("data", 0.0))
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A record without a required key, or a field of the wrong type.
        raise ParseError(f"malformed DAG JSON: {type(exc).__name__}: {exc}") from None
    dag.validate()
    return dag


def load_json(path: PathLike) -> TaskDAG:
    """Read the JSON format from disk."""
    return from_json(Path(path).read_text())


def save_json(dag: TaskDAG, path: PathLike) -> None:
    """Write the JSON format to disk."""
    Path(path).write_text(to_json(dag))


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------
def to_dot(dag: TaskDAG) -> str:
    """Render the DAG as Graphviz DOT for visual inspection."""

    def q(x: object) -> str:
        return '"' + str(x).replace('"', r"\"") + '"'

    lines = [f"digraph {q(dag.name)} {{", "  rankdir=TB;"]
    for t in dag.task_objects():
        label = t.name + "\\n" + f"{t.cost:g}"
        lines.append(f"  {q(t.id)} [label={q(label)}];")
    for u, v in dag.edges():
        data = dag.data(u, v)
        label = f" [label={q(f'{data:g}')}]" if data else ""
        lines.append(f"  {q(u)} -> {q(v)}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(
    r'^\s*"(?P<id>(?:[^"\\]|\\.)*)"\s*'
    r'(?:\[label="(?P<label>(?:[^"\\]|\\.)*)"\])?\s*;\s*$'
)
_DOT_EDGE = re.compile(
    r'^\s*"(?P<src>(?:[^"\\]|\\.)*)"\s*->\s*"(?P<dst>(?:[^"\\]|\\.)*)"\s*'
    r'(?:\[label="(?P<label>(?:[^"\\]|\\.)*)"\])?\s*;\s*$'
)


def _dot_unquote(text: str) -> str:
    return text.replace(r"\"", '"')


def from_dot(text: str) -> TaskDAG:
    """Parse the DOT subset emitted by :func:`to_dot` back to a DAG.

    Node statements carry ``label="<name>\\n<cost>"``; edge statements
    optionally carry ``label="<data>"``.  Task ids become strings (DOT
    has no richer id type), so ``from_dot(to_dot(dag))`` round-trips
    structure and weights but stringifies non-string ids.
    """
    name = "dag"
    dag: TaskDAG | None = None
    nodes: list[tuple[str, float, str]] = []
    edges: list[tuple[str, str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "}" or line.startswith(("rankdir", "graph", "node", "edge")):
            continue
        if line.startswith("digraph"):
            m = re.match(r'digraph\s+"((?:[^"\\]|\\.)*)"\s*{', line)
            if m:
                name = _dot_unquote(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        if m:
            data = float(m.group("label")) if m.group("label") else 0.0
            edges.append((_dot_unquote(m.group("src")), _dot_unquote(m.group("dst")), data))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nid = _dot_unquote(m.group("id"))
            label = m.group("label") or ""
            cost = 1.0
            node_name = nid
            if "\\n" in label:
                node_name, cost_text = label.rsplit("\\n", 1)
                try:
                    cost = float(cost_text)
                except ValueError:
                    raise ParseError(f"node {nid!r}: bad cost {cost_text!r}", lineno) from None
            nodes.append((nid, cost, node_name))
            continue
        raise ParseError(f"unparseable DOT statement: {line!r}", lineno)

    dag = TaskDAG(name)
    for nid, cost, node_name in nodes:
        dag.add_task(Task(id=nid, cost=cost, name=node_name))
    for src, dst, data in edges:
        for endpoint in (src, dst):
            if not dag.has_task(endpoint):
                dag.add_task(Task(id=endpoint, cost=1.0))
        dag.add_edge(src, dst, data=data)
    dag.validate()
    return dag


def load_dot(path: PathLike) -> TaskDAG:
    """Read the DOT subset from disk."""
    return from_dot(Path(path).read_text())
