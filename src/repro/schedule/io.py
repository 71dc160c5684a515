"""Schedule serialisation (JSON) and SVG Gantt rendering.

Schedules are exchanged as JSON documents listing every placement
(primary and duplicate).  Deserialisation needs the :class:`Machine`
(timelines and processor identity are machine-scoped); task-id fidelity
is preserved for ``int``/``str`` ids and for tuple ids via a tagged
encoding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.exceptions import ParseError, ReproError
from repro.machine.cluster import Machine
from repro.schedule.schedule import Schedule
from repro.utils.encoding import decode_id as _decode_id
from repro.utils.encoding import encode_id as _encode_id

PathLike = Union[str, Path]


def placement_records(schedule: Schedule) -> list[dict]:
    """Every placement as a JSON-ready record, read from the schedule's
    columns and sorted by ``(start, str(proc), str(task))``.

    The sort is stable over :meth:`Schedule.columns` row order, so equal
    schedules give equal record lists — the placements of both the JSON
    document and the service's response payload.
    """
    task_col, proc_col, start_col, end_col, dup_col = schedule.columns()
    keys = [(s, str(p), str(t)) for s, p, t in zip(start_col, proc_col, task_col)]
    return [
        {
            "task": _encode_id(task_col[i]),
            "proc": _encode_id(proc_col[i]),
            "start": start_col[i],
            "end": end_col[i],
            "duplicate": dup_col[i],
        }
        for i in sorted(range(len(keys)), key=keys.__getitem__)
    ]


def schedule_to_json(schedule: Schedule) -> str:
    """Serialise a schedule (placements, duplicates, machine name)."""
    doc = {
        "name": schedule.name,
        "machine": schedule.machine.name,
        "placements": placement_records(schedule),
    }
    return json.dumps(doc, indent=2)


def schedule_from_json(text: str, machine: Machine) -> Schedule:
    """Rebuild a schedule onto ``machine``.

    Primaries are added before duplicates so the primary/duplicate
    distinction survives the round trip.  All structural constraints
    (overlap, unknown processor) are re-checked by construction.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "placements" not in doc:
        raise ParseError("schedule JSON must be an object with 'placements'")
    schedule = Schedule(machine, name=doc.get("name", "schedule"))
    records = doc["placements"]
    try:
        for want_duplicate in (False, True):
            for rec in records:
                if bool(rec.get("duplicate", False)) != want_duplicate:
                    continue
                start = float(rec["start"])
                end = float(rec["end"])
                if end < start:
                    raise ParseError(f"placement with end < start: {rec!r}")
                schedule.add(
                    _decode_id(rec["task"]),
                    _decode_id(rec["proc"]),
                    start,
                    end - start,
                    duplicate=want_duplicate,
                )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A record without a required key, or a field of the wrong type.
        raise ParseError(f"malformed schedule JSON: {type(exc).__name__}: {exc}") from None
    return schedule


def save_schedule(schedule: Schedule, path: PathLike) -> None:
    """Write the JSON form to disk."""
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: PathLike, machine: Machine) -> Schedule:
    """Read the JSON form from disk onto ``machine``."""
    return schedule_from_json(Path(path).read_text(), machine)


# ----------------------------------------------------------------------
# SVG Gantt rendering
# ----------------------------------------------------------------------
_PALETTE = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]


def schedule_to_svg(
    schedule: Schedule,
    width: int = 900,
    row_height: int = 28,
    margin: int = 60,
) -> str:
    """Render a schedule as a standalone SVG Gantt chart.

    One row per processor; duplicates are drawn hatched (reduced
    opacity).  Colours are stable per task id so the same task keeps its
    colour across copies.
    """
    procs = schedule.machine.proc_ids()
    span = schedule.makespan
    height = margin // 2 + row_height * max(len(procs), 1) + margin // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{margin}" y="14">{_esc(schedule.name)} — makespan {span:g}</text>',
    ]
    if span <= 0:
        parts.append("</svg>")
        return "\n".join(parts)

    chart_w = width - margin - 10
    scale = chart_w / span
    y = margin // 2 + 6
    for proc in procs:
        parts.append(
            f'<text x="4" y="{y + row_height * 0.65:.1f}">P{_esc(str(proc))}</text>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{y + row_height - 2}" x2="{width - 10}" '
            f'y2="{y + row_height - 2}" stroke="#ddd"/>'
        )
        for placed in schedule.proc_entries(proc):
            x = margin + placed.start * scale
            w = max(1.0, placed.duration * scale)
            colour = _PALETTE[hash(str(placed.task)) % len(_PALETTE)]
            opacity = "0.45" if placed.duplicate else "0.95"
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{row_height - 6}" fill="{colour}" fill-opacity="{opacity}" '
                f'stroke="#333" stroke-width="0.5">'
                f"<title>{_esc(str(placed.task))} [{placed.start:g}, {placed.end:g})"
                f'{" (duplicate)" if placed.duplicate else ""}</title></rect>'
            )
            if w > 24:
                parts.append(
                    f'<text x="{x + 3:.1f}" y="{y + row_height * 0.6:.1f}" '
                    f'fill="#fff">{_esc(str(placed.task))[:12]}</text>'
                )
        y += row_height
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(schedule: Schedule, path: PathLike, **kwargs) -> None:
    """Write the SVG Gantt chart to disk."""
    Path(path).write_text(schedule_to_svg(schedule, **kwargs))


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
