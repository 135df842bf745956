"""ASCII Gantt rendering of execution traces.

Terminal-friendly visualisation of what the schedule actually did: one
lane per object showing where it rested and when it travelled, plus one
lane per (selected) node showing generation-to-commit spans.  Used by the
examples and handy when debugging a scheduler.

Legend for object lanes:  ``3``/``12`` node ids while at rest (printed at
the resting position, padded with ``-``), ``>`` while in transit, ``*``
at the step a transaction consumed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro._types import ObjectId, Time
from repro.sim.trace import ExecutionTrace, ObjectTimeline


def _scale(t: Time, t_max: Time, width: int) -> int:
    if t_max <= 0:
        return 0
    return min(width - 1, (t * (width - 1)) // t_max)


def _label(lane: List[str], node, at: int) -> None:
    """Write a resting node id from column ``at`` onto the free cells."""
    for i, ch in enumerate(str(node), at):
        if i < len(lane) and lane[i] == "-":
            lane[i] = ch


def object_lanes(
    trace: ExecutionTrace,
    *,
    width: int = 72,
    objects: Optional[Sequence[ObjectId]] = None,
) -> List[str]:
    """One line of text per object."""
    t_max = max(trace.makespan(), trace.end_time, 1)
    oids = sorted(objects if objects is not None else trace.initial_placement)
    timelines = trace.object_timelines()
    consumed: Dict[ObjectId, List[Time]] = {}
    for rec in trace.txns.values():
        for oid in rec.objects + rec.reads:
            consumed.setdefault(oid, []).append(rec.exec_time)
    lines = []
    for oid in oids:
        lane = ["-"] * width
        timeline = timelines.get(oid) or ObjectTimeline(None, ())
        pos, t = timeline.start, 0
        for leg in timeline.legs:
            _label(lane, pos, _scale(t, t_max, width))
            a, b = _scale(leg.depart_time, t_max, width), _scale(leg.arrive_time, t_max, width)
            for i in range(a, b + 1):
                lane[i] = ">"
            pos, t = leg.dst, leg.arrive_time
        _label(lane, pos, _scale(t, t_max, width))
        for step in consumed.get(oid, ()):
            lane[_scale(step, t_max, width)] = "*"
        lines.append(f"o{oid:<3}|{''.join(lane)}|")
    return lines


def txn_lanes(
    trace: ExecutionTrace,
    *,
    width: int = 72,
    top: int = 10,
) -> List[str]:
    """One line per transaction (longest-latency first, up to ``top``):
    ``.`` waiting from generation, ``#`` at commit."""
    t_max = max(trace.makespan(), trace.end_time, 1)
    recs = sorted(trace.txns.values(), key=lambda r: (-r.latency, r.tid))[:top]
    lines = []
    for rec in recs:
        lane = [" "] * width
        a = _scale(rec.gen_time, t_max, width)
        b = _scale(rec.exec_time, t_max, width)
        for i in range(a, b):
            lane[i] = "."
        lane[b] = "#"
        lines.append(f"t{rec.tid:<3}|{''.join(lane)}| n{rec.home} lat={rec.latency}")
    return lines


def render_gantt(trace: ExecutionTrace, *, width: int = 72, top_txns: int = 8) -> str:
    """Combined object + transaction chart as one string."""
    t_max = max(trace.makespan(), trace.end_time, 1)
    header = f"time 0 {'.' * (width - len(str(t_max)) - 8)} {t_max}"
    parts = [header, "objects (digits=resting node, > = in transit, * = consumed):"]
    parts.extend(object_lanes(trace, width=width))
    parts.append(f"slowest {top_txns} transactions (. = live, # = commit):")
    parts.extend(txn_lanes(trace, width=width, top=top_txns))
    return "\n".join(parts)
