"""Empirical competitive-ratio estimation from execution traces.

Implements the paper's Definition 1 measurement: at each time ``t`` where
transactions were generated, ``r_S(t) = max_{T in T_t} (t_T - t) / t*``
with ``t*`` replaced by the certified lower bound of
:func:`repro.analysis.lower_bounds.live_set_lower_bound` — so every
reported ratio is an *upper* bound on the true competitive ratio.

Object positions at time ``t`` come from
:meth:`~repro.sim.trace.ExecutionTrace.object_timelines`: the object is at
a leg's source until it departs and at its destination from arrival;
while mid-leg we charge its destination (the same artificial-node
convention the schedulers use, which can only *lower* the bound — again
the conservative direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro._types import Time
from repro.analysis.lower_bounds import batch_lower_bound, live_set_lower_bound
from repro.network.graph import Graph
from repro.sim.trace import ExecutionTrace
from repro.sim.transactions import Transaction


@dataclass(frozen=True)
class RatioPoint:
    """Competitive ratio sample at one generation time."""

    time: Time
    live: int
    worst_duration: Time
    lower_bound: Time

    @property
    def ratio(self) -> float:
        return self.worst_duration / max(1, self.lower_bound)


def competitive_ratio(
    graph: Graph,
    trace: ExecutionTrace,
    *,
    sample_times: Optional[Sequence[Time]] = None,
) -> Tuple[float, List[RatioPoint]]:
    """Overall ratio ``sup_t r_S(t)`` and the per-time samples.

    ``sample_times`` defaults to all distinct generation times.
    """
    records = list(trace.txns.values())
    if not records:
        return 0.0, []
    timelines = trace.object_timelines()
    if sample_times is None:
        sample_times = sorted({r.gen_time for r in records})
    points: List[RatioPoint] = []
    for t in sample_times:
        live = [r for r in records if r.gen_time <= t < r.exec_time or (r.gen_time == t == r.exec_time)]
        if not live:
            continue
        positions = {oid: tl.charged_position(t) for oid, tl in timelines.items()}
        live_txns = [
            Transaction(r.tid, r.home, frozenset(r.objects), r.gen_time, reads=frozenset(r.reads))
            for r in live
        ]
        lb = live_set_lower_bound(graph, positions, live_txns, trace.object_speed_den)
        worst = max(r.exec_time - t for r in live)
        points.append(RatioPoint(t, len(live), worst, lb))
    overall = max((p.ratio for p in points), default=0.0)
    return overall, points


def makespan_ratio(graph: Graph, trace: ExecutionTrace) -> float:
    """Batch-problem ratio: measured makespan over the batch lower bound.

    Only meaningful when all transactions were generated at one time step
    (a batch workload); asserts that precondition.
    """
    records = list(trace.txns.values())
    if not records:
        return 0.0
    gen_times = {r.gen_time for r in records}
    if len(gen_times) != 1:
        raise ValueError("makespan_ratio is only defined for batch workloads")
    t0 = gen_times.pop()
    txns = [
        Transaction(r.tid, r.home, frozenset(r.objects), r.gen_time, reads=frozenset(r.reads))
        for r in records
    ]
    lb = batch_lower_bound(graph, trace.initial_placement, txns, trace.object_speed_den)
    return (trace.makespan() - t0) / max(1, lb)
