"""E20 — Bounded link capacity (the precise Section VI open question).

Hop-level motion lets us cap concurrent traversals per edge.  Topologies
with structural bottlenecks (the star center, cluster bridges) should
suffer most; the mesh should spread load.  The table reports deferral
counts and makespan inflation as capacity tightens, per topology.
"""

import pytest

from _util import emit, once
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.workloads import OnlineWorkload

HOP = SimConfig(transport="hop")


CONFIGS = [
    ("grid-5x5", lambda: topologies.grid([5, 5])),
    ("star-4x4", lambda: topologies.star_graph(4, 4)),
    ("cluster-3x4", lambda: topologies.cluster_graph(3, 4, gamma=6)),
    ("line-16", lambda: topologies.line(16)),
]


def run_capped(graph, capacity, seed=0):
    wl = OnlineWorkload.bernoulli(
        graph, num_objects=8, k=2, rate=1.5 / graph.num_nodes, horizon=50, seed=seed
    )
    sim = Simulator(
        graph,
        GreedyScheduler(),
        wl,
        config=HOP.replace(link_capacity=capacity, strict=False),
    )
    return sim.run()


@pytest.mark.benchmark(group="E20-link-capacity")
def test_e20_link_capacity_sweep(benchmark):
    rows = []
    for name, make_graph in CONFIGS:
        g = make_graph()
        base = None
        for cap in (None, 2, 1):
            if cap is None:
                wl = OnlineWorkload.bernoulli(
                    g, num_objects=8, k=2, rate=1.5 / g.num_nodes, horizon=50, seed=0
                )
                trace = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
            else:
                trace = run_capped(g, cap)
            if base is None:
                base = trace.makespan()
            rows.append(
                [
                    name,
                    "inf" if cap is None else cap,
                    trace.num_txns,
                    len(trace.violations),
                    trace.makespan(),
                    round(trace.makespan() / max(1, base), 2),
                ]
            )
            # congestion defers, never drops
            assert len(trace.txns) > 0
    once(benchmark, lambda: run_capped(CONFIGS[0][1](), 1, seed=1))
    emit(
        "E20 link capacity — per-edge concurrency caps (hop motion)",
        ["topology", "cap", "txns", "deferrals", "makespan", "inflation"],
        rows,
    )


@pytest.mark.benchmark(group="E20-link-capacity")
def test_e20b_bottleneck_prediction(benchmark):
    """Edge betweenness predicts where the load lands on *structurally
    bottlenecked* topologies (star center, cluster bridges, line middle).
    The symmetric mesh is the negative control: with no structural
    bottleneck, workload randomness dominates and the correlation is ~0 —
    structure-based capacity planning only works where structure exists."""
    from repro.analysis import predicted_vs_measured

    rows = []
    for name, make_graph in CONFIGS:
        g = make_graph()
        wl = OnlineWorkload.bernoulli(
            g, num_objects=8, k=2, rate=1.5 / g.num_nodes, horizon=50, seed=3
        )
        trace = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        rho, table = predicted_vs_measured(g, trace)
        hot = table[0]
        rows.append([name, round(rho, 2), f"{hot[0][0]}-{hot[0][1]}", hot[2]])
        if name != "grid-5x5":  # the mesh is the negative control
            assert rho > 0.2, f"{name}: betweenness failed to predict load (rho={rho})"
    once(benchmark, lambda: run_capped(CONFIGS[1][1](), 2, seed=4))
    emit(
        "E20b structural prediction — betweenness vs measured edge load",
        ["topology", "spearman rho", "hottest edge", "traversals"],
        rows,
    )
