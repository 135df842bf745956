"""E13 — Congestion (the paper's Section VI open question).

The base model assumes links of unbounded capacity.  We bound per-node
egress (at most C objects departing a node per step) and measure how much
the congestion-oblivious schedules degrade, and how much scheduling slack
(pessimistic constraint inflation) buys the guarantee back.

Reported per (topology, capacity): violations logged by the engine (missed
deadlines, executions deferred), makespan inflation over the uncongested
run, and the slack level that eliminates violations entirely.
"""

import pytest

from _util import emit, once
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.workloads import OnlineWorkload, hotspot_workload


def run_congested(graph, capacity, slack, seed=0):
    wl = hotspot_workload(graph, num_cold_objects=4, k_cold=1, seed=seed)
    sim = Simulator(
        graph,
        GreedyScheduler(weight_slack=slack),
        wl,
        config=SimConfig(node_egress_capacity=capacity, strict=False),
    )
    return sim.run()


@pytest.mark.benchmark(group="E13-congestion")
def test_e13_congestion_impact_and_slack(benchmark):
    rows = []
    for name, graph in [
        ("clique-16", topologies.clique(16)),
        ("grid-4x4", topologies.grid([4, 4])),
        ("line-16", topologies.line(16)),
    ]:
        base = run_congested(graph, capacity=None, slack=0)
        assert base.violations == []
        for cap in (2, 1):
            congested = run_congested(graph, capacity=cap, slack=0)
            slacked = None
            for slack in (1, 2, 4, 8):
                trial = run_congested(graph, capacity=cap, slack=slack)
                if not trial.violations:
                    slacked = (slack, trial.makespan())
                    break
            rows.append(
                [
                    name,
                    cap,
                    len(congested.violations),
                    base.makespan(),
                    congested.makespan(),
                    round(congested.makespan() / max(1, base.makespan()), 2),
                    slacked[0] if slacked else ">8",
                    slacked[1] if slacked else "-",
                ]
            )
            # congestion must never break completion, only delay it
            assert len(congested.txns) == len(base.txns)
    once(benchmark, lambda: run_congested(topologies.grid([4, 4]), 1, 0, seed=1))
    emit(
        "E13 congestion — bounded egress capacity (Section VI open question)",
        ["topology", "cap", "violations", "base-mk", "congested-mk", "inflation",
         "slack-to-clean", "slacked-mk"],
        rows,
    )
