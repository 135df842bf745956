#!/usr/bin/env python
"""Capacity-planning scenario: how much link budget does a DTM need?

The paper's model assumes unbounded link capacity (Section VI names
congestion as an open question).  An operator sizing a deployment wants
to know: with the scheduler we run, what egress capacity per node keeps
the schedule on time, and what does it cost to be safe?

This example sweeps the per-node egress capacity on a 6x6 mesh under
Zipf contention, reports deadline misses and makespan inflation, and
then uses the timeline analytics to show where the pressure concentrates.

Run:  python examples/capacity_planning.py
"""

from repro import GreedyScheduler, SimConfig, Simulator, topologies
from repro.analysis import hottest_nodes, peak_concurrency, render_table, transit_series
from repro.workloads import OnlineWorkload, ZipfChooser


def build_workload(graph, seed=11):
    return OnlineWorkload.bernoulli(
        graph,
        num_objects=18,
        k=2,
        rate=0.03,
        horizon=80,
        seed=seed,
        chooser=ZipfChooser(18, s=1.0),
    )


def main() -> None:
    graph = topologies.grid([6, 6])

    rows = []
    baseline = None
    last_trace = None
    for cap in (None, 4, 2, 1):
        sim = Simulator(
            graph,
            GreedyScheduler(),
            build_workload(graph),
            config=SimConfig(node_egress_capacity=cap, strict=False),
        )
        trace = sim.run()
        if baseline is None:
            baseline = trace.makespan()
        rows.append(
            [
                "unbounded" if cap is None else cap,
                trace.num_txns,
                len(trace.violations),
                trace.makespan(),
                round(trace.makespan() / baseline, 2),
            ]
        )
        last_trace = trace

    print(render_table(
        ["egress-cap", "txns", "deadline-misses", "makespan", "inflation"],
        rows,
        title="6x6 mesh, Zipf contention: per-node egress capacity sweep",
    ))

    peak_transit = max((lvl for _, lvl in transit_series(last_trace)), default=0)
    print(f"\nat capacity 1: peak objects in flight {peak_transit}, "
          f"peak live transactions {peak_concurrency(last_trace)}")
    print("\nhottest nodes (capacity 1):")
    hot = hottest_nodes(last_trace, top=5)
    print(render_table(
        ["node", "txns", "mean-lat", "out", "in"],
        [[s.node, s.txns_executed, round(s.mean_latency, 1), s.objects_departed, s.objects_arrived]
         for s in hot],
    ))


if __name__ == "__main__":
    main()
