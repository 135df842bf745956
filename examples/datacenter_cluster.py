#!/usr/bin/env python
"""Rack-scale scenario: transactional stores across racks of servers.

A cluster graph (paper Section IV-D): 4 racks ("cliques") of 8 servers,
rack-local links of weight 1, and inter-rack bridge links of weight 12
(the oversubscribed spine).  Transactions arrive online and touch shared
objects; most traffic should stay rack-local, so we use the
locality-biased object chooser.

The online bucket scheduler (Algorithm 2) converts the clique-banded
offline scheduler into an online one; we also show what the distributed
variant (Algorithm 3) pays for dropping the centralized scheduler.

Run:  python examples/datacenter_cluster.py
"""

from repro import SimConfig, Simulator, certify_trace, topologies
from repro.analysis import competitive_ratio, render_table, summarize
from repro.core import BucketScheduler, DistributedBucketScheduler
from repro.offline import ClusterBatchScheduler
from repro.workloads import LocalityChooser, OnlineWorkload
from repro.workloads.generators import place_objects_uniform

import numpy as np


def build_workload(graph, seed):
    rng = np.random.default_rng(seed)
    placement = place_objects_uniform(graph, 16, rng)
    chooser = LocalityChooser(graph, placement, bias=2.5)
    return OnlineWorkload.bernoulli(
        graph, num_objects=16, k=2, rate=0.02, horizon=120, seed=seed, chooser=chooser
    )


def run(graph, scheduler, *, speed=1, seed=3):
    sim = Simulator(
        graph, scheduler, build_workload(graph, seed), config=SimConfig(object_speed_den=speed)
    )
    trace = sim.run()
    certify_trace(graph, trace)
    ratio, _ = competitive_ratio(graph, trace)
    return summarize(trace), ratio


def main() -> None:
    graph = topologies.cluster_graph(alpha=4, beta=8, gamma=12)
    central, r1 = run(graph, BucketScheduler(ClusterBatchScheduler()))
    # Algorithm 3 runs objects at half speed (its discovery-chase rule),
    # so compare against a half-speed centralized run for a fair baseline.
    central2, r2 = run(graph, BucketScheduler(ClusterBatchScheduler()), speed=2)
    dist, r3 = run(graph, DistributedBucketScheduler(ClusterBatchScheduler(), seed=0), speed=2)

    rows = [
        ["bucket (central)", central.num_txns, central.makespan,
         central.mean_latency, round(r1, 2), central.messages_sent],
        ["bucket (central, 1/2-speed)", central2.num_txns, central2.makespan,
         central2.mean_latency, round(r2, 2), central2.messages_sent],
        ["distributed bucket (Alg.3)", dist.num_txns, dist.makespan,
         dist.mean_latency, round(r3, 2), dist.messages_sent],
    ]
    print(render_table(
        ["scheduler", "txns", "makespan", "mean-lat", "ratio-vs-LB", "ctrl msgs"],
        rows,
        title="4 racks x 8 servers, gamma=12 spine, locality-biased transactions",
    ))
    print(
        f"\ndecentralization overhead: {dist.makespan / max(1, central2.makespan):.2f}x makespan, "
        f"{dist.messages_sent} control messages"
    )


if __name__ == "__main__":
    main()
