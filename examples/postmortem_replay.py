#!/usr/bin/env python
"""Post-mortem workflow: archive a run, re-certify it, replay it under
changed conditions, and write a markdown report.

The operator story: a production DTM run looked slow.  You have its trace
archive.  (1) re-certify it, (2) regenerate its exact workload, (3) replay
the very same schedule under a congested network to see whether yesterday's
timings would have survived, (4) re-schedule the workload with a different
scheduler, and (5) produce the report your team reads.

Run:  python examples/postmortem_replay.py
"""

import os
import tempfile

from repro import GreedyScheduler, SimConfig, Simulator, certify_trace, topologies
from repro.analysis import run_experiment, run_report, comparison_report
from repro.core import BucketScheduler, ReplayScheduler
from repro.offline import ColoringBatchScheduler
from repro.sim.serialize import load_trace, save_trace
from repro.workloads import OnlineWorkload, ZipfChooser, workload_from_trace


def main() -> None:
    graph = topologies.cluster_graph(3, 6, gamma=9)

    # --- the "production run" we archived -----------------------------
    workload = OnlineWorkload.bernoulli(
        graph, num_objects=12, k=2, rate=0.03, horizon=80, seed=23,
        chooser=ZipfChooser(12, s=0.8),
    )
    production = run_experiment(graph, GreedyScheduler(), workload)
    archive = os.path.join(tempfile.gettempdir(), "dtm_run.json")
    save_trace(production.trace, archive)
    print(f"archived {production.trace.num_txns} transactions to {archive}")

    # --- (1) re-certify the archive ------------------------------------
    trace = load_trace(archive)
    certify_trace(graph, trace)
    print("archive re-certified: schedule was physically feasible")

    # --- (2) regenerate the workload, (3) replay under congestion ------
    replay_wl = workload_from_trace(trace)
    sim = Simulator(
        graph,
        ReplayScheduler(trace),
        replay_wl,
        config=SimConfig(transport="hop", link_capacity=1, strict=False),
    )
    congested = sim.run()
    print(
        f"replayed with link capacity 1: {len(congested.violations)} deadline "
        f"misses, makespan {congested.makespan()} vs {trace.makespan()} archived"
    )

    # --- (4) what-if: a guaranteed scheduler on the same workload ------
    alt = run_experiment(graph, BucketScheduler(ColoringBatchScheduler()), workload_from_trace(trace))

    # --- (5) report -----------------------------------------------------
    report = comparison_report(
        graph,
        [("greedy (production)", production), ("bucket (what-if)", alt)],
        title="Post-mortem: production run vs guaranteed scheduler",
    )
    print()
    print(report)
    detail = run_report(graph, production, title="Production run detail", gantt_width=64)
    out = os.path.join(tempfile.gettempdir(), "dtm_postmortem.md")
    with open(out, "w") as fh:
        fh.write(detail)
    print(f"full report written to {out}")


if __name__ == "__main__":
    main()
