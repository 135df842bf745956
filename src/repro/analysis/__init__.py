"""Metrics, lower bounds, competitive-ratio estimation, and the experiment
harness that regenerates the paper-validation tables (EXPERIMENTS.md)."""

from repro.analysis.lower_bounds import (
    batch_lower_bound,
    object_load_bound,
    object_mst_bound,
)
from repro.analysis.gantt import object_lanes, render_gantt, txn_lanes
from repro.analysis.placement import optimize_placement, replace_placement, weighted_one_median
from repro.analysis.metrics import RunMetrics, jain_fairness, latency_fairness, summarize
from repro.analysis.obs_report import obs_section
from repro.analysis.report import comparison_report, run_report
from repro.analysis.steady_state import (
    response_time_series,
    saturation_point,
    sliding_window_throughput,
    throughput,
)
from repro.analysis.ratios import competitive_ratio, makespan_ratio
from repro.analysis.tables import render_table
from repro.analysis.aggregate import Aggregate, replicate
from repro.analysis.bottlenecks import (
    edge_betweenness,
    measured_edge_load,
    predicted_vs_measured,
)
from repro.analysis.exact import (
    ExactSolverLimit,
    earliest_schedule_for_order,
    exact_optimal_makespan,
    exact_ratio,
)
from repro.analysis.experiments import (
    RunResult,
    StreamResult,
    run_experiment,
    run_grid,
    run_simulator,
    run_stream,
)
from repro.analysis.frontier import (
    FrontierResult,
    SchedulerFrontier,
    stability_frontier,
)
from repro.analysis.slo import (
    SloSummary,
    StabilityVerdict,
    backlog_series,
    latency_percentiles,
    slo_summary,
    stability_verdict,
)
from repro.analysis.timeline import (
    hottest_nodes,
    live_count_series,
    node_utilization,
    peak_concurrency,
    transit_series,
    waiting_time_breakdown,
)

__all__ = [
    "batch_lower_bound",
    "object_mst_bound",
    "object_load_bound",
    "RunMetrics",
    "summarize",
    "competitive_ratio",
    "makespan_ratio",
    "render_table",
    "RunResult",
    "run_experiment",
    "run_simulator",
    "run_grid",
    "Aggregate",
    "replicate",
    "exact_optimal_makespan",
    "exact_ratio",
    "earliest_schedule_for_order",
    "ExactSolverLimit",
    "jain_fairness",
    "latency_fairness",
    "render_gantt",
    "object_lanes",
    "txn_lanes",
    "run_report",
    "comparison_report",
    "obs_section",
    "optimize_placement",
    "replace_placement",
    "weighted_one_median",
    "edge_betweenness",
    "measured_edge_load",
    "predicted_vs_measured",
    "throughput",
    "sliding_window_throughput",
    "response_time_series",
    "saturation_point",
    "live_count_series",
    "transit_series",
    "peak_concurrency",
    "node_utilization",
    "hottest_nodes",
    "waiting_time_breakdown",
    # open-system (streaming) analysis
    "StreamResult",
    "run_stream",
    "SloSummary",
    "StabilityVerdict",
    "slo_summary",
    "stability_verdict",
    "latency_percentiles",
    "backlog_series",
    "FrontierResult",
    "SchedulerFrontier",
    "stability_frontier",
]
