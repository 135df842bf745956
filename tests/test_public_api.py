"""Public-API audit: every symbol the docs promise must import.

``docs/api.md`` (and ``docs/observability.md``) are the contract; this
test walks the documented module paths and asserts each named symbol
resolves.  A rename or dropped re-export fails here before it fails for
a user.  The map below mirrors the docs section by section — update both
together.
"""

import importlib

import pytest

# module path -> symbols documented as importable from it
DOCUMENTED_API = {
    "repro": [
        "Simulator", "SimConfig", "GreedyScheduler", "OnlineScheduler",
        "BucketScheduler", "DistributedBucketScheduler",
        "CoordinatedGreedyScheduler", "certify_trace", "Graph",
        "DeparturePolicy", "topologies", "workloads",
        "FaultPlan", "CrashWindow",
        "pmap", "WorkerPool", "resolve_jobs",
    ],
    "repro.parallel": ["WorkerPool", "pmap", "resolve_jobs"],
    "repro.network.topologies": [
        "clique", "line", "grid", "hypercube", "butterfly",
        "cluster_graph", "star_graph", "tree", "random_geometric",
    ],
    "repro.workloads": [
        "BatchWorkload", "OnlineWorkload", "ClosedLoopWorkload",
        "ManualWorkload", "TxnSpec",
        "WorkloadSpec", "WORKLOAD_KINDS",
        "OpenWorkload", "PoissonOpenWorkload", "OnOffBurstyWorkload",
        "DiurnalWorkload", "AdversarialOpenWorkload",
        "ObjectChooser", "UniformChooser", "ZipfChooser", "LocalityChooser",
        "hotspot_workload", "chain_workload", "grid_crossing_workload",
        "bank_workload", "vacation_workload", "inventory_workload",
        "workload_from_trace", "place_objects_uniform",
    ],
    "repro.workloads.spec": ["WorkloadSpec", "WORKLOAD_KINDS", "allowed_knobs"],
    "repro.workloads.streaming": [
        "OpenWorkload", "PoissonOpenWorkload", "OnOffBurstyWorkload",
        "DiurnalWorkload", "AdversarialOpenWorkload",
    ],
    "repro.core": [
        "OnlineScheduler", "GreedyScheduler", "BucketScheduler",
        "DistributedBucketScheduler", "CoordinatedGreedyScheduler",
        "AdaptiveScheduler", "WindowedBatchScheduler", "ReplayScheduler",
        "constraints_for", "min_valid_color",
    ],
    "repro.core.base": ["OnlineScheduler"],
    "repro.core.dependency": ["constraints_for"],
    "repro.offline": [
        "BatchScheduler", "SimStateView", "LineBatchScheduler",
        "ColoringBatchScheduler", "ClusterBatchScheduler",
        "StarBatchScheduler",
    ],
    "repro.baselines": [
        "FifoSerialScheduler", "TspTourScheduler", "OptimisticDTMSimulator",
    ],
    "repro.faults": ["FaultPlan", "CrashWindow", "FaultInjector"],
    "repro.sim": ["Simulator", "SimConfig", "certify_trace"],
    "repro.sim.config": ["SimConfig"],
    "repro.sim.events": ["EventKind", "EventQueue"],
    "repro.sim.transport": [
        "Transport", "DirectTransport", "HopTransport",
        "EgressCapacity", "LinkCapacity", "FaultyTransport",
        "build_transport",
    ],
    "repro.sim.serialize": ["save_trace", "load_trace", "trace_to_dict"],
    "repro.analysis": [
        "run_experiment", "run_simulator", "RunResult", "summarize", "RunMetrics",
        "competitive_ratio", "makespan_ratio",
        "batch_lower_bound", "object_mst_bound", "object_load_bound",
        "replicate", "Aggregate", "render_table", "run_grid",
        "exact_optimal_makespan", "exact_ratio",
        "optimize_placement", "replace_placement",
        "throughput", "response_time_series", "saturation_point",
        "edge_betweenness", "predicted_vs_measured",
        "jain_fairness", "latency_fairness",
        "render_gantt", "run_report", "comparison_report", "obs_section",
        "live_count_series", "transit_series", "node_utilization",
        "hottest_nodes", "waiting_time_breakdown", "peak_concurrency",
        "run_stream", "StreamResult",
        "slo_summary", "SloSummary", "stability_verdict", "StabilityVerdict",
        "latency_percentiles", "backlog_series",
        "stability_frontier", "FrontierResult", "SchedulerFrontier",
    ],
    "repro.analysis.slo": [
        "SloSummary", "StabilityVerdict", "slo_summary", "stability_verdict",
        "latency_percentiles", "backlog_series",
    ],
    "repro.analysis.frontier": [
        "FrontierProbe", "FrontierResult", "SchedulerFrontier",
        "stability_frontier", "rate_knob",
    ],
    "repro.obs": [
        "Probe", "NullProbe", "NULL_PROBE", "MultiProbe",
        "CountersProbe", "JsonlProbe", "GanttProbe",
        "load_events", "iter_events", "SCHEMA_VERSION", "PHASES",
    ],
    "repro.testing": ["random_instance", "check_plan", "fuzz_scheduler"],
    "repro.directory": ["ArrowDirectory", "SpanningTree"],
}


@pytest.mark.parametrize("module", sorted(DOCUMENTED_API))
def test_documented_symbols_importable(module):
    mod = importlib.import_module(module)
    missing = [n for n in DOCUMENTED_API[module]
               if not (hasattr(mod, n)
                       or _is_submodule(module, n))]
    assert not missing, f"{module} is missing documented symbols: {missing}"


def _is_submodule(package: str, name: str) -> bool:
    try:
        importlib.import_module(f"{package}.{name}")
        return True
    except ImportError:
        return False


def test_all_exports_resolve():
    """Everything a package lists in __all__ must actually exist."""
    for module in sorted(DOCUMENTED_API):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"
