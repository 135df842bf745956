"""Tests for lower bounds, ratio estimation, metrics, and tables."""

import pytest

from repro.analysis import (
    batch_lower_bound,
    competitive_ratio,
    makespan_ratio,
    object_load_bound,
    object_mst_bound,
    render_table,
    run_experiment,
    summarize,
)
from repro.analysis.lower_bounds import live_set_lower_bound
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.transactions import Transaction, TxnSpec
from repro.workloads import BatchWorkload, ManualWorkload, OnlineWorkload, hotspot_workload


class TestLowerBounds:
    def test_object_mst_on_line(self):
        g = topologies.line(10)
        assert object_mst_bound(g, 0, [9]) == 9
        assert object_mst_bound(g, 5, [0, 9]) == 9
        assert object_mst_bound(g, 0, [], speed=3) == 0

    def test_speed_scaling(self):
        g = topologies.line(10)
        assert object_mst_bound(g, 0, [4], speed=2) == 8

    def test_object_load_bound(self):
        g = topologies.clique(8)
        assert object_load_bound(g, [0, 1, 2, 3]) == 3
        assert object_load_bound(g, [5]) == 0
        assert object_load_bound(g, [5, 5, 5]) == 0  # same node collapses

    def test_mst_dominates_load_on_clique(self):
        g = topologies.clique(8)
        homes = [0, 1, 2, 3]
        assert object_mst_bound(g, 7, homes) >= object_load_bound(g, homes)

    def test_batch_bound_hotspot(self):
        g = topologies.line(8)
        txns = [Transaction(i, i, frozenset({0}), 0) for i in range(8)]
        assert batch_lower_bound(g, {0: 0}, txns) == 7  # sweep the line

    def test_batch_bound_clamped_to_one(self):
        g = topologies.line(4)
        txns = [Transaction(0, 2, frozenset({0}), 0)]
        assert batch_lower_bound(g, {0: 2}, txns) == 1

    def test_live_set_bound_missing_positions_skipped(self):
        g = topologies.line(4)
        txns = [Transaction(0, 2, frozenset({9}), 0)]
        assert live_set_lower_bound(g, {}, txns) == 1


class TestRatios:
    def test_makespan_ratio_at_least_one_on_tight_instance(self):
        g = topologies.line(12)
        res = run_experiment(g, GreedyScheduler(), hotspot_workload(g, seed=0))
        assert res.makespan_ratio is not None
        assert res.makespan_ratio >= 1.0

    def test_makespan_ratio_rejects_online(self):
        g = topologies.line(8)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 1, (0,)), TxnSpec(3, 2, (0,))])
        res = run_experiment(g, GreedyScheduler(), wl, compute_ratios=False)
        with pytest.raises(ValueError):
            makespan_ratio(g, res.trace)

    def test_competitive_ratio_points(self):
        g = topologies.line(12)
        wl = OnlineWorkload.bernoulli(g, num_objects=4, k=2, rate=0.08, horizon=20, seed=0)
        res = run_experiment(g, GreedyScheduler(), wl)
        assert res.competitive_ratio > 0
        for p in res.ratio_points:
            assert p.lower_bound >= 1
            assert p.worst_duration >= 1
            assert p.ratio <= res.competitive_ratio + 1e-9

    def test_empty_trace_ratio(self):
        g = topologies.line(4)
        from repro.sim.trace import ExecutionTrace

        assert competitive_ratio(g, ExecutionTrace("t", {}))[0] == 0.0


class TestMetricsAndTables:
    def test_summarize(self):
        g = topologies.clique(8)
        res = run_experiment(g, GreedyScheduler(), BatchWorkload.uniform(g, 4, 2, seed=0))
        m = summarize(res.trace)
        assert m.num_txns == 8
        assert m.makespan == res.makespan
        assert m.max_latency >= m.mean_latency >= 1
        assert m.p99_latency <= m.max_latency
        assert len(m.row()) == 7

    def test_summarize_empty(self):
        from repro.sim.trace import ExecutionTrace

        m = summarize(ExecutionTrace("t", {}))
        assert m.num_txns == 0
        assert m.makespan == 0

    def test_render_table_alignment(self):
        out = render_table(["a", "long-header"], [[1, 2.5], [33, 4.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert len({len(l) for l in lines[1:]}) == 1  # all rows equal width

    def test_render_table_float_format(self):
        out = render_table(["x"], [[1.23456]])
        assert "1.23" in out


class TestTraceHelpers:
    def test_trace_statistics(self):
        g = topologies.line(8)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 4, (0,))])
        res = run_experiment(g, GreedyScheduler(), wl)
        tr = res.trace
        assert tr.makespan() == tr.txns[0].exec_time
        assert tr.total_object_travel() == 4
        assert len(tr.object_timelines()[0].legs) == 1
        assert tr.executions_in_order()[0].tid == 0
