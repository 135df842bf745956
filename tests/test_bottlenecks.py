"""Tests for bottleneck prediction."""

import pytest

from repro.analysis.bottlenecks import (
    _spearman,
    edge_betweenness,
    measured_edge_load,
    predicted_vs_measured,
)
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.workloads import OnlineWorkload, hotspot_workload


class TestSpearman:
    def test_perfect_positive(self):
        assert _spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert _spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_handled(self):
        rho = _spearman([1, 1, 2], [5, 5, 9])
        assert rho == pytest.approx(1.0)

    def test_constant_input(self):
        assert _spearman([1, 1, 1], [1, 2, 3]) == 0.0


class TestBetweenness:
    def test_star_center_edges_dominate(self):
        g = topologies.star_graph(4, 3)
        bt = edge_betweenness(g)
        center_edges = {k: v for k, v in bt.items() if 0 in k}
        other_edges = {k: v for k, v in bt.items() if 0 not in k}
        assert min(center_edges.values()) > 0
        assert max(center_edges.values()) >= max(other_edges.values())

    def test_cluster_bridges_dominate(self):
        g = topologies.cluster_graph(3, 4, gamma=6)
        bt = edge_betweenness(g)
        bridges = g.layout.bridges
        bridge_edges = [v for (a, b), v in bt.items() if a in bridges and b in bridges]
        intra = [v for (a, b), v in bt.items() if not (a in bridges and b in bridges)]
        assert min(bridge_edges) > max(intra)


class TestMeasuredLoad:
    def run_hop(self, g, wl):
        return Simulator(g, GreedyScheduler(), wl, config=SimConfig(transport="hop")).run()

    def test_hop_trace_counts_exact_edges(self):
        g = topologies.line(6)
        trace = self.run_hop(g, hotspot_workload(g, seed=0))
        load = measured_edge_load(g, trace)
        assert sum(load.values()) == len(trace.legs)

    def test_leg_trace_expanded(self):
        g = topologies.line(6)
        wl = hotspot_workload(g, seed=0)
        trace = Simulator(g, GreedyScheduler(), wl).run()
        load = measured_edge_load(g, trace)
        # expanded path hops equal the total travel distance
        assert sum(load.values()) == trace.total_object_travel()

    def test_prediction_correlates_on_star(self):
        g = topologies.star_graph(4, 3)
        wl = OnlineWorkload.bernoulli(g, num_objects=6, k=2, rate=0.08, horizon=50, seed=2)
        trace = self.run_hop(g, wl)
        rho, table = predicted_vs_measured(g, trace)
        assert rho > 0.4  # structure predicts load
        assert table[0][2] >= table[-1][2]  # sorted by measured load
