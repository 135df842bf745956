"""Tests for hop-level object motion and per-link capacity."""

import pytest

from repro.core import GreedyScheduler
from repro.errors import WorkloadError
from repro.network import Graph, topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.sim.validate import certify_trace
from repro.workloads import ManualWorkload, OnlineWorkload, hotspot_workload

HOP = SimConfig(transport="hop")


class TestHopMotion:
    def test_single_transfer_same_arrival(self):
        g = topologies.line(8)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 5, (0,))])
        leg = Simulator(g, GreedyScheduler(), wl).run()
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 5, (0,))])
        hop = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        assert leg.txns[0].exec_time == hop.txns[0].exec_time
        assert len(hop.legs) == 5  # five unit hops
        assert len(leg.legs) == 1
        assert hop.legs[-1].arrive_time == leg.legs[-1].arrive_time

    def test_hop_legs_are_tree_edges(self):
        g = topologies.grid([4, 4])
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 15, (0,))])
        hop = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        for leg in hop.legs:
            assert leg.dst in g.neighbors(leg.src)
            assert leg.arrive_time - leg.depart_time == g.neighbors(leg.src)[leg.dst]

    def test_hop_traces_certify(self):
        g = topologies.grid([4, 4])
        wl = OnlineWorkload.bernoulli(g, num_objects=6, k=2, rate=0.06, horizon=30, seed=5)
        trace = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        assert certify_trace(g, trace) == []

    def test_hop_with_reads_certifies(self):
        g = topologies.line(12)
        wl = OnlineWorkload.bernoulli(
            g, num_objects=4, k=2, rate=0.06, horizon=30, seed=6, read_fraction=0.5
        )
        trace = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        assert certify_trace(g, trace) == []

    def test_weighted_shortcut_routed_around(self):
        # direct edge 0-2 weight 5; path 0-1-2 weight 2: hop motion takes
        # the path, never the heavy edge
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 2, (0,))])
        trace = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        assert [(l.src, l.dst) for l in trace.legs] == [(0, 1), (1, 2)]


class TestLinkCapacity:
    def test_requires_hop_motion(self):
        g = topologies.line(4)
        with pytest.raises(WorkloadError):
            Simulator(g, GreedyScheduler(), None, config=SimConfig(link_capacity=1))

    def test_invalid_capacity(self):
        g = topologies.line(4)
        with pytest.raises(WorkloadError):
            Simulator(g, GreedyScheduler(), None, config=HOP.replace(link_capacity=0))

    def test_bottleneck_edge_serializes(self):
        # two objects must cross the same bridge edge simultaneously
        g = topologies.line(4)  # edges 0-1, 1-2, 2-3
        placement = {0: 1, 1: 1}
        specs = [TxnSpec(0, 2, (0,)), TxnSpec(0, 2, (1,))]
        wl = ManualWorkload(placement, specs)
        free = Simulator(g, GreedyScheduler(), wl, config=HOP).run()
        wl = ManualWorkload(placement, specs)
        tight = Simulator(
            g, GreedyScheduler(), wl, config=HOP.replace(link_capacity=1, strict=False)
        ).run()
        # both cross 1-2 at once when unconstrained; serialized when capped
        crossings = sorted(
            l.depart_time for l in tight.legs if {l.src, l.dst} == {1, 2}
        )
        assert len(crossings) == 2
        assert crossings[1] > crossings[0]
        assert tight.makespan() >= free.makespan()

    def test_congested_run_completes_with_deferrals(self):
        g = topologies.line(12)
        wl = hotspot_workload(g, num_cold_objects=3, k_cold=1, seed=0)
        trace = Simulator(
            g, GreedyScheduler(), wl, config=HOP.replace(link_capacity=1, strict=False)
        ).run()
        assert len(trace.txns) == 12
        # leg physics still exact per hop even under stalls
        for leg in trace.legs:
            assert leg.arrive_time - leg.depart_time == g.neighbors(leg.src)[leg.dst]

    def test_ample_capacity_no_effect(self):
        g = topologies.grid([3, 3])
        mk = lambda: OnlineWorkload.bernoulli(g, num_objects=4, k=2, rate=0.08, horizon=20, seed=4)
        free = Simulator(g, GreedyScheduler(), mk(), config=HOP).run()
        roomy = Simulator(
            g, GreedyScheduler(), mk(), config=HOP.replace(link_capacity=50, strict=False)
        ).run()
        assert {t: r.exec_time for t, r in free.txns.items()} == {
            t: r.exec_time for t, r in roomy.txns.items()
        }
        assert roomy.violations == []
