"""Tests for the bounded egress-capacity extension (Section VI question)."""

import pytest

from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload, OnlineWorkload, hotspot_workload

#: unit egress capacity, deferrals recorded instead of raised
CAP1_LOOSE = SimConfig(node_egress_capacity=1, strict=False)


def fan_out_instance(n=6):
    """Many objects co-located at node 0, each wanted elsewhere at once:
    classic egress burst."""
    g = topologies.clique(n)
    placement = {o: 0 for o in range(n - 1)}
    specs = [TxnSpec(0, i + 1, (i,)) for i in range(n - 1)]
    return g, ManualWorkload(placement, specs)


class TestCapacity:
    def test_unlimited_fan_out_parallel(self):
        g, wl = fan_out_instance()
        sim = Simulator(g, GreedyScheduler(), wl)
        trace = sim.run()
        departs = [l.depart_time for l in trace.legs]
        assert departs.count(0) == len(departs)  # all leave at t=0

    def test_capacity_staggers_departures(self):
        g, wl = fan_out_instance()
        sim = Simulator(
            g, GreedyScheduler(), wl, config=CAP1_LOOSE
        )
        trace = sim.run()
        departs = sorted(l.depart_time for l in trace.legs)
        assert departs == list(range(len(departs)))  # one per step

    def test_congestion_delays_execution_not_correctness(self):
        g, wl = fan_out_instance()
        sim = Simulator(g, GreedyScheduler(), wl, config=CAP1_LOOSE)
        trace = sim.run()
        # every txn still commits, later than planned, with violations logged
        assert len(trace.txns) == 5
        assert trace.violations
        assert trace.makespan() >= 5

    def test_strict_mode_raises_under_congestion(self):
        from repro.errors import InfeasibleScheduleError

        g, wl = fan_out_instance()
        sim = Simulator(g, GreedyScheduler(), wl, config=SimConfig(node_egress_capacity=1))
        with pytest.raises(InfeasibleScheduleError):
            sim.run()

    def test_weight_slack_absorbs_capacity(self):
        """With enough scheduling slack the congested run has no
        violations: the scheduler's pessimism pays for serialization."""
        g = topologies.line(12)
        wl = hotspot_workload(g, seed=0)
        sim = Simulator(
            g, GreedyScheduler(weight_slack=2), wl, config=CAP1_LOOSE
        )
        trace = sim.run()
        assert trace.violations == []

    def test_ample_capacity_equals_base_model(self):
        g = topologies.grid([3, 3])
        mk = lambda: OnlineWorkload.bernoulli(g, num_objects=4, k=2, rate=0.08, horizon=20, seed=4)
        base = Simulator(g, GreedyScheduler(), mk()).run()
        roomy = Simulator(
            g, GreedyScheduler(), mk(), config=SimConfig(node_egress_capacity=100, strict=False)
        ).run()
        assert {t: r.exec_time for t, r in base.txns.items()} == {
            t: r.exec_time for t, r in roomy.txns.items()
        }

    def test_invalid_slack_rejected(self):
        with pytest.raises(ValueError):
            GreedyScheduler(weight_slack=-1)
