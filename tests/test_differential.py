"""Differential property tests: independent engine configurations must
agree where the model says they must.

* leg-mode vs hop-mode motion: same physics, same per-transfer arrival
  times for single transfers; certified feasible in both; makespans match
  when schedulers see identical observations (batch problems, where
  nothing is in transit at scheduling time).
* strict vs non-strict engines on feasible schedules: identical traces.
* ample capacities vs no capacities: identical traces.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GreedyScheduler
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.sim.validate import certify_trace
from repro.workloads import BatchWorkload, ManualWorkload

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def batch_instances(draw):
    kind = draw(st.sampled_from(["line", "grid", "clique", "star"]))
    if kind == "line":
        g = topologies.line(draw(st.integers(3, 10)))
    elif kind == "grid":
        g = topologies.grid([draw(st.integers(2, 4)), draw(st.integers(2, 4))])
    elif kind == "clique":
        g = topologies.clique(draw(st.integers(3, 8)))
    else:
        g = topologies.star_graph(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    n = g.num_nodes
    no = draw(st.integers(1, 4))
    placement = {o: draw(st.integers(0, n - 1)) for o in range(no)}
    specs = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, no))
        objs = draw(st.lists(st.integers(0, no - 1), min_size=k, max_size=k, unique=True))
        specs.append(TxnSpec(0, draw(st.integers(0, n - 1)), tuple(objs)))
    return g, placement, specs


def run_engine(g, placement, specs, **kw):
    wl = ManualWorkload(placement, specs)
    return Simulator(g, GreedyScheduler(), wl, config=SimConfig(**kw)).run()


class TestLegVsHop:
    @given(batch_instances())
    @SETTINGS
    def test_batch_exec_times_identical(self, inst):
        """For batch problems all scheduling happens at t=0 with every
        object at rest, so leg and hop modes observe identical state and
        must commit identical schedules."""
        g, placement, specs = inst
        leg = run_engine(g, placement, specs)
        hop = run_engine(g, placement, specs, transport="hop")
        assert {t: r.exec_time for t, r in leg.txns.items()} == {
            t: r.exec_time for t, r in hop.txns.items()
        }

    @given(batch_instances())
    @SETTINGS
    def test_hop_traces_certify(self, inst):
        g, placement, specs = inst
        hop = run_engine(g, placement, specs, transport="hop")
        assert certify_trace(g, hop) == []

    @given(batch_instances())
    @SETTINGS
    def test_hop_travel_equals_leg_travel(self, inst):
        """Total travel time is path length in both modes (hop legs just
        split the same shortest paths)."""
        g, placement, specs = inst
        leg = run_engine(g, placement, specs)
        hop = run_engine(g, placement, specs, transport="hop")
        assert leg.total_object_travel() == hop.total_object_travel()


class TestEngineConfigEquivalences:
    @given(batch_instances())
    @SETTINGS
    def test_nonstrict_equals_strict_on_feasible(self, inst):
        g, placement, specs = inst
        strict = run_engine(g, placement, specs, strict=True)
        loose = run_engine(g, placement, specs, strict=False)
        assert loose.violations == []
        assert strict.legs == loose.legs
        assert {t: r.exec_time for t, r in strict.txns.items()} == {
            t: r.exec_time for t, r in loose.txns.items()
        }

    @given(batch_instances())
    @SETTINGS
    def test_huge_capacities_are_noops(self, inst):
        g, placement, specs = inst
        base = run_engine(g, placement, specs)
        capped = run_engine(
            g, placement, specs,
            transport="hop", link_capacity=10_000,
            node_egress_capacity=10_000, strict=False,
        )
        assert capped.violations == []
        assert {t: r.exec_time for t, r in base.txns.items()} == {
            t: r.exec_time for t, r in capped.txns.items()
        }


class TestScale:
    def test_large_run_fast_and_certified(self):
        """Scale smoke: 1000+ transactions on a 128-node line completes in
        seconds and certifies (regression guard for the performance
        work in docs/performance.md)."""
        import time

        from repro.core import BucketScheduler
        from repro.offline import LineBatchScheduler
        from repro.workloads import OnlineWorkload

        g = topologies.line(128)
        wl = OnlineWorkload.bernoulli(g, num_objects=32, k=2, rate=0.02, horizon=400, seed=0)
        t0 = time.perf_counter()
        trace = Simulator(g, BucketScheduler(LineBatchScheduler()), wl).run()
        elapsed = time.perf_counter() - t0
        assert trace.num_txns == wl.num_txns
        certify_trace(g, trace)
        assert elapsed < 120, f"large run took {elapsed:.0f}s"
