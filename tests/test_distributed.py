"""Tests for Algorithm 3 (distributed bucket scheduler)."""

import pytest

from repro.analysis import run_experiment
from repro.core import BucketScheduler, DistributedBucketScheduler
from repro.errors import SchedulingError
from repro.network import topologies
from repro.offline import ColoringBatchScheduler, LineBatchScheduler
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.workloads import BatchWorkload, ManualWorkload, OnlineWorkload
from repro.sim import SimConfig


def dist_sched(batch_cls=ColoringBatchScheduler, **kw):
    return DistributedBucketScheduler(batch_cls(), seed=0, **kw)


class TestPreconditions:
    def test_requires_half_speed(self):
        g = topologies.line(8)
        wl = BatchWorkload.uniform(g, num_objects=2, k=1, seed=0)
        with pytest.raises(SchedulingError, match="half-speed"):
            Simulator(g, dist_sched(), wl, config=SimConfig(object_speed_den=1))


class TestProtocol:
    def test_single_txn_completes_with_messages(self):
        g = topologies.line(8)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 5, (0,))])
        sched = dist_sched()
        res = run_experiment(g, sched, wl, config=SimConfig(object_speed_den=2))
        assert res.trace.num_txns == 1
        # discovery probe + response + report, at minimum
        assert sched.message_counts["probe"] >= 1
        assert sched.message_counts["probe-resp"] >= 1
        assert sched.message_counts["report"] == 1
        # latency includes discovery round-trip and half-speed travel
        assert res.trace.txns[0].exec_time >= 2 * 5

    def test_probe_chases_moving_object(self):
        # txn A takes the object far away; B's probe must follow it.
        g = topologies.line(16)
        # A's schedule sends the object 0 -> 12 at half speed; B arrives
        # while it is in flight, so B's probe must wait/chase.
        specs = [TxnSpec(0, 12, (0,)), TxnSpec(40, 0, (0,))]
        wl = ManualWorkload({0: 0}, specs)
        sched = dist_sched(LineBatchScheduler)
        res = run_experiment(g, sched, wl, config=SimConfig(object_speed_den=2))
        assert res.trace.num_txns == 2
        assert sched.message_counts["probe"] >= 3  # at least one chase hop

    def test_zero_object_txn(self):
        g = topologies.line(8)
        wl = ManualWorkload({}, [TxnSpec(0, 3, ())])
        res = run_experiment(g, dist_sched(), wl, config=SimConfig(object_speed_den=2))
        assert res.trace.num_txns == 1

    def test_insert_log_has_heights(self):
        g = topologies.grid([3, 3])
        wl = OnlineWorkload.bernoulli(g, num_objects=4, k=2, rate=0.06, horizon=30, seed=2)
        sched = dist_sched()
        run_experiment(g, sched, wl, config=SimConfig(object_speed_den=2))
        assert sched.insert_log
        for tid, level, height, t in sched.insert_log:
            assert 0 <= level <= sched.max_level
            assert len(height) == 2


class TestFeasibilityAcrossTopologies:
    @pytest.mark.parametrize(
        "graph",
        [
            topologies.line(12),
            topologies.grid([3, 4]),
            topologies.clique(10),
            topologies.star_graph(3, 3),
            topologies.cluster_graph(2, 4, gamma=5),
        ],
        ids=lambda g: g.name,
    )
    def test_online_workload_certified(self, graph):
        wl = OnlineWorkload.bernoulli(
            graph, num_objects=4, k=2, rate=0.05, horizon=25, seed=3
        )
        res = run_experiment(graph, dist_sched(), wl, config=SimConfig(object_speed_den=2))
        assert res.trace.num_txns == wl.num_txns  # certification is implicit


class TestLemma6:
    """Empirical check of Lemma 6 / Corollary 1: two conflicting live
    transactions never report to *different* clusters at the same
    (layer, sub-layer) height."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_same_sublayer_split(self, seed):
        g = topologies.grid([4, 4])
        wl = OnlineWorkload.bernoulli(g, num_objects=5, k=2, rate=0.06, horizon=40, seed=seed)
        sched = dist_sched()
        res = run_experiment(g, sched, wl, config=SimConfig(object_speed_den=2))
        recs = res.trace.txns
        rep = {tid: (c, t) for tid, c, t in sched.report_log}
        tids = sorted(rep)
        for i, a in enumerate(tids):
            for b in tids[i + 1 :]:
                ra, rb = recs[a], recs[b]
                shared = (set(ra.objects) | set(ra.reads)) & (set(rb.objects) | set(rb.reads))
                if not shared:
                    continue
                ca, ta = rep[a]
                cb, tb = rep[b]
                later = max(ta, tb)
                both_live = (
                    ra.gen_time <= later < ra.exec_time
                    and rb.gen_time <= later < rb.exec_time
                )
                if both_live and ca.height == cb.height:
                    assert ca is cb, (
                        f"Lemma 6 violated: txns {a},{b} share {shared} but reported "
                        f"to different clusters at height {ca.height}"
                    )


class TestOverheadVsCentralized:
    def test_distributed_pays_overhead_but_bounded(self):
        g = topologies.line(16)
        mk = lambda: OnlineWorkload.bernoulli(
            g, num_objects=5, k=2, rate=0.04, horizon=40, seed=4
        )
        central = run_experiment(
            g, BucketScheduler(LineBatchScheduler()), mk(),
            config=SimConfig(object_speed_den=2),
        )
        distributed = run_experiment(
            g, DistributedBucketScheduler(LineBatchScheduler(), seed=0), mk(),
            config=SimConfig(object_speed_den=2),
        )
        assert distributed.metrics.messages_sent > 0
        assert central.metrics.messages_sent == 0
        # Theorem 5's poly-log penalty: generous sanity envelope.
        assert distributed.makespan <= 50 * max(1, central.makespan)
