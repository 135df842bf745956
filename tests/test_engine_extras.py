"""Additional engine, graph, and error-path coverage."""

import pytest

from repro._types import DeparturePolicy
from repro.core import GreedyScheduler
from repro.core.base import OnlineScheduler
from repro.core.coloring import greedy_color_sequence
from repro.errors import InfeasibleScheduleError
from repro.network import Graph, topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload


class TestEngineExtras:
    def test_max_time_stops_early(self):
        g = topologies.line(8)
        specs = [TxnSpec(0, 1, (0,)), TxnSpec(500, 2, (0,))]
        wl = ManualWorkload({0: 1}, specs)
        sim = Simulator(g, GreedyScheduler(), wl, config=SimConfig(max_time=100))
        trace = sim.run()
        assert len(trace.txns) == 1  # second txn never generated

    def test_add_alarm_wakes_scheduler(self):
        g = topologies.line(4)
        seen = []

        class Waker(OnlineScheduler):
            def bind(self, sim):
                super().bind(sim)
                sim.add_alarm(7)

            def on_step(self, t, new_txns):
                seen.append(t)
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 1)

        wl = ManualWorkload({0: 0}, [TxnSpec(0, 0, (0,))])
        Simulator(g, Waker(), wl).run()
        assert 7 in seen

    def test_object_observer_events(self):
        g = topologies.line(8)
        events = []

        class Observing(GreedyScheduler):
            def bind(self, sim):
                super().bind(sim)
                sim.add_object_observer(lambda e, obj, t: events.append((e, obj.oid, t)))

        specs = [TxnSpec(0, 5, (0,)), TxnSpec(0, 2, (), creates=(9,))]
        wl = ManualWorkload({0: 0}, specs)
        Simulator(g, Observing(), wl).run()
        kinds = [e for e, _, _ in events]
        assert "arrive" in kinds  # object 0 reached node 5
        assert ("register", 9, 1) in events  # created object

    def test_scheduler_on_commit_hook(self):
        g = topologies.line(4)
        commits = []

        class Hooked(GreedyScheduler):
            def on_commit(self, txn, t):
                commits.append((txn.tid, t))

        wl = ManualWorkload({0: 1}, [TxnSpec(0, 1, (0,))])
        Simulator(g, Hooked(), wl).run()
        assert commits == [(0, 1)]

    def test_lazy_plus_egress_capacity(self):
        g = topologies.clique(6)
        placement = {o: 0 for o in range(4)}
        specs = [TxnSpec(0, i + 1, (i,)) for i in range(4)]
        wl = ManualWorkload(placement, specs)
        sim = Simulator(
            g, GreedyScheduler(), wl,
            config=SimConfig(
                departure_policy=DeparturePolicy.LAZY, node_egress_capacity=1, strict=False
            ),
        )
        trace = sim.run()
        assert len(trace.txns) == 4
        departs = sorted(l.depart_time for l in trace.legs)
        assert len(set(departs)) == len(departs)  # strictly staggered

    def test_violation_message_preview_truncates(self):
        from repro.sim.trace import Violation

        err = InfeasibleScheduleError([Violation(i, 0, (0,)) for i in range(9)])
        assert "+4 more" in str(err)


class TestGraphExtras:
    def test_distance_cache_reuses_either_endpoint(self):
        g = topologies.line(12)
        g.oracle = None  # force the Dijkstra fallback path
        g.distances_from(7)  # cache source 7
        assert g.distance(2, 7) == 5  # uses the cached row via swap
        assert len(g._dist) == 1  # no second Dijkstra

    def test_oracle_graph_builds_no_dijkstra_rows(self):
        g = topologies.line(12)
        assert g.oracle is not None
        g.distances_from(7)
        assert g.distance(2, 7) == 5
        assert len(g._dist) == 0  # closed form: no SSSP row materialised

    def test_shortest_path_same_node(self):
        g = topologies.grid([3, 3])
        assert g.shortest_path(4, 4) == [4]

    def test_edges_listed_once(self):
        g = topologies.clique(5)
        edges = list(g.edges())
        assert len(edges) == 10
        assert all(u < v for u, v, _ in edges)


class TestColoringExtras:
    def test_greedy_sequence_with_beta(self):
        def neigh(node, colors):
            return [(c, 3) for c in colors.values()]

        colors = greedy_color_sequence(["a", "b", "c"], neigh, beta=3)
        vals = sorted(colors.values())
        assert all(v % 3 == 0 for v in vals)
        assert len(set(vals)) == 3

    def test_trace_meta_roundtrip(self):
        from repro.sim.serialize import trace_from_dict, trace_to_dict
        from repro.sim.trace import ExecutionTrace

        trace = ExecutionTrace("t", {0: 1})
        trace.meta["note"] = "hello"
        clone = trace_from_dict(trace_to_dict(trace))
        assert clone.meta["note"] == "hello"
