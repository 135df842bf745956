"""Tests for networkx interop and the public testing helpers."""

import os
import subprocess
import sys

import networkx as nx
import pytest

from repro.core import GreedyScheduler
from repro.errors import GraphError, InfeasibleScheduleError
from repro.network import from_networkx, to_networkx, topologies
from repro.testing import check_plan, fuzz_scheduler, random_instance
from repro.sim.transactions import Transaction


class TestNetworkxInterop:
    def test_import_cli_leaves_networkx_unloaded(self):
        # networkx is imported only inside the interop functions and the
        # betweenness analysis, so CLI start-up does not pay for it.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = (
            "import sys, repro.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'networkx'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_round_trip_preserves_metric(self):
        g = topologies.cluster_graph(2, 3, gamma=4)
        nxg = to_networkx(g)
        g2, mapping = from_networkx(nxg)
        assert g2.num_nodes == g.num_nodes
        for u in g.nodes():
            for v in g.nodes():
                assert g.distance(u, v) == g2.distance(mapping[u], mapping[v])

    def test_from_networkx_labels(self):
        nxg = nx.Graph()
        nxg.add_edge("a", "b", weight=3)
        nxg.add_edge("b", "c")
        g, mapping = from_networkx(nxg)
        assert set(mapping) == {"a", "b", "c"}
        assert g.distance(mapping["a"], mapping["b"]) == 3
        assert g.distance(mapping["b"], mapping["c"]) == 1  # default weight

    def test_directed_rejected(self):
        with pytest.raises(GraphError):
            from_networkx(nx.DiGraph([(0, 1)]))

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            from_networkx(nx.Graph())

    def test_networkx_generator_usable(self):
        nxg = nx.petersen_graph()
        g, _ = from_networkx(nxg)
        assert g.num_nodes == 10
        assert g.diameter() == 2

    def test_to_networkx_attributes(self):
        g = topologies.line(4, weight=2)
        nxg = to_networkx(g)
        assert nxg[0][1]["weight"] == 2
        assert nxg.number_of_edges() == 3


class TestRandomInstance:
    def test_deterministic(self):
        g1, wl1 = random_instance(7)
        g2, wl2 = random_instance(7)
        assert g1.name == g2.name
        assert wl1.arrivals() == wl2.arrivals()

    def test_reads_generated(self):
        found = False
        for s in range(10):
            _, wl = random_instance(s, read_fraction=0.9)
            if any(spec.reads for spec in wl.arrivals()):
                found = True
                break
        assert found

    def test_objects_exist(self):
        for s in range(5):
            g, wl = random_instance(s)
            placement = wl.initial_objects()
            for spec in wl.arrivals():
                for o in (*spec.objects, *spec.reads):
                    assert o in placement


class TestCheckPlan:
    def test_valid_plan_clean(self):
        g = topologies.line(8)
        txns = [Transaction(0, 2, frozenset({0}), 0), Transaction(1, 6, frozenset({0}), 0)]
        plan = {0: 2, 1: 7}
        assert check_plan(g, {0: 0}, txns, plan) == []

    def test_too_tight_flagged(self):
        g = topologies.line(8)
        txns = [Transaction(0, 2, frozenset({0}), 0), Transaction(1, 6, frozenset({0}), 0)]
        plan = {0: 2, 1: 4}  # 2 steps for distance 4
        problems = check_plan(g, {0: 0}, txns, plan)
        assert problems and "txn 1" in problems[0]


class TestFuzzScheduler:
    def test_greedy_passes_fuzz(self):
        results = fuzz_scheduler(GreedyScheduler, trials=15, seed=100)
        assert len(results) == 15
        assert all(r.metrics.num_txns >= 1 for r in results)

    def test_broken_scheduler_caught(self):
        from repro.core.base import OnlineScheduler

        class TooEager(OnlineScheduler):
            """Schedules everything one step out: infeasible whenever an
            object is remote."""

            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 1)

        with pytest.raises(InfeasibleScheduleError):
            fuzz_scheduler(TooEager, trials=30, seed=0)

    def test_fuzz_with_reads(self):
        results = fuzz_scheduler(
            GreedyScheduler, trials=10, seed=50, read_fraction=0.5
        )
        assert len(results) == 10
