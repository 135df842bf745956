"""Unit tests for dependency graphs H_t / H'_t."""

from repro.core.base import OnlineScheduler
from repro.core.dependency import (
    _constraints_scan,
    build_extended_dependency_graph,
    constraints_for,
    holder_key,
)
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload, hotspot_workload


class Recorder(OnlineScheduler):
    """Captures constraints at scheduling time, then schedules greedily."""

    def __init__(self):
        super().__init__()
        self.snapshots = {}

    def on_step(self, t, new_txns):
        from repro.core.coloring import min_valid_color

        for txn in new_txns:
            cons = constraints_for(self.sim, txn, now=t)
            self.snapshots[txn.tid] = cons
            self.sim.commit_schedule(txn, t + min_valid_color(cons))


def test_holder_key_states():
    wl = ManualWorkload({0: 2}, [TxnSpec(0, 5, (0,))])
    sched = Recorder()
    sim = Simulator(topologies.line(8), sched, wl)
    assert holder_key(sim, 0) == ("free", 0)
    sim.run()
    assert holder_key(sim, 0) == ("txn", 0)


def test_free_object_constraint_is_distance():
    wl = ManualWorkload({0: 2}, [TxnSpec(0, 5, (0,))])
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    # single constraint: holder color 0, weight = distance 3
    assert sched.snapshots[0] == [(0, 3)]


def test_scheduled_conflict_constraint():
    # txn A at node 1 (t=0), txn B at node 6 (t=0): B sees A's color.
    wl = ManualWorkload({0: 1}, [TxnSpec(0, 1, (0,)), TxnSpec(0, 6, (0,))])
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    cons_b = dict()  # colors -> weights
    for color, w in sched.snapshots[1]:
        cons_b[color] = w
    # A got color 1 (object local), B sees (1, dist=5) plus holder (0, 5)
    assert cons_b[1] == 5
    assert cons_b[0] == 5


def test_in_transit_artificial_constraint():
    # A at node 4 takes the object from node 0; B arrives at node 0 while
    # the object is in transit toward node 4.
    specs = [TxnSpec(0, 4, (0,)), TxnSpec(2, 0, (0,))]
    wl = ManualWorkload({0: 0}, specs)
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    cons_b = sched.snapshots[1]
    # B at t=2: A scheduled at 4 -> color 2, weight 4.  Holder in transit,
    # 2 steps left to node 4, then 4 back to node 0 -> bound 6.
    assert (2, 4) in cons_b
    assert (0, 6) in cons_b


def test_duplicate_conflicts_merged():
    # two shared objects with the same opponent -> single constraint
    specs = [TxnSpec(0, 1, (0, 1)), TxnSpec(0, 6, (0, 1))]
    wl = ManualWorkload({0: 1, 1: 1}, specs)
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    schedule_cons = [c for c in sched.snapshots[1] if c[0] != 0]
    assert len(schedule_cons) == 1


def test_extended_graph_structure():
    specs = [TxnSpec(0, 1, (0,)), TxnSpec(0, 6, (0,)), TxnSpec(0, 3, (1,))]
    wl = ManualWorkload({0: 1, 1: 7}, specs)

    class Snapshot(OnlineScheduler):
        def __init__(self):
            super().__init__()
            self.h = None

        def on_step(self, t, new_txns):
            if self.h is None:
                self.h = build_extended_dependency_graph(self.sim, now=t)
            for txn in new_txns:
                from repro.core.coloring import min_valid_color

                self.sim.commit_schedule(
                    txn, t + min_valid_color(constraints_for(self.sim, txn, now=t))
                )

    sched = Snapshot()
    Simulator(topologies.line(8), sched, wl).run()
    h = sched.h
    # txn 0 and 1 conflict (object 0); txn 2 is connected only to object 1's
    # free holder.
    assert (("txn", 0), ("txn", 1)) in h.edges
    assert h.edges[(("txn", 0), ("txn", 1))] == 5
    assert h.degree(("txn", 2)) == 1
    assert h.weighted_degree(("txn", 2)) == 4  # |7-3|
    # Theorem 1 bound for txn 0: edges to txn1 (5) and holder (0) -> the
    # holder edge weight is 0 (object local), so Gamma=5, Delta counts both.
    assert h.theorem1_bound(("txn", 0)) >= h.weighted_degree(("txn", 0))


class _DifferentialScheduler(OnlineScheduler):
    """Greedy scheduler that, every step, checks the incremental tracker
    against both reference paths: constraint multisets vs the full scan
    (for every live transaction) and ``snapshot()`` vs the full H'_t
    rebuild."""

    def __init__(self):
        super().__init__()
        self.steps_checked = 0

    def on_step(self, t, new_txns):
        from repro.core.coloring import min_valid_color

        sim = self.sim
        for txn in sim.live.values():
            fast = sorted(sim.deps.constraints_for(txn, now=t))
            slow = sorted(_constraints_scan(sim, txn, now=t))
            assert fast == slow, (t, txn.tid, fast, slow)
        snap = sim.deps.snapshot(now=t)
        full = build_extended_dependency_graph(sim, now=t)
        assert snap.nodes == full.nodes, (t, snap.nodes ^ full.nodes)
        assert snap.edges == full.edges, t
        self.steps_checked += 1
        for txn in new_txns:
            sim.commit_schedule(txn, t + min_valid_color(constraints_for(sim, txn, now=t)))


def _run_differential(graph, workload, config=None):
    sched = _DifferentialScheduler()
    trace = Simulator(graph, sched, workload, config=config).run()
    assert sched.steps_checked > 0
    return trace


def test_tracker_matches_scan_line_mixed_reads():
    specs = [
        TxnSpec(0, 1, (0,), reads=(2,)),
        TxnSpec(0, 6, (0, 1)),
        TxnSpec(1, 3, (1,), reads=(0,)),
        TxnSpec(2, 7, (2,), reads=(1,)),
        TxnSpec(4, 0, (0, 2)),
        TxnSpec(6, 5, (), reads=(0, 1, 2)),
    ]
    wl = ManualWorkload({0: 1, 1: 7, 2: 4}, specs)
    _run_differential(topologies.line(8), wl)


def test_tracker_matches_scan_hotspot_grid():
    g = topologies.grid([4, 4])
    wl = hotspot_workload(g, num_cold_objects=4, k_cold=1, seed=11)
    trace = _run_differential(g, wl)
    assert len(trace.txns) == g.num_nodes


def test_tracker_matches_scan_half_speed_cluster():
    g = topologies.cluster_graph(3, 3, 5)
    wl = hotspot_workload(g, num_cold_objects=2, k_cold=1, seed=3)
    _run_differential(g, wl, SimConfig(object_speed_den=2))


def test_tracker_empty_after_quiescence():
    g = topologies.ring(6)
    wl = hotspot_workload(g, seed=0)
    sched = _DifferentialScheduler()
    sim = Simulator(g, sched, wl)
    sim.run()
    assert all(not nbrs for nbrs in sim.deps.adj.values())
