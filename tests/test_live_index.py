"""The engine's live-set index (``sim.deps``) and the workload builders.

:class:`IndexProbe` recomputes, at the end of every engine step, each view
the :class:`~repro.core.dependency.DependencyTracker` maintains
incrementally, and compares it with the live set:

* ``unscheduled`` holds exactly the live transactions without an
  execution time;
* ``writers[i]`` / ``readers[i]`` hold exactly the live accessors of the
  object at dense index ``i``, and ``sched_writers[i]`` /
  ``sched_readers[i]`` exactly the scheduled ones among them;
* ``adj`` covers the live set, is symmetric, joins exactly the
  conflicting pairs (write-write, write-read), and stores their current
  home distance.

Every bundled scheduler runs under four regimes: closed, faulty,
service (deadline expiries), and membership churn (re-homed
transactions).  The second half builds every registered workload kind
from its :class:`~repro.workloads.spec.WorkloadSpec` and certifies a run.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import run_experiment
from repro.cli import SCHEDULER_NAMES, make_scheduler
from repro.core import GreedyScheduler
from repro.faults import CrashWindow, FaultPlan
from repro.network import topologies
from repro.obs.probe import Probe
from repro.service.config import ServiceConfig
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.validate import certify_trace
from repro.workloads import WORKLOAD_KINDS, ManualWorkload, OnlineWorkload, WorkloadSpec
from repro.workloads.streaming import PoissonOpenWorkload

MODES = ("closed", "faulty", "service", "membership")


def check_index(sim) -> None:
    deps = sim.deps
    live = sim.live
    assert set(deps.unscheduled) == {
        tid for tid, txn in live.items() if txn.exec_time is None
    }
    assert len(deps.obj_ids) == len(sim.objects)
    for idx, oid in enumerate(deps.obj_ids):
        assert sim.objects[oid].index == idx
        writers = {tid for tid, txn in live.items() if oid in txn.objects}
        readers = {tid for tid, txn in live.items() if oid in txn.reads}
        assert deps.writers[idx] == writers, (sim.now, oid)
        assert deps.readers[idx] == readers, (sim.now, oid)
        for column, accessors in (
            (deps.sched_writers[idx], writers),
            (deps.sched_readers[idx], readers),
        ):
            assert set(column) == {
                tid for tid in accessors if live[tid].exec_time is not None
            }, (sim.now, oid)
            assert all(column[tid] is live[tid] for tid in column)
    assert set(deps.adj) == set(live)
    for a, b in itertools.combinations(sorted(live), 2):
        x, y = live[a], live[b]
        conflict = bool(
            x.objects & (y.objects | y.reads) or x.reads & y.objects
        )
        assert (b in deps.adj[a]) == conflict, (sim.now, a, b)
        assert (a in deps.adj[b]) == conflict, (sim.now, a, b)
        if conflict:
            d = sim.graph.distance(x.home, y.home)
            assert deps.adj[a][b] == deps.adj[b][a] == d, (sim.now, a, b)


class IndexProbe(Probe):
    """Checks the live-set index invariants after every step."""

    def __init__(self) -> None:
        self.sim = None
        self.steps = 0

    def on_run_begin(self, sim) -> None:
        self.sim = sim

    def on_step_end(self, t) -> None:
        check_index(self.sim)
        self.steps += 1


def _run(name: str, mode: str):
    g = topologies.grid([3, 3])
    sched, speed = make_scheduler(name, g)
    probe = IndexProbe()
    config = SimConfig(object_speed_den=speed, probe=probe)
    wl = OnlineWorkload.bernoulli(
        g, 6, 2, rate=0.25, horizon=16, seed=3, read_fraction=0.3
    )
    run_kwargs = {}
    if mode == "faulty":
        config = config.replace(
            faults=FaultPlan(
                seed=3, drop_prob=0.1, delay_prob=0.1, max_delay=3,
                crashes=(CrashWindow(4, 3, 8),),
            )
        )
    elif mode == "service":
        wl = PoissonOpenWorkload(g, 2.0, num_objects=6, k=2, seed=3, read_fraction=0.3)
        config = config.replace(
            service=ServiceConfig(policy="deadline-edf", deadline=6, queue_cap=8)
        )
        run_kwargs["until"] = 30
    elif mode == "membership":
        config = config.replace(
            faults=FaultPlan.random(
                13, num_nodes=9, horizon=16, drop_prob=0.05,
                join_count=1, leave_count=2,
                edges=[(u, v) for u, v, _ in g.edges()],
            )
        )
    sim = Simulator(g, sched, wl, config=config)
    trace = sim.run(**run_kwargs)
    return sim, trace, probe


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_index_matches_live_set_after_every_step(name, mode):
    sim, trace, probe = _run(name, mode)
    assert probe.steps > 0 and trace.copy_legs
    # each regime exercised the lifecycle site it exists for
    if mode == "faulty":
        assert trace.reschedules  # on_unschedule
    elif mode == "service":
        assert trace.expiries  # retire without commit
    elif mode == "membership":
        assert trace.fault_counts()["rehome"]  # refresh_home
    if mode != "service":
        # drained: the index is empty again
        assert not sim.live and not sim.deps.adj and not sim.deps.unscheduled
        assert not any(sim.deps.writers) and not any(sim.deps.readers)


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_every_workload_kind_builds_and_certifies(kind):
    g = topologies.grid([3, 3])
    spec = WorkloadSpec.make(kind, seed=1)
    wl = spec.build(g)
    if spec.open_system:
        # An open stream never drains: certify its first 30 steps of
        # arrivals as a closed run.
        specs = list(
            itertools.takewhile(lambda s: s.gen_time < 30, wl.arrival_stream())
        )
        wl = ManualWorkload(wl.initial_objects(), specs)
    res = run_experiment(g, GreedyScheduler(), wl, certify=False, compute_ratios=False)
    assert res.trace.txns
    assert certify_trace(g, res.trace, raise_on_failure=False) == []
