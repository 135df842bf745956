"""Pinned-trace suite for the scheduler entry point.

Every bundled scheduler runs under four regimes (closed, streaming,
faulty, service) and three seeds; the sha256 of each serialized trace
must equal the digest pinned in ``tests/data/trace_digests.json``.  The
digests were recorded while the engine still offered a second,
delta-driven scheduler entry point next to ``on_step``, so a match
proves that collapsing onto ``on_step`` left every schedule unchanged.

To re-pin after an *intended* trace change, run this file as a script:
``PYTHONPATH=src python tests/test_incremental.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.cli import SCHEDULER_NAMES, make_scheduler
from repro.core.base import OnlineScheduler
from repro.core.bucket import BucketScheduler
from repro.core.greedy import GreedyScheduler
from repro.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.network import topologies
from repro.obs import CountersProbe
from repro.offline import ColoringBatchScheduler
from repro.service.config import ServiceConfig
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.serialize import trace_to_dict
from repro.workloads.arrivals import OnlineWorkload
from repro.workloads.streaming import PoissonOpenWorkload

SEEDS = (0, 1, 2)
MODES = ("closed", "streaming", "faulty", "service")
DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "trace_digests.json")


#: 2x3 grid: small enough for 168 runs, non-trivial diameter, and the
#: cluster/star batch planners take their (feasible) fallback orders.
def _graph():
    return topologies.grid([2, 3])


def _digest(name: str, *, seed: int, mode: str) -> str:
    g = _graph()
    sched, speed = make_scheduler(name, g)
    config = SimConfig(object_speed_den=speed)
    run_kwargs = {}
    if mode == "closed":
        wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.2, horizon=10, seed=seed)
    elif mode == "streaming":
        wl = PoissonOpenWorkload(g, 0.6, num_objects=6, k=2, seed=seed)
        run_kwargs["until"] = 24
    elif mode == "faulty":
        wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.2, horizon=10, seed=seed)
        edge = next(iter(g.edges()))
        config = config.replace(
            faults=FaultPlan(
                seed=seed,
                drop_prob=0.15,
                crashes=(CrashWindow(1, 3, 8),),
                partitions=(PartitionWindow(((edge[0], edge[1]),), 5, 10),),
            )
        )
    elif mode == "service":
        wl = PoissonOpenWorkload(g, 0.8, num_objects=6, k=2, seed=seed)
        config = config.replace(
            service=ServiceConfig(policy="deadline-edf", deadline=20, queue_cap=8)
        )
        run_kwargs["until"] = 24
    else:  # pragma: no cover - parametrization guard
        raise AssertionError(mode)
    trace = Simulator(g, sched, wl, config=config).run(**run_kwargs)
    text = json.dumps(trace_to_dict(trace), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _key(name: str, seed: int, mode: str) -> str:
    return f"{mode}/{name}/{seed}"


with open(DIGESTS_PATH) as _fh:
    PINNED = json.load(_fh)


def _assert_pinned(name: str, *, seed: int, mode: str) -> None:
    assert _digest(name, seed=seed, mode=mode) == PINNED[_key(name, seed, mode)], (
        f"trace changed: scheduler={name} mode={mode} seed={seed}"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_closed_runs_identical(name, seed):
    _assert_pinned(name, seed=seed, mode="closed")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_streaming_runs_identical(name, seed):
    _assert_pinned(name, seed=seed, mode="streaming")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_faulty_runs_identical(name, seed):
    _assert_pinned(name, seed=seed, mode="faulty")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_service_runs_identical(name, seed):
    _assert_pinned(name, seed=seed, mode="service")


def test_delta_feed_matches_arrivals():
    """``on_step``'s ``new_txns`` at step t is exactly the set of
    transactions generated at t."""

    class Recorder(OnlineScheduler):
        def __init__(self):
            super().__init__()
            self.seen = []
            self._horizon = 0

        def on_step(self, t, new_txns):
            self.seen.append((t, tuple(x.tid for x in new_txns)))
            # Serialize with a gap larger than any travel time (diameter
            # 3 at unit speed) so every schedule is trivially feasible.
            for txn in new_txns:
                self._horizon = max(self._horizon, t) + 10
                self.sim.commit_schedule(txn, self._horizon)

    g = _graph()
    wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.3, horizon=8, seed=7)
    rec = Recorder()
    sim = Simulator(g, rec, wl)
    sim.run()
    arrivals = {}
    for t, tids in rec.seen:
        if tids:
            arrivals.setdefault(t, []).extend(tids)
    expected = {}
    for tid, r in sim.trace.txns.items():
        expected.setdefault(r.gen_time, []).append(tid)
    assert {t: sorted(v) for t, v in arrivals.items()} == {
        t: sorted(v) for t, v in expected.items()
    }


class _CountSteps:
    """Mixin: override ``on_step`` and record every call."""

    def on_step(self, t, new_txns):
        self.steps.append(t)
        super().on_step(t, new_txns)


class CountingGreedy(_CountSteps, GreedyScheduler):
    pass


class CountingBucket(_CountSteps, BucketScheduler):
    pass


@pytest.mark.parametrize(
    "make",
    [CountingGreedy, lambda: CountingBucket(ColoringBatchScheduler())],
    ids=["greedy", "bucket"],
)
def test_subclass_on_step_override_runs_every_active_step(make):
    """A subclass's ``on_step`` override is what the engine calls."""
    sched = make()
    sched.steps = []
    probe = CountersProbe()
    g = topologies.line(6)
    wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.2, horizon=20, seed=1)
    trace = Simulator(g, sched, wl, config=SimConfig(probe=probe)).run()
    assert trace.txns
    assert len(sched.steps) == probe.counters["steps"]
    assert sched.steps == sorted(set(sched.steps))


if __name__ == "__main__":
    digests = {
        _key(n, s, m): _digest(n, seed=s, mode=m)
        for m in MODES
        for n in SCHEDULER_NAMES
        for s in SEEDS
    }
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} digests in {DIGESTS_PATH}")
