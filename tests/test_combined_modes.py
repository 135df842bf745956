"""Combined-mode integration: extensions composed together must still
produce certified schedules.

Each extension is tested alone elsewhere; real deployments turn several
on at once.  The matrix here crosses schedulers with (reads, hop motion,
half speed, lazy departure) combinations.
"""

import pytest

from repro._types import DeparturePolicy
from repro.core import (
    AdaptiveScheduler,
    BucketScheduler,
    CoordinatedGreedyScheduler,
    DistributedBucketScheduler,
    GreedyScheduler,
    WindowedBatchScheduler,
)
from repro.network import topologies
from repro.offline import ColoringBatchScheduler, ImprovedBatchScheduler
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.validate import certify_trace
from repro.workloads import OnlineWorkload


def make_wl(g, read_fraction, seed=11):
    return OnlineWorkload.bernoulli(
        g, num_objects=6, k=2, rate=1.0 / g.num_nodes, horizon=40,
        seed=seed, read_fraction=read_fraction,
    )


COMBOS = [
    # (label, scheduler factory, speed, SimConfig fields, read_fraction)
    ("greedy+reads+hop", lambda: GreedyScheduler(), 1, {"transport": "hop"}, 0.5),
    ("greedy+reads+lazy", lambda: GreedyScheduler(), 1,
     {"departure_policy": DeparturePolicy.LAZY}, 0.5),
    ("greedy+halfspeed+hop+reads", lambda: GreedyScheduler(), 2, {"transport": "hop"}, 0.4),
    ("bucket+reads+hop", lambda: BucketScheduler(ColoringBatchScheduler()), 1,
     {"transport": "hop"}, 0.5),
    ("bucket-improved+reads", lambda: BucketScheduler(
        ImprovedBatchScheduler(ColoringBatchScheduler(), iterations=10, seed=1)), 1, {}, 0.5),
    ("windowed+reads+hop", lambda: WindowedBatchScheduler(ColoringBatchScheduler(), window=8),
     1, {"transport": "hop"}, 0.5),
    ("coordinated+reads+hop", lambda: CoordinatedGreedyScheduler(), 1, {"transport": "hop"}, 0.5),
    ("adaptive+reads+hop", lambda: AdaptiveScheduler(), 1, {"transport": "hop"}, 0.3),
    ("distributed+reads", lambda: DistributedBucketScheduler(ColoringBatchScheduler(), seed=0),
     2, {}, 0.5),
    ("distributed+reads+hop", lambda: DistributedBucketScheduler(ColoringBatchScheduler(), seed=0),
     2, {"transport": "hop"}, 0.5),
    ("distributed-arrow+reads+hop", lambda: DistributedBucketScheduler(
        ColoringBatchScheduler(), seed=0, discovery="arrow"), 2, {"transport": "hop"}, 0.4),
]


@pytest.mark.parametrize("label,factory,speed,kwargs,rf", COMBOS, ids=[c[0] for c in COMBOS])
@pytest.mark.parametrize("graph_fn", [lambda: topologies.grid([3, 4]), lambda: topologies.line(12)],
                         ids=["grid", "line"])
def test_combined_modes_certified(label, factory, speed, kwargs, rf, graph_fn):
    g = graph_fn()
    wl = make_wl(g, rf)
    sim = Simulator(g, factory(), wl, config=SimConfig(object_speed_den=speed, **kwargs))
    trace = sim.run()
    assert len(trace.txns) == wl.num_txns
    assert certify_trace(g, trace) == []
