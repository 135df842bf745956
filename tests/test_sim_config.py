"""SimConfig consolidation tests.

The frozen :class:`~repro.sim.config.SimConfig` value object is the only
way to configure a run.  It must (a) validate knob combinations, (b)
derive variants through ``replace``, (c) carry every engine knob into
the ``Simulator``, and (d) thread through ``run_experiment`` /
``replicate`` so congested (hop transport, link-capacity, non-strict)
experiments work end-to-end.
"""

import dataclasses

import pytest

from repro import DeparturePolicy, SimConfig, Simulator
from repro.analysis import replicate, run_experiment
from repro.core import GreedyScheduler
from repro.errors import WorkloadError
from repro.network import topologies
from repro.obs import CountersProbe
from repro.workloads import BatchWorkload, ClosedLoopWorkload


def _setup(n=8, seed=0):
    g = topologies.clique(n)
    wl = ClosedLoopWorkload(g, num_objects=4, k=2, rounds=2, seed=seed)
    return g, wl


# -- the value object ----------------------------------------------------

def test_defaults_match_simulator_defaults():
    cfg = SimConfig()
    assert cfg.departure_policy is DeparturePolicy.EAGER
    assert cfg.object_speed_den == 1
    assert cfg.strict is True
    assert cfg.node_egress_capacity is None
    assert cfg.transport_kind == "direct"
    assert cfg.link_capacity is None
    assert cfg.max_time is None
    assert cfg.probe is None


def test_frozen():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.strict = False


@pytest.mark.parametrize("bad", [
    dict(link_capacity=1),                      # requires transport="hop"
    dict(transport="hop", link_capacity=0),     # capacity >= 1
    dict(object_speed_den=0),
    dict(object_speed_den=-2),
    dict(node_egress_capacity=0),               # capacity >= 1
    dict(node_egress_capacity=-1),
    dict(max_time=-1),
    dict(faults="drop=0.1"),                    # must be a FaultPlan
    dict(faults=42),
])
def test_validation(bad):
    with pytest.raises(WorkloadError):
        SimConfig(**bad)


def test_validation_messages_name_the_value():
    """validate() errors must quote the offending value (debuggability)."""
    with pytest.raises(WorkloadError, match="-3"):
        SimConfig(object_speed_den=-3)
    with pytest.raises(WorkloadError, match="-7"):
        SimConfig(max_time=-7)


def test_validate_is_public_and_idempotent():
    cfg = SimConfig(transport="hop", link_capacity=2, max_time=100)
    cfg.validate()  # explicit re-check of a valid config is a no-op
    from repro.faults import FaultPlan
    SimConfig(faults=FaultPlan(drop_prob=0.1)).validate()


def test_replace():
    cfg = SimConfig().replace(transport="hop", link_capacity=2)
    assert cfg.transport_kind == "hop" and cfg.link_capacity == 2


# -- Simulator integration ----------------------------------------------

def test_simulator_accepts_config_object():
    g, wl = _setup()
    cfg = SimConfig(object_speed_den=2, strict=False)
    sim = Simulator(g, GreedyScheduler(), wl, config=cfg)
    assert sim.config.object_speed_den == 2
    assert sim.object_speed_den == 2
    assert sim.strict is False


def test_simulator_kwargs_win_over_config():
    """``replace`` keywords beat the fields of the config they copy."""
    g, wl = _setup()
    cfg = SimConfig(object_speed_den=2, strict=False)
    sim = Simulator(g, GreedyScheduler(), wl, config=cfg.replace(object_speed_den=3))
    assert sim.object_speed_den == 3      # replaced field wins
    assert sim.strict is False            # untouched field survives
    assert sim.config.object_speed_den == 3
    assert cfg.object_speed_den == 2      # original untouched


def test_engine_knobs_only_through_config():
    """The pre-SimConfig keyword spellings are gone from both entry points."""
    g, wl = _setup()
    with pytest.raises(TypeError):
        Simulator(g, GreedyScheduler(), wl, object_speed_den=2)
    with pytest.raises(TypeError):
        run_experiment(g, GreedyScheduler(), wl, probe=CountersProbe())


def test_all_legacy_simulator_kwargs_still_accepted():
    """Every knob the ``Simulator`` once took as a keyword is a
    ``SimConfig`` field, and the engine honours it from there."""
    g, wl = _setup()
    sim = Simulator(
        g, GreedyScheduler(), wl,
        config=SimConfig(
            departure_policy=DeparturePolicy.LAZY,
            object_speed_den=2,
            strict=False,
            node_egress_capacity=4,
            transport="hop",
            link_capacity=3,
            max_time=500,
        ),
    )
    cfg = sim.config
    assert cfg.departure_policy is DeparturePolicy.LAZY
    assert cfg.object_speed_den == 2
    assert cfg.strict is False
    assert cfg.node_egress_capacity == 4
    assert cfg.transport_kind == "hop" and cfg.link_capacity == 3
    assert cfg.max_time == 500
    sim.run()  # and it still runs


def test_simulator_config_same_trace_as_kwargs():
    g, wl1 = _setup(seed=3)
    _, wl2 = _setup(seed=3)
    t1 = Simulator(g, GreedyScheduler(), wl1,
                   config=SimConfig().replace(object_speed_den=2)).run()
    t2 = Simulator(g, GreedyScheduler(), wl2,
                   config=SimConfig(object_speed_den=2)).run()
    assert t1.end_time == t2.end_time
    assert len(t1.txns) == len(t2.txns)


def test_probe_threads_through_config():
    g, wl = _setup()
    probe = CountersProbe()
    Simulator(g, GreedyScheduler(), wl, config=SimConfig(probe=probe)).run()
    assert probe.counters["commits"] > 0


# -- run_experiment / replicate threading --------------------------------

def test_run_experiment_congested_config_end_to_end():
    """The acceptance-criterion call: hop-motion + unit link capacity,
    non-strict, through run_experiment (previously inexpressible)."""
    g = topologies.grid([4, 4])
    wl = BatchWorkload.uniform(g, num_objects=6, k=2, seed=0)
    res = run_experiment(
        g, GreedyScheduler(), wl,
        config=SimConfig(transport="hop", link_capacity=1, strict=False),
    )
    assert res.makespan > 0
    assert res.metrics.num_txns == len(res.trace.txns) > 0
    assert res.deadline_misses >= 0  # deferral accounting exposed


def test_replicate_threads_config():
    g = topologies.clique(6)

    def experiment(seed, config=None):
        wl = ClosedLoopWorkload(g, num_objects=3, k=2, rounds=2, seed=seed)
        res = run_experiment(g, GreedyScheduler(), wl, config=config)
        assert res.trace.object_speed_den == 2  # config actually arrived
        return {"makespan": res.makespan}

    aggs = replicate(experiment, [0, 1, 2], config=SimConfig(object_speed_den=2))
    assert aggs["makespan"].n == 3
