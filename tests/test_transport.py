"""Transport layer tests (``repro.sim.transport``).

Pillars:

* **Byte-identity** — ``DirectTransport`` (explicitly selected) matches
  the default-config goldens; the hop-motion and link-capacity goldens
  pin the congestion transports against the pre-refactor engine.
* **CLI mapping** — ``cli.make_config`` turns ``--transport hop`` and a
  bare ``--link-capacity`` into the same simulator as
  ``transport="hop"``, which equals a bare ``HopTransport()`` instance.
* **Composition** — capacity knobs wrap the selected base transport in
  decorators, validated against bad combinations.
"""

import argparse
import json
import os

import pytest

from repro.cli import make_config
from repro.core import BucketScheduler, GreedyScheduler
from repro.errors import WorkloadError
from repro.network import topologies
from repro.offline import ColoringBatchScheduler, LineBatchScheduler
from repro.sim import SimConfig, Simulator, certify_trace
from repro.sim.serialize import trace_to_dict
from repro.sim.transport import (
    DirectTransport,
    EgressCapacity,
    HopTransport,
    LinkCapacity,
    Transport,
    build_transport,
)
from repro.workloads import ClosedLoopWorkload, OnlineWorkload, hotspot_workload

DATA = os.path.join(os.path.dirname(__file__), "data")


def _dumps(trace):
    return json.dumps(trace_to_dict(trace), sort_keys=True, indent=0)


def _golden(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


def _cli_config(**flags):
    """``cli.make_config`` for a command line carrying only ``flags``."""
    args = argparse.Namespace(object_speed=1, **flags)
    return make_config(args, speed=1)


def _default_cases():
    """The pre-transport goldens, run with transport explicitly "direct"."""
    return {
        "golden_greedy_clique16.json": (
            lambda: topologies.clique(16),
            lambda: GreedyScheduler(uniform_beta=1),
            lambda g: ClosedLoopWorkload(g, num_objects=8, k=2, rounds=3, seed=0),
        ),
        "golden_bucket_grid5x5.json": (
            lambda: topologies.grid([5, 5]),
            lambda: BucketScheduler(ColoringBatchScheduler()),
            lambda g: OnlineWorkload.bernoulli(g, 8, 2, rate=0.05, horizon=80, seed=0),
        ),
        "golden_bucket_line32.json": (
            lambda: topologies.line(32),
            lambda: BucketScheduler(LineBatchScheduler()),
            lambda g: OnlineWorkload.bernoulli(g, 8, 2, rate=0.05, horizon=80, seed=0),
        ),
    }


def _hop_sim(transport_cfg):
    g = topologies.grid([4, 4])
    wl = OnlineWorkload.bernoulli(g, num_objects=6, k=2, rate=0.06, horizon=40, seed=5)
    return Simulator(g, GreedyScheduler(), wl, config=transport_cfg), g


@pytest.mark.parametrize("golden", sorted(_default_cases()))
def test_direct_transport_byte_identical_to_goldens(golden):
    """transport="direct" is the paper default — goldens must not drift."""
    graph_f, sched_f, wl_f = _default_cases()[golden]
    g = graph_f()
    sim = Simulator(g, sched_f(), wl_f(g), config=SimConfig(transport="direct"))
    trace = sim.run()
    assert _dumps(trace) == _golden(golden), f"trace drifted from {golden}"
    certify_trace(g, trace)


def test_hop_transport_byte_identical_to_golden():
    sim, g = _hop_sim(SimConfig(transport="hop"))
    trace = sim.run()
    assert _dumps(trace) == _golden("golden_hop_grid4x4.json")
    certify_trace(g, trace)
    # every leg is a single edge
    assert all(leg.dst in g.neighbors(leg.src) for leg in trace.legs)


def test_link_capacity_byte_identical_to_golden():
    g = topologies.line(12)
    wl = hotspot_workload(g, num_cold_objects=3, k_cold=1, seed=0)
    cfg = SimConfig(transport="hop", link_capacity=1, strict=False)
    trace = Simulator(g, GreedyScheduler(), wl, config=cfg).run()
    assert _dumps(trace) == _golden("golden_linkcap_line12.json")


def test_cli_transport_flag_equals_transport_string():
    a, _ = _hop_sim(_cli_config(transport="hop"))
    b, _ = _hop_sim(SimConfig(transport="hop"))
    assert _dumps(a.run()) == _dumps(b.run())


def test_bare_link_capacity_implies_hop():
    cfg = _cli_config(link_capacity=2)
    assert cfg.transport_kind == "hop" and not cfg.strict
    a, _ = _hop_sim(cfg)
    b, _ = _hop_sim(SimConfig(transport="hop", link_capacity=2, strict=False))
    assert _dumps(a.run()) == _dumps(b.run())


def test_transport_instance_equals_string():
    a, _ = _hop_sim(SimConfig(transport=HopTransport()))
    b, _ = _hop_sim(SimConfig(transport="hop"))
    assert _dumps(a.run()) == _dumps(b.run())


def test_transport_kwarg_on_simulator():
    g = topologies.line(4)
    sim = Simulator(g, GreedyScheduler(), config=SimConfig(transport="hop"))
    assert sim.config.transport_kind == "hop"
    assert isinstance(sim.transport, HopTransport)


class TestBuildAndCompose:
    def test_default_is_direct(self):
        t = build_transport(SimConfig())
        assert isinstance(t, DirectTransport) and t.kind == "direct"

    def test_cli_flag_selects_hop(self):
        t = build_transport(_cli_config(transport="hop"))
        assert isinstance(t, HopTransport) and t.kind == "hop"

    def test_capacity_decorators_wrap_outermost_egress(self):
        cfg = SimConfig(transport="hop", link_capacity=2, node_egress_capacity=1)
        t = build_transport(cfg)
        assert isinstance(t, EgressCapacity)
        assert isinstance(t.inner, LinkCapacity)
        assert isinstance(t.inner.inner, HopTransport)
        assert t.kind == "hop"  # decorators report the base granularity

    def test_custom_instance_used_as_given(self):
        class Teleport(Transport):
            kind = "direct"

            def plan_leg(self, obj, target, t):
                return target, t + 1

        inst = Teleport()
        assert build_transport(SimConfig(transport=inst)) is inst

    def test_base_transport_plan_leg_abstract(self):
        with pytest.raises(NotImplementedError):
            Transport().plan_leg(None, 0, 0)

    def test_capacity_decorator_order_is_immaterial(self):
        """EgressCapacity(LinkCapacity(hop)) and LinkCapacity(
        EgressCapacity(hop)) produce the same trace on the line-12
        hotspot — a slot consumed in one layer while the other blocks
        must not change the schedule, whichever layer is outermost."""
        def run(transport):
            g = topologies.line(12)
            wl = hotspot_workload(g, num_cold_objects=3, k_cold=1, seed=0)
            cfg = SimConfig(transport=transport, strict=False)
            trace = Simulator(g, GreedyScheduler(), wl, config=cfg).run()
            return g, trace

        _, a = run(EgressCapacity(LinkCapacity(HopTransport(), 1), 1))
        _, b = run(LinkCapacity(EgressCapacity(HopTransport(), 1), 1))
        assert _dumps(a) == _dumps(b)
        assert a.legs  # the hotspot actually moves objects


class TestValidation:
    def test_unknown_transport_string(self):
        with pytest.raises(WorkloadError):
            SimConfig(transport="teleport")

    def test_link_capacity_requires_hop(self):
        with pytest.raises(WorkloadError):
            SimConfig(link_capacity=1)
        with pytest.raises(WorkloadError):
            SimConfig(transport="direct", link_capacity=1)

    def test_direct_conflicts_with_hop_motion(self):
        """A link capacity needs hop motion; --transport direct refuses it."""
        with pytest.raises(SystemExit, match="requires a hop transport"):
            _cli_config(transport="direct", link_capacity=1)

    def test_capacities_must_be_positive(self):
        with pytest.raises(WorkloadError):
            SimConfig(node_egress_capacity=0)
        with pytest.raises(WorkloadError):
            SimConfig(transport="hop", link_capacity=0)
