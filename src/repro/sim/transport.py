"""Pluggable transport models: how master objects move through the graph.

The paper's base model moves an object in one leg along a shortest path
(:class:`DirectTransport`); its Section VI congestion questions need
finer models — edge-by-edge motion (:class:`HopTransport`), bounded
per-node egress (:class:`EgressCapacity`), bounded per-edge concurrency
(:class:`LinkCapacity`).  These used to be ``if``-branches inside the
engine's departure routine; they are now strategy objects selected via
``SimConfig.transport`` and composed as decorators, so capacity-curve
studies, sharded topologies, or asynchronous backends can swap the
motion model without touching the engine.

A transport answers one question: *given that this object should head
for ``target`` now, what leg does it take?*  :meth:`Transport.plan_leg`
returns ``(dst, arrive_time)`` for the leg departing at ``t``, or
``None`` when the move is blocked — in which case the transport has
already queued a retry on the engine's event spine
(:class:`~repro.sim.events.EventQueue`).  The engine keeps everything
else: commit logic, departure policy (eager/lazy), trace legs, and the
``on_depart``/``on_arrive`` probe events.

Selection (``repro.sim.config.SimConfig``)::

    SimConfig(transport="hop")                  # edge-by-edge motion
    SimConfig(transport="direct")               # whole-leg motion (default)
    SimConfig(transport=MyTransport())          # custom strategy
    SimConfig(link_capacity=2, transport="hop") # wraps in LinkCapacity
    SimConfig(node_egress_capacity=1)           # wraps in EgressCapacity

:func:`build_transport` applies the capacity decorators outermost-first
(egress, then link, then the base), reproducing the legacy engine's
check order: an egress slot is consumed even when the link then blocks.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from repro._types import NodeId, Time
from repro.errors import WorkloadError
from repro.sim.objects import SharedObject

#: One planned leg: ``(dst, arrive_time)``.
Leg = Tuple[NodeId, Time]


class Transport:
    """Base strategy: subclass and implement :meth:`plan_leg`.

    ``kind`` identifies the motion granularity ("direct", "hop", or
    "custom"); ``SimConfig`` uses it to validate knob combinations (per
    -link capacity needs per-edge legs, i.e. a "hop" transport).
    """

    kind = "custom"

    def bind(self, sim) -> None:
        """Attach to a simulator; called once from ``Simulator.__init__``."""
        self.sim = sim

    def begin_step(self, t: Time) -> None:
        """Reset any per-step state (e.g. egress counters)."""

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        """The leg ``obj`` takes from its location toward ``target`` at ``t``.

        Return ``(dst, arrive_time)``, or ``None`` when blocked — after
        scheduling a retry via ``self.sim.events.push_depart``.
        """
        raise NotImplementedError


class DirectTransport(Transport):
    """Whole shortest-path legs at once (the paper's base model)."""

    kind = "direct"

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        travel = obj.travel_time(self.sim.graph.distance(obj.location, target))
        return target, t + travel


class HopTransport(Transport):
    """Edge-by-edge motion: one trace leg per hop, route re-evaluated at
    every intermediate node.

    Motion physics are identical to :class:`DirectTransport` in the
    uncongested model, but schedulers observe finer-grained positions
    (the in-transit artificial node is the next hop, not the final
    target), so committed times may differ — usually slightly better.
    Required for per-link capacity.
    """

    kind = "hop"

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        graph = self.sim.graph
        hop = graph.shortest_path(obj.location, target)[1]
        return hop, t + obj.travel_time(graph.neighbors(obj.location)[hop])


class TransportDecorator(Transport):
    """Wrap another transport; delegates everything by default."""

    def __init__(self, inner: Transport) -> None:
        self.inner = inner

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.inner.kind

    def bind(self, sim) -> None:
        super().bind(sim)
        self.inner.bind(sim)

    def begin_step(self, t: Time) -> None:
        self.inner.begin_step(t)

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        return self.inner.plan_leg(obj, target, t)


class EgressCapacity(TransportDecorator):
    """At most ``capacity`` objects may *depart* any node per time step
    (the paper's Section VI congestion question; bench E13).

    Excess departures retry next step.  The slot is consumed before the
    inner transport plans the leg, so an inner-layer block (e.g. a full
    link) still uses up egress — matching the legacy engine.
    """

    def __init__(self, inner: Transport, capacity: int) -> None:
        if capacity < 1:
            raise WorkloadError("node_egress_capacity must be >= 1")
        super().__init__(inner)
        self.capacity = capacity
        self._used: Dict[NodeId, int] = {}

    def begin_step(self, t: Time) -> None:
        self._used = {}
        self.inner.begin_step(t)

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        used = self._used.get(obj.location, 0)
        if used >= self.capacity:
            # Congested: retry next step.
            self.sim.events.push_depart(t + 1, obj.oid)
            return None
        self._used[obj.location] = used + 1
        return self.inner.plan_leg(obj, target, t)


class LinkCapacity(TransportDecorator):
    """At most ``capacity`` objects may traverse any single edge
    concurrently, both directions combined (Section VI's bounded link
    capacity; bench E20).

    Requires a hop-granularity inner transport (each leg must be one
    edge).  A blocked traversal waits at the upstream node and retries
    at the earliest in-flight release.
    """

    def __init__(self, inner: Transport, capacity: int) -> None:
        if capacity < 1:
            raise WorkloadError("link_capacity must be >= 1")
        super().__init__(inner)
        self.capacity = capacity
        #: per-edge traversal end times, a min-heap per undirected edge
        self._busy: Dict[Tuple[NodeId, NodeId], List[Time]] = {}

    def bind(self, sim) -> None:
        super().bind(sim)
        self._busy = {}

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        leg = self.inner.plan_leg(obj, target, t)
        if leg is None:
            return None
        dst, arrive = leg
        u, v = obj.location, dst
        key = (u, v) if u < v else (v, u)
        busy = self._busy.setdefault(key, [])
        while busy and busy[0] <= t:
            heapq.heappop(busy)
        if len(busy) >= self.capacity:
            # Link full: retry when the earliest traversal releases.
            self.sim.events.push_depart(busy[0], obj.oid)
            return None
        heapq.heappush(busy, arrive)
        return leg


class FaultyTransport(TransportDecorator):
    """Inject the seeded faults of a :class:`repro.faults.FaultPlan` into
    master-object legs (the transport half of the fault layer; the engine
    injects the crash-window half into arrivals and deliveries).

    Outermost decorator.  Per planned departure, in order:

    1. **crashed source** — nothing departs from a down node; the
       departure retries at the node's restart step (no fault record:
       the window itself is recorded by the engine's crash event);
    2. **partition** — when an active cut (:class:`repro.faults.
       PartitionWindow`) separates the source from the target, the
       departure is blocked until the earliest heal time
       (``"partition-block"`` record); when an intact detour exists the
       leg is re-planned against the cut-aware shortest path
       (``"reroute"`` record, ``extra`` = added travel steps).  Rerouted
       legs bypass the inner capacity decorators — the detour models the
       network forwarding around the cut, not a scheduled departure;
    3. inner transport plans the leg (capacity slots are consumed even
       when the leg is then dropped — a lost frame still occupied the
       port);
    4. **drop** — with ``drop_prob``, the leg is silently lost: the
       object stays at rest at its source and *no retry is queued*.
       Nobody learns until a transaction misses its committed execution
       time; recovery then re-requests the object from this node, which
       the injector remembers as the last confirmed holder;
    5. **delay** — with ``delay_prob``, arrival slips by 1..``max_delay``
       extra steps.

    Drops, delays, blocks, and reroutes are recorded on the trace
    (:class:`~repro.sim.trace.FaultRecord`) via ``Simulator.record_fault``
    so the certifier can account for the extra slack and analysis can
    report degradation.
    """

    def __init__(self, inner: Transport) -> None:
        super().__init__(inner)
        self.injector = None

    def bind(self, sim) -> None:
        super().bind(sim)
        self.injector = sim.faults

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        inj = self.injector
        if inj is None:
            return self.inner.plan_leg(obj, target, t)
        src = obj.location
        restart = inj.restart_time(src, t)
        if restart is not None:
            self.sim.events.push_depart(restart, obj.oid)
            return None
        planned = self._plan_partition_aware(obj, target, t)
        if planned is None:
            return None
        leg, reroute_slack = planned
        if inj.should_drop(obj.oid, t):
            inj.mark_lost(obj.oid, src)
            self.sim.record_fault("drop", t, node=src, oid=obj.oid)
            return None
        inj.clear_lost(obj.oid)
        if reroute_slack is not None:
            # Recorded only now that the leg survived the drop check: a
            # dropped leg must leave no slack record for the certifier.
            self.sim.record_fault(
                "reroute", t, node=src, oid=obj.oid, extra=reroute_slack
            )
        dst, arrive = leg
        extra = inj.leg_delay(obj.oid, t)
        if extra:
            self.sim.record_fault("delay", t, oid=obj.oid, extra=extra)
            arrive += extra
        return dst, arrive

    def _plan_partition_aware(
        self, obj: SharedObject, target: NodeId, t: Time
    ) -> Optional[Tuple[Leg, Optional[Time]]]:
        """Plan the leg, respecting any partition cut active at ``t``.

        Separated source/target blocks until the earliest heal (records
        ``"partition-block"``, returns ``None``).  When a detour exists
        the leg is re-planned on the cut-aware shortest path: hop
        transports take the cut-aware next hop (following the *plain*
        next hop here could oscillate between two nodes until the heal),
        direct-style transports take the whole detour.  An unaffected
        leg falls through to the inner transport so capacity decorators
        keep applying.

        Returns ``(leg, reroute_slack)`` — ``reroute_slack`` is the
        extra travel beyond unpartitioned physics (``None`` when not
        rerouted); the caller records it only if the leg survives the
        drop check.
        """
        inj = self.injector
        graph = self.sim.graph
        src = obj.location
        # The routing cut = active partition cut + every departed
        # member's incident edges (elastic membership): object legs must
        # avoid both, while control messages stay partition-only.
        cut = inj.routing_cut(t)
        if cut and src != target:
            d_cut = graph.distance_avoiding(src, target, cut)
            if d_cut == float("inf"):
                heal = inj.heal_time(t)
                if heal is None:
                    # Membership-only separation: no heal is coming.
                    # Validated plans keep the surviving members
                    # connected, so this only happens to an object
                    # transiently parked on a joined node whose anchors
                    # departed — recover it to the nearest member
                    # instead of blocking forever.
                    self.sim.relocate_object(obj, t)
                    return None
                self.sim.events.push_depart(heal, obj.oid)
                self.sim.record_fault(
                    "partition-block", t, node=src, oid=obj.oid, extra=heal - t
                )
                return None
            if self.kind == "hop":
                path = graph.shortest_path_avoiding(src, target, cut)
                assert path is not None  # d_cut is finite
                hop = path[1]
                if hop != graph.shortest_path(src, target)[1]:
                    w = graph.neighbors(src)[hop]
                    # The detour edge may be longer than the plain
                    # shortest distance to that neighbour; the slack is
                    # exactly that difference, for the certifier.
                    detour = obj.travel_time(w) - obj.travel_time(
                        graph.distance(src, hop)
                    )
                    return (hop, t + obj.travel_time(w)), detour
            else:
                d_base = graph.distance(src, target)
                if d_cut > d_base:
                    detour = obj.travel_time(d_cut) - obj.travel_time(d_base)
                    return (target, t + obj.travel_time(d_cut)), detour
        leg = self.inner.plan_leg(obj, target, t)
        return None if leg is None else (leg, None)


class LatencyModel:
    """A seeded per-leg extra-delay distribution (long-tail realism).

    Built by :func:`parse_latency_dist` from a spec string:

    * ``"lognormal:MU:SIGMA[:CAP]"`` — ``int(lognormvariate(MU, SIGMA))``
      extra steps, capped at ``CAP`` (default 16) so a single draw cannot
      stall a run;
    * ``"empirical:V1,V2,..."`` — a uniform draw from the listed integer
      delays (put 0 in the list multiple times to model a mostly-fast
      network with occasional spikes).

    Draws are keyed by ``(seed, oid, depart_time)``, not by call order,
    so traces are byte-identical for a fixed seed regardless of worker
    count or departure interleaving.
    """

    __slots__ = ("spec", "kind", "mu", "sigma", "cap", "values")

    def __init__(self, spec, kind, mu=0.0, sigma=0.0, cap=16, values=()):
        self.spec = spec
        self.kind = kind
        self.mu = mu
        self.sigma = sigma
        self.cap = cap
        self.values = tuple(values)

    def draw(self, seed: int, oid, t: Time) -> Time:
        rng = random.Random(f"{seed}|net|{oid}|{t}")
        if self.kind == "lognormal":
            return min(self.cap, int(rng.lognormvariate(self.mu, self.sigma)))
        return rng.choice(self.values)


def parse_latency_dist(spec: str) -> LatencyModel:
    """Parse a latency-distribution spec string (see :class:`LatencyModel`).

    Raises :class:`~repro.errors.WorkloadError` on a malformed spec so
    ``SimConfig.validate`` fails loudly at construction.
    """
    parts = str(spec).split(":")
    try:
        if parts[0] == "lognormal" and len(parts) in (3, 4):
            mu = float(parts[1])
            sigma = float(parts[2])
            cap = int(parts[3]) if len(parts) == 4 else 16
            if sigma < 0:
                raise ValueError(f"sigma must be >= 0, got {sigma}")
            if cap < 0:
                raise ValueError(f"cap must be >= 0, got {cap}")
            return LatencyModel(spec, "lognormal", mu=mu, sigma=sigma, cap=cap)
        if parts[0] == "empirical" and len(parts) == 2:
            values = tuple(int(v) for v in parts[1].split(","))
            if not values:
                raise ValueError("empirical distribution needs >= 1 value")
            if any(v < 0 for v in values):
                raise ValueError("empirical delays must be >= 0")
            return LatencyModel(spec, "empirical", values=values)
    except WorkloadError:
        raise
    except ValueError as exc:
        raise WorkloadError(f"bad latency_dist {spec!r}: {exc}") from None
    raise WorkloadError(
        f"bad latency_dist {spec!r}: expected 'lognormal:MU:SIGMA[:CAP]' "
        "or 'empirical:V1,V2,...'"
    )


class LatencyDistTransport(TransportDecorator):
    """Add seeded per-leg delivery jitter drawn from a
    :class:`LatencyModel` (the ROADMAP real-network stretch goal).

    Outermost decorator — outside even :class:`FaultyTransport` — so a
    leg the fault layer dropped or blocked (inner ``None``) draws no
    jitter and records nothing.  Every surviving leg's extra steps are
    recorded as a ``"net-delay"`` fault so the certifier can reconcile
    the stretched arrival against exact physics; that is why
    ``SimConfig`` requires a fault plan (possibly empty) alongside
    ``latency_dist`` — late objects are absorbed by the ordinary
    recovery machinery.
    """

    def __init__(self, inner: Transport, model: LatencyModel, seed: int = 0) -> None:
        super().__init__(inner)
        self.model = model
        self.seed = seed

    def plan_leg(self, obj: SharedObject, target: NodeId, t: Time) -> Optional[Leg]:
        leg = self.inner.plan_leg(obj, target, t)
        if leg is None:
            return None
        extra = self.model.draw(self.seed, obj.oid, t)
        if extra:
            self.sim.record_fault("net-delay", t, oid=obj.oid, extra=extra)
            return leg[0], leg[1] + extra
        return leg


def build_transport(config) -> Transport:
    """Materialize ``config.transport`` (+ capacity knobs) as one strategy.

    ``config.transport`` may be "direct", "hop", ``None`` (= "direct"),
    or a :class:`Transport` instance; the
    ``link_capacity`` / ``node_egress_capacity`` fields wrap the base in
    the corresponding decorators, and an active ``config.faults`` plan
    wraps everything in :class:`FaultyTransport`.
    """
    base = config.transport
    if base is None or isinstance(base, str):
        base = HopTransport() if config.transport_kind == "hop" else DirectTransport()
    if config.link_capacity is not None:
        base = LinkCapacity(base, config.link_capacity)
    if config.node_egress_capacity is not None:
        base = EgressCapacity(base, config.node_egress_capacity)
    if getattr(config, "faults", None) is not None:
        base = FaultyTransport(base)
    if getattr(config, "latency_dist", None) is not None:
        base = LatencyDistTransport(
            base,
            parse_latency_dist(config.latency_dist),
            getattr(config, "latency_seed", 0),
        )
    return base
