"""SimConfig: one frozen value object for every engine knob.

:class:`SimConfig` is the only way to configure a run: the
:class:`~repro.sim.engine.Simulator`, ``run_experiment``, ``replicate``,
the CLI and suite files all thread one value through their layers
instead of re-declaring each knob at every level:

    Simulator(g, sched, wl, config=SimConfig(transport="hop", link_capacity=1))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro._types import DeparturePolicy, Time
from repro.errors import WarmupError, WorkloadError
from repro.obs.probe import Probe


@dataclass(frozen=True)
class SimConfig:
    """Engine configuration (see :class:`repro.sim.engine.Simulator` for
    the semantics of each knob).

    Attributes
    ----------
    departure_policy:
        ``EAGER`` (paper default) or ``LAZY`` just-in-time departures.
    object_speed_den:
        Time steps per unit distance for objects (2 = half speed).
    strict:
        Missing objects at execution are a hard error (True) or recorded
        deferrals (False).
    node_egress_capacity:
        Max object departures per node per step (None = unbounded);
        applied as an :class:`~repro.sim.transport.EgressCapacity`
        decorator around the selected transport.
    link_capacity:
        Max concurrent traversals per edge; requires a hop transport.
        Applied as a :class:`~repro.sim.transport.LinkCapacity`
        decorator.
    max_time:
        Stop the run loop beyond this simulation time (None = run to
        quiescence).
    probe:
        Observability probe (:mod:`repro.obs`); None means the zero
        overhead :class:`~repro.obs.probe.NullProbe`.
    transport:
        Object-motion strategy (:mod:`repro.sim.transport`): ``"direct"``
        (whole shortest-path legs, the paper default), ``"hop"``
        (edge-by-edge), or a :class:`~repro.sim.transport.Transport`
        instance.  ``None`` means ``"direct"``.
        Custom instances are used as given (their ``kind`` attribute
        participates in validation); the capacity knobs above always
        wrap the selected base.
    faults:
        A frozen :class:`repro.faults.FaultPlan` of seeded crash/drop/
        delay faults, or ``None`` (the default) for the paper's reliable
        network.  ``None`` guarantees byte-identical traces with
        pre-fault-layer builds; a plan enables the recovery machinery
        (timeout-driven rescheduling with exponential backoff).
    checkpoint_every:
        Write a durability checkpoint (:mod:`repro.durability`) every
        this many *active* steps (None = never).  Requires
        ``checkpoint_path``.
    checkpoint_path:
        Where periodic / signal-triggered checkpoints are written.  May
        contain a ``{step}`` placeholder to keep one snapshot per
        checkpointed step instead of overwriting.
    checkpoint_sync:
        ``True`` (default): periodic checkpoints block the step loop
        until the snapshot is on disk.  ``False``: periodic snapshots
        are serialized by a forked child while the run continues
        (:func:`repro.durability.save_checkpoint_async`; same bytes,
        near-zero stall — prefer a ``{step}`` path template so
        concurrent writers target distinct files).  The final
        SIGTERM/SIGINT snapshot is always synchronous: the process is
        about to exit, so the write must be durable first.
    warmup:
        Default measurement cutoff (absolute steps) for open-system
        runs; ``run(warmup=...)`` overrides it.  Must be smaller than
        ``max_time`` when both are set (:class:`~repro.errors.
        WarmupError` otherwise — an empty SLO window is never useful).
    service:
        A frozen :class:`repro.service.ServiceConfig` enabling the
        ingestion front-end (bounded admission queue, deadlines,
        degradation controller), or ``None`` (the default) to feed
        arrivals straight to the scheduler.  ``None`` guarantees
        byte-identical traces with pre-service builds.
    latency_dist:
        Network latency-distribution spec for
        :class:`~repro.sim.transport.LatencyDistTransport`:
        ``"lognormal:MU:SIGMA[:CAP]"`` or ``"empirical:V1,V2,..."``
        draw seeded per-leg extra delivery steps (long-tail realism).
        Requires ``faults`` (a plan, possibly empty): late objects are
        handled by the recovery machinery, and the certifier accounts
        for the extra steps via ``"net-delay"`` fault records.
    latency_seed:
        Seed of the latency-distribution draws (independent of the
        fault plan's seed so the two can be varied separately).
    """

    departure_policy: DeparturePolicy = DeparturePolicy.EAGER
    object_speed_den: int = 1
    strict: bool = True
    node_egress_capacity: Optional[int] = None
    link_capacity: Optional[int] = None
    max_time: Optional[Time] = None
    probe: Optional[Probe] = None
    transport: Optional[object] = None
    faults: Optional[object] = None
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    checkpoint_sync: bool = True
    warmup: Optional[Time] = None
    service: Optional[object] = None
    latency_dist: Optional[str] = None
    latency_seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical knob combinations with a clear
        :class:`~repro.errors.WorkloadError` before they can surface as
        deep engine failures.

        Runs automatically on construction; public so callers composing a
        config via ``dataclasses.replace``-style helpers (which re-run
        ``__post_init__``) or building one programmatically can re-check
        explicitly.
        """
        if isinstance(self.transport, str) and self.transport not in ("direct", "hop"):
            raise WorkloadError(
                f"unknown transport {self.transport!r} (choose 'direct' or 'hop')"
            )
        if self.link_capacity is not None and self.transport_kind == "direct":
            raise WorkloadError(
                "link_capacity requires a hop transport (transport='hop')"
            )
        if self.link_capacity is not None and self.link_capacity < 1:
            raise WorkloadError(
                f"link_capacity must be >= 1, got {self.link_capacity}"
            )
        if self.node_egress_capacity is not None and self.node_egress_capacity < 1:
            raise WorkloadError(
                f"node_egress_capacity must be >= 1, got {self.node_egress_capacity}"
            )
        if self.object_speed_den < 1:
            raise WorkloadError(
                f"object_speed_den must be >= 1, got {self.object_speed_den}"
            )
        if self.max_time is not None and self.max_time < 0:
            raise WorkloadError(f"max_time must be >= 0, got {self.max_time}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise WorkloadError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_every is not None and not self.checkpoint_path:
            raise WorkloadError("checkpoint_every requires checkpoint_path")
        if self.faults is not None:
            from repro.faults import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise WorkloadError(
                    "faults must be a repro.faults.FaultPlan or None, "
                    f"got {type(self.faults).__name__}"
                )
        if self.warmup is not None:
            if self.warmup < 0:
                raise WarmupError(f"warmup must be >= 0, got {self.warmup}")
            if self.max_time is not None and self.warmup >= self.max_time:
                raise WarmupError(
                    f"warmup must be < max_time={self.max_time}, got "
                    f"{self.warmup}: the measurement window would be empty"
                )
        if self.service is not None:
            from repro.service.config import ServiceConfig

            if not isinstance(self.service, ServiceConfig):
                raise WorkloadError(
                    "service must be a repro.service.ServiceConfig or None, "
                    f"got {type(self.service).__name__}"
                )
        if self.latency_dist is not None:
            from repro.sim.transport import parse_latency_dist

            parse_latency_dist(self.latency_dist)  # raises on a bad spec
            if self.faults is None:
                raise WorkloadError(
                    "latency_dist requires faults (a FaultPlan, possibly "
                    "empty): late deliveries are absorbed by the recovery "
                    "machinery"
                )

    @property
    def transport_kind(self) -> str:
        """Resolved motion granularity: "direct", "hop", or "custom".

        ``transport=None`` is ``"direct"``; transport instances report
        their own ``kind``.
        """
        if self.transport is None:
            return "direct"
        if isinstance(self.transport, str):
            return self.transport
        return getattr(self.transport, "kind", "custom")

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
