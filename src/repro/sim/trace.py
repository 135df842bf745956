"""Execution traces: the complete, certifiable record of a simulation run.

The engine records every object movement (:class:`ObjectLeg`) and every
transaction outcome (:class:`TxnRecord`).  :func:`repro.sim.validate.
certify_trace` re-derives feasibility from these raw records alone, so a
scheduler bug cannot silently produce an impossible "good" schedule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import field
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

from repro._compat import slotted_dataclass
from repro._types import NodeId, ObjectId, Time, TxnId


@slotted_dataclass(frozen=True)
class ObjectLeg:
    """One uninterrupted movement of an object between two nodes."""

    oid: ObjectId
    depart_time: Time
    src: NodeId
    dst: NodeId
    arrive_time: Time


@slotted_dataclass(frozen=True)
class CopyLeg:
    """One copy shipment to a reader (read/write extension).

    Copies are cut from the master object's resting position and do not
    move the master; ``version`` records how many writers had committed
    when the copy was cut (for serializability checking).
    """

    oid: ObjectId
    reader_tid: TxnId
    depart_time: Time
    src: NodeId
    dst: NodeId
    arrive_time: Time
    version: int


@slotted_dataclass(frozen=True)
class TxnRecord:
    """Immutable summary of one transaction's life."""

    tid: TxnId
    home: NodeId
    objects: Tuple[ObjectId, ...]
    gen_time: Time
    schedule_time: Time
    exec_time: Time
    reads: Tuple[ObjectId, ...] = ()

    @property
    def latency(self) -> Time:
        """The paper's execution duration ``t_T - t``."""
        return self.exec_time - self.gen_time


@slotted_dataclass(frozen=True)
class Violation:
    """A feasibility violation observed by the engine (non-strict mode)."""

    tid: TxnId
    time: Time
    missing: Tuple[ObjectId, ...]

    def __str__(self) -> str:
        return f"txn {self.tid} at t={self.time} missing objects {list(self.missing)}"


@slotted_dataclass(frozen=True)
class FaultRecord:
    """One injected fault (:mod:`repro.faults`), as it actually fired.

    ``kind`` is one of:

    * ``"drop"`` — a master leg of ``oid`` planned at ``time`` was lost
      (the object never left ``node``);
    * ``"delay"`` — the leg of ``oid`` departing at ``time`` took
      ``extra`` additional steps;
    * ``"crash"`` / ``"restart"`` — ``node`` went down at ``time`` for
      ``extra`` steps / came back up at ``time``;
    * ``"crash-delay"`` — an arrival of ``oid`` at crashed ``node`` was
      held ``extra`` extra steps until its restart;
    * ``"rerequest"`` — recovery re-requested lost ``oid`` from its last
      confirmed holder ``node`` at ``time``;
    * ``"partition-block"`` — a leg of ``oid`` from ``node`` was blocked
      by an active partition (no intact path); the departure retries at
      heal time, ``extra`` steps later;
    * ``"reroute"`` — a leg of ``oid`` from ``node`` detoured around an
      active cut, taking ``extra`` steps beyond the unpartitioned
      shortest path;
    * ``"partition-msg"`` — a control message into ``node`` was deferred
      ``extra`` steps to the heal time of the partition separating it
      from its sender;
    * ``"net-delay"`` — the leg of ``oid`` departing at ``time`` drew
      ``extra`` additional steps from the configured network latency
      distribution (:class:`repro.sim.transport.LatencyDistTransport`);
    * ``"join"`` / ``"leave"`` — elastic membership: ``node`` joined /
      permanently left the graph at ``time``;
    * ``"drain"`` — a graceful leave of ``node`` began at ``time``; its
      ``"leave"`` record fires once its live transactions finished and
      its resting objects migrated;
    * ``"leave-recover"`` — an object stranded by a leave was forwarded
      to surviving member ``node`` (``oid`` names the object);
    * ``"rehome"`` — a live transaction (tid in ``extra``) homed at a
      departing node was re-homed to member ``node``.
    """

    kind: str
    time: Time
    node: Optional[NodeId] = None
    oid: Optional[ObjectId] = None
    extra: Time = 0

    def __str__(self) -> str:
        bits = [f"t={self.time}"]
        if self.node is not None:
            bits.append(f"node={self.node}")
        if self.oid is not None:
            bits.append(f"oid={self.oid}")
        if self.extra:
            bits.append(f"extra={self.extra}")
        return f"{self.kind}({', '.join(bits)})"


@slotted_dataclass(frozen=True)
class RescheduleRecord:
    """One recovery action: a transaction missed its committed execution
    time (lost/late object or crashed home node) and was re-scheduled."""

    tid: TxnId
    time: Time
    old_exec: Time
    new_exec: Time
    backoff: Time
    missing: Tuple[ObjectId, ...] = ()

    def __str__(self) -> str:
        return (
            f"txn {self.tid} missed t={self.old_exec}, rescheduled at t={self.time} "
            f"to t={self.new_exec} (backoff {self.backoff}, missing {list(self.missing)})"
        )


@slotted_dataclass(frozen=True)
class ShedRecord:
    """One transaction spec rejected at the admission front door
    (:mod:`repro.service`) — it never received a transaction id.

    ``reason`` is ``"queue-full"`` (bounded queue overflowed and the
    policy rejected the newcomer), ``"displaced"`` (the policy evicted a
    previously queued entry in favour of a better one), or
    ``"expired-in-queue"`` (the entry's deadline passed before it was
    admitted)."""

    time: Time
    home: NodeId
    gen_time: Time
    reason: str
    priority: int = 0

    def __str__(self) -> str:
        return (
            f"shed(t={self.time}, home={self.home}, gen={self.gen_time}, "
            f"{self.reason}, prio={self.priority})"
        )


@slotted_dataclass(frozen=True)
class ExpiredRecord:
    """One admitted transaction cancelled mid-flight because its deadline
    passed before it executed (:mod:`repro.service`).  The engine
    released its object-queue slots on cancellation; the tid never
    appears in ``trace.txns``."""

    tid: TxnId
    time: Time
    deadline: Time
    gen_time: Time

    def __str__(self) -> str:
        return (
            f"expired(txn {self.tid} at t={self.time}, deadline={self.deadline}, "
            f"gen={self.gen_time})"
        )


@slotted_dataclass(frozen=True)
class MembershipRecord:
    """One elastic-membership transition as it actually took effect
    (:class:`repro.faults.MembershipPlan`).

    ``kind`` is ``"join"`` (``edges`` carries the anchor ``(node,
    weight)`` pairs), ``"drain"`` (a graceful leave began), or
    ``"leave"`` (the node departed permanently).  The certifier rebuilds
    the final graph from the join records and accepts leave-induced
    detours against the leave records."""

    kind: str
    node: NodeId
    time: Time
    edges: Tuple[Tuple[NodeId, Time], ...] = ()

    def __str__(self) -> str:
        extra = f", edges {list(self.edges)}" if self.edges else ""
        return f"{self.kind}(node={self.node}, t={self.time}{extra})"


@slotted_dataclass(frozen=True)
class PartitionRecord:
    """One network-partition window as it actually took effect
    (:mod:`repro.faults`): the edges of ``cut`` were severed for
    ``[start, end)`` and healed at ``end``.  Recorded when the window's
    start fires, so the certifier can reconcile every ``reroute`` /
    ``partition-block`` fault record against a covering window."""

    cut: Tuple[Tuple[NodeId, NodeId], ...]
    start: Time
    end: Time

    def covers(self, t: Time) -> bool:
        return self.start <= t < self.end

    def __str__(self) -> str:
        edges = ", ".join(f"{u}-{v}" for u, v in self.cut)
        return f"partition([{self.start}, {self.end}), cut {{{edges}}})"


class ObjectTimeline:
    """Where one object was at each step, from its trace legs.

    ``legs`` holds the object's legs in departure order.  Between legs the
    object rests: rest interval ``i`` starts at the arrival of leg
    ``i - 1`` (step 0 for the first) at that leg's destination (``start``
    for the first) and ends at the departure of leg ``i``; the last one
    never ends.  Both queries bisect the departure times.
    """

    __slots__ = ("start", "legs", "_departs", "_rests", "_earliest")

    def __init__(self, start: Optional[NodeId], legs: Iterable[ObjectLeg]) -> None:
        self.legs: List[ObjectLeg] = sorted(legs, key=lambda leg: leg.depart_time)
        if start is None and self.legs:
            start = self.legs[0].src  # created mid-run: it starts where it first left
        self.start = start
        self._departs = [leg.depart_time for leg in self.legs]
        #: ``(from, node)`` of each rest interval
        self._rests = [(0, start)] + [(leg.arrive_time, leg.dst) for leg in self.legs]
        #: earliest start of rest intervals ``i`` onwards; equal to
        #: ``_rests[i][0]`` unless the legs overlap
        self._earliest = list(accumulate(reversed([since for since, _ in self._rests]), min))[::-1]

    def at_rest(self, t: Time, node: NodeId) -> bool:
        """Was the object resting at ``node`` at step ``t``?

        The certifier's convention: both ends of a rest interval count, so
        the object is still at a leg's source at its departure step (the
        model forwards *after* executing) and at its destination from the
        arrival step.
        """
        # Rest intervals before i ended before t; the walk stops once no
        # later interval can have begun by t (one step on contiguous legs).
        i = bisect_left(self._departs, t)
        while i < len(self._rests) and self._earliest[i] <= t:
            since, at = self._rests[i]
            if since <= t and at == node:
                return True
            i += 1
        return False

    def charged_position(self, t: Time) -> Optional[NodeId]:
        """The node the object is charged to at step ``t``.

        The ratio's artificial-node convention: from its departure step
        the object counts as already at the leg's destination.
        """
        i = bisect_right(self._departs, t)
        return self.start if i == 0 else self.legs[i - 1].dst


@slotted_dataclass()
class ExecutionTrace:
    """Everything that happened in one simulation run."""

    graph_name: str
    initial_placement: Dict[ObjectId, NodeId]
    object_speed_den: int = 1
    txns: Dict[TxnId, TxnRecord] = field(default_factory=dict)
    legs: List[ObjectLeg] = field(default_factory=list)
    copy_legs: List[CopyLeg] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    reschedules: List[RescheduleRecord] = field(default_factory=list)
    partitions: List[PartitionRecord] = field(default_factory=list)
    membership: List[MembershipRecord] = field(default_factory=list)
    sheds: List[ShedRecord] = field(default_factory=list)
    expiries: List[ExpiredRecord] = field(default_factory=list)
    messages_sent: int = 0
    message_hops: float = 0.0
    end_time: Time = 0
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    @property
    def num_txns(self) -> int:
        return len(self.txns)

    def makespan(self) -> Time:
        """Last execution time (0 for an empty run)."""
        if not self.txns:
            return 0
        return max(r.exec_time for r in self.txns.values())

    def latencies(self) -> List[Time]:
        """Per-transaction execution durations, in tid order."""
        return [self.txns[t].latency for t in sorted(self.txns)]

    def max_latency(self) -> Time:
        lats = self.latencies()
        return max(lats) if lats else 0

    def mean_latency(self) -> float:
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else 0.0

    def total_object_travel(self) -> Time:
        """Total communication cost: sum of all master-leg durations."""
        return sum(l.arrive_time - l.depart_time for l in self.legs)

    def total_copy_travel(self) -> Time:
        """Communication cost of read copies (read/write extension)."""
        return sum(l.arrive_time - l.depart_time for l in self.copy_legs)

    def object_timelines(self) -> Dict[ObjectId, ObjectTimeline]:
        """Every object's :class:`ObjectTimeline`, from one pass over
        :attr:`legs`: placed objects in placement order, then objects
        first seen in a leg.  Built afresh on each call, because traces
        are mutable."""
        legs: Dict[ObjectId, List[ObjectLeg]] = {oid: [] for oid in self.initial_placement}
        for leg in self.legs:
            legs.setdefault(leg.oid, []).append(leg)
        return {
            oid: ObjectTimeline(self.initial_placement.get(oid), obj_legs)
            for oid, obj_legs in legs.items()
        }

    def fault_counts(self) -> Dict[str, int]:
        """Count of injected faults by kind (empty for fault-free runs)."""
        counts: Dict[str, int] = {}
        for f in self.faults:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    def max_backoff(self) -> Time:
        """Largest recovery backoff used (0 for fault-free runs)."""
        return max((r.backoff for r in self.reschedules), default=0)

    def executions_in_order(self) -> List[TxnRecord]:
        return sorted(self.txns.values(), key=lambda r: (r.exec_time, r.tid))
