"""Mobile shared objects and their transit state.

An object is, at any time, either *at rest* at a node or *in transit*
towards a destination node (paper Section II).  While in transit we track
only ``(dest, arrive_time)``: in the synchronous model an object that left
for ``v`` arriving at time ``a`` behaves, for every scheduling purpose,
exactly like the paper's artificial node connected to ``v`` with weight
``a - t`` (Section III-B(a)).  The object's *time to reach* any node ``u``
is therefore ``(a - t) + speed * d(v, u)``.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Optional, Set

from repro._compat import slotted_dataclass
from repro._types import NodeId, ObjectId, Time, TxnId
from repro.errors import SchedulingError
from repro.network.graph import Graph


@slotted_dataclass()
class SharedObject:
    """State of one mobile object.

    ``speed_den`` is the number of time steps the object takes per unit of
    distance: 1 in the base model, 2 under the distributed scheduler's
    half-speed rule (Section V) which guarantees full-speed discovery
    probes can chase a moving object.
    """

    oid: ObjectId
    location: NodeId
    speed_den: int = 1
    holder_txn: Optional[TxnId] = None
    in_transit: bool = False
    dest: Optional[NodeId] = None
    arrive_time: Optional[Time] = None
    #: scheduled future *writers*, kept sorted by (exec_time, tid); the
    #: master object travels along this queue
    queue: List["QueueEntry"] = field(default_factory=list)
    #: scheduled readers awaiting a copy, sorted by (exec_time, tid)
    read_waiters: List["QueueEntry"] = field(default_factory=list)
    #: readers whose copy has been dispatched (in flight or delivered)
    reads_served: Set[TxnId] = field(default_factory=set)
    #: readers whose copy has arrived at their home node
    reads_delivered: Set[TxnId] = field(default_factory=set)
    #: per-reader serve epoch: bumped when an in-flight/delivered copy is
    #: invalidated by a newly scheduled earlier writer; stale arrivals are
    #: dropped by comparing epochs
    read_epoch: Dict[TxnId, int] = field(default_factory=dict)
    #: number of committed writers (the current version of the data)
    version: int = 0
    #: dense intern index assigned by the engine at registration; the
    #: live-set index's per-object accessor columns are keyed by it
    index: int = -1

    def travel_time(self, dist) -> Time:
        """Time steps needed to cover metric distance ``dist``."""
        return self.speed_den * dist

    # ------------------------------------------------------------------
    # transit state transitions (driven by the engine + transport layer)
    # ------------------------------------------------------------------
    def begin_leg(self, dst: NodeId, arrive_time: Time) -> None:
        """Enter transit toward ``dst``, arriving at ``arrive_time``."""
        self.in_transit = True
        self.dest = dst
        self.arrive_time = arrive_time

    def complete_leg(self) -> NodeId:
        """Settle at the current leg's destination; returns the new location."""
        assert self.in_transit and self.dest is not None
        self.location = self.dest
        self.in_transit = False
        self.dest = None
        self.arrive_time = None
        return self.location

    def time_to_reach(self, graph: Graph, node: NodeId, now: Time) -> Time:
        """Upper bound on when this object could be at ``node``.

        At rest: travel time from its location.  In transit: finish the
        current leg, then travel from the leg's destination — the
        artificial-node model of Section III-B(a).
        """
        if self.in_transit:
            assert self.dest is not None and self.arrive_time is not None
            return (self.arrive_time - now) + self.travel_time(graph.distance(self.dest, node))
        return self.travel_time(graph.distance(self.location, node))

    # ------------------------------------------------------------------
    # requester queue maintenance
    # ------------------------------------------------------------------
    def enqueue(self, tid: TxnId, exec_time: Time) -> None:
        """Insert a scheduled requester, keeping (exec_time, tid) order."""
        entry = QueueEntry(exec_time, tid)
        lo, hi = 0, len(self.queue)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.queue[mid].key() < entry.key():
                lo = mid + 1
            else:
                hi = mid
        self.queue.insert(lo, entry)

    def pop_head(self, tid: TxnId) -> None:
        """Remove the head entry, asserting it belongs to ``tid``."""
        if not self.queue or self.queue[0].tid != tid:
            head = self.queue[0].tid if self.queue else None
            raise SchedulingError(
                f"object {self.oid}: transaction {tid} acquired out of order (queue head {head})"
            )
        self.queue.pop(0)

    def remove_writer(self, tid: TxnId) -> None:
        """Drop a scheduled writer from the queue, wherever it sits.

        Recovery (:mod:`repro.faults`) un-commits a transaction that
        missed its execution time before re-inserting it with a new time;
        unlike :meth:`pop_head` this does not require ``tid`` to be the
        queue head and tolerates the entry being absent.
        """
        self.queue = [e for e in self.queue if e.tid != tid]

    def next_requester(self) -> Optional["QueueEntry"]:
        """The next scheduled writer, if any."""
        return self.queue[0] if self.queue else None

    # ------------------------------------------------------------------
    # read-waiter maintenance (read/write extension)
    # ------------------------------------------------------------------
    def enqueue_reader(self, tid: TxnId, exec_time: Time) -> None:
        """Register a scheduled reader awaiting a copy."""
        entry = QueueEntry(exec_time, tid)
        lo, hi = 0, len(self.read_waiters)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.read_waiters[mid].key() < entry.key():
                lo = mid + 1
            else:
                hi = mid
        self.read_waiters.insert(lo, entry)

    def reader_serviceable(self, entry: "QueueEntry") -> bool:
        """A reader may be served once every preceding writer committed —
        i.e. no scheduled writer with a smaller (exec_time, tid) key
        remains in the master queue."""
        return not self.queue or self.queue[0].key() > entry.key()

    def finish_read(self, tid: TxnId) -> None:
        """Clear bookkeeping when a reader commits."""
        self.read_waiters = [e for e in self.read_waiters if e.tid != tid]
        self.reads_served.discard(tid)
        self.reads_delivered.discard(tid)
        self.read_epoch.pop(tid, None)

    def invalidate_reads_after(self, writer_entry: "QueueEntry") -> None:
        """A freshly scheduled writer invalidates copies of readers that
        execute after it: those readers must re-receive the writer's
        version.  Feasible by construction — the writer's color respected
        every live reader (write-read conflict edge), so the commit-time
        re-dispatch still arrives before the reader executes."""
        for entry in self.read_waiters:
            if entry.key() > writer_entry.key() and entry.tid in self.reads_served:
                self.reads_served.discard(entry.tid)
                self.reads_delivered.discard(entry.tid)
                self.read_epoch[entry.tid] = self.read_epoch.get(entry.tid, 0) + 1


@slotted_dataclass(frozen=True)
class QueueEntry:
    """One scheduled requester of an object."""

    exec_time: Time
    tid: TxnId

    def key(self):
        """Sort key: (execution time, transaction id)."""
        return (self.exec_time, self.tid)
