"""Dependency graphs ``H_t`` and extended ``H'_t`` (paper Section III-B(a)).

Nodes of ``H_t`` are the live transactions; edges join conflicting
transactions (shared object) with weight equal to the distance between
their home nodes in ``G``.  The *extended* graph ``H'_t`` adds the current
holders ``Z_t``: for each object, either its latest transaction (at rest)
or — if the object is in transit — a *temporary transaction* at the
artificial in-transit position, which "executes at time t" (color 0).

The scheduler hot path only needs, for one transaction, its constraint list
(:func:`constraints_for`); the full graph object
(:class:`ExtendedDependencyGraph`) exists for analysis: experiment E1
checks measured latencies against the Theorem 1 bound ``2*Gamma' - Delta'``
node by node.

The engine keeps ``H_t`` in one structure, the :class:`DependencyTracker`
it attaches at construction (``sim.deps``).  It is the engine's only
live-set index: the conflict adjacency (edges discovered once per
transaction at generation and dropped at retirement, so
:func:`constraints_for` costs O(degree) instead of re-scanning live
accessor sets), the per-object live writer/reader sets, the scheduled
waiters per object, the unscheduled set, and a within-step constraint
memo.  Holder (``Z_t``) constraints stay query-time — object positions
change every step — but each is a single O(1) oracle distance lookup on
structured topologies.  The original full-scan path is kept as
:func:`_constraints_scan` and the full rebuild as
:func:`build_extended_dependency_graph`; differential tests pin the
tracker to both (see ``tests/test_dependency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro._types import NodeId, ObjectId, Time, TxnId, Weight
from repro.core.coloring import Constraint
from repro.sim.engine import Simulator
from repro.sim.transactions import Transaction


def holder_key(sim: Simulator, oid: ObjectId) -> Tuple[str, int]:
    """Identity of ``Z_t(o)`` — the current transaction holding ``o``.

    In transit -> a per-object temporary transaction (paper's artificial
    node); at rest at the latest acquirer's node -> that transaction;
    otherwise (never acquired, or already forwarded and waiting at its
    next requester's node before that requester committed) -> a
    per-object pseudo-transaction at the object's *position*.

    The per-object keys matter: two objects last acquired by the same
    transaction may rest at different nodes, so their holder constraints
    must not be merged (a real scheduler bug caught by the end-to-end
    property tests).
    """
    obj = sim.objects[oid]
    if obj.in_transit:
        return ("transit", oid)
    if obj.holder_txn is not None and sim.txns[obj.holder_txn].home == obj.location:
        return ("txn", obj.holder_txn)
    return ("free", oid)


def constraints_for(sim: Simulator, txn: Transaction, *, now: Time) -> List[Constraint]:
    """Coloring constraints of ``txn`` in ``H'_t`` against everything
    already colored.

    Colors follow Algorithm 1 line 4: an already-scheduled live transaction
    has color ``exec_time - t`` (its remaining time); a holder that has
    executed — or a temporary in-transit transaction — has color 0.  Edge
    weights are distances in ``G`` (travel-time bounds for holders, which
    also covers the half-speed object mode).

    Answered by the engine's :class:`DependencyTracker` (``sim.deps``) in
    O(degree); :func:`_constraints_scan` is the full-scan reference it is
    tested against.  Both return the same constraint multiset —
    :func:`repro.core.coloring.min_valid_color` sorts internally, so list
    order is immaterial.
    """
    return sim.deps.constraints_for(txn, now=now)


def _constraints_scan(sim: Simulator, txn: Transaction, *, now: Time) -> List[Constraint]:
    """Reference implementation: full scan of live accessor sets."""
    cons: List[Constraint] = []
    seen_txn: Set[TxnId] = set()
    seen_holder: Set[Tuple[str, int]] = set()
    speed = sim.object_speed_den
    # One cached distance row for the whole constraint gathering.
    drow = sim.graph.distances_from(txn.home)

    def add_conflicts(oid: ObjectId, others) -> None:
        for other in others:
            if other.tid == txn.tid or other.tid in seen_txn:
                continue
            seen_txn.add(other.tid)
            if other.exec_time is None:
                continue  # pending txns are colored later (Lemma 1 is sequential)
            color = other.exec_time - now
            # Edge weights are object *travel times*: distance scaled by the
            # object speed (2x under Algorithm 3's half-speed rule).
            weight = speed * drow[other.home]
            cons.append((color, weight))

    # Read/write conflict rule: a write conflicts with every accessor; a
    # read conflicts only with writers (read-read pairs share copies).
    for oid in txn.objects:
        add_conflicts(oid, sim.live_requesters(oid))
        add_conflicts(oid, sim.live_readers(oid))
    for oid in txn.reads:
        add_conflicts(oid, sim.live_requesters(oid))
    for oid in txn.all_objects:
        # The current holder Z_t(o): color 0, weight = travel-time bound.
        key = holder_key(sim, oid)
        if key in seen_holder or key == ("txn", txn.tid):
            continue
        seen_holder.add(key)
        if key[0] == "txn" and key[1] in seen_txn:
            continue  # live holder already constrained above
        if key[0] == "txn" and key[1] in sim.live:
            holder = sim.txns[key[1]]
            if holder.exec_time is not None:
                color = max(0, holder.exec_time - now)
                weight = speed * drow[holder.home]
                cons.append((color, weight))
                seen_txn.add(key[1])
                continue
        cons.append((0, sim.object_time_to_reach(oid, txn.home)))
    return cons


@dataclass
class ExtendedDependencyGraph:
    """A materialised ``H'_t`` snapshot for analysis.

    Node keys: ``("txn", tid)`` for live transactions and executed holders,
    ``("transit", oid)`` / ``("free", oid)`` for temporary and free-object
    holders.  ``weighted_degree`` is the paper's ``Gamma'``; ``degree`` is
    ``Delta'``.
    """

    now: Time
    nodes: Set[Tuple[str, int]] = field(default_factory=set)
    edges: Dict[Tuple[Tuple[str, int], Tuple[str, int]], Weight] = field(default_factory=dict)

    def _add_edge(self, a: Tuple[str, int], b: Tuple[str, int], w: Weight) -> None:
        if a == b:
            return
        key = (a, b) if a <= b else (b, a)
        old = self.edges.get(key)
        # Two transactions sharing several objects still form ONE edge in
        # H'_t; the weight is their distance, identical for every shared
        # object except holder edges where we keep the largest bound.
        if old is None or w > old:
            self.edges[key] = w
        self.nodes.add(a)
        self.nodes.add(b)

    def degree(self, key: Tuple[str, int]) -> int:
        return sum(1 for (a, b) in self.edges if a == key or b == key)

    def weighted_degree(self, key: Tuple[str, int]) -> Weight:
        return sum(w for (a, b), w in self.edges.items() if a == key or b == key)

    def theorem1_bound(self, key: Tuple[str, int]) -> Weight:
        """Latency bound of Theorem 1: ``2*Gamma' - Delta'``."""
        return 2 * self.weighted_degree(key) - self.degree(key)


def build_extended_dependency_graph(sim: Simulator, *, now: Time) -> ExtendedDependencyGraph:
    """Materialise ``H'_t`` from current simulator state."""
    h = ExtendedDependencyGraph(now=now)
    live = list(sim.live.values())
    for txn in live:
        h.nodes.add(("txn", txn.tid))
    # Conflict edges between live transactions: write-write and
    # write-read pairs conflict; read-read pairs do not.
    writers: Dict[ObjectId, List[Transaction]] = {}
    readers: Dict[ObjectId, List[Transaction]] = {}
    for txn in live:
        for oid in txn.objects:
            writers.setdefault(oid, []).append(txn)
        for oid in txn.reads:
            readers.setdefault(oid, []).append(txn)
    speed = sim.object_speed_den
    for oid in set(writers) | set(readers):
        ws = writers.get(oid, [])
        rs = readers.get(oid, [])
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                h._add_edge(
                    ("txn", a.tid), ("txn", b.tid), speed * sim.graph.distance(a.home, b.home)
                )
            for b in rs:
                h._add_edge(
                    ("txn", a.tid), ("txn", b.tid), speed * sim.graph.distance(a.home, b.home)
                )
        # Holder edges to each accessor.
        key = holder_key(sim, oid)
        for a in ws + rs:
            if key == ("txn", a.tid):
                continue
            if key[0] == "txn" and key[1] in sim.live:
                w = speed * sim.graph.distance(sim.txns[key[1]].home, a.home)
            else:
                w = sim.object_time_to_reach(oid, a.home)
            h._add_edge(key, ("txn", a.tid), w)
    return h


class DependencyTracker:
    """The engine's live-set index (``sim.deps``): ``H_t`` plus the
    per-object views the schedulers query.

    One structure, fed by one call per engine lifecycle site
    (:meth:`add_object`, :meth:`on_generate`, :meth:`on_schedule`,
    :meth:`on_unschedule`, :meth:`refresh_home`, :meth:`on_retire`).
    Invariants after every engine phase:

    * ``adj`` — the conflict adjacency of ``H_t``, symmetric, storing
      *raw* home distances (object-speed scaling is applied at query
      time, matching the scan path).  A transaction's neighbourhood is
      static between generation and retirement (object sets never
      change, homes move only on an elastic leave — :meth:`refresh_home`
      — and reschedules only revise execution times), so each edge is
      discovered exactly once.
    * ``writers[i]`` / ``readers[i]`` — the live tids writing / reading
      the object at dense index ``i`` (``obj_ids[i]``).
    * ``sched_writers[i]`` / ``sched_readers[i]`` — the subset of those
      with an execution time, ``tid -> txn``.  These answer
      :class:`repro.offline.base.SimStateView` in O(scheduled waiters).
    * ``unscheduled`` — the live transactions without an execution
      time (O(1) :attr:`has_unscheduled`).

    :meth:`constraints` memoises :meth:`constraints_for` within a step,
    dropping an entry when a same-step (un)scheduling touches one of the
    transaction's conflict neighbours.  Holder (``Z_t``) constraints are
    never cached across steps: object positions change every step, and
    recomputing them is O(# objects of one transaction) with O(1)
    distance lookups on oracle-backed topologies.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: tid -> {conflicting live tid -> unscaled home distance}
        self.adj: Dict[TxnId, Dict[TxnId, Weight]] = {}
        #: dense object index -> object id (the engine interns objects here)
        self.obj_ids: List[ObjectId] = []
        self.writers: List[Set[TxnId]] = []
        self.readers: List[Set[TxnId]] = []
        self.sched_writers: List[Dict[TxnId, Transaction]] = []
        self.sched_readers: List[Dict[TxnId, Transaction]] = []
        self.unscheduled: Dict[TxnId, Transaction] = {}
        #: within-step constraints_for memo: valid only while now == _memo_t
        self._memo: Dict[TxnId, List[Constraint]] = {}
        self._memo_t: Time = -1
        #: memo entries invalidated by a same-step scheduling change
        self._stale: Set[TxnId] = set()

    # -- engine lifecycle hooks ---------------------------------------
    def add_object(self, oid: ObjectId) -> int:
        """Intern ``oid``; returns its dense column index."""
        self.obj_ids.append(oid)
        self.writers.append(set())
        self.readers.append(set())
        self.sched_writers.append({})
        self.sched_readers.append({})
        return len(self.obj_ids) - 1

    def on_generate(self, txn: Transaction) -> None:
        """``txn`` entered the live set: discover its conflict edges."""
        sim = self.sim
        g = sim.graph
        txns = sim.txns
        home = txn.home
        objects = sim.objects
        writers = self.writers
        readers = self.readers
        mine: Dict[TxnId, Weight] = {}
        # Write-write and write-read pairs conflict; read-read pairs share
        # copies and do not (same rule as the scan path).
        for oid in txn.objects:
            idx = objects[oid].index
            for tid in writers[idx]:
                if tid != txn.tid and tid not in mine:
                    mine[tid] = g.distance(home, txns[tid].home)
            for tid in readers[idx]:
                if tid != txn.tid and tid not in mine:
                    mine[tid] = g.distance(home, txns[tid].home)
        for oid in txn.reads:
            for tid in writers[objects[oid].index]:
                if tid != txn.tid and tid not in mine:
                    mine[tid] = g.distance(home, txns[tid].home)
        self.adj[txn.tid] = mine
        adj = self.adj
        for tid, d in mine.items():
            adj[tid][txn.tid] = d
        self.unscheduled[txn.tid] = txn
        for oid in txn.objects:
            writers[objects[oid].index].add(txn.tid)
        for oid in txn.reads:
            readers[objects[oid].index].add(txn.tid)

    def on_schedule(self, txn: Transaction) -> None:
        """``commit_schedule`` fixed ``txn``'s execution time."""
        tid = txn.tid
        del self.unscheduled[tid]
        objects = self.sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index][tid] = txn
        for oid in txn.reads:
            self.sched_readers[objects[oid].index][tid] = txn
        # Pending conflict neighbours gained a constraint.
        self._stale.update(self.adj[tid])

    def on_unschedule(self, txn: Transaction) -> None:
        """Recovery revoked ``txn``'s execution time (fault layer)."""
        tid = txn.tid
        self.unscheduled[tid] = txn
        self._drop_scheduled(txn)
        self._stale.add(tid)
        self._stale.update(self.adj[tid])

    def refresh_home(self, txn: Transaction) -> None:
        """Recompute ``txn``'s edge weights after its home moved.

        Elastic membership is the one event that relocates a live
        transaction's home (an abrupt leave re-homes its transactions to
        the nearest member); the cached adjacency stores home distances,
        so both directions of every incident edge are re-measured."""
        nbrs = self.adj[txn.tid]
        g = self.sim.graph
        txns = self.sim.txns
        home = txn.home
        adj = self.adj
        for tid in nbrs:
            d = g.distance(home, txns[tid].home)
            nbrs[tid] = d
            adj[tid][txn.tid] = d

    def on_retire(self, txn: Transaction) -> None:
        """``txn`` left the live set (commit or deadline expiry): drop it
        and its incident edges from every view."""
        tid = txn.tid
        adj = self.adj
        for other in adj.pop(tid):
            del adj[other][tid]
        self.unscheduled.pop(tid, None)
        self._drop_scheduled(txn)
        objects = self.sim.objects
        for oid in txn.objects:
            self.writers[objects[oid].index].discard(tid)
        for oid in txn.reads:
            self.readers[objects[oid].index].discard(tid)

    def _drop_scheduled(self, txn: Transaction) -> None:
        tid = txn.tid
        objects = self.sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index].pop(tid, None)
        for oid in txn.reads:
            self.sched_readers[objects[oid].index].pop(tid, None)

    # -- queries ------------------------------------------------------
    @property
    def has_unscheduled(self) -> bool:
        return bool(self.unscheduled)

    def scheduled_pairs(
        self, oid: ObjectId, now: Time, *, reads: bool = False
    ) -> List[Tuple[Time, NodeId]]:
        """``(remaining_time, home)`` of the scheduled waiting writers (or
        readers) of ``oid`` — :class:`~repro.offline.base.SimStateView`'s
        query shape."""
        obj = self.sim.objects.get(oid)
        if obj is None:
            return []
        column = self.sched_readers if reads else self.sched_writers
        return [(txn.exec_time - now, txn.home) for txn in column[obj.index].values()]

    def constraints(self, txn: Transaction, *, now: Time) -> List[Constraint]:
        """Memoised :meth:`constraints_for`: at most one recomputation per
        transaction per step unless a same-step scheduling decision
        touched one of its conflict neighbours."""
        if now != self._memo_t:
            self._memo.clear()
            self._stale.clear()
            self._memo_t = now
        tid = txn.tid
        cons = self._memo.get(tid)
        if cons is None or tid in self._stale:
            cons = self.constraints_for(txn, now=now)
            self._memo[tid] = cons
            self._stale.discard(tid)
        return cons

    def constraints_for(self, txn: Transaction, *, now: Time) -> List[Constraint]:
        """O(degree) constraint list; same multiset as the full scan."""
        sim = self.sim
        txns = sim.txns
        g = sim.graph
        speed = sim.object_speed_den
        cons: List[Constraint] = []
        nbrs = self.adj.get(txn.tid) or {}
        for tid, d in nbrs.items():
            other = txns[tid]
            if other.exec_time is None:
                continue  # pending txns are colored later (Lemma 1 is sequential)
            cons.append((other.exec_time - now, speed * d))
        seen_holder: Set[Tuple[str, int]] = set()
        home = txn.home
        for oid in txn.all_objects:
            key = holder_key(sim, oid)
            if key in seen_holder or key == ("txn", txn.tid):
                continue
            seen_holder.add(key)
            if key[0] == "txn" and key[1] in nbrs:
                continue  # live holder already constrained above
            if key[0] == "txn" and key[1] in sim.live:
                holder = txns[key[1]]
                if holder.exec_time is not None:
                    cons.append(
                        (max(0, holder.exec_time - now), speed * g.distance(holder.home, home))
                    )
                    continue
            cons.append((0, sim.object_time_to_reach(oid, home)))
        return cons

    def snapshot(self, *, now: Time) -> ExtendedDependencyGraph:
        """Materialise ``H'_t`` from the maintained adjacency.

        Equal (same nodes, same edge dict) to
        :func:`build_extended_dependency_graph` on the same state — the
        invariant the differential tests pin.
        """
        sim = self.sim
        h = ExtendedDependencyGraph(now=now)
        speed = sim.object_speed_den
        for tid in sim.live:
            h.nodes.add(("txn", tid))
        for tid, nbrs in self.adj.items():
            for other, d in nbrs.items():
                if tid < other:
                    h._add_edge(("txn", tid), ("txn", other), speed * d)
        g = sim.graph
        txns = sim.txns
        obj_ids = self.obj_ids
        writers = self.writers
        readers = self.readers
        touched = {obj_ids[idx] for idx, tids in enumerate(writers) if tids}
        touched.update(obj_ids[idx] for idx, tids in enumerate(readers) if tids)
        for oid in touched:
            key = holder_key(sim, oid)
            idx = sim.objects[oid].index
            accessors = set(writers[idx])
            accessors.update(readers[idx])
            for tid in accessors:
                if key == ("txn", tid):
                    continue
                if key[0] == "txn" and key[1] in sim.live:
                    w = speed * g.distance(txns[key[1]].home, txns[tid].home)
                else:
                    w = sim.object_time_to_reach(oid, txns[tid].home)
                h._add_edge(key, ("txn", tid), w)
        return h
