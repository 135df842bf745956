"""Algorithm 3: the distributed bucket schedule (paper Section V).

The centralized bucket scheduler assumes a clairvoyant authority.  Here
every step of the protocol pays real message latency on the communication
graph:

1. **Discovery** — a new transaction probes the current position of each
   of its objects.  Probes travel at full speed; objects move at *half*
   speed (the engine must run with ``object_speed_den = 2``), so a probe
   chasing a moving object converges (Section V's 2x rule).  Probes follow
   forwarding pointers: a probe landing where the object used to be is
   forwarded toward the object's current position/destination, one paid
   hop at a time.
2. **Conflict collection** — the probed object answers with the
   conflicting transactions known at its node (the paper's object-carried
   metadata), and with its own position.
3. **Cluster choice & report** — the transaction computes ``y`` (furthest
   object or conflicting transaction) and reports to the leader of its
   home cluster at the lowest layer whose pad covers the
   ``y``-neighborhood (Algorithm 3 lines 4-6).
4. **Partial buckets** — the leader inserts the transaction into its
   partial ``i``-bucket.  All partial ``i``-buckets activate at the global
   times divisible by ``2**i``.  Leaders activating at the same step are
   processed in lexicographic ``(height, leader)`` order — justified by
   Corollary 1 (no conflicts between partial i-buckets within a sub-layer)
   and the height-ordered accounting of Lemma 8.
5. **Notification** — schedules computed by a leader only take effect
   after they can reach the transaction and its objects: every planned
   execution offset is floored by twice the leader's cluster eccentricity.

Modeling notes (see DESIGN.md "Substitutions"): object metadata reads are
taken from ground truth *at the probed node and time* rather than
replicated state machines, and leaders plan against the true object
positions at activation (their cluster, by construction, contains every
conflicting transaction that reported at the same sub-layer).  All
latencies — probing, chasing, reporting, notification — are paid for
real and show up in experiment E8's centralized-vs-distributed overhead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro._types import NodeId, ObjectId, Time, TxnId
from repro.core.base import OnlineScheduler
from repro.cover.sparse_cover import Cluster, SparseCover, build_sparse_cover
from repro.errors import SchedulingError
from repro.offline.base import BatchScheduler, SimStateView
from repro.sim.messages import Message
from repro.sim.transactions import Transaction


class _Discovery:
    """In-flight discovery session of one transaction."""

    __slots__ = ("txn", "awaiting", "object_bounds", "conflict_homes", "hops")

    def __init__(self, txn: Transaction) -> None:
        self.txn = txn
        self.awaiting: Set[ObjectId] = set(txn.all_objects)
        self.object_bounds: Dict[ObjectId, Time] = {}
        self.conflict_homes: Set[NodeId] = set()
        self.hops = 0


class DistributedBucketScheduler(OnlineScheduler):
    """Distributed bucket scheduler (Algorithm 3).

    Parameters
    ----------
    batch:
        Offline batch scheduler ``A`` used by every leader.
    seed:
        Seed for the sparse-cover construction.
    cover:
        Pre-built :class:`SparseCover` (built from the graph otherwise).
    max_level:
        Bucket level cap; defaults to Lemma 3's ``ceil(log2(n*D)) + 1``
        (with the half-speed factor folded in).
    max_chase_hops:
        Safety valve on probe chases (the 2x speed rule bounds real
        chases; this guards against scheduler bugs).
    discovery:
        ``"probe"`` (default) sends the initial probe to the object's
        last-known position read from ground truth — the documented
        idealization.  ``"arrow"`` routes the initial find along an
        Arrow spanning-tree directory maintained purely by object-motion
        events: no ground-truth reads, tree-path latencies and pointer
        maintenance messages all paid (bench E18).
    """

    def __init__(
        self,
        batch: BatchScheduler,
        seed: Optional[int] = None,
        *,
        cover: Optional[SparseCover] = None,
        max_level: Optional[int] = None,
        max_chase_hops: int = 64,
        discovery: str = "probe",
    ) -> None:
        super().__init__()
        if discovery not in ("probe", "arrow"):
            raise SchedulingError(f"unknown discovery mode {discovery!r}")
        self.batch = batch
        self.seed = seed
        self.cover = cover
        self._max_level_override = max_level
        self.max_chase_hops = max_chase_hops
        self.discovery_mode = discovery
        self.directory = None
        self.max_level: int = 0
        #: (cluster, level) -> pending transactions
        self.partial: Dict[Tuple[Cluster, int], List[Transaction]] = {}
        self._discovery: Dict[TxnId, _Discovery] = {}
        self._ecc_cache: Dict[Cluster, Time] = {}
        #: analysis hooks
        self.message_counts: Dict[str, int] = {"probe": 0, "probe-resp": 0, "report": 0}
        self.insert_log: List[Tuple[TxnId, int, Tuple[int, int], Time]] = []
        self.activation_log: List[Tuple[int, Time, int]] = []
        #: (tid, cluster, report_time) — which home cluster each
        #: transaction reported to (Lemma 5/6 empirical checks)
        self.report_log: List[Tuple[TxnId, Cluster, Time]] = []

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        if sim.object_speed_den < 2:
            raise SchedulingError(
                "DistributedBucketScheduler requires object_speed_den >= 2 "
                "(the half-speed rule of Section V); construct the Simulator "
                "with object_speed_den=2"
            )
        if self.cover is None:
            self.cover = build_sparse_cover(sim.graph, seed=self.seed)
        if self.discovery_mode == "arrow":
            from repro.directory.arrow import ArrowDirectory

            self.directory = ArrowDirectory(sim.graph)
            for oid, obj in sim.objects.items():
                self.directory.register(oid, obj.location)

            def observe(event, obj, t):
                if event == "register":
                    self.directory.register(obj.oid, obj.location)
                elif event == "arrive":
                    self.directory.move(obj.oid, obj.location)

            sim.add_object_observer(observe)
        n = sim.graph.num_nodes
        d = max(1, sim.graph.diameter())
        lemma3 = math.ceil(math.log2(max(2, n * d * sim.object_speed_den))) + 1
        self.max_level = self._max_level_override if self._max_level_override is not None else lemma3

    # ------------------------------------------------------------------
    # step handling
    # ------------------------------------------------------------------
    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        assert self.sim is not None
        for txn in new_txns:
            self._start_discovery(txn, t)
        self._activate_due(t)

    def _due_levels(self, t: Time) -> List[int]:
        return [i for i in range(self.max_level + 1) if t % (1 << i) == 0]

    def _activate_due(self, t: Time) -> None:
        if not self.partial:
            return
        due = set(self._due_levels(t))
        if not due:
            return
        ready = [
            (level, cluster)
            for (cluster, level), txns in self.partial.items()
            if txns and level in due
        ]
        # Lowest level first; within a level, by (height, leader).
        ready.sort(key=lambda lc: (lc[0], lc[1].height, lc[1].leader, lc[1].index))
        for level, cluster in ready:
            self._activate(cluster, level, t)

    def _activate(self, cluster: Cluster, level: int, t: Time) -> None:
        bucket = self.partial.pop((cluster, level), [])
        live = [x for x in bucket if x.exec_time is None]
        if not live:
            return
        view = SimStateView(self.sim, t)
        floor = self._notify_floor(cluster)
        plan = self.batch.plan(view, live, floor=floor)
        for txn in live:
            self.sim.commit_schedule(txn, t + plan[txn.tid])
        self.activation_log.append((level, t, len(live)))
        self.emit("activate", t, level=level, size=len(live), leader=cluster.leader)

    def _notify_floor(self, cluster: Cluster) -> Time:
        """Schedule-dissemination delay: leader -> furthest member and back."""
        ecc = self._ecc_cache.get(cluster)
        if ecc is None:
            d = self.sim.graph.distances_from(cluster.leader)
            ecc = max((d[v] for v in cluster.nodes), default=0)
            self._ecc_cache[cluster] = ecc
        return 2 * ecc + 1

    # ------------------------------------------------------------------
    # discovery protocol
    # ------------------------------------------------------------------
    def _start_discovery(self, txn: Transaction, t: Time) -> None:
        disc = _Discovery(txn)
        self._discovery[txn.tid] = disc
        if not txn.all_objects:
            self._report(disc, t)
            return
        for oid in txn.all_objects:
            if self.directory is not None:
                # Honest discovery: route the find along the directory's
                # pointer path, one paid tree hop at a time.
                route = self.directory.find(oid, txn.home)
                if len(route) <= 1:
                    # pointers converge here; inspect locally
                    self._send_probe(t, txn.home, txn.home, txn.tid, oid, hops=0)
                else:
                    self._send_hop(t, txn.tid, oid, tuple(route), index=0)
                continue
            obj = self.sim.objects[oid]
            target = obj.dest if obj.in_transit else obj.location
            self._send_probe(t, txn.home, target, txn.tid, oid, hops=0)

    def _send_hop(self, t: Time, tid: TxnId, oid: ObjectId, route, index: int) -> None:
        """Forward a directory find one tree hop."""
        self.message_counts["probe"] += 1
        self.emit("probe-msg", t, kind="probe-hop")
        self.sim.router.send(
            t,
            route[index],
            route[index + 1],
            "probe-hop",
            {"tid": tid, "oid": oid, "route": route, "index": index + 1},
            self._on_probe_hop,
        )

    def _on_probe_hop(self, now: Time, msg) -> None:
        payload = msg.payload
        route, index = payload["route"], payload["index"]
        if index + 1 < len(route):
            self._send_hop(now, payload["tid"], payload["oid"], route, index)
            return
        # Reached the directory home: hand over to the normal probe logic
        # (which chases breadcrumbs if the object has moved on).
        self._send_probe(now, route[index], route[index], payload["tid"], payload["oid"], hops=0)

    def _send_probe(self, t: Time, src: NodeId, dst: NodeId, tid: TxnId, oid: ObjectId, hops: int) -> None:
        self.message_counts["probe"] += 1
        self.emit("probe-msg", t, kind="probe")
        self.sim.router.send(
            t, src, dst, "probe", {"tid": tid, "oid": oid, "hops": hops}, self._on_probe
        )

    def _on_probe(self, now: Time, msg: Message) -> None:
        payload = msg.payload
        oid, tid, hops = payload["oid"], payload["tid"], payload["hops"]
        obj = self.sim.objects[oid]
        here = msg.dst
        at_rest_here = (not obj.in_transit) and obj.location == here
        if not at_rest_here:
            # Forwarding pointer: chase the object's current whereabouts.
            if hops >= self.max_chase_hops:
                raise SchedulingError(f"probe for object {oid} exceeded chase budget")
            target = obj.dest if obj.in_transit else obj.location
            if target == here:
                # Object is in transit *to* this node: wait for its arrival
                # (one self-message delayed until then), then re-check.
                wait = max(0, (obj.arrive_time or now) - now)
                self.message_counts["probe"] += 1
                self.emit("probe-msg", now, kind="probe-wait")
                self.sim.router.send(
                    now, here, here, "probe",
                    {"tid": tid, "oid": oid, "hops": hops + 1},
                    self._on_probe, extra_delay=wait,
                )
                return
            self._send_probe(now, here, target, tid, oid, hops + 1)
            return
        # Object found: answer with position and conflict metadata (the
        # object-carried information of Section V).
        disc = self._discovery.get(tid)
        if disc is None:
            return  # transaction already reported (duplicate probe)
        txn = disc.txn
        conflicts = tuple(
            other.home
            for other in (*self.sim.live_requesters(oid), *self.sim.live_readers(oid))
            if other.tid != tid
        )
        self.message_counts["probe-resp"] += 1
        self.emit("probe-msg", now, kind="probe-resp")
        self.sim.router.send(
            now,
            here,
            txn.home,
            "probe-resp",
            {"tid": tid, "oid": oid, "pos": here, "conflicts": conflicts, "hops": hops},
            self._on_probe_resp,
        )

    def _on_probe_resp(self, now: Time, msg: Message) -> None:
        payload = msg.payload
        tid, oid = payload["tid"], payload["oid"]
        disc = self._discovery.get(tid)
        if disc is None or oid not in disc.awaiting:
            return
        disc.awaiting.discard(oid)
        disc.hops = max(disc.hops, payload["hops"])
        dist = self.sim.graph.distance(payload["pos"], disc.txn.home)
        disc.object_bounds[oid] = dist
        disc.conflict_homes.update(payload["conflicts"])
        if not disc.awaiting:
            self._report(disc, now)

    def _report(self, disc: _Discovery, t: Time) -> None:
        """Algorithm 3 lines 4-6: pick the home cluster and report."""
        txn = disc.txn
        x = max(disc.object_bounds.values(), default=0)
        conflict_dist = max(
            (self.sim.graph.distance(txn.home, h) for h in disc.conflict_homes), default=0
        )
        y = max(x, conflict_dist)
        layer = self.cover.lowest_layer_covering(txn.home, y)
        cluster = self.cover.home_cluster(txn.home, layer)
        self.report_log.append((txn.tid, cluster, t))
        self.message_counts["report"] += 1
        self.emit("probe-msg", t, kind="report")
        self.sim.router.send(
            t, txn.home, cluster.leader, "report", {"tid": txn.tid, "cluster": cluster}, self._on_report
        )
        del self._discovery[txn.tid]

    def _on_report(self, now: Time, msg: Message) -> None:
        cluster: Cluster = msg.payload["cluster"]
        txn = self.sim.txns[msg.payload["tid"]]
        if txn.exec_time is not None:
            return
        view = SimStateView(self.sim, now)
        # Skip levels that cannot hold the transaction alone (same lower
        # bound as the centralized bucket's fast path).
        solo = self.batch.completion_time(view, [txn])
        start = max(0, math.ceil(math.log2(max(1, solo))))
        for level in range(start, self.max_level + 1):
            bucket = self.partial.get((cluster, level), [])
            candidate = [x for x in bucket if x.exec_time is None] + [txn]
            if self.batch.completion_time(view, candidate) <= (1 << level):
                self.partial.setdefault((cluster, level), []).append(txn)
                self.insert_log.append((txn.tid, level, cluster.height, now))
                self.emit("bucket-insert", now, tid=txn.tid, level=level, height=cluster.height)
                return
        self.partial.setdefault((cluster, self.max_level), []).append(txn)
        self.insert_log.append((txn.tid, self.max_level, cluster.height, now))
        self.emit("bucket-insert", now, tid=txn.tid, level=self.max_level, height=cluster.height)

    # ------------------------------------------------------------------
    def next_wake_after(self, t: Time) -> Optional[Time]:
        wakes = []
        for (cluster, level), txns in self.partial.items():
            if any(x.exec_time is None for x in txns):
                p = 1 << level
                wakes.append(((t // p) + 1) * p)
        return min(wakes) if wakes else None

    def has_pending(self) -> bool:
        if self._discovery:
            return True
        return any(any(x.exec_time is None for x in txns) for txns in self.partial.values())
