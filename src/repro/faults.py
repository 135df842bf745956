"""Deterministic, seeded fault injection (``repro.faults``).

The paper's model — and the engine's default mode — assumes a perfectly
reliable synchronous network: objects always arrive, nodes never crash,
and a missed execution time is a hard :class:`InfeasibleScheduleError`.
This module lets a run *violate* those assumptions on purpose, so the
recovery machinery (engine ``RESCHEDULE`` events + the
``OnlineScheduler.on_reschedule`` hook) can be exercised and measured:

* **Node crash-stop/restart** — a :class:`CrashWindow` takes one node
  offline for ``[start, end)``: nothing departs from it, arrivals and
  control-message deliveries addressed to it are suppressed until the
  restart step, generation and execution at the node are deferred.
* **Object-leg drops** — with probability ``drop_prob`` a planned master
  object leg is lost: the object silently stays at its source (the last
  confirmed holder) and nobody learns until a transaction misses its
  execution time; recovery then re-requests the object and reschedules.
* **Bounded delay jitter** — with probability ``delay_prob`` an object
  leg (or a control message) takes up to ``max_delay`` extra steps.
* **Network partitions** — a :class:`PartitionWindow` severs a set of
  edges of ``G`` for ``[start, end)``: object legs whose shortest path
  crosses the cut are rerouted along an intact path (with recomputed,
  longer distances) or blocked until the heal step when the cut
  disconnects source from target; control messages addressed across the
  cut are deferred to heal time.

Every decision is drawn from ``random.Random`` seeded with a *string*
key derived from ``(plan.seed, decision kind, decision coordinates)``.
String seeding hashes via SHA-512, so the same :class:`FaultPlan` yields
byte-identical fault decisions across processes and runs regardless of
``PYTHONHASHSEED`` — the acceptance test for deterministic replay.

A frozen :class:`FaultPlan` travels on ``SimConfig.faults``; the engine
realizes it as a :class:`FaultInjector` (per-run mutable state: lost
objects, reschedule counts) plus a
:class:`~repro.sim.transport.FaultyTransport` decorator around the
configured transport.  ``faults=None`` (the default) leaves every code
path untouched and every golden trace byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._types import NodeId, ObjectId, Time, TxnId
from repro.errors import WorkloadError
from repro.network.graph import normalize_cut


@dataclass(frozen=True)
class CrashWindow:
    """One crash-stop/restart interval: ``node`` is down for
    ``start <= t < end`` and processes its backlog at ``end``."""

    node: NodeId
    start: Time
    end: Time

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise WorkloadError(
                f"crash window [{self.start}, {self.end}) for node {self.node} is empty or negative"
            )

    @property
    def duration(self) -> Time:
        return self.end - self.start


@dataclass(frozen=True)
class PartitionWindow:
    """One network partition: the edges of ``cut`` are severed for
    ``start <= t < end`` and the graph heals at ``end``.

    ``cut`` is stored normalized — each edge as ``(min, max)``, sorted,
    deduplicated — so equal cuts compare and hash equal regardless of
    the spelling they were built from.
    """

    cut: Tuple[Tuple[NodeId, NodeId], ...]
    start: Time
    end: Time

    def __post_init__(self) -> None:
        edges = tuple(sorted(normalize_cut(self.cut)))
        object.__setattr__(self, "cut", edges)
        if not edges:
            raise WorkloadError(
                f"partition window [{self.start}, {self.end}) has an empty cut"
            )
        if self.start < 0 or self.end <= self.start:
            raise WorkloadError(
                f"partition window [{self.start}, {self.end}) is empty or negative"
            )

    @property
    def duration(self) -> Time:
        return self.end - self.start

    @property
    def cut_set(self) -> frozenset:
        """The cut as a normalized frozenset (graph cache key form)."""
        return frozenset(self.cut)


@dataclass(frozen=True)
class JoinEvent:
    """One node joining the graph at runtime.

    ``node`` must be the next unused id at join time (graph nodes stay
    dense); ``edges`` are ``(anchor, weight)`` pairs attaching it to
    existing members.  Multi-anchor joins must satisfy the **no-shortcut
    condition** — ``w_i + w_j >= d(a_i, a_j)`` for every anchor pair — so
    a join never shortens any distance between pre-existing nodes.  That
    invariant is what keeps already-planned legs, bucket levels, and the
    final-graph certification valid across churn; it is checked by
    :meth:`FaultPlan.validate_against`.
    """

    node: NodeId
    time: Time
    edges: Tuple[Tuple[NodeId, Time], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple(sorted((int(a), int(w)) for a, w in self.edges))
        )
        if self.time < 1:
            raise WorkloadError(f"join of node {self.node} must be at t >= 1, got {self.time}")
        if not self.edges:
            raise WorkloadError(f"join of node {self.node} has no anchor edges")
        for a, w in self.edges:
            if w < 1:
                raise WorkloadError(
                    f"join of node {self.node} has non-positive weight {w} to anchor {a}"
                )


@dataclass(frozen=True)
class LeaveEvent:
    """One node leaving the graph at runtime.

    ``graceful`` leaves drain first: the node stops accepting new
    transaction homes, existing work finishes, resting home objects are
    migrated, and only then does the node depart.  Abrupt leaves are a
    permanent crash: live transactions homed there are re-homed to the
    nearest member and resting objects are recovered from the node (their
    last confirmed position) immediately.
    """

    node: NodeId
    time: Time
    graceful: bool = False

    def __post_init__(self) -> None:
        if self.time < 1:
            raise WorkloadError(
                f"leave of node {self.node} must be at t >= 1, got {self.time}"
            )


@dataclass(frozen=True)
class MembershipPlan:
    """Elastic-membership schedule: nodes joining and leaving at runtime.

    Leaves are *data-plane* removals: the :class:`~repro.network.graph.
    Graph` object is not mutated (distances from/through the departed
    node stay defined for recovery legs), but the
    :class:`FaultInjector`'s *routing cut* permanently severs the node's
    incident edges for object motion, and the engine re-homes its work.
    Joins *do* mutate the graph (new node, cache flush, oracle
    invalidation) under the no-shortcut condition (:class:`JoinEvent`).
    """

    joins: Tuple[JoinEvent, ...] = ()
    leaves: Tuple[LeaveEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "joins", tuple(sorted(self.joins, key=lambda j: (j.time, j.node)))
        )
        object.__setattr__(
            self, "leaves", tuple(sorted(self.leaves, key=lambda l: (l.time, l.node)))
        )

    @property
    def active(self) -> bool:
        return bool(self.joins or self.leaves)

    def to_dict(self) -> Dict[str, object]:
        return {
            "joins": [[j.node, j.time, [list(e) for e in j.edges]] for j in self.joins],
            "leaves": [[l.node, l.time, l.graceful] for l in self.leaves],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MembershipPlan":
        return cls(
            joins=tuple(
                JoinEvent(n, t, tuple(tuple(e) for e in edges))
                for n, t, edges in data.get("joins", [])
            ),
            leaves=tuple(
                LeaveEvent(n, t, bool(g)) for n, t, g in data.get("leaves", [])
            ),
        )


def _connected_excluding(num_nodes, neighbors_of, removed) -> bool:
    """Do the nodes ``0..num_nodes-1`` minus ``removed`` form one
    connected component?  ``neighbors_of(u)`` yields u's neighbour ids;
    ids >= ``num_nodes`` (runtime-joined nodes) are ignored."""
    survivors = [v for v in range(num_nodes) if v not in removed]
    if not survivors:
        return False
    seen = {survivors[0]}
    stack = [survivors[0]]
    while stack:
        u = stack.pop()
        for v in neighbors_of(u):
            if v < num_nodes and v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(survivors)


def _survivors_connected(graph, removed) -> bool:
    return _connected_excluding(graph.num_nodes, graph.neighbors, removed)


#: Hard cap on the exponential-backoff shift: the floor grows at most to
#: ``base * 2**BACKOFF_SHIFT_CAP`` (= base * 1024) no matter how many
#: reschedules a pathological run accumulates, so the next attempt can
#: never be pushed astronomically past ``max_time`` by the exponent alone.
BACKOFF_SHIFT_CAP = 10


@dataclass(frozen=True)
class FaultPlan:
    """Frozen description of every fault a run will suffer.

    Attributes
    ----------
    seed:
        Root of all randomness; two runs with equal plans (and equal
        graph/workload) produce byte-identical certified traces.
    drop_prob:
        Per-departure probability that a master object leg is lost.
        Must be < 1 so retransmissions eventually succeed (liveness).
    delay_prob:
        Per-departure (and per-message) probability of extra latency.
    max_delay:
        Upper bound, in steps, of the injected extra latency (>= 1 when
        ``delay_prob`` > 0).
    crashes:
        Crash-stop/restart windows (see :class:`CrashWindow`).
    partitions:
        Network-partition windows (see :class:`PartitionWindow`): sets
        of edges severed for an interval, healed at its end.
    backoff_base / backoff_cap:
        Exponential backoff of recovery reschedules: the ``n``-th
        reschedule of one transaction waits at least
        ``min(cap, base * 2**min(n-1, BACKOFF_SHIFT_CAP))`` steps — the
        shift itself is capped at :data:`BACKOFF_SHIFT_CAP` (2**10) so a
        pathological reschedule count cannot push the floor past any
        realistic ``max_time``.
    max_reschedules:
        Per-transaction reschedule budget; ``None`` (default) means
        recovery never gives up.  When exceeded the engine raises
        :class:`~repro.errors.InfeasibleScheduleError`.
    membership:
        Optional :class:`MembershipPlan` of runtime joins and leaves
        (elastic membership).  ``None`` keeps the node set fixed and
        every pre-membership trace byte-identical.
    """

    seed: int = 0
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: Time = 0
    crashes: Tuple[CrashWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    backoff_base: Time = 1
    backoff_cap: Time = 64
    max_reschedules: Optional[int] = None
    membership: Optional[MembershipPlan] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not 0.0 <= self.drop_prob < 1.0:
            raise WorkloadError(
                f"drop_prob must be in [0, 1) for liveness, got {self.drop_prob}"
            )
        if not 0.0 <= self.delay_prob <= 1.0:
            raise WorkloadError(f"delay_prob must be in [0, 1], got {self.delay_prob}")
        if self.max_delay < 0:
            raise WorkloadError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.delay_prob > 0 and self.max_delay < 1:
            raise WorkloadError("delay_prob > 0 requires max_delay >= 1")
        if self.backoff_base < 1:
            raise WorkloadError(f"backoff_base must be >= 1, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise WorkloadError("backoff_cap must be >= backoff_base")
        if self.max_reschedules is not None and self.max_reschedules < 1:
            raise WorkloadError("max_reschedules must be >= 1 (or None for unlimited)")
        if self.membership is not None and not isinstance(self.membership, MembershipPlan):
            raise WorkloadError(
                "membership must be a MembershipPlan or None, "
                f"got {type(self.membership).__name__}"
            )

    @property
    def active(self) -> bool:
        """True when the plan can actually inject something."""
        return bool(
            self.drop_prob
            or self.delay_prob
            or self.crashes
            or self.partitions
            or (self.membership is not None and self.membership.active)
        )

    def validate_against(self, graph) -> None:
        """Check every node and edge the plan names against ``graph``.

        The engine calls this when it binds the plan, so a typo'd crash
        node or a partition edge that does not exist in ``G`` fails fast
        with an error naming the offending value instead of silently
        never firing.
        """
        n = graph.num_nodes
        for w in self.crashes:
            if not 0 <= w.node < n:
                raise WorkloadError(
                    f"fault plan crash window [{w.start}, {w.end}) names node "
                    f"{w.node}, outside the graph's 0..{n - 1}"
                )
        for p in self.partitions:
            for u, v in p.cut:
                if not (0 <= u < n and 0 <= v < n):
                    raise WorkloadError(
                        f"fault plan partition [{p.start}, {p.end}) cuts edge "
                        f"({u}, {v}) with a node outside the graph's 0..{n - 1}"
                    )
                if not graph.has_edge(u, v):
                    raise WorkloadError(
                        f"fault plan partition [{p.start}, {p.end}) cuts "
                        f"({u}, {v}), which is not an edge of {graph.name!r}"
                    )
        if self.membership is not None and self.membership.active:
            self._validate_membership(graph)

    def _validate_membership(self, graph) -> None:
        """Membership-vs-graph checks: node ranges, dense join ids, anchor
        validity, survivor connectivity after every leave prefix, and the
        no-shortcut condition for multi-anchor joins — each error names
        the offending node so a typo'd plan fails at bind, not mid-run."""
        m = self.membership
        n = graph.num_nodes
        seen: set = set()
        for l in m.leaves:
            if not 0 <= l.node < n:
                raise WorkloadError(
                    f"membership plan leave at t={l.time} names node {l.node}, "
                    f"outside the graph's 0..{n - 1} (joined nodes cannot leave)"
                )
            if l.node in seen:
                raise WorkloadError(
                    f"membership plan has duplicate leave of node {l.node}"
                )
            seen.add(l.node)
        if len(seen) >= n:
            raise WorkloadError(
                f"membership plan removes all {n} nodes of {graph.name!r}; "
                "at least one member must remain"
            )
        leave_time = {l.node: l.time for l in m.leaves}
        for i, j in enumerate(m.joins):
            expect = n + i
            if j.node != expect:
                raise WorkloadError(
                    f"membership plan join #{i} (t={j.time}) must use the next "
                    f"dense node id {expect}, got {j.node}"
                )
            for a, _w in j.edges:
                if not 0 <= a < expect:
                    raise WorkloadError(
                        f"membership plan join of node {j.node} anchors on node "
                        f"{a}, which does not exist at t={j.time} "
                        f"(ids 0..{expect - 1})"
                    )
                at = leave_time.get(a)
                if at is not None and at <= j.time:
                    raise WorkloadError(
                        f"membership plan join of node {j.node} at t={j.time} "
                        f"anchors on node {a}, which left at t={at}"
                    )
        # Survivor connectivity after every leave prefix (time order):
        # object routing avoids departed nodes' edges, so removing a
        # member must never disconnect the remaining original members.
        # (Joined nodes only ever add paths; ignoring them here is
        # conservative.)
        removed: set = set()
        for l in m.leaves:
            removed.add(l.node)
            if not _survivors_connected(graph, removed):
                raise WorkloadError(
                    f"membership plan leave of node {l.node} at t={l.time} "
                    f"disconnects the surviving members of {graph.name!r}"
                )
        # No-shortcut condition: a join must not shorten any distance
        # between pre-existing nodes (single-anchor joins are trivially
        # safe — the new node is a dead end for through-traffic).
        if any(len(j.edges) > 1 for j in m.joins):
            scratch = graph.copy(oracle=False)
            for j in m.joins:
                for i1 in range(len(j.edges)):
                    a1, w1 = j.edges[i1]
                    for i2 in range(i1 + 1, len(j.edges)):
                        a2, w2 = j.edges[i2]
                        d = scratch.distance(a1, a2)
                        if w1 + w2 < d:
                            raise WorkloadError(
                                f"membership plan join of node {j.node} violates "
                                f"the no-shortcut condition: anchors {a1} and "
                                f"{a2} with weights {w1}+{w2} < "
                                f"d({a1},{a2})={d} would shorten existing paths"
                            )
                scratch.add_node(j.edges)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        num_nodes: int,
        horizon: Time,
        drop_prob: float = 0.0,
        delay_prob: float = 0.0,
        max_delay: Time = 0,
        crash_count: int = 0,
        crash_len: Time = 8,
        partition_count: int = 0,
        partition_len: Time = 8,
        join_count: int = 0,
        leave_count: int = 0,
        edges=None,
        **kwargs,
    ) -> "FaultPlan":
        """A plan whose crash and partition windows are drawn from the seed.

        ``crash_count`` windows of ``crash_len`` steps each are placed on
        uniformly random nodes at uniformly random starts in
        ``[1, horizon]``.  ``partition_count`` windows of
        ``partition_len`` steps each cut either one uniformly random edge
        or (every other draw, roughly) every edge incident to one random
        node — the cut that actually splits ``G``.  Partition windows
        always heal by ``horizon + partition_len``.  Drawing partitions
        requires ``edges`` (the graph's ``(u, v)`` pairs, e.g.
        ``[(u, v) for u, v, _ in graph.edges()]``) because a cut must
        name real edges.  Placement uses the same string-keyed RNG as
        runtime decisions, so the whole plan is one function of ``seed``.

        ``join_count`` / ``leave_count`` draw elastic-membership churn: each
        join attaches a new node to one uniformly random anchor with a
        weight-1 edge (single-anchor joins satisfy the no-shortcut
        condition trivially); leaves pick random members, coin-flip
        graceful vs. abrupt, and re-draw any choice whose removal would
        disconnect the surviving members (requires ``edges``).  When no
        safe leave remains the plan carries fewer leaves than asked —
        liveness beats quota.
        """
        if crash_count < 0 or crash_len < 1:
            raise WorkloadError("crash_count must be >= 0 and crash_len >= 1")
        if partition_count < 0 or partition_len < 1:
            raise WorkloadError("partition_count must be >= 0 and partition_len >= 1")
        if join_count < 0 or leave_count < 0:
            raise WorkloadError("join_count and leave_count must be >= 0")
        if num_nodes < 1 or horizon < 1:
            raise WorkloadError("num_nodes and horizon must be >= 1")
        rng = random.Random(f"{seed}|crash-windows")
        windows = []
        for _ in range(crash_count):
            node = rng.randrange(num_nodes)
            start = rng.randint(1, horizon)
            windows.append(CrashWindow(node, start, start + crash_len))
        cuts: List[PartitionWindow] = []
        if partition_count:
            if not edges:
                raise WorkloadError(
                    "partition_count > 0 requires edges= (the graph's (u, v) "
                    "pairs) so the drawn cuts name real edges"
                )
            edge_list = sorted(normalize_cut(edges))
            prng = random.Random(f"{seed}|partition-windows")
            for _ in range(partition_count):
                start = prng.randint(1, horizon)
                if prng.random() < 0.5 and num_nodes > 1:
                    # Isolate one node: cut every edge incident to it.
                    node = prng.randrange(num_nodes)
                    cut = tuple(e for e in edge_list if node in e)
                    if not cut:  # isolated node has no edges; fall back
                        cut = (edge_list[prng.randrange(len(edge_list))],)
                else:
                    cut = (edge_list[prng.randrange(len(edge_list))],)
                cuts.append(PartitionWindow(cut, start, start + partition_len))
        membership = None
        if join_count or leave_count:
            mrng = random.Random(f"{seed}|membership")
            leaves: List[LeaveEvent] = []
            if leave_count:
                if not edges:
                    raise WorkloadError(
                        "leave_count > 0 requires edges= (the graph's (u, v) "
                        "pairs) so drawn leaves keep the survivors connected"
                    )
                adj: Dict[NodeId, List[NodeId]] = {}
                for u, v in normalize_cut(edges):
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
                removed: set = set()
                times = sorted(mrng.randint(1, horizon) for _ in range(leave_count))
                for t in times:
                    candidates = [v for v in range(num_nodes) if v not in removed]
                    mrng.shuffle(candidates)
                    chosen = None
                    for v in candidates:
                        trial = removed | {v}
                        if len(trial) < num_nodes and _connected_excluding(
                            num_nodes, lambda u: adj.get(u, ()), trial
                        ):
                            chosen = v
                            break
                    if chosen is None:
                        break  # no safe leave remains; carry fewer leaves
                    removed.add(chosen)
                    leaves.append(
                        LeaveEvent(chosen, t, graceful=mrng.random() < 0.5)
                    )
            leave_time = {l.node: l.time for l in leaves}
            joins: List[JoinEvent] = []
            # Times first, sorted: join ids must be dense in time order.
            jtimes = sorted(mrng.randint(1, horizon) for _ in range(join_count))
            for i, t in enumerate(jtimes):
                present = [
                    v for v in range(num_nodes)
                    if leave_time.get(v, horizon + t + 1) > t
                ]
                anchor = present[mrng.randrange(len(present))]
                joins.append(JoinEvent(num_nodes + i, t, ((anchor, 1),)))
            membership = MembershipPlan(joins=tuple(joins), leaves=tuple(leaves))
        return cls(
            seed=seed,
            drop_prob=drop_prob,
            delay_prob=delay_prob,
            max_delay=max_delay,
            crashes=tuple(windows),
            partitions=tuple(cuts),
            membership=membership,
            **kwargs,
        )

    @classmethod
    def parse(cls, spec: str, *, num_nodes: int, horizon: Time, edges=None) -> "FaultPlan":
        """Parse the CLI spelling
        ``seed=S,drop=P,delay=P,max-delay=N,crash=K,crash-len=L,partition=K,partition-len=L``.

        ``crash=K`` / ``partition=K`` draw K random crash / partition
        windows; ``join=K`` / ``leave=K`` draw K membership joins /
        leaves (see :meth:`random`; ``partition`` and ``leave`` require
        ``edges``).
        Unknown keys and *duplicate* keys raise
        :class:`~repro.errors.WorkloadError` naming the offending key —
        a silently ignored or last-write-wins entry would make a typo'd
        fault spec run a different experiment than the one asked for.
        """
        known = {
            "seed": 0, "drop": 0.0, "delay": 0.0, "max-delay": 0,
            "crash": 0, "crash-len": 8, "partition": 0, "partition-len": 8,
            "join": 0, "leave": 0, "backoff-cap": 64,
        }
        values = dict(known)
        seen = set()
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, raw = part.partition("=")
            if not sep or key not in known:
                raise WorkloadError(
                    f"bad --faults entry {part!r} (known keys: {sorted(known)})"
                )
            if key in seen:
                raise WorkloadError(f"duplicate --faults key {key!r}")
            seen.add(key)
            try:
                values[key] = float(raw) if key in ("drop", "delay") else int(raw)
            except ValueError:
                raise WorkloadError(f"bad --faults value for {key!r}: {raw!r}") from None
        if values["delay"] > 0 and values["max-delay"] == 0:
            values["max-delay"] = 3  # a sensible default jitter bound
        return cls.random(
            int(values["seed"]),
            num_nodes=num_nodes,
            horizon=max(1, horizon),
            drop_prob=values["drop"],
            delay_prob=values["delay"],
            max_delay=int(values["max-delay"]),
            crash_count=int(values["crash"]),
            crash_len=int(values["crash-len"]),
            partition_count=int(values["partition"]),
            partition_len=int(values["partition-len"]),
            join_count=int(values["join"]),
            leave_count=int(values["leave"]),
            edges=edges,
            backoff_cap=int(values["backoff-cap"]),
        )

    # ------------------------------------------------------------------
    # serialization (chaos artifacts; repro.chaos.artifact)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation; inverse of :meth:`from_dict`.

        The ``membership`` key is only present when the plan has churn,
        so pre-membership artifacts stay byte-identical."""
        data = {
            "seed": self.seed,
            "drop_prob": self.drop_prob,
            "delay_prob": self.delay_prob,
            "max_delay": self.max_delay,
            "crashes": [[w.node, w.start, w.end] for w in self.crashes],
            "partitions": [
                [[list(e) for e in p.cut], p.start, p.end] for p in self.partitions
            ],
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "max_reschedules": self.max_reschedules,
        }
        if self.membership is not None and self.membership.active:
            data["membership"] = self.membership.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict`."""
        return cls(
            seed=data.get("seed", 0),
            drop_prob=data.get("drop_prob", 0.0),
            delay_prob=data.get("delay_prob", 0.0),
            max_delay=data.get("max_delay", 0),
            crashes=tuple(
                CrashWindow(n, s, e) for n, s, e in data.get("crashes", [])
            ),
            partitions=tuple(
                PartitionWindow(tuple(tuple(e) for e in cut), s, e)
                for cut, s, e in data.get("partitions", [])
            ),
            backoff_base=data.get("backoff_base", 1),
            backoff_cap=data.get("backoff_cap", 64),
            max_reschedules=data.get("max_reschedules"),
            membership=(
                MembershipPlan.from_dict(data["membership"])
                if "membership" in data
                else None
            ),
        )


class FaultInjector:
    """Per-run realization of a :class:`FaultPlan`.

    Holds the mutable recovery state (lost objects, per-transaction
    reschedule counts) and answers the engine's and transport's fault
    queries.  All probabilistic answers are pure functions of
    ``(plan.seed, decision kind, decision coordinates)`` — see module
    docstring — so replaying the same run re-draws the same faults.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._windows: Dict[NodeId, List[CrashWindow]] = {}
        for w in plan.crashes:
            self._windows.setdefault(w.node, []).append(w)
        for windows in self._windows.values():
            windows.sort(key=lambda w: (w.start, w.end))
        self._partitions: Tuple[PartitionWindow, ...] = tuple(
            sorted(plan.partitions, key=lambda p: (p.start, p.end, p.cut))
        )
        #: memo of the last ``active_cut`` query — the same step asks
        #: several times (departures, message deliveries)
        self._cut_at: Optional[Time] = None
        self._cut_memo: frozenset = frozenset()
        #: oid -> node where the object actually remained when its leg
        #: was dropped (the last confirmed holder)
        self.lost: Dict[ObjectId, NodeId] = {}
        #: per-transaction reschedule counts (drives exponential backoff)
        self.reschedule_counts: Dict[TxnId, int] = {}
        #: node -> leave step for members that departed permanently
        #: (elastic membership; filled by the engine via mark_departed)
        self.departed: Dict[NodeId, Time] = {}
        #: permanent routing cut: every departed member's incident edges
        self._member_cut: frozenset = frozenset()

    # ------------------------------------------------------------------
    # seeded decisions
    # ------------------------------------------------------------------
    def _coin(self, *key: object) -> float:
        parts = "|".join(str(k) for k in (self.plan.seed,) + key)
        return random.Random(parts).random()

    def should_drop(self, oid: ObjectId, t: Time) -> bool:
        """Lose the master leg of ``oid`` departing at ``t``?"""
        p = self.plan.drop_prob
        return bool(p) and self._coin("drop", oid, t) < p

    def leg_delay(self, oid: ObjectId, t: Time) -> Time:
        """Extra steps injected into the leg of ``oid`` departing at ``t``."""
        return self._jitter("leg", oid, t)

    def message_delay(self, src: NodeId, dst: NodeId, kind: str, t: Time) -> Time:
        """Extra latency for a control message sent at ``t``."""
        return self._jitter("msg", src, dst, kind, t)

    def _jitter(self, *key: object) -> Time:
        p = self.plan.delay_prob
        if not p or self._coin("delay?", *key) >= p:
            return 0
        span = self.plan.max_delay
        return 1 + int(self._coin("delay", *key) * span) if span > 1 else 1

    # ------------------------------------------------------------------
    # crash windows
    # ------------------------------------------------------------------
    def node_down(self, node: NodeId, t: Time) -> bool:
        """Is ``node`` crashed at step ``t``?"""
        return self.restart_time(node, t) is not None

    def restart_time(self, node: NodeId, t: Time) -> Optional[Time]:
        """First step >= ``t`` at which ``node`` is up again, or ``None``
        if it is not down at ``t``.  Overlapping/adjacent windows chain."""
        windows = self._windows.get(node)
        if not windows:
            return None
        up: Time = t
        moved = True
        while moved:
            moved = False
            for w in windows:
                if w.start <= up < w.end:
                    up = w.end
                    moved = True
        return up if up != t else None

    # ------------------------------------------------------------------
    # partition windows
    # ------------------------------------------------------------------
    def active_cut(self, t: Time) -> frozenset:
        """Union of all cuts active at step ``t`` (normalized edge set;
        empty when no partition window covers ``t``)."""
        if t == self._cut_at:
            return self._cut_memo
        cut: set = set()
        for p in self._partitions:
            if p.start <= t < p.end:
                cut.update(p.cut)
        out = frozenset(cut)
        self._cut_at, self._cut_memo = t, out
        return out

    def heal_time(self, t: Time) -> Optional[Time]:
        """Earliest step > ``t`` at which the active cut *shrinks* — the
        nearest ``end`` among windows covering ``t`` — or ``None`` when
        no partition is active.  Blocked work retries there and
        re-checks: the remaining cut may still separate it."""
        ends = [p.end for p in self._partitions if p.start <= t < p.end]
        return min(ends) if ends else None

    # ------------------------------------------------------------------
    # elastic membership (engine-driven; see repro.faults.MembershipPlan)
    # ------------------------------------------------------------------
    def mark_departed(self, node: NodeId, edges, t: Time) -> None:
        """Record that ``node`` left at ``t``: its incident ``edges`` join
        the permanent routing cut applied to object legs.  Control
        messages are untouched — the message layer is membership-blind by
        design, so every scheduler protocol stays live across churn."""
        self.departed[node] = t
        self._member_cut = self._member_cut | normalize_cut(edges)

    def routing_cut(self, t: Time) -> frozenset:
        """Edges an object leg must avoid at ``t``: the partition cut
        active at ``t`` plus every departed member's incident edges."""
        member = self._member_cut
        if not member:
            return self.active_cut(t)
        return self.active_cut(t) | member

    def partition_separates(self, graph, src: NodeId, dst: NodeId, t: Time) -> bool:
        """Does the cut active at ``t`` disconnect ``src`` from ``dst``?"""
        if src == dst:
            return False
        cut = self.active_cut(t)
        if not cut:
            return False
        return graph.distance_avoiding(src, dst, cut) == float("inf")

    # ------------------------------------------------------------------
    # recovery bookkeeping
    # ------------------------------------------------------------------
    def mark_lost(self, oid: ObjectId, node: NodeId) -> None:
        self.lost[oid] = node

    def clear_lost(self, oid: ObjectId) -> None:
        self.lost.pop(oid, None)

    def recover_lost(self, oid: ObjectId) -> Optional[NodeId]:
        """Pop and return the last confirmed holder of a lost object."""
        return self.lost.pop(oid, None)

    def bump_reschedules(self, tid: TxnId) -> int:
        """Count one more reschedule of ``tid``; returns the new count."""
        n = self.reschedule_counts.get(tid, 0) + 1
        self.reschedule_counts[tid] = n
        return n

    def backoff_for(self, n: int) -> Time:
        """Backoff before the ``n``-th reschedule:
        ``min(cap, base * 2**min(n-1, BACKOFF_SHIFT_CAP))``.

        The exponent is clamped at :data:`BACKOFF_SHIFT_CAP` (2**10)
        *before* the cap is applied, so even a plan with a huge
        ``backoff_cap`` cannot let a pathological reschedule count grow
        the floor geometrically forever.
        """
        base, cap = self.plan.backoff_base, self.plan.backoff_cap
        return min(cap, base << min(n - 1, BACKOFF_SHIFT_CAP))
