"""Batch scheduler interface and shared planning machinery.

A batch scheduler plans execution times for a set of *pending* transactions
against a *state view* — either a live simulator (online usage inside the
bucket schedulers) or a standalone batch problem (offline usage, tests,
and ``F_A`` dry runs).  Plans never alter already-committed times: new
transactions are fitted around them (the paper's first Section IV-A
modification; in the worst case they land strictly after, which at most
doubles the batch's execution time, leaving ``A``'s asymptotics intact).

All concrete schedulers here are *coloring-based*: they assign each pending
transaction the smallest valid color of the extended dependency graph, in a
scheduler-specific order.  Ordering is where topology knowledge enters —
e.g. sweeping a line graph left to right yields the pipelined schedules of
Busch et al. [4].  Feasibility never depends on the order (any valid
coloring is feasible); only the approximation quality does.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro._types import NodeId, ObjectId, Time, TxnId, Weight
from repro.core.coloring import Constraint, min_valid_color
from repro.network.graph import Graph
from repro.network.oracles import OracleRow
from repro.sim.transactions import Transaction


class StateView(Protocol):
    """What a batch planner needs to know about the world."""

    graph: Graph
    object_speed_den: int

    def scheduled_requesters(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        """Live, already-scheduled *writers* of ``oid`` as
        ``(remaining_time, home)`` pairs (remaining = exec - now)."""

    def scheduled_readers(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        """Live, already-scheduled *readers* of ``oid``."""

    def holder_bound(self, oid: ObjectId, home: NodeId) -> Time:
        """Upper bound on the time for ``oid`` (or a copy of it) to reach
        ``home`` from its current position (covers at-rest and in-transit
        states)."""


class SimStateView:
    """State view over a live :class:`repro.sim.engine.Simulator`.

    Per-object query results are memoized: a view is only valid within a
    single time step (the bucket scheduler's ``F_A`` dry runs re-plan the
    same buckets many times per step, and the underlying state cannot
    change mid-step).  Profiling (docs/performance.md) showed these
    lookups dominating bucket insertions before the cache.
    """

    def __init__(self, sim, now: Time) -> None:
        self._sim = sim
        self.now = now
        self.graph = sim.graph
        self.object_speed_den = sim.object_speed_den
        # The engine's live-set index keeps the scheduled waiting
        # accessors per object, so each query is proportional to the
        # *scheduled* waiters instead of filtering every live accessor.
        self._deps = sim.deps
        self._req_cache: dict = {}
        self._reader_cache: dict = {}

    def scheduled_requesters(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        cached = self._req_cache.get(oid)
        if cached is None:
            cached = self._req_cache[oid] = self._deps.scheduled_pairs(oid, self.now)
        return cached

    def scheduled_readers(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        cached = self._reader_cache.get(oid)
        if cached is None:
            cached = self._reader_cache[oid] = self._deps.scheduled_pairs(
                oid, self.now, reads=True
            )
        return cached

    def holder_bound(self, oid: ObjectId, home: NodeId) -> Time:
        return self._sim.object_time_to_reach(oid, home)


class StandaloneView:
    """State view for a pure batch problem: objects at rest, nothing
    scheduled.  Used by tests and by offline-vs-online comparisons."""

    def __init__(
        self,
        graph: Graph,
        placement: Mapping[ObjectId, NodeId],
        object_speed_den: int = 1,
    ) -> None:
        self.graph = graph
        self.placement = dict(placement)
        self.object_speed_den = object_speed_den

    def scheduled_requesters(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        return []

    def scheduled_readers(self, oid: ObjectId) -> List[Tuple[Time, NodeId]]:
        return []

    def holder_bound(self, oid: ObjectId, home: NodeId) -> Time:
        return self.object_speed_den * self.graph.distance(self.placement[oid], home)


class BatchScheduler(abc.ABC):
    """Base class: plan pending transactions against a state view.

    Subclasses override :meth:`order` (and may override :meth:`plan` for
    non-coloring strategies).
    """

    name = "batch"

    @abc.abstractmethod
    def order(self, view: StateView, txns: Sequence[Transaction]) -> List[Transaction]:
        """The order in which pending transactions are colored."""

    def plan(
        self,
        view: StateView,
        txns: Sequence[Transaction],
        *,
        floor: Time = 1,
    ) -> Dict[TxnId, Time]:
        """Relative execution offsets (from "now") for ``txns``.

        ``floor`` is the minimum offset, used by the distributed scheduler
        to reserve time for schedule-dissemination messages.  The returned
        offsets, added to the current time, extend the committed schedule
        feasibly (tests certify this through the engine and the trace
        certifier).
        """
        speed = view.object_speed_den
        colors: Dict[TxnId, Time] = {}
        writers_of: Dict[ObjectId, List[Transaction]] = {}
        readers_of: Dict[ObjectId, List[Transaction]] = {}
        for txn in txns:
            for oid in txn.objects:
                writers_of.setdefault(oid, []).append(txn)
            for oid in txn.reads:
                readers_of.setdefault(oid, []).append(txn)
        graph = view.graph
        oracle = graph.oracle
        for txn in self.order(view, txns):
            cons: List[Constraint] = []
            seen: set = set()
            # One cached distance row per transaction instead of millions
            # of distance() calls (hot path; see docs/performance.md) —
            # unless an oracle answers point queries in O(1), in which
            # case no O(n) row is ever materialised.
            if oracle is not None:
                drow = OracleRow(oracle, txn.home)
            else:
                drow = graph.distances_from(txn.home)

            def add_scheduled(pairs) -> None:
                for rem, home in pairs:
                    key = ("s", rem, home)
                    if key not in seen:
                        seen.add(key)
                        cons.append((rem, speed * drow[home]))

            def add_pending(others) -> None:
                for other in others:
                    if other.tid != txn.tid and other.tid in colors and ("p", other.tid) not in seen:
                        seen.add(("p", other.tid))
                        cons.append((colors[other.tid], speed * drow[other.home]))

            # Writes conflict with every accessor; reads only with writers.
            for oid in txn.objects:
                add_scheduled(view.scheduled_requesters(oid))
                add_scheduled(view.scheduled_readers(oid))
                add_pending(writers_of.get(oid, ()))
                add_pending(readers_of.get(oid, ()))
            for oid in txn.reads:
                add_scheduled(view.scheduled_requesters(oid))
                add_pending(writers_of.get(oid, ()))
            for oid in txn.all_objects:
                cons.append((0, view.holder_bound(oid, txn.home)))
            colors[txn.tid] = min_valid_color(cons, floor=floor)
        return colors

    def completion_time(
        self, view: StateView, txns: Sequence[Transaction], *, floor: Time = 1
    ) -> Time:
        """``F_A``: time (from now) to execute all of ``txns`` under this
        scheduler, given the fixed already-scheduled transactions.

        Note on the paper's notation: Algorithm 2 writes
        ``F_A(T^s ∪ B_i ∪ {T})`` but the insertion rule reads "the
        offline execution time *of that bucket*" — we therefore measure
        the completion of the *pending* set given ``T^s`` as constraints,
        which preserves the property that weakly-conflicting transactions
        keep landing in low buckets.
        """
        if not txns:
            return 0
        return max(self.plan(view, txns, floor=floor).values())


def _suffix_placement(
    view: StandaloneView, order: Sequence[Transaction], start: int
) -> Dict[ObjectId, NodeId]:
    """Object positions when the suffix at ``start`` begins: each object
    sits at the home of its last prefix writer (or its initial node)."""
    placement = dict(view.placement)
    for txn in order[:start]:
        for oid in txn.objects:
            placement[oid] = txn.home
    return placement


def check_suffix_property(
    scheduler: BatchScheduler,
    view: StandaloneView,
    txns: Sequence[Transaction],
    *,
    slack: float = 1.0,
    plan: Optional[Dict[TxnId, Time]] = None,
) -> List[Tuple[int, Time, Time]]:
    """Verify the Section IV-A suffix property of a standalone plan.

    For every suffix ``X'`` of the schedule (in execution order), the
    suffix must complete within ``slack * F_A(X')`` when ``A`` schedules
    ``X'`` alone from the object positions left by the prefix.  Returns a
    list of violations ``(suffix_start_index, actual, allowed)``.

    Coloring-based planners satisfy the property with ``slack = 1``
    structurally: colors of a suffix, re-based to the suffix start, remain
    a valid coloring no worse than re-planning — tests exercise this on
    random instances.  Pass ``plan`` to check an explicit plan instead of
    re-deriving the scheduler's.
    """
    full = dict(plan) if plan is not None else scheduler.plan(view, txns)
    order = sorted(txns, key=lambda x: (full[x.tid], x.tid))
    violations = []
    for start in range(1, len(order)):
        suffix = order[start:]
        base = full[order[start].tid]
        sub_view = StandaloneView(
            view.graph, _suffix_placement(view, order, start), view.object_speed_den
        )
        alone = scheduler.completion_time(sub_view, suffix)
        actual = max(full[x.tid] for x in suffix) - base + 1
        if actual > slack * alone:
            violations.append((start, actual, alone))
    return violations


def enforce_suffix_property(
    scheduler: BatchScheduler,
    view: StandaloneView,
    txns: Sequence[Transaction],
    *,
    slack: float = 1.0,
    max_rounds: int = 32,
) -> Dict[TxnId, Time]:
    """The paper's second Section IV-A modification, constructively.

    "If a batch schedule S does not satisfy the suffix property, then it
    can be easily modified ... by repeatedly applying algorithm A to any
    suffix that violates the property, starting from the longest suffix."

    Re-plans the longest violating suffix alone (from the object positions
    the prefix leaves behind), appended after the prefix, until no suffix
    violates within ``slack``.  Returns the repaired plan; coloring-based
    planners typically need zero repair rounds (tested).
    """
    plan = scheduler.plan(view, txns)
    by_tid = {t.tid: t for t in txns}
    for _ in range(max_rounds):
        violations = check_suffix_property(
            scheduler, view, txns, slack=slack, plan=plan
        )
        if not violations:
            return plan
        start = min(v[0] for v in violations)  # longest violating suffix
        order = sorted(txns, key=lambda x: (plan[x.tid], x.tid))
        suffix = order[start:]
        prefix_end = max((plan[x.tid] for x in order[:start]), default=0)
        sub_view = StandaloneView(
            view.graph, _suffix_placement(view, order, start), view.object_speed_den
        )
        sub_plan = scheduler.plan(sub_view, suffix)
        for txn in suffix:
            plan[txn.tid] = prefix_end + sub_plan[txn.tid]
    return plan
