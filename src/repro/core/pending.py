"""Shared pending-transaction index for the schedulers.

:class:`PendingIndex` (``sim.pending``) is engine-maintained and answers
the recurring scheduler queries in O(changed) instead of O(pending):

* **Unscheduled set** — the live transactions still waiting for an
  execution time, in arrival order.  Invariant: ``_unscheduled`` equals
  ``{tid: txn for tid, txn in sim.live.items() if txn.exec_time is
  None}`` after every engine phase.  ``CoordinatedScheduler.has_pending``
  and the run loop's quiescence check read it in O(1).
* **Per-object wait columns** — for each object (dense index, same
  interning as the engine's live accessor columns): the *scheduled*
  writers and readers still waiting to execute.  These power
  :class:`repro.offline.base.SimStateView` without filtering the full
  live accessor sets per query.  Invariant: ``sched_writers[idx]``
  equals ``{tid: txn for txn in sim.live_requesters(oid) if
  txn.exec_time is not None}``.
* **Constraint memo** — a within-step cache of
  :func:`repro.core.dependency.constraints_for` results, invalidated per
  transaction when a conflict neighbour is (un)scheduled mid-step.  The
  greedy scheduler's degree ordering computes every constraint set once
  into this memo and re-derives only the entries a same-step scheduling
  decision actually touched.

The engine feeds the index from the same lifecycle sites that feed the
dependency tracker (generate, schedule, recover, expire, commit), so it
is always consistent with the live set regardless of which scheduler is
bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro._types import NodeId, Time, TxnId
from repro.core.coloring import Constraint
from repro.core.dependency import constraints_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import Simulator
    from repro.sim.transactions import Transaction


class PendingIndex:
    """Per-object wait columns, cached constraint sets, and the
    unscheduled set (see module docstring for the invariants)."""

    __slots__ = (
        "sim",
        "_unscheduled",
        "sched_writers",
        "sched_readers",
        "_memo",
        "_memo_t",
        "_stale",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: live transactions without an execution time, arrival order
        self._unscheduled: Dict[TxnId, "Transaction"] = {}
        #: per-object columns of *scheduled* waiting accessors
        self.sched_writers: List[Dict[TxnId, "Transaction"]] = []
        self.sched_readers: List[Dict[TxnId, "Transaction"]] = []
        #: within-step constraints_for memo: valid only while now == _memo_t
        self._memo: Dict[TxnId, List[Constraint]] = {}
        self._memo_t: Time = -1
        #: memo entries invalidated by a same-step scheduling change
        self._stale: Set[TxnId] = set()

    # -- engine lifecycle hooks ---------------------------------------
    def add_object_slot(self) -> None:
        """Mirror the engine's dense object interning (one column slot)."""
        self.sched_writers.append({})
        self.sched_readers.append({})

    def on_generate(self, txn: "Transaction") -> None:
        self._unscheduled[txn.tid] = txn

    def note_scheduled(self, txn: "Transaction") -> None:
        """``commit_schedule`` fixed ``txn``'s execution time."""
        sim = self.sim
        self._unscheduled.pop(txn.tid, None)
        objects = sim.objects
        tid = txn.tid
        for oid in txn.objects:
            self.sched_writers[objects[oid].index][tid] = txn
        for oid in txn.reads:
            self.sched_readers[objects[oid].index][tid] = txn
        # Pending conflict neighbours gained a constraint: drop their
        # memo entries.
        nbrs = sim.deps.adj.get(tid)
        if nbrs:
            self._stale.update(nbrs)

    def on_unschedule(self, txn: "Transaction") -> None:
        """Recovery revoked ``txn``'s execution time (fault layer)."""
        sim = self.sim
        tid = txn.tid
        self._unscheduled[tid] = txn
        objects = sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index].pop(tid, None)
        for oid in txn.reads:
            self.sched_readers[objects[oid].index].pop(tid, None)
        self._stale.add(tid)
        nbrs = sim.deps.adj.get(tid)
        if nbrs:
            self._stale.update(nbrs)

    def on_retire(self, txn: "Transaction") -> None:
        """``txn`` left the live set (commit or deadline expiry)."""
        tid = txn.tid
        self._unscheduled.pop(tid, None)
        objects = self.sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index].pop(tid, None)
        for oid in txn.reads:
            self.sched_readers[objects[oid].index].pop(tid, None)

    def invalidate_all(self) -> None:
        """Topology changed: every memoised constraint set is suspect."""
        self._memo.clear()
        self._stale.clear()

    # -- queries ------------------------------------------------------
    @property
    def has_unscheduled(self) -> bool:
        return bool(self._unscheduled)

    def unscheduled_count(self) -> int:
        return len(self._unscheduled)

    def constraints(self, txn: "Transaction", *, now: Time) -> List[Constraint]:
        """Memoised ``constraints_for``: at most one recomputation per
        transaction per step unless a same-step scheduling decision
        touched one of its conflict neighbours."""
        if now != self._memo_t:
            self._memo.clear()
            self._stale.clear()
            self._memo_t = now
        tid = txn.tid
        memo = self._memo
        cons = memo.get(tid)
        if cons is None or tid in self._stale:
            cons = constraints_for(self.sim, txn, now=now)
            memo[tid] = cons
            self._stale.discard(tid)
        return cons

    def scheduled_writer_pairs(self, index: int, now: Time) -> List[Tuple[Time, NodeId]]:
        """``(remaining_time, home)`` pairs of scheduled waiting writers
        of the object at dense ``index`` (SimStateView's query shape)."""
        return [
            (txn.exec_time - now, txn.home)
            for txn in self.sched_writers[index].values()
        ]

    def scheduled_reader_pairs(self, index: int, now: Time) -> List[Tuple[Time, NodeId]]:
        """Same as :meth:`scheduled_writer_pairs` for readers."""
        return [
            (txn.exec_time - now, txn.home)
            for txn in self.sched_readers[index].values()
        ]
