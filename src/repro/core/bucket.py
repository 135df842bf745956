"""Algorithm 2: the online bucket schedule (paper Section IV).

Converts any offline batch scheduler ``A`` into an online scheduler.
Bucket ``B_i`` holds unscheduled transactions whose batch, given the fixed
already-scheduled set ``T^s``, executes within ``2**i`` steps; ``B_i``
activates every ``2**i`` steps, at which point its contents are scheduled
by ``A`` (append-after: committed execution times are never revised).
Simultaneous activations are processed lowest level first, so higher
buckets see the lower buckets' fresh commitments as part of ``T^s``
(Algorithm 2's tie-breaking rule).

Reproduced guarantees (experiments E4-E7):

* Lemma 3 — bucket levels never exceed ``log2(n*D) + 1``;
* Lemma 4 — a transaction inserted into ``B_i`` at time ``t`` executes by
  ``t + (i+1) * 2**(i+2)``;
* Theorem 4 — competitive ratio ``O(b_A * log^3(n*D))``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro._types import Time, TxnId
from repro.core.base import OnlineScheduler
from repro.offline.base import BatchScheduler, SimStateView
from repro.sim.transactions import Transaction


class BucketScheduler(OnlineScheduler):
    """Online bucket scheduler (Algorithm 2).

    Parameters
    ----------
    batch:
        The offline batch scheduler ``A`` (already feasible in
        append-after mode; see :mod:`repro.offline`).
    max_level:
        Cap on bucket levels.  Defaults to ``ceil(log2(n * D)) + 1``
        (Lemma 3).  A transaction that fits nowhere (numerically
        impossible per Lemma 3, kept as a safety net) goes to the top
        bucket.
    align:
        If True (default), ``B_i`` activates at global times divisible by
        ``2**i``.  The paper notes alignment is not required; ``False``
        activates each level ``2**i`` steps after its previous activation,
        exercised by the ablation bench.
    """

    def __init__(
        self,
        batch: BatchScheduler,
        max_level: Optional[int] = None,
        align: bool = True,
    ) -> None:
        super().__init__()
        self.batch = batch
        self._max_level_override = max_level
        self.align = align
        self.max_level: int = 0
        self.buckets: Dict[int, List[Transaction]] = {}
        self._last_activation: Dict[int, Time] = {}
        #: analysis hooks (experiments E4): insertion and activation events
        self.insert_log: List[Tuple[TxnId, int, Time]] = []
        self.activation_log: List[Tuple[int, Time, int]] = []

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        n = sim.graph.num_nodes
        d = max(1, sim.graph.diameter())
        lemma3 = math.ceil(math.log2(max(2, n * d * sim.object_speed_den))) + 1
        self.max_level = self._max_level_override if self._max_level_override is not None else lemma3
        self.buckets = {i: [] for i in range(self.max_level + 1)}
        self._last_activation = {i: 0 for i in range(self.max_level + 1)}

    # ------------------------------------------------------------------
    def _period(self, level: int) -> Time:
        return 1 << level

    def _due_levels(self, t: Time) -> List[int]:
        due = []
        for i in range(self.max_level + 1):
            p = self._period(i)
            if self.align:
                if t % p == 0:
                    due.append(i)
            else:
                if t - self._last_activation[i] >= p:
                    due.append(i)
        return due

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        assert self.sim is not None
        # Algorithm 2 line 4: insert each newly generated transaction into
        # the smallest bucket whose batch still fits its 2**i budget.  The
        # state view is built only when something arrived, so steps with
        # no insertions touch nothing but the activation bookkeeping.
        if new_txns:
            view = SimStateView(self.sim, t)
            for txn in new_txns:
                self._insert(view, txn, t)
        # Lines 5-8: activate due buckets, lowest level first.  _activate
        # updates _last_activation even for empty buckets (align=False
        # periods are measured from it).
        for level in self._due_levels(t):
            self._activate(level, t)

    def _insert(self, view: SimStateView, txn: Transaction, t: Time) -> None:
        # F_A of any bucket containing T is at least F_A({T}) alone, so
        # levels whose budget cannot even hold T solo are skipped without
        # planning the whole bucket (a large constant-factor win measured
        # in docs/performance.md — most dry runs used to fail these
        # low levels one by one).
        solo = self.batch.completion_time(view, [txn])
        start = max(0, math.ceil(math.log2(max(1, solo))))
        for level in range(start, self.max_level + 1):
            candidate = self.buckets[level] + [txn]
            if self.batch.completion_time(view, candidate) <= self._period(level):
                self.buckets[level].append(txn)
                self.insert_log.append((txn.tid, level, t))
                self.emit("bucket-insert", t, tid=txn.tid, level=level)
                return
        # Safety net: Lemma 3 says this cannot happen for feasible instances.
        self.buckets[self.max_level].append(txn)
        self.insert_log.append((txn.tid, self.max_level, t))
        self.emit("bucket-insert", t, tid=txn.tid, level=self.max_level)

    def _activate(self, level: int, t: Time) -> None:
        self._last_activation[level] = t
        bucket = self.buckets[level]
        if not bucket:
            return
        view = SimStateView(self.sim, t)
        plan = self.batch.plan(view, bucket)
        for txn in bucket:
            self.sim.commit_schedule(txn, t + plan[txn.tid])
        self.activation_log.append((level, t, len(bucket)))
        self.emit("activate", t, level=level, size=len(bucket))
        self.buckets[level] = []

    def on_reschedule(self, txn: Transaction, t: Time) -> None:
        """Recovery hook (:mod:`repro.faults`): a rescheduled transaction
        re-enters the normal insertion path — it lands in the smallest
        bucket whose batch still fits and is committed at that bucket's
        next activation, which naturally provides the recovery backoff."""
        assert self.sim is not None
        self._insert(SimStateView(self.sim, t), txn, t)

    # ------------------------------------------------------------------
    def next_wake_after(self, t: Time) -> Optional[Time]:
        wakes = []
        for i, bucket in self.buckets.items():
            if not bucket:
                continue
            p = self._period(i)
            if self.align:
                wakes.append(((t // p) + 1) * p)
            else:
                wakes.append(max(t + 1, self._last_activation[i] + p))
        return min(wakes) if wakes else None

    def has_pending(self) -> bool:
        return any(self.buckets.values())

    def pending_count(self) -> int:
        """Transactions sitting in buckets, not yet scheduled."""
        return sum(len(b) for b in self.buckets.values())
