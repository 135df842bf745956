"""Fixed-window rebatching: the obvious alternative to Algorithm 2.

Collect arrivals for ``window`` steps, then plan the whole batch with the
offline scheduler.  Practitioners reach for this before anything else —
it has no per-transaction guarantee (a transaction's wait is always
Ω(window) even when it conflicts with nothing, and heavy batches overrun
into the next window), which is precisely what the paper's exponential
bucket levels fix: lightly-conflicting transactions land in low buckets
that activate every step.  Bench E25 measures the difference.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import Time
from repro.core.base import OnlineScheduler
from repro.offline.base import BatchScheduler, SimStateView
from repro.sim.transactions import Transaction


class WindowedBatchScheduler(OnlineScheduler):
    """Plan all arrivals of each ``window``-step interval together.

    Windows close at global times divisible by ``window``; the batch is
    planned by the offline scheduler ``A`` against the already-committed
    schedule (append-after), exactly like one bucket level fixed at
    period = ``window``.
    """

    def __init__(self, batch: BatchScheduler, window: Time = 16) -> None:
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.batch = batch
        self.window = window
        self.pending: List[Transaction] = []
        #: (close_time, batch_size) log for analysis
        self.window_log: List[tuple] = []

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        assert self.sim is not None
        if new_txns:
            self.pending.extend(new_txns)
        if t % self.window == 0 and self.pending:
            self._close_window(t)

    def _close_window(self, t: Time) -> None:
        view = SimStateView(self.sim, t)
        plan = self.batch.plan(view, self.pending)
        for txn in self.pending:
            self.sim.commit_schedule(txn, t + plan[txn.tid])
        self.window_log.append((t, len(self.pending)))
        self.emit("window-close", t, size=len(self.pending))
        self.pending = []

    def next_wake_after(self, t: Time) -> Optional[Time]:
        if not self.pending:
            return None
        return ((t // self.window) + 1) * self.window

    def has_pending(self) -> bool:
        return bool(self.pending)
