"""ServiceFrontEnd: the ingestion runtime bolted onto the engine.

The engine hands every popped arrival spec to :meth:`offer` instead of
generating it immediately, then drains :meth:`admit` once per step; the
front-end decides — deterministically — which specs enter the scheduler
and when, sheds the rest, and cancels admitted transactions whose
deadlines expire mid-flight (:meth:`expire_due` feeds
``Simulator._expire``).

Degradation control: a token bucket meters admissions at ``headroom``
times a seeded EWMA of the observed commit rate, so past the stability
frontier lambda* the scheduler keeps operating near its sustainable
throughput instead of drowning.  Backpressure (queue-depth and
backlog-growth triggers, both with hysteresis) halves the rate again
while the system is visibly behind.

Everything here is picklable so checkpoint/restore (PR 8) captures the
service mid-run: the RNG, the queue, the token bucket, and the deadline
heap all round-trip through ``pickle``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro._types import Time
from repro.service.admission import AdmissionQueue
from repro.service.config import ServiceConfig
from repro.sim.trace import ShedRecord
from repro.sim.transactions import Transaction, TxnSpec

#: Steps between backlog samples for the backlog-growth trigger.
_BACKLOG_WINDOW = 32
#: Live-backlog growth (txns) over one window that engages backpressure.
_BACKLOG_GROWTH = 16


class ServiceFrontEnd:
    """Admission control + deadline tracking for one simulation run.

    Owned by the :class:`~repro.sim.engine.Simulator` when
    ``SimConfig.service`` is set; never shared across runs.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = AdmissionQueue(config.policy, config.queue_cap)
        self._sim = None
        self._seq = 0
        self._rng = random.Random(f"{config.seed}|service|deadline")
        # Same-step pass-through buffer: while nothing is queued and no
        # backpressure is up, offered specs wait here instead of in the
        # sorted queue — admit() (later the same step) admits or spills
        # them, so the buffer never persists across steps.
        self._direct: List[Tuple[int, TxnSpec]] = []
        #: fast-path watermark: below this depth the bucket never binds
        self._fast_cap = max(1, int(config.backpressure_low * config.queue_cap))
        #: next step at which the engine must call admit() even with an
        #: empty queue (backlog-window controller tick) — the engine
        #: skips the call entirely between ticks while idle.
        self._next_check: float = float("-inf")
        # -- controller state ------------------------------------------
        self._ewma: Optional[float] = None  # commits per step
        self._tokens = 0.0
        self._last_t: Optional[Time] = None
        self._commits_since = 0
        self._seen_commit = False
        # -- backpressure state ----------------------------------------
        self._bp_depth = False
        self._bp_growth = False
        self._bp_engaged = False
        self._backlog_mark: Optional[Tuple[Time, int]] = None
        # -- deadline tracking -----------------------------------------
        self._deadline_heap: List[Tuple[Time, int]] = []
        # -- counters --------------------------------------------------
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.expired = 0
        self.deadline_commits = 0
        self.queue_peak = 0
        self.backpressure_steps = 0
        self.backpressure_transitions = 0

    # ------------------------------------------------------------------
    # engine wiring
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        self._sim = sim

    def idle(self) -> bool:
        """True when the queue is drained (quiescence gate)."""
        return not (self.queue._entries or self._direct)

    # ------------------------------------------------------------------
    # ingestion path
    # ------------------------------------------------------------------
    def offer(self, spec: TxnSpec, t: Time) -> None:
        """Submit one arriving spec to the front door at step ``t``.

        Stamps a deadline when configured (seeded coin, drawn in
        submission order), then enqueues or sheds per the admission
        policy.  The spec keeps its original ``gen_time``, so queue
        wait counts toward commit latency.
        """
        self.submitted += 1
        seq = self._seq
        self._seq += 1
        deadline = self.config.deadline
        if deadline is not None and spec.deadline is None:
            frac = self.config.deadline_frac
            stamp = frac >= 1.0 or (frac > 0.0 and self._rng.random() < frac)
            if stamp:
                spec = replace(spec, deadline=t + deadline)
        queue = self.queue
        if (not self._bp_engaged and not queue._entries
                and len(self._direct) < self._fast_cap):
            # Keeping up: nothing queued and no pressure, so this spec
            # will be admitted wholesale by this step's admit() — skip
            # the sorted-queue round-trip (policy order is applied at
            # the batch admit).
            self._direct.append((seq, spec))
            depth = len(self._direct)
        else:
            if self._direct:
                self._spill(t)
            for victim, reason in queue.offer(spec, seq):
                self._record_shed(victim, reason, t)
            depth = len(queue._entries)
        if depth > self.queue_peak:
            self.queue_peak = depth
        # No alarm here: the engine always calls admit() later this same
        # step, and admit() schedules the wake-up iff anything is left.

    def admit(self, t: Time) -> List[TxnSpec]:
        """Specs to generate at step ``t``, in admission order.

        Called by the engine once per step (after arrivals were
        offered).  Purges queue entries whose deadline already passed,
        updates the commit-rate EWMA and the backpressure state, then
        pops up to the token bucket's whole-token quota.
        """
        sim = self._sim
        queue = self.queue
        if queue._deadlined:
            for victim in queue.shed_expired(t):
                self._record_shed(victim, "expired-in-queue", t)
        cfg = self.config
        depth = len(queue._entries) + len(self._direct)
        # -- backpressure triggers (every step) ------------------------
        if self._bp_depth:
            if depth <= cfg.backpressure_low * cfg.queue_cap:
                self._bp_depth = False
        elif depth >= cfg.backpressure_high * cfg.queue_cap:
            self._bp_depth = True
        mark = self._backlog_mark
        if mark is None:
            self._backlog_mark = (t, len(sim.live))
            if self._last_t is None:
                self._last_t = t
        elif t - mark[0] >= _BACKLOG_WINDOW:
            self._fold(t)
            backlog = len(sim.live)
            growth = backlog - mark[1]
            if growth > _BACKLOG_GROWTH:
                self._bp_growth = True
            elif growth <= 0:
                self._bp_growth = False
            self._backlog_mark = (t, backlog)
        engaged = self._bp_depth or self._bp_growth
        if engaged != self._bp_engaged:
            self.backpressure_transitions += 1
            self._bp_engaged = engaged
        if engaged:
            self.backpressure_steps += 1
        self._next_check = self._backlog_mark[0] + _BACKLOG_WINDOW
        if depth == 0:
            return []
        # -- admission -------------------------------------------------
        if not engaged and depth < cfg.backpressure_low * cfg.queue_cap:
            # Keeping up: the queue is shallow and no pressure trigger
            # is engaged, so metering would only add queue wait (and
            # alarm churn) without protecting anything.  Admit it all;
            # the token bucket binds only once the queue visibly backs
            # up, which is when throttling has something to do.
            self._tokens = 0.0
            direct = self._direct
            if direct:
                # Buffer and queue never coexist (offer spills); apply
                # the policy order to the batch before admitting it.
                if len(direct) > 1 and queue.policy != "fifo":
                    direct.sort(key=lambda e: queue._key(e[1], e[0]))
                    if queue.policy == "lifo-shed":
                        direct.reverse()
                out = [spec for _, spec in direct]
                direct.clear()
            else:
                out = queue.drain()
        else:
            if self._direct:
                # Pressure engaged since the offers landed: meter them.
                self._spill(t)
                depth = len(queue._entries)
                if depth == 0:
                    return []
            self._fold(t)
            rate = self._admission_rate()
            self._tokens += rate
            quota = int(self._tokens)
            self._tokens -= quota
            if quota == 0 and not sim.live:
                # Nothing in flight and nothing committing to feed the
                # EWMA: without this floor a drained scheduler and a
                # near-zero estimate would livelock the queue.  Admit one.
                quota = 1
                self._tokens = 0.0
            out = []
            for _ in range(min(quota, depth)):
                spec = queue.pop()
                if spec is None:
                    break
                out.append(spec)
        self.admitted += len(out)
        if queue._entries:
            sim.add_alarm(t + 1)
        return out

    def _spill(self, t: Time) -> None:
        """Move the pass-through buffer into the sorted queue (pressure
        appeared mid-step); keeps the invariant that the buffer and the
        queue never hold entries at the same time."""
        queue = self.queue
        for seq, spec in self._direct:
            for victim, reason in queue.offer(spec, seq):
                self._record_shed(victim, reason, t)
        self._direct.clear()

    def _admission_rate(self) -> float:
        cfg = self.config
        if not cfg.controller or self._ewma is None:
            # Warm-up (no commit observed yet) or controller disabled:
            # only the queue bound throttles.
            rate = float(cfg.queue_cap)
        else:
            rate = self._ewma * cfg.headroom
        if self._bp_engaged:
            rate *= cfg.backpressure_slowdown
        return rate

    def _fold(self, t: Time) -> None:
        """Fold commits observed since the last fold into the commit-rate
        EWMA.  Called lazily — from the metering path and once per
        backlog window — so keeping-up steps skip the arithmetic; the
        sample is the mean rate over the elapsed span, so the estimate
        is the same average either way.
        """
        last = self._last_t
        if last is None:
            self._last_t = t
            return
        if t <= last:
            return
        sample = self._commits_since / (t - last)
        if self._seen_commit:
            if self._ewma is None:
                self._ewma = sample
            elif sample >= self._ewma or not self._bp_engaged:
                # While backpressure is engaged, commits are being
                # suppressed by our own throttle; folding the low
                # sample back in would make the loop gain
                # headroom * slowdown < 1 and collapse the rate to
                # zero.  Hold the estimate down-side until released
                # (up-side samples are always genuine capacity).
                a = self.config.ewma_alpha
                self._ewma = a * sample + (1.0 - a) * self._ewma
        self._commits_since = 0
        self._last_t = t

    def _record_shed(self, spec: TxnSpec, reason: str, t: Time) -> None:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        sim = self._sim
        sim.trace.sheds.append(
            ShedRecord(
                time=t,
                home=spec.home,
                gen_time=spec.gen_time,
                reason=reason,
                priority=spec.priority,
            )
        )
        if sim._obs is not None:
            sim._obs.on_shed(t, spec.home, reason, spec.priority)

    # ------------------------------------------------------------------
    # deadline tracking for admitted transactions
    # ------------------------------------------------------------------
    def track(self, txn: Transaction) -> None:
        """Start watching an admitted transaction's deadline."""
        if txn.deadline is None:
            return
        heapq.heappush(self._deadline_heap, (txn.deadline, txn.tid))
        self._sim.add_alarm(txn.deadline)

    def expire_due(self, t: Time) -> List[Transaction]:
        """Live transactions whose deadline has passed at step ``t``.

        A transaction scheduled to execute *exactly at* its deadline
        gets its commit attempt this step (the paper's model commits
        instantly once objects are assembled): it stays tracked and is
        re-examined next step, by which point it either committed or —
        having missed — was expired by the engine's miss path.
        """
        sim = self._sim
        keep: List[Tuple[Time, int]] = []
        due: List[Transaction] = []
        heap = self._deadline_heap
        while heap and heap[0][0] <= t:
            d, tid = heapq.heappop(heap)
            txn = sim.live.get(tid)
            if txn is None or not txn.is_live:
                continue
            if d == t and txn.exec_time == t:
                keep.append((d, tid))
                continue
            due.append(txn)
        for item in keep:
            heapq.heappush(heap, item)
        if keep:
            sim.add_alarm(t + 1)
        return due

    def note_expired(self, txn: Transaction, t: Time) -> None:
        """Engine callback: an admitted transaction was cancelled."""
        self.expired += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Deterministic run summary, recorded as ``trace.meta["service"]``."""
        return {
            "policy": self.config.policy,
            "queue_cap": self.config.queue_cap,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "expired": self.expired,
            "deadline_commits": self.deadline_commits,
            "queue_peak": self.queue_peak,
            # still waiting at the horizon: closes the conservation
            # identity submitted == admitted + shed + queue_final
            "queue_final": len(self.queue._entries) + len(self._direct),
            "backpressure_steps": self.backpressure_steps,
            "backpressure_transitions": self.backpressure_transitions,
            "ewma_commit_rate": round(self._ewma, 6) if self._ewma is not None else None,
        }
