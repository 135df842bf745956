"""The bounded admission queue and its pluggable shedding policies.

Entries are kept sorted by a policy-specific key so the next admission
is always the head (tail for ``lifo-shed``); the queue is bounded by
``cap`` and overflow is resolved *inside* :meth:`AdmissionQueue.offer`
so the caller sees exactly which spec was shed and why.  All operations
are deterministic: ties break on the monotone submission sequence
number, never on object identity.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro._types import Time
from repro.service.config import POLICY_NAMES
from repro.sim.transactions import TxnSpec

#: Admission policies, re-exported for discoverability.
POLICIES = POLICY_NAMES

#: Sort key placed ahead of any real deadline by ``deadline-edf``.
_NO_DEADLINE = float("inf")


class AdmissionQueue:
    """A bounded, policy-ordered queue of not-yet-admitted specs.

    Internally a sorted list of ``(key, seq, spec)`` entries — ``cap``
    is small (tens), so O(cap) inserts beat heap bookkeeping and keep
    iteration order obvious.  ``seq`` is the submission sequence number
    assigned by the front-end; it makes every key unique, so specs are
    never compared.
    """

    __slots__ = ("policy", "cap", "_entries", "_deadlined")

    def __init__(self, policy: str, cap: int) -> None:
        self.policy = policy
        self.cap = cap
        self._entries: List[Tuple[tuple, int, TxnSpec]] = []
        #: queued specs carrying a deadline — lets the front-end skip
        #: the expiry scan entirely on the (common) deadline-free path.
        self._deadlined = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, spec: TxnSpec, seq: int) -> tuple:
        if self.policy == "deadline-edf":
            d = _NO_DEADLINE if spec.deadline is None else spec.deadline
            return (d, seq)
        if self.policy == "priority-class":
            return (-spec.priority, seq)
        # fifo and lifo-shed both order by arrival; they differ in
        # which end pop() takes and which entry overflow evicts.
        return (seq,)

    def offer(self, spec: TxnSpec, seq: int) -> List[Tuple[TxnSpec, str]]:
        """Enqueue ``spec`` (or shed per policy); return the sheds.

        The returned list holds ``(victim_spec, reason)`` pairs — empty
        when the spec was enqueued without evicting anything, otherwise
        exactly one entry: either ``(spec, "queue-full")`` (the offered
        spec was rejected) or ``(older, "displaced")`` (a queued entry
        was evicted to make room).
        """
        key = self._key(spec, seq)
        if len(self._entries) >= self.cap:
            if self.policy == "fifo":
                return [(spec, "queue-full")]
            if self.policy == "lifo-shed":
                victim = self._entries.pop(0)  # oldest waits longest: evict it
                bisect.insort(self._entries, (key, seq, spec))
                self._note_swap(spec, victim[2])
                return [(victim[2], "displaced")]
            # deadline-edf / priority-class: displace the worst queued
            # entry iff the newcomer outranks it, else reject newcomer.
            worst = self._entries[-1]
            if key < worst[0]:
                self._entries.pop()
                bisect.insort(self._entries, (key, seq, spec))
                self._note_swap(spec, worst[2])
                return [(worst[2], "displaced")]
            return [(spec, "queue-full")]
        bisect.insort(self._entries, (key, seq, spec))
        if spec.deadline is not None:
            self._deadlined += 1
        return []

    def _note_swap(self, entered: TxnSpec, evicted: TxnSpec) -> None:
        if entered.deadline is not None:
            self._deadlined += 1
        if evicted.deadline is not None:
            self._deadlined -= 1

    def shed_expired(self, t: Time) -> List[TxnSpec]:
        """Remove (and return, in queue order) every entry whose
        deadline has already passed — it could not commit even if
        admitted this step."""
        if not self._deadlined:
            return []
        keep, dead = [], []
        for e in self._entries:
            d = e[2].deadline
            (dead if d is not None and d <= t else keep).append(e)
        if dead:
            self._entries = keep
            self._deadlined -= len(dead)
        return [e[2] for e in dead]

    def pop(self) -> Optional[TxnSpec]:
        """The next spec to admit (``None`` when empty)."""
        if not self._entries:
            return None
        if self.policy == "lifo-shed":
            spec = self._entries.pop()[2]  # newest first
        else:
            spec = self._entries.pop(0)[2]
        if spec.deadline is not None:
            self._deadlined -= 1
        return spec

    def drain(self) -> List[TxnSpec]:
        """Every queued spec at once, in admission order; empties the
        queue.  One call replaces ``len(queue)`` pops on the keeping-up
        fast path."""
        entries = self._entries
        if not entries:
            return []
        specs = [e[2] for e in entries]
        if self.policy == "lifo-shed":
            specs.reverse()
        self._entries = []
        self._deadlined = 0
        return specs
