"""Online scheduler interface.

A scheduler never moves objects and never executes transactions — it only
assigns execution times through :meth:`Simulator.commit_schedule`, and a
committed time is never revised (the no-revision property the paper calls
out at the end of Section II).  The engine is the ground truth for
feasibility.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro._types import Time
from repro.sim.engine import Simulator
from repro.sim.transactions import Transaction


class OnlineScheduler(abc.ABC):
    """Base class for all online schedulers."""

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self._obs = None

    def bind(self, sim: Simulator) -> None:
        """Attach to a simulator; called once by the engine."""
        self.sim = sim
        # Cached observability fast path (None when the probe is the
        # default NullProbe) — see repro.obs.
        self._obs = getattr(sim, "_obs", None)

    def emit(self, event: str, t: Time, **fields) -> None:
        """Report a scheduler decision to the run's probe (repro.obs).

        No-op (one branch) when observability is disabled.  Event names
        and fields are catalogued in :mod:`repro.obs.probe`.
        """
        if self._obs is not None:
            self._obs.on_sched(event, t, **fields)

    @abc.abstractmethod
    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        """Handle one active time step (the engine's only scheduler entry
        point).

        ``new_txns`` are the transactions generated at ``t`` (the paper's
        ``T_t^g``); they are live and unscheduled, and the list is empty
        on steps where nothing arrived.  Implementations may
        schedule them now (greedy) or stash them for a later activation
        (bucket schedulers).
        """

    def on_reschedule(self, txn: Transaction, t: Time) -> None:
        """Recovery hook (:mod:`repro.faults`): ``txn`` missed its
        committed execution time — an object was lost or late, or its home
        node crashed — and the engine has just un-committed it.  Pick a new
        execution time (or re-enter pending machinery, as the bucket
        scheduler does).

        The default re-enters the greedy coloring path against the current
        dependency state and clamps the result to the engine's recovery
        floor (exponential backoff + home-node restart), so every
        scheduler degrades gracefully under faults without further code.
        Only ever called when ``SimConfig.faults`` is active; the paper's
        no-revision property holds untouched otherwise.
        """
        from repro.core.coloring import min_valid_color
        from repro.core.dependency import constraints_for

        assert self.sim is not None, "scheduler not bound to a simulator"
        cons = constraints_for(self.sim, txn, now=t)
        color = min_valid_color(cons)
        exec_time = max(t + color, self.sim.reschedule_floor(txn))
        self.emit("reschedule", t, tid=txn.tid, color=color, exec=exec_time)
        self.sim.commit_schedule(txn, exec_time)

    def on_membership(self, kind: str, node: int, t: Time) -> None:
        """Elastic-membership hook (:class:`repro.faults.MembershipPlan`):
        ``node`` joined (``kind="join"``) or left (``kind="leave"``) the
        graph at ``t``.  The engine has already mutated the graph /
        re-homed live transactions when this fires, so schedulers that
        cache per-node state may refresh it here.  The default is a no-op:
        the built-in schedulers consult the engine's live state every
        step, and joined nodes never home transactions, so nothing needs
        invalidating.
        """

    def next_wake_after(self, t: Time) -> Optional[Time]:
        """Earliest future step at which this scheduler must run even if no
        other event occurs (e.g. a bucket activation), or ``None``."""
        return None

    def has_pending(self) -> bool:
        """True while the scheduler holds generated-but-unscheduled work."""
        return False
