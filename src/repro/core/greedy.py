"""Algorithm 1: the online greedy schedule (paper Section III).

Every newly generated transaction is immediately and permanently assigned
an execution time ``t + c(T)``, where ``c(T)`` is a valid color of the
extended dependency graph ``H'_t`` obtained by repeatedly applying Lemma 1
(or Lemma 2 when the graph has uniform edge weights) to the uncolored
transactions.

Guarantees reproduced by the tests and experiment E1/E2/E3:

* Theorem 1: ``T`` executes by ``t + 2*Gamma'_t(T) - Delta'_t(T)``.
* Theorem 2 (uniform weight ``beta``): ``T`` executes by
  ``t + Gamma'_t(T)`` and execution times are multiples of ``beta``.
* Theorem 3: O(k)-competitive on the clique; Section III-D: O(k log n)
  on hypercube / butterfly / log n-dimensional grid.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import Time, Weight
from repro.core.base import OnlineScheduler
from repro.core.coloring import min_valid_color, min_valid_color_multiple
from repro.sim.transactions import Transaction


class GreedyScheduler(OnlineScheduler):
    """Online greedy coloring scheduler (Algorithm 1).

    Parameters
    ----------
    uniform_beta:
        If set, use the Lemma 2 rule: colors are positive multiples of
        ``beta``.  Correct when every pairwise node distance used by the
        workload is at most ``beta`` (e.g. ``beta = 1`` on the clique,
        ``beta = log2(n)`` on the hypercube).  The scheduler then *treats*
        the graph as a uniform-weight complete graph, exactly as Section
        III-D does for the hypercube.
    order:
        Order in which simultaneously generated transactions are colored:
        ``"arrival"`` (tid order, the default) or ``"degree"`` (smallest
        constraint set first — a practical tweak noted after Theorem 2,
        where Lemma 1 "can give better execution schedule when used in
        practice").
    weight_slack:
        Extra steps added to every positive constraint weight.  The base
        model assumes uncongested links; under the engine's bounded
        egress-capacity extension (Section VI's open question, bench
        E13), a slack of a few steps absorbs the serialization delay of
        objects queueing behind each other at a node.
    """

    def __init__(
        self,
        uniform_beta: Optional[Weight] = None,
        order: str = "arrival",
        weight_slack: Weight = 0,
    ) -> None:
        super().__init__()
        if order not in ("arrival", "degree"):
            raise ValueError(f"unknown coloring order {order!r}")
        if weight_slack < 0:
            raise ValueError("weight_slack must be non-negative")
        self.uniform_beta = uniform_beta
        self.order = order
        self.weight_slack = weight_slack
        #: analysis hook: (tid, color, theorem_bound) per scheduled txn
        self.color_log: List[tuple] = []

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        if not new_txns:
            return
        sim = self.sim
        # Each constraint set is computed once into the live-set index's
        # within-step memo; the degree ordering's sort key fills it and
        # the coloring loop below reuses it.  The memo re-derives an
        # entry only when a same-step scheduling decision touched one of
        # the transaction's conflict neighbours — any live holder of a
        # shared object is such a neighbour, so the recomputed set equals
        # what a fresh full evaluation would return.
        fetch = sim.deps.constraints
        txns = list(new_txns)
        if self.order == "degree":
            txns.sort(key=lambda x: (len(fetch(x, now=t)), x.tid))
        for txn in txns:
            cons = fetch(txn, now=t)
            if self.weight_slack:
                cons = [(c, w + self.weight_slack if w > 0 else w) for c, w in cons]
            if self.uniform_beta is not None:
                color = self._uniform_color(cons, t)
            else:
                color = min_valid_color(cons)
            self.color_log.append((txn.tid, color, self._bound(cons)))
            self.emit("color", t, tid=txn.tid, color=color, constraints=len(cons))
            sim.commit_schedule(txn, t + color)

    def _uniform_color(self, cons, t: Time) -> Weight:
        """Lemma 2 online: execution at *absolute* multiples of beta.

        With arrivals at arbitrary times, relative colors are no longer
        multiples of beta across transactions; placing execution times on
        global multiples restores Lemma 2's accounting — every scheduled
        neighbor (itself on a multiple, at distance <= beta) forbids
        exactly one slot.
        """
        beta = self.uniform_beta
        abs_cons = [(t + color, w) for color, w in cons]
        exec_abs = min_valid_color_multiple(abs_cons, beta, floor_multiple=t // beta + 1)
        return exec_abs - t

    def _bound(self, cons) -> Weight:
        """Per-transaction latency bound, recorded for experiment E1.

        Plain mode — Lemma 1 shifted by the color floor of 1:
        ``1 + 2*Gamma' - Delta'``.  Uniform mode — slot counting: one
        alignment slot plus, per constraint of weight ``w``, the
        ``floor((2w-1)/beta) + 1`` multiples its forbidden interval can
        contain (= exactly one slot for a neighbor sitting on a multiple
        at distance <= beta, Lemma 2's case).
        """
        gamma = sum(w for _, w in cons)
        delta = sum(1 for _, w in cons if w > 0)
        if self.uniform_beta is None:
            return max(1, 1 + 2 * gamma - delta)
        beta = self.uniform_beta
        blocked = sum((2 * w - 1) // beta + 1 for _, w in cons if w > 0)
        return beta * (1 + blocked)
