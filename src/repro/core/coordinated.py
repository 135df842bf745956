"""Section III-E: the simple centralized online scheduler.

The greedy schedules of Section III assume a clairvoyant central
authority.  Section III-E's remedy for low-diameter graphs: a designated
coordinator node collects information as transactions are generated and
objects move, so each scheduling decision costs one information round-trip
— scaling every bound by O(diameter) (= O(log n) on the graphs of Section
III).

This scheduler simulates exactly that: a new transaction's request
travels to the coordinator (message latency = distance), the coordinator
colors it against its (current, accurate) view, and the decision travels
back before it can take effect — the committed execution time is floored
by the return latency.  Compared to :class:`GreedyScheduler` the measured
latencies inflate by ~2·dist(home, coordinator), exactly the Section III-E
prediction; compared to :class:`DistributedBucketScheduler` there is no
hierarchy — one node sees everything.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import NodeId, Time
from repro.core.base import OnlineScheduler
from repro.core.coloring import min_valid_color
from repro.core.dependency import constraints_for
from repro.sim.messages import Message
from repro.sim.transactions import Transaction


class CoordinatedGreedyScheduler(OnlineScheduler):
    """Greedy coloring through a single coordinator node (Section III-E).

    Parameters
    ----------
    coordinator:
        The designated node.  Defaults to a graph center (a node of
        minimum eccentricity), which minimizes the worst round-trip.
    """

    def __init__(self, coordinator: Optional[NodeId] = None) -> None:
        super().__init__()
        self._coordinator_arg = coordinator
        self.coordinator: NodeId = 0
        #: analysis hook: (tid, request_latency, color)
        self.decision_log: List[tuple] = []

    def bind(self, sim) -> None:
        super().bind(sim)
        if self._coordinator_arg is not None:
            self.coordinator = self._coordinator_arg
        else:
            g = sim.graph
            self.coordinator = min(g.nodes(), key=lambda u: (g.eccentricity(u), u))

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        assert self.sim is not None
        for txn in new_txns:
            # Request: home -> coordinator.
            self.sim.router.send(
                t, txn.home, self.coordinator, "sched-request", {"tid": txn.tid}, self._on_request
            )

    def _on_request(self, now: Time, msg: Message) -> None:
        txn = self.sim.txns[msg.payload["tid"]]
        if txn.exec_time is not None:
            return
        # The coordinator decides with its accurate global view, but the
        # decision only takes effect once it has travelled back: floor the
        # color by the return latency.
        back = max(1, self.sim.graph.distance(self.coordinator, txn.home))
        cons = constraints_for(self.sim, txn, now=now)
        color = min_valid_color(cons, floor=back)
        self.decision_log.append((txn.tid, now - txn.gen_time, color))
        self.emit("coord-color", now, tid=txn.tid, color=color, rtt=now - txn.gen_time + back)
        self.sim.commit_schedule(txn, now + color)

    def has_pending(self) -> bool:
        # In-flight requests keep the engine alive via the router already;
        # report pending while any live transaction is unscheduled (the
        # live-set index keeps that set: O(1) per run-loop iteration).
        return self.sim.deps.has_unscheduled
