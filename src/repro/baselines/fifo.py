"""FIFO serial baseline: global arrival-order serialization.

The simplest correct online scheduler: transactions execute one after
another in arrival order, each waiting for the previous one to finish plus
the worst-case travel time of its own objects.  No concurrency is
exploited — two transactions on disjoint objects still serialize — so this
is the natural "no scheduler" upper anchor for every experiment.
"""

from __future__ import annotations

from typing import Dict, List

from repro._types import NodeId, ObjectId, Time
from repro.core.base import OnlineScheduler
from repro.network.oracles import OracleRow
from repro.sim.transactions import Transaction


class FifoSerialScheduler(OnlineScheduler):
    """Serializes all transactions in (arrival time, tid) order."""

    def __init__(self) -> None:
        super().__init__()
        self._horizon: Time = 0
        #: where each already-planned object will sit once the schedule
        #: drains (home of its last planned requester)
        self._planned_pos: Dict[ObjectId, NodeId] = {}

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        if not new_txns:
            return
        speed = self.sim.object_speed_den
        graph = self.sim.graph
        for txn in sorted(new_txns, key=lambda x: x.tid):
            bound: Time = 1
            # One cached Dijkstra row serves the whole object loop; with
            # an oracle the "row" answers point queries in O(1) instead.
            if graph.oracle is not None:
                drow = OracleRow(graph.oracle, txn.home)
            else:
                drow = graph.distances_from(txn.home)
            for oid in txn.all_objects:
                pos = self._planned_pos.get(oid)
                if pos is None:
                    reach = self.sim.object_time_to_reach(oid, txn.home)
                else:
                    reach = speed * drow[pos]
                bound = max(bound, reach)
            exec_time = max(self._horizon, t) + bound
            self.emit("fifo", t, tid=txn.tid, bound=bound)
            self.sim.commit_schedule(txn, exec_time)
            self._horizon = exec_time
            # Only writes move the master object; a read receives a copy
            # and must not perturb the planned master position.
            for oid in txn.objects:
                self._planned_pos[oid] = txn.home
