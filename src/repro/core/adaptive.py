"""Adaptive scheduler: pick the right paper algorithm for the topology.

The paper's results split cleanly by diameter: the greedy schedule is
near-optimal on small-diameter graphs (Sections III-C/D), while the
bucket conversion carries the guarantees on large-diameter graphs
(Section IV-D).  This wrapper encodes that decision rule so a user who
doesn't know their topology's regime still gets the right algorithm —
and it picks the topology-aware offline scheduler when the graph carries
a known layout.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro._types import Time
from repro.core.base import OnlineScheduler
from repro.core.bucket import BucketScheduler
from repro.core.greedy import GreedyScheduler
from repro.network.topologies import ClusterLayout, StarLayout
from repro.offline.base import BatchScheduler
from repro.offline.cluster import ClusterBatchScheduler
from repro.offline.coloring_batch import ColoringBatchScheduler
from repro.offline.line import LineBatchScheduler
from repro.offline.star import StarBatchScheduler
from repro.sim.transactions import Transaction


def pick_batch_scheduler(graph) -> BatchScheduler:
    """Topology-aware offline scheduler when the structure is known."""
    layout = getattr(graph, "layout", None)
    if isinstance(layout, ClusterLayout):
        return ClusterBatchScheduler()
    if isinstance(layout, StarLayout):
        return StarBatchScheduler()
    name = getattr(graph, "name", "")
    if name.startswith(("line", "ring")):
        return LineBatchScheduler()
    return ColoringBatchScheduler("degree")


class AdaptiveScheduler(OnlineScheduler):
    """Greedy below the diameter threshold, bucket above it.

    ``threshold_factor``: use greedy while
    ``diameter <= threshold_factor * log2(n)`` (the Section III regime),
    else the bucket conversion of :func:`pick_batch_scheduler`'s choice.
    The decision and its inputs are exposed for inspection.
    """

    def __init__(self, threshold_factor: float = 2.0) -> None:
        super().__init__()
        self.threshold_factor = threshold_factor
        self.delegate: Optional[OnlineScheduler] = None
        self.choice: str = ""

    def bind(self, sim) -> None:
        super().bind(sim)
        n = sim.graph.num_nodes
        d = sim.graph.diameter()
        if d <= self.threshold_factor * max(1, math.log2(max(2, n))):
            self.delegate = GreedyScheduler()
            self.choice = "greedy"
        else:
            self.delegate = BucketScheduler(pick_batch_scheduler(sim.graph))
            self.choice = f"bucket({self.delegate.batch.name})"
        self.delegate.bind(sim)
        self.emit("adaptive", 0, choice=self.choice)

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        self.delegate.on_step(t, new_txns)

    def next_wake_after(self, t: Time) -> Optional[Time]:
        return self.delegate.next_wake_after(t)

    def has_pending(self) -> bool:
        return self.delegate.has_pending()
