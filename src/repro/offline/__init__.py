"""Offline batch schedulers — the algorithm ``A`` of Section IV.

These stand in for the batch algorithms of Busch et al. [4] (SPAA 2017):
feasible batch schedulers with the two Section IV-A modifications
(append-after operation against already-scheduled transactions, and the
suffix property).  See DESIGN.md "Substitutions".
"""

from repro.offline.base import (
    BatchScheduler,
    SimStateView,
    StandaloneView,
    check_suffix_property,
    enforce_suffix_property,
)
from repro.offline.coloring_batch import ColoringBatchScheduler
from repro.offline.line import LineBatchScheduler
from repro.offline.cluster import ClusterBatchScheduler
from repro.offline.star import StarBatchScheduler
from repro.offline.improver import ImprovedBatchScheduler

__all__ = [
    "BatchScheduler",
    "SimStateView",
    "StandaloneView",
    "check_suffix_property",
    "enforce_suffix_property",
    "ColoringBatchScheduler",
    "LineBatchScheduler",
    "ClusterBatchScheduler",
    "StarBatchScheduler",
    "ImprovedBatchScheduler",
]
