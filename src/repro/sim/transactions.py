"""Transaction objects and their lifecycle.

A transaction resides at a node of ``G`` and requests a set of shared
objects (paper Section II).  It executes *instantly* at the time step where
it has assembled all of them; all delay in the model is communication.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro._compat import slotted_dataclass
from repro._types import NodeId, ObjectId, Time, TxnId, TxnState


@slotted_dataclass(frozen=True)
class TxnSpec:
    """A workload-level description of a transaction to be generated.

    The engine turns specs into :class:`Transaction` instances, assigning
    transaction ids in arrival order.  ``objects`` is the *write* set
    (exclusive access, the paper's base model); ``reads`` is the read-only
    set of the read/write extension — readers receive copies and do not
    move the master object.
    """

    gen_time: Time
    home: NodeId
    objects: Tuple[ObjectId, ...]
    creates: Tuple[ObjectId, ...] = ()
    reads: Tuple[ObjectId, ...] = ()
    #: absolute commit deadline (service mode, repro.service): the
    #: transaction must execute at or before this step or be cancelled;
    #: None (default) = best effort, never expires
    deadline: Optional[Time] = None
    #: admission priority class (larger = more important); only the
    #: ``priority-class`` admission policy reads it
    priority: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "creates", tuple(self.creates))
        object.__setattr__(self, "reads", tuple(self.reads))
        if set(self.objects) & set(self.reads):
            raise ValueError("an object cannot be both read and written by one transaction")
        if self.deadline is not None and self.deadline < self.gen_time:
            raise ValueError(
                f"deadline {self.deadline} precedes gen_time {self.gen_time}"
            )


@slotted_dataclass()
class Transaction:
    """A transaction pinned to ``home``.

    ``objects`` is the write set (the object itself must be assembled at
    ``home``); ``reads`` is the read-only set (a copy suffices, and the
    master object is not moved).  ``exec_time`` is assigned exactly once
    by a scheduler (schedulers in this library never revise committed
    execution times — the paper highlights this property at the end of
    Section II).  ``creates`` lists objects this transaction brings into
    existence when it commits.
    """

    tid: TxnId
    home: NodeId
    objects: FrozenSet[ObjectId]
    gen_time: Time
    creates: Tuple[ObjectId, ...] = ()
    exec_time: Optional[Time] = None
    state: TxnState = TxnState.PENDING
    reads: FrozenSet[ObjectId] = frozenset()
    #: absolute commit deadline (service mode); None = never expires
    deadline: Optional[Time] = None
    #: admission priority class (larger = more important)
    priority: int = 0

    def __post_init__(self) -> None:
        self.objects = frozenset(self.objects)
        self.reads = frozenset(self.reads)

    @property
    def all_objects(self) -> FrozenSet[ObjectId]:
        """Everything the transaction accesses (writes plus reads)."""
        return self.objects | self.reads

    @property
    def is_live(self) -> bool:
        """Live = generated but neither executed nor cancelled."""
        return self.state is TxnState.PENDING or self.state is TxnState.SCHEDULED

    @property
    def latency(self) -> Optional[Time]:
        """Execution duration ``t_T - t`` once scheduled, else ``None``."""
        if self.exec_time is None:
            return None
        return self.exec_time - self.gen_time

    def __hash__(self) -> int:
        return hash(self.tid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        objs = ",".join(map(str, sorted(self.objects)))
        return (
            f"Txn(t{self.tid}@n{self.home} objs=[{objs}] gen={self.gen_time}"
            f" exec={self.exec_time} {self.state.value})"
        )
