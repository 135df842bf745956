"""The synchronous discrete-event engine (paper Section II).

Per time step a node may (1) receive objects, (2) execute a transaction
whose objects have all assembled, (3) forward objects — in that order.  The
engine reproduces exactly this phase structure, but *skips* inactive time
steps: every future event lives on one typed event spine
(:class:`~repro.sim.events.EventQueue`), and the run loop jumps between
event times, so simulating a sparse schedule over a huge horizon is cheap.

The simulator is three explicit layers (docs/architecture.md):

* **Event spine** (:mod:`repro.sim.events`) — the clock: a single heap of
  typed events with per-kind deterministic tie-breaks, an O(1)
  next-active-time peek, and deduplicated scheduler alarms.
* **Transport** (:mod:`repro.sim.transport`) — object motion: direct
  whole-path legs (paper default), hop-by-hop motion, and composable
  egress/link capacity limits, selected via ``SimConfig.transport``.
* **Engine** (this module) — phase orchestration, transaction lifecycle,
  commit logic, and read-copy servicing.

Responsibility split (DESIGN.md §5): schedulers only assign execution
times via :meth:`Simulator.commit_schedule`; the engine independently moves
objects and fires transactions.  In strict mode (the default) a transaction
whose objects are missing at its execution step raises
:class:`InfeasibleScheduleError` — the engine is the ground-truth referee.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

from repro import durability
from repro._types import DeparturePolicy, NodeId, ObjectId, Time, TxnId, TxnState
from repro.errors import (
    CheckpointError,
    InfeasibleScheduleError,
    ReproError,
    RunInterrupted,
    SchedulingError,
    WarmupError,
    WorkloadError,
)
from repro.network.graph import Graph
from repro.obs.probe import NULL_PROBE
from repro.sim.config import SimConfig
from repro.sim.events import EventKind, EventQueue
from repro.sim.messages import MessageRouter
from repro.sim.objects import QueueEntry, SharedObject
from repro.sim.trace import (
    CopyLeg,
    ExecutionTrace,
    ExpiredRecord,
    FaultRecord,
    MembershipRecord,
    ObjectLeg,
    PartitionRecord,
    RescheduleRecord,
    TxnRecord,
    Violation,
)
from repro.sim.transactions import Transaction, TxnSpec
from repro.sim.transport import build_transport


class Simulator:
    """Synchronous data-flow DTM simulator.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    scheduler:
        An object implementing the :class:`repro.core.base.OnlineScheduler`
        protocol.  It is bound to this simulator on construction.
    workload:
        Optional workload providing ``initial_objects()`` and
        ``arrivals()`` (a finite iterable of :class:`TxnSpec`), and
        optionally ``on_commit(txn, t)`` for closed-loop generation.
        Tests may instead drive the engine manually with :meth:`submit`.
    config:
        A :class:`~repro.sim.config.SimConfig` bundling every run knob:
        departure policy, object speed, strictness, capacities, transport,
        probe, faults, service, checkpoints.  ``None`` runs the paper's
        default model.
    """

    def __init__(
        self,
        graph: Graph,
        scheduler,
        workload=None,
        *,
        config: Optional[SimConfig] = None,
    ) -> None:
        cfg = config or SimConfig()
        self.config = cfg
        self.graph = graph
        self.scheduler = scheduler
        self.workload = workload
        self.departure_policy = cfg.departure_policy
        self.object_speed_den = int(cfg.object_speed_den)
        self.strict = cfg.strict
        self.max_time = cfg.max_time
        self.probe = cfg.probe if cfg.probe is not None else NULL_PROBE
        #: fast-path guard: None when disabled, so every probe call site
        #: costs one predictable branch
        self._obs = self.probe if self.probe.enabled else None

        self.now: Time = 0
        self.objects: Dict[ObjectId, SharedObject] = {}
        self.txns: Dict[TxnId, Transaction] = {}
        self.live: Dict[TxnId, Transaction] = {}
        #: the event spine — single source of future engine events
        self.events = EventQueue()
        self.router = MessageRouter(graph, spine=self.events)
        #: fault layer (repro.faults): None in the reliable default model,
        #: a FaultInjector when cfg.faults carries a FaultPlan.  Must be
        #: set before build_transport — FaultyTransport binds to it.
        self.faults = None
        self._pending_fault_events = 0
        self._resched_floor: Dict[TxnId, Time] = {}
        #: elastic-membership state (repro.faults.MembershipPlan): the
        #: original member count (joined nodes get ids >= this and never
        #: home transactions), members that left permanently, and
        #: gracefully-draining members with their drain-start step
        self._initial_nodes: int = graph.num_nodes
        self._departed: Set[NodeId] = set()
        self._draining: Dict[NodeId, Time] = {}
        if cfg.faults is not None:
            from repro.faults import FaultInjector

            # Binding is the moment the plan meets the actual graph: a
            # typo'd node or edge id fails loudly here instead of a
            # window that silently never fires.
            cfg.faults.validate_against(graph)
            self.faults = FaultInjector(cfg.faults)
            self.router.injector = self.faults
            self.router.on_fault = self.record_fault
            # FAULT-event keys are (class, id, phase) integer triples so
            # crash and partition transitions at the same step order
            # deterministically: crashes (class 0) before partitions
            # (class 1), starts (phase 0) before ends (phase 1).
            for w in cfg.faults.crashes:
                self.events.push_fault(w.start, (0, w.node, 0), ("crash", w.node, w.duration))
                self.events.push_fault(w.end, (0, w.node, 1), ("restart", w.node, 0))
                self._pending_fault_events += 2
            for idx, p in enumerate(cfg.faults.partitions):
                self.events.push_fault(p.start, (1, idx, 0), ("partition", idx, p.duration))
                self.events.push_fault(p.end, (1, idx, 1), ("heal", idx, 0))
                self._pending_fault_events += 2
            # Membership transitions are fault class 2: joins (phase 0)
            # before drains (phase 2) before abrupt leaves (phase 3) at
            # the same step, all after crash/partition transitions.
            if cfg.faults.membership is not None:
                for j_idx, j in enumerate(cfg.faults.membership.joins):
                    self.events.push_fault(j.time, (2, j.node, 0), ("join", j_idx, 0))
                    self._pending_fault_events += 1
                for l in cfg.faults.membership.leaves:
                    phase = 2 if l.graceful else 3
                    kind = "drain" if l.graceful else "leave"
                    self.events.push_fault(l.time, (2, l.node, phase), (kind, l.node, 0))
                    self._pending_fault_events += 1
        #: the motion strategy (repro.sim.transport)
        self.transport = build_transport(cfg)
        self.transport.bind(self)
        #: ingestion front-end (repro.service): None when disabled, so
        #: every service call site costs one predictable branch and the
        #: disabled hot path is untouched
        self.service = None
        if cfg.service is not None:
            from repro.service.frontend import ServiceFrontEnd

            self.service = ServiceFrontEnd(cfg.service)
            self.service.bind(self)

        self._tid_counter = itertools.count()
        self._started = False
        self._needs_departure_check: Set[ObjectId] = set()
        #: observers called as fn(event, obj, t) for "register"/"arrive"
        #: events; used by distributed directories to track object motion
        self._object_observers: List = []
        #: per-node live transaction counts (nodes are dense already); a
        #: draining node leaves once its count reaches zero
        self._live_home_count: List[int] = [0] * graph.num_nodes
        #: step at which each scheduled transaction was scheduled
        self._schedule_times: Dict[TxnId, Time] = {}
        self._last_wake: Optional[Time] = None
        # The live-set index (repro.core.dependency): H_t's conflict
        # adjacency, per-object live and scheduled accessors, the
        # unscheduled set, and the within-step constraint memo.  Every
        # lifecycle site below makes exactly one call into it.  Imported
        # lazily: core.dependency imports this module for its type
        # annotations.
        from repro.core.dependency import DependencyTracker

        self.deps = DependencyTracker(self)

        self.trace = ExecutionTrace(
            graph_name=graph.name,
            initial_placement={},
            object_speed_den=self.object_speed_den,
        )
        #: open-system streaming state (repro.workloads.streaming): a lazy
        #: unbounded spec iterator plus its one-spec lookahead.  None for
        #: closed workloads, whose finite spec list is materialized below.
        self._arrival_iter = None
        self._arrival_next = None
        self._arrival_buffered: Optional[Time] = None
        self._open_warmup: Optional[Time] = None
        #: how many specs have been pulled from the open arrival stream —
        #: the stream's resume cursor: checkpoint restore rebuilds the
        #: seeded generator and discards exactly this many items
        self._arrival_pulled = 0
        #: lifetime active-step counter (never reset across run() calls);
        #: drives the periodic-checkpoint cadence and names {step} files
        self._active_steps = 0
        if workload is not None:
            for oid, node in workload.initial_objects().items():
                self.add_object(oid, node)
            if getattr(workload, "open_system", False):
                self._arrival_iter = workload.arrival_stream()
                self._arrival_next = next(self._arrival_iter, None)
                self._arrival_pulled += 1
            else:
                for spec in workload.arrivals():
                    self.submit(spec)
        scheduler.bind(self)
        #: bound-method caches for the run loop and per-commit hot paths
        #: (getattr-per-iteration showed up in profiles)
        self._sched_has_pending = getattr(scheduler, "has_pending", None)
        self._sched_on_commit = getattr(scheduler, "on_commit", None)
        self._wl_on_commit = getattr(workload, "on_commit", None) if workload is not None else None

    # ------------------------------------------------------------------
    # checkpoint / restore (repro.durability)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The open-system arrival generator cannot pickle; restore
        # rebuilds it from the workload seed and fast-forwards it by the
        # _arrival_pulled cursor, which mirrors every next() call made.
        state["_arrival_iter"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.workload is not None and getattr(self.workload, "open_system", False):
            it = self.workload.arrival_stream()
            for _ in range(self._arrival_pulled):
                next(it, None)
            self._arrival_iter = it

    def checkpoint(self, path: Optional[str] = None, *, sync: bool = True) -> str:
        """Snapshot the full engine state to ``path`` (atomic write).

        Defaults to ``SimConfig.checkpoint_path``; a ``{step}``
        placeholder in the path keeps one file per checkpointed step.
        With ``sync=False`` the snapshot is serialized by a forked child
        while this process continues (identical bytes, near-zero stall;
        the returned path may not exist yet).  Returns the resolved
        path.  See :mod:`repro.durability`.
        """
        from repro.durability import save_checkpoint, save_checkpoint_async

        target = path or self.config.checkpoint_path
        if not target:
            raise CheckpointError(
                "no checkpoint path: pass checkpoint(path=...) or set "
                "SimConfig.checkpoint_path"
            )
        writer = save_checkpoint if sync else save_checkpoint_async
        return writer(self, target)

    @classmethod
    def restore(cls, path: str) -> "Simulator":
        """Rebuild a simulator from a checkpoint file.

        The restored engine continues exactly where the snapshot was
        taken: calling :meth:`run` (with the original horizon, for open
        runs) produces a trace byte-identical to the uninterrupted run.
        """
        from repro.durability import load_checkpoint

        sim = load_checkpoint(path)
        if not isinstance(sim, cls):
            raise CheckpointError(
                f"{path} does not contain a Simulator "
                f"(got {type(sim).__name__})"
            )
        return sim

    # ------------------------------------------------------------------
    # public driving / scheduler API
    # ------------------------------------------------------------------
    def add_object(self, oid: ObjectId, node: NodeId) -> SharedObject:
        """Place a new shared object at ``node`` (at rest, no holder)."""
        if oid in self.objects:
            raise WorkloadError(f"duplicate object id {oid}")
        obj = SharedObject(
            oid, node, speed_den=self.object_speed_den, index=self.deps.add_object(oid)
        )
        self.objects[oid] = obj
        self.trace.initial_placement.setdefault(oid, node)
        for fn in self._object_observers:
            fn("register", obj, self.now)
        return obj

    def add_object_observer(self, fn) -> None:
        """Register ``fn(event, obj, t)`` for object lifecycle events
        ("register" on creation, "arrive" when a master object settles at
        a node).  Used by distributed directories (DESIGN.md S20)."""
        self._object_observers.append(fn)

    def submit(self, spec: TxnSpec) -> None:
        """Queue a transaction for generation at ``spec.gen_time``."""
        if spec.gen_time < self.now:
            raise WorkloadError(f"spec gen_time {spec.gen_time} is in the past (now={self.now})")
        self.events.push_spec(spec.gen_time, spec)

    def commit_schedule(self, txn: Transaction, exec_time: Time) -> None:
        """Scheduler callback: fix ``txn``'s execution time, once, forever."""
        if txn.state is TxnState.CANCELLED:
            # Service mode: the transaction's deadline expired while it
            # sat in a scheduler's pending machinery (bucket schedulers
            # defer scheduling); the late assignment is a no-op.
            return
        if txn.exec_time is not None:
            raise SchedulingError(f"transaction {txn.tid} already scheduled at {txn.exec_time}")
        if exec_time < self.now:
            raise SchedulingError(
                f"transaction {txn.tid}: execution time {exec_time} before now ({self.now})"
            )
        txn.exec_time = exec_time
        txn.state = TxnState.SCHEDULED
        self._schedule_times[txn.tid] = self.now
        self.deps.on_schedule(txn)
        if self._obs is not None:
            self._obs.on_schedule(txn, exec_time, self.now)
        self.events.push_exec(exec_time, txn.tid)
        for oid in txn.objects:
            obj = self._get_object(oid)
            obj.enqueue(txn.tid, exec_time)
            # Copies already shipped to readers that execute after this
            # writer are now stale — invalidate; they re-ship on commit.
            obj.invalidate_reads_after(QueueEntry(exec_time, txn.tid))
            self._needs_departure_check.add(oid)
        for oid in txn.reads:
            obj = self._get_object(oid)
            obj.enqueue_reader(txn.tid, exec_time)
            self._service_reads(obj, self.now)

    def add_alarm(self, t: Time) -> None:
        """Ask the engine to visit time step ``t`` (used by schedulers).

        Duplicate pending alarm times are dropped by the event spine, so
        schedulers may re-request their next wake-up every step for free.
        """
        if t >= self.now:
            self.events.push_alarm(t)

    def record_fault(
        self,
        kind: str,
        t: Time,
        *,
        node: Optional[NodeId] = None,
        oid: Optional[ObjectId] = None,
        extra: Time = 0,
    ) -> None:
        """Record one injected fault on the trace and notify the probe.

        Called by the engine itself, :class:`~repro.sim.transport.
        FaultyTransport`, :class:`~repro.sim.transport.
        LatencyDistTransport` (which requires a fault plan), and the
        message router; never called when ``SimConfig.faults`` is None,
        so fault-free traces stay empty.
        """
        self.trace.faults.append(FaultRecord(kind, t, node, oid, extra))
        if self._obs is not None:
            self._obs.on_fault(kind, t, node=node, oid=oid, extra=extra)

    def reschedule_floor(self, txn) -> Time:
        """Earliest execution time recovery allows for ``txn``.

        Combines the exponential-backoff floor set by the last
        ``RESCHEDULE`` of this transaction with the restart time of its
        (possibly crashed) home node.  ``OnlineScheduler.on_reschedule``
        implementations clamp their recomputed time to this."""
        floor = self._resched_floor.get(txn.tid, self.now)
        if self.faults is not None:
            restart = self.faults.restart_time(txn.home, self.now)
            if restart is not None and restart > floor:
                floor = restart
        return floor

    def _get_object(self, oid: ObjectId) -> SharedObject:
        try:
            return self.objects[oid]
        except KeyError:
            raise SchedulingError(f"unknown object id {oid}") from None

    # ------------------------------------------------------------------
    # state queries used by schedulers
    # ------------------------------------------------------------------
    def live_requesters(self, oid: ObjectId) -> List[Transaction]:
        """Live transactions that *write* ``oid``."""
        obj = self.objects.get(oid)
        if obj is None:
            return []
        return [self.txns[tid] for tid in self.deps.writers[obj.index]]

    def live_readers(self, oid: ObjectId) -> List[Transaction]:
        """Live transactions that *read* ``oid`` (read/write extension)."""
        obj = self.objects.get(oid)
        if obj is None:
            return []
        return [self.txns[tid] for tid in self.deps.readers[obj.index]]

    def object_time_to_reach(self, oid: ObjectId, node: NodeId) -> Time:
        """Upper bound on when ``oid`` could be brought to ``node``."""
        return self._get_object(oid).time_to_reach(self.graph, node, self.now)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _next_active_time(self) -> Optional[Time]:
        nxt = self.events.peek_time()
        wake = self.scheduler.next_wake_after(self.now)
        self._last_wake = wake
        if wake is not None and (nxt is None or wake < nxt):
            nxt = wake
        return nxt

    def run(
        self,
        max_steps: Optional[int] = None,
        *,
        until: Optional[Time] = None,
        warmup: Optional[Time] = None,
    ) -> ExecutionTrace:
        """Run until quiescence (or at most ``max_steps`` active steps).

        Quiescence: no pending generations, no live transactions, no
        in-flight objects/messages, and the scheduler reports no pending
        work.  With ``max_steps=N``, exactly N active steps may execute;
        needing an (N+1)-th raises :class:`SchedulingError`.

        **Open-system (steady-state) mode**: with an open workload
        (``workload.open_system`` true — see
        :mod:`repro.workloads.streaming`) arrivals are pulled lazily from
        ``workload.arrival_stream()`` and the run *must* be bounded by
        ``until`` (or ``SimConfig.max_time``): the stream is unbounded,
        so quiescence never arrives.  The run stops at the horizon even
        when the system is unstable — in-flight and unscheduled
        transactions are simply left behind, and their count is the
        **backlog** recorded (with generated/committed totals and the
        uncommitted generation times) in ``trace.meta["open"]`` for
        :mod:`repro.analysis.slo` to turn into a stability verdict.
        ``warmup`` marks the measurement cutoff (absolute steps) and is
        recorded alongside; the engine itself treats every step alike.
        """
        if self._arrival_iter is not None and until is None and self.max_time is None:
            raise WorkloadError(
                "open-system workload: pass run(until=...) or set "
                "SimConfig.max_time — unbounded arrivals never reach quiescence"
            )
        if until is not None and until < self.now:
            raise SchedulingError(f"run(until={until}) is in the past (now={self.now})")
        if warmup is None:
            warmup = self.config.warmup
        if warmup is not None:
            horizon = until if until is not None else self.max_time
            if warmup < 0:
                raise WarmupError(f"warmup must be >= 0, got {warmup}")
            if horizon is not None and warmup >= horizon:
                raise WarmupError(
                    f"warmup must be < horizon={horizon}, got {warmup}: "
                    "the measurement window would be empty"
                )
        self._open_warmup = warmup
        return self._run_loop(max_steps=max_steps, until=until)

    def run_until(self, until: Time, max_steps: Optional[int] = None) -> ExecutionTrace:
        """Advance the simulation to time ``until`` (inclusive) and return.

        Useful for interactive inspection: call repeatedly with growing
        horizons, peeking at ``sim.live`` / ``sim.objects`` between calls;
        a final :meth:`run` drains the remainder.  The returned trace is
        the (shared, still-growing) run trace.
        """
        if until < self.now:
            raise SchedulingError(f"run_until({until}) is in the past (now={self.now})")
        return self._run_loop(max_steps=max_steps, until=until)

    def _run_loop(self, *, max_steps: Optional[int], until: Optional[Time]) -> ExecutionTrace:
        if self.config.checkpoint_path is None:
            return self._drive(max_steps=max_steps, until=until)
        # A checkpointed run catches SIGTERM/SIGINT: the handler only sets
        # a flag, and the step loop turns it into one final checkpoint +
        # probe fsync + RunInterrupted, so a kill -TERM mid-campaign
        # always leaves a resumable snapshot and a parseable JSONL prefix.
        previous = durability.catch_interrupts()
        try:
            return self._drive(max_steps=max_steps, until=until)
        finally:
            durability.restore_handlers(previous)

    def _interrupt_exit(self) -> None:
        """Turn a caught SIGTERM/SIGINT into a checkpoint + clean raise."""
        import signal

        signum = durability.interrupted
        durability.interrupted = None
        written = self.checkpoint()
        durability.close_probes(self.probe)
        name = signal.Signals(signum).name
        raise RunInterrupted(
            f"run interrupted by {name} at t={self.now}; checkpoint written "
            f"to {written} (resume with --resume {written})",
            path=written,
            signum=signum,
        )

    def _drive(self, *, max_steps: Optional[int], until: Optional[Time]) -> ExecutionTrace:
        steps = 0
        ckpt_every = self.config.checkpoint_every
        obs = self._obs
        if obs is not None:
            obs.on_run_begin(self)
        if not self._started:
            # Time 0 may already carry generations.
            self._started = True
            self._step(self.now)
        while True:
            if durability.interrupted is not None:
                self._interrupt_exit()
            nxt = self._next_active_time()
            if (
                not self.live
                and not self._scheduler_pending()
                and (self.service is None or self.service.idle())
            ):
                if nxt is None:
                    break
                # Crash/partition-window bookkeeping events alone cannot
                # revive a quiescent run: stop instead of stepping through
                # every remaining window of an otherwise finished workload.
                if (
                    self._pending_fault_events
                    and len(self.events) == self._pending_fault_events
                    and self.router.pending == 0
                    and self._last_wake is None
                ):
                    break
            if nxt is None:
                # Live txns but nothing will ever happen again: deadlock.
                stuck = sorted(self.live)
                raise SchedulingError(f"deadlock: live transactions {stuck} will never execute")
            if until is not None and nxt > until:
                self.now = until
                break
            if self.max_time is not None and nxt > self.max_time:
                break
            if max_steps is not None and steps >= max_steps:
                raise SchedulingError(f"exceeded max_steps={max_steps} at t={self.now}")
            self.now = max(self.now + 1, nxt)
            if obs is not None and self._last_wake == self.now:
                obs.on_sched("wake", self.now)
            self._step(self.now)
            steps += 1
            self._active_steps += 1
            if ckpt_every is not None and self._active_steps % ckpt_every == 0:
                self.checkpoint(sync=self.config.checkpoint_sync)
        if until is not None and self.now < until:
            self.now = until  # quiescent early: the clock still advances
        self.trace.end_time = self.now
        self.trace.messages_sent = self.router.sent_count
        self.trace.message_hops = self.router.total_distance
        if self._arrival_iter is not None:
            # Open-run bookkeeping for the SLO/stability analysis: how much
            # work arrived vs committed, and the generation times of the
            # transactions left behind (the backlog) so the analysis can
            # reconstruct the full backlog-over-time series.  Recorded
            # before on_run_end so probes (stream counters) can read it.
            generated = len(self.txns)
            committed = len(self.trace.txns)
            # Cancelled (deadline-expired) transactions are not backlog:
            # the service resolved them.  len(expiries) is 0 with the
            # service disabled, so pre-service meta stays byte-identical.
            expired = len(self.trace.expiries)
            self.trace.meta["open"] = {
                "horizon": self.now,
                "warmup": self._open_warmup or 0,
                "generated": generated,
                "committed": committed,
                "backlog": generated - committed - expired,
                "uncommitted_gen_times": sorted(
                    txn.gen_time for txn in self.live.values()
                ),
            }
        if self.service is not None:
            # Recorded before on_run_end so probes (service counters)
            # can read it; absent entirely when the service is disabled.
            self.trace.meta["service"] = self.service.summary()
        if obs is not None:
            obs.on_run_end(self, self.trace)
        return self.trace

    def _scheduler_pending(self) -> bool:
        has = self._sched_has_pending
        return bool(has()) if has is not None else False

    def _pump_arrivals(self, t: Time) -> None:
        """Pull arrivals lazily from an open workload's stream.

        Pushes every stream spec due at or before ``t`` onto the event
        spine plus exactly **one** strictly-future spec — the lookahead
        that lets ``_next_active_time`` see the next arrival so the run
        loop advances to it (and stops pulling once it passes the
        horizon).  Sound because streams yield non-decreasing
        ``gen_time``: once one future spec is buffered, nothing earlier
        can follow.  Arrivals whose gen_time already passed (a stream
        starting behind ``now``) are generated at ``t``.
        """
        if self._arrival_buffered is not None and self._arrival_buffered <= t:
            self._arrival_buffered = None
        nxt = self._arrival_next
        if nxt is None:
            return
        it = self._arrival_iter
        while nxt is not None and nxt.gen_time <= t:
            self.events.push_spec(t, nxt)
            nxt = next(it, None)
            self._arrival_pulled += 1
        if nxt is not None and self._arrival_buffered is None:
            self.events.push_spec(nxt.gen_time, nxt)
            self._arrival_buffered = nxt.gen_time
            nxt = next(it, None)
            self._arrival_pulled += 1
        self._arrival_next = nxt

    def _step(self, t: Time) -> None:
        obs = self._obs
        events = self.events
        if obs is not None:
            obs.on_step_begin(t)
        # Phase 0 (fault layer only): crash/restart/partition transitions.
        if self.faults is not None:
            for _, _, _, payload in events.pop_kind(EventKind.FAULT, t):
                self._pending_fault_events -= 1
                kind, node, extra = payload
                if kind == "partition":
                    # ``node`` slot carries the window index; the record
                    # on the trace is the window itself, for certifier
                    # reconciliation of reroute/block slack.
                    p = self.config.faults.partitions[node]
                    self.trace.partitions.append(
                        PartitionRecord(p.cut, p.start, p.end)
                    )
                    self.record_fault(kind, t, extra=extra)
                elif kind == "heal":
                    self.record_fault(kind, t)
                elif kind == "join":
                    # ``node`` slot carries the join index.
                    self._apply_join(node, t)
                elif kind == "drain":
                    self._begin_drain(node, t)
                elif kind == "leave":
                    self._apply_leave(node, t)
                else:
                    self.record_fault(kind, t, node=node, extra=extra)
        if obs is not None:
            obs.on_phase_begin("receive", t)
        # Phase 1: receive objects (masters, then read copies).
        for _, _, oid, _ in events.pop_kind(EventKind.ARRIVAL, t):
            obj = self.objects[oid]
            if self.faults is not None and obj.in_transit:
                # A crashed destination cannot receive: hold the object in
                # transit until the node's restart step.
                restart = self.faults.restart_time(obj.dest, t)
                if restart is not None:
                    self.record_fault(
                        "crash-delay", t, node=obj.dest, oid=oid, extra=restart - t
                    )
                    obj.arrive_time = restart
                    events.push_arrival(restart, oid)
                    self._extend_leg_arrival(oid, restart)
                    continue
                if obj.dest in self._departed:
                    # The destination left the membership while the leg
                    # was in flight: the object bounces to the nearest
                    # surviving member (no settle — observers and read
                    # servicing wait for a member arrival).
                    obj.complete_leg()
                    self.relocate_object(obj, t)
                    continue
            obj.complete_leg()
            self._needs_departure_check.add(oid)
            if obs is not None:
                obs.on_arrive(oid, t, obj.location)
            self._service_reads(obj, t)
            for fn in self._object_observers:
                fn("arrive", obj, t)
        for _, _, (oid, tid, epoch), _ in events.pop_kind(EventKind.COPY, t):
            obj = self.objects[oid]
            if obj.read_epoch.get(tid, 0) == epoch:
                obj.reads_delivered.add(tid)
            # else: stale copy, invalidated by a later-scheduled writer
        if obs is not None:
            obs.on_phase_end("receive", t)
            obs.on_phase_begin("deliver", t)
        # Phase 1b: deliver control messages (their due markers retire).
        events.pop_kind(EventKind.MESSAGE, t)
        self.router.deliver_due(t)
        if obs is not None:
            obs.on_phase_end("deliver", t)
            obs.on_phase_begin("generate", t)
        # Phase 2: generate new transactions.
        self._pump_arrivals(t)
        new_txns: List[Transaction] = []
        service = self.service
        for _, _, _, spec in events.pop_kind(EventKind.SPEC, t):
            if self.faults is not None:
                # A crashed node generates nothing; its spec waits for the
                # restart step.
                restart = self.faults.restart_time(spec.home, t)
                if restart is not None:
                    self.events.push_spec(restart, spec)
                    continue
            if service is not None:
                service.offer(spec, t)
            else:
                new_txns.append(self._generate(spec, t))
        if service is not None and (
                service._direct or service.queue._entries
                or service._bp_engaged or t >= service._next_check):
            # Admission keeps the original gen_time (submission step) so
            # queue wait counts toward commit latency; p99-of-admitted
            # falls out of the ordinary latency percentiles.  The call
            # is skipped only while nothing is pending AND no controller
            # tick is due: the backlog-growth trigger samples the live
            # backlog on a fixed window (service._next_check), so
            # overload detection never depends on queue occupancy.
            for spec in service.admit(t):
                txn = self._generate(spec, t, gen_time=spec.gen_time)
                new_txns.append(txn)
                if txn.deadline is not None:
                    service.track(txn)
        if obs is not None:
            obs.on_phase_end("generate", t)
            obs.on_phase_begin("schedule", t)
        # Phase 3: let the scheduler act (schedule new txns / activate
        # buckets).
        try:
            self.scheduler.on_step(t, new_txns)
        except ReproError as exc:
            self._add_step_context(exc, t, new_txns)
            raise
        except Exception as exc:
            raise SchedulingError(self._step_context(exc, t, new_txns)) from exc
        if obs is not None:
            obs.on_phase_end("schedule", t)
            obs.on_phase_begin("execute", t)
        # Phase 4: execute due transactions in (time, tid) order.
        self._execute_due(t)
        if obs is not None:
            obs.on_phase_end("execute", t)
            obs.on_phase_begin("depart", t)
        # Phase 5: forward objects.
        self._process_departures(t)
        if obs is not None:
            obs.on_phase_end("depart", t)
        # Finalize graceful drains whose last home transaction finished
        # this step (after departures so freed objects leave normally).
        if self._draining:
            self._check_drains(t)
        # Clear stale scheduler alarms.
        popped = len(events.pop_kind(EventKind.ALARM, t))
        if obs is not None:
            if popped:
                obs.on_alarm(t, popped)
            obs.on_step_end(t)

    def _step_context(self, exc: BaseException, t: Time, new_txns: List[Transaction]) -> str:
        """Human-readable simulation context for a scheduler failure."""
        tids = [x.tid for x in new_txns]
        return (
            f"{type(self.scheduler).__name__}.on_step failed at t={t} "
            f"(new transactions {tids}): {exc}"
        )

    def _add_step_context(self, exc: BaseException, t: Time, new_txns: List[Transaction]) -> None:
        """Append step/transaction context to an in-flight scheduler error.

        Mutates ``exc.args`` so the original type (and any ``pytest.raises``
        match on the original message) is preserved while the traceback a
        user sees names the step and the transactions being scheduled.
        """
        tids = [x.tid for x in new_txns]
        note = f" [in {type(self.scheduler).__name__}.on_step at t={t}, new transactions {tids}]"
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (exc.args[0] + note,) + exc.args[1:]
        else:
            exc.args = exc.args + (note.strip(),)

    def _extend_leg_arrival(self, oid: ObjectId, new_arrive: Time) -> None:
        """Stretch the most recent trace leg of ``oid`` to ``new_arrive``
        (its destination was crashed on arrival; the matching
        ``crash-delay`` fault record accounts for the slack)."""
        legs = self.trace.legs
        for i in range(len(legs) - 1, -1, -1):
            leg = legs[i]
            if leg.oid == oid:
                legs[i] = ObjectLeg(leg.oid, leg.depart_time, leg.src, leg.dst, new_arrive)
                return

    # ------------------------------------------------------------------
    # elastic membership (repro.faults.MembershipPlan)
    # ------------------------------------------------------------------
    def _membership_hook(self, kind: str, node: NodeId, t: Time) -> None:
        hook = getattr(self.scheduler, "on_membership", None)
        if hook is not None:
            hook(kind, node, t)

    def _nearest_member(self, node: NodeId) -> NodeId:
        """Closest surviving *original* member to ``node`` (lowest id wins
        ties).  Joined nodes (ids >= the original count) are routing-only
        — they never home transactions or host objects, so distributed
        schedulers' per-node state and the one-txn-per-node ledger keep
        their bind-time shape."""
        d = self.graph.distances_from(node)
        best: Optional[NodeId] = None
        best_d = None
        for v in range(self._initial_nodes):
            if v == node or v in self._departed or v in self._draining:
                continue
            if best_d is None or d[v] < best_d:
                best, best_d = v, d[v]
        if best is None:
            raise SchedulingError(
                f"no surviving member left to take over from node {node}"
            )
        return best

    def _apply_join(self, idx: int, t: Time) -> None:
        j = self.config.faults.membership.joins[idx]
        new = self.graph.add_node(j.edges)
        assert new == j.node  # id density was validated at bind
        self._live_home_count.append(0)
        self.trace.membership.append(MembershipRecord("join", j.node, t, j.edges))
        self.record_fault("join", t, node=j.node)
        self._membership_hook("join", j.node, t)

    def _begin_drain(self, node: NodeId, t: Time) -> None:
        """Start a graceful leave: ``node`` stops taking new transaction
        homes now; it departs once its live transactions finish and its
        resting objects have migrated (see :meth:`_check_drains`)."""
        self._draining[node] = t
        self.trace.membership.append(MembershipRecord("drain", node, t))
        self.record_fault("drain", t, node=node)

    def _check_drains(self, t: Time) -> None:
        for node in sorted(self._draining):
            if self._live_home_count[node] == 0:
                self._apply_leave(node, t)

    def _apply_leave(self, node: NodeId, t: Time) -> None:
        """``node`` departs permanently: sever its edges for object
        routing, re-home its live transactions (abrupt leaves only —
        drained nodes have none), and forward its resting objects to
        surviving members."""
        drained = self._draining.pop(node, None)
        self._departed.add(node)
        incident = [(node, v) for v in self.graph.neighbors(node)]
        self.faults.mark_departed(node, incident, t)
        self.trace.membership.append(MembershipRecord("leave", node, t))
        self.record_fault(
            "leave", t, node=node, extra=(t - drained) if drained is not None else 0
        )
        for tid in sorted(self.live):
            txn = self.live[tid]
            if txn.home == node:
                self._rehome_txn(txn, t)
        for oid in sorted(self.objects):
            obj = self.objects[oid]
            if not obj.in_transit and obj.location == node:
                self.relocate_object(obj, t)
        self._membership_hook("leave", node, t)

    def _rehome_txn(self, txn: Transaction, t: Time) -> None:
        """Move a live transaction stranded by an abrupt leave to the
        nearest surviving member.  Its committed execution time stands;
        if its objects cannot reach the new home in time, the ordinary
        recovery path (:meth:`_recover`) reschedules it."""
        old = txn.home
        new = self._nearest_member(old)
        if 0 <= old < len(self._live_home_count):
            self._live_home_count[old] -= 1
        self._live_home_count[new] += 1
        txn.home = new
        self.deps.refresh_home(txn)
        self.record_fault("rehome", t, node=new, extra=txn.tid)
        # Copies already cut for the old home are useless there: re-cut
        # for the new one (in-flight stale copies are epoch-dropped).
        for oid in sorted(txn.reads):
            obj = self.objects[oid]
            if txn.tid in obj.reads_served:
                obj.reads_served.discard(txn.tid)
                obj.reads_delivered.discard(txn.tid)
                obj.read_epoch[txn.tid] = obj.read_epoch.get(txn.tid, 0) + 1
                self._service_reads(obj, t)
        for oid in txn.objects:
            self._needs_departure_check.add(oid)

    def relocate_object(self, obj: SharedObject, t: Time) -> None:
        """Forward ``obj`` from a departed (or membership-isolated)
        position to the nearest surviving member with exact physics —
        the recovery transfer out of a leave.  Also called by
        :class:`~repro.sim.transport.FaultyTransport` when the permanent
        routing cut leaves a planned leg no healable path."""
        target = self._nearest_member(obj.location)
        arrive = t + obj.travel_time(self.graph.distance(obj.location, target))
        self.record_fault("leave-recover", t, node=target, oid=obj.oid)
        self.trace.legs.append(ObjectLeg(obj.oid, t, obj.location, target, arrive))
        if self._obs is not None:
            self._obs.on_depart(obj.oid, t, obj.location, target, arrive)
        obj.begin_leg(target, arrive)
        self.events.push_arrival(arrive, obj.oid)

    def _generate(
        self, spec: TxnSpec, t: Time, *, gen_time: Optional[Time] = None
    ) -> Transaction:
        for oid in (*spec.objects, *spec.reads):
            if oid not in self.objects:
                raise WorkloadError(
                    f"transaction generated at t={t} requests unknown object {oid}"
                )
        home = spec.home
        if home in self._departed or home in self._draining:
            # The spec's home left (or is draining out of) the membership
            # before generation: the transaction is born at the nearest
            # surviving member instead.
            home = self._nearest_member(home)
        txn = Transaction(
            tid=next(self._tid_counter),
            home=home,
            objects=frozenset(spec.objects),
            gen_time=t if gen_time is None else gen_time,
            creates=tuple(spec.creates),
            reads=frozenset(spec.reads),
            deadline=spec.deadline,
            priority=spec.priority,
        )
        self.txns[txn.tid] = txn
        self.live[txn.tid] = txn
        if 0 <= txn.home < len(self._live_home_count):
            self._live_home_count[txn.home] += 1
        self.deps.on_generate(txn)
        if self._obs is not None:
            self._obs.on_generate(txn, t)
        return txn

    def _execute_due(self, t: Time) -> None:
        if self.service is not None and self.service._deadline_heap:
            # Expire deadline-passed transactions before EXEC events pop:
            # cancellation wins the race against both execution and any
            # fault-driven reschedule.  A transaction scheduled exactly
            # at its deadline keeps its commit attempt this step (see
            # ServiceFrontEnd.expire_due); if it misses, the miss path
            # below expires it instead of recovering.
            for txn in self.service.expire_due(t):
                self._expire(txn, t)
        due = self.events.pop_kind(EventKind.EXEC, t)
        if not due:
            return
        if len(due) > 1:
            due = sorted(due)
        for _, _, tid, _ in due:
            txn = self.txns[tid]
            if txn.state is TxnState.EXECUTED or txn.state is TxnState.CANCELLED:
                continue
            if txn.exec_time is None or txn.exec_time > t:
                continue  # stale event: recovery moved this execution
            missing = self._missing_objects(txn)
            home_down = self.faults is not None and self.faults.node_down(txn.home, t)
            if missing or home_down:
                if (
                    self.service is not None
                    and txn.deadline is not None
                    and txn.deadline <= t
                ):
                    # Last-chance attempt failed at the deadline step:
                    # cancel rather than recover — exactly one of the
                    # two paths may claim a transaction.
                    self._expire(txn, t)
                    continue
                if self.faults is not None:
                    self._recover(txn, t, missing)
                    continue
                if self.strict:
                    raise InfeasibleScheduleError([Violation(tid, t, tuple(sorted(missing)))])
                self.trace.violations.append(Violation(tid, t, tuple(sorted(missing))))
                if self._obs is not None:
                    self._obs.on_defer(tid, t, missing)
                self.events.push_exec(t + 1, tid)
                continue
            self._commit(txn, t)

    def _recover(self, txn: Transaction, t: Time, missing: List[ObjectId]) -> None:
        """Timeout-driven rescheduling (the fault layer's recovery path).

        ``txn`` missed its committed execution time — an object was lost
        or late, or its home node is down.  The engine: (1) re-requests
        any lost object from its last confirmed holder; (2) un-commits
        the transaction (releases its object-queue slots — the one case
        where a committed time is revised, explicitly outside the paper's
        model); (3) lets the scheduler pick a new time via
        ``on_reschedule``, clamped to an exponential-backoff floor; and
        (4) records a :class:`RescheduleRecord` so the certifier and
        analysis can account for the revision.
        """
        inj = self.faults
        n = inj.bump_reschedules(txn.tid)
        if inj.plan.max_reschedules is not None and n > inj.plan.max_reschedules:
            raise InfeasibleScheduleError(
                [Violation(txn.tid, t, tuple(sorted(missing)))]
            )
        backoff = inj.backoff_for(n)
        old_exec = txn.exec_time if txn.exec_time is not None else t
        # (1) Lost objects: the injector remembers where each dropped leg
        # actually left its object; re-request from that holder.
        for oid in missing:
            if oid in inj.lost:
                holder = inj.recover_lost(oid)
                self.record_fault("rerequest", t, node=holder, oid=oid)
                self._needs_departure_check.add(oid)
        # (2) Un-commit: release queue slots and any in-flight read state
        # so commit_schedule accepts a fresh time.  Served readers of this
        # writer's objects keep their copies: a reader is served only once
        # every writer preceding it has committed, so no copy depends on
        # this uncommitted writer's position.
        for oid in txn.objects:
            obj = self.objects[oid]
            obj.remove_writer(txn.tid)
            self._needs_departure_check.add(oid)
            self._service_reads(obj, t)
        # This transaction's own read copies: one still in flight was cut
        # for the old time.  Bump the epoch, as _rehome_txn does, so the
        # arrival check drops it; dropping the epoch entry with the rest
        # of the read state would let that stale copy be accepted.
        for oid in txn.reads:
            obj = self.objects[oid]
            epoch = obj.read_epoch.get(txn.tid, 0)
            obj.finish_read(txn.tid)
            obj.read_epoch[txn.tid] = epoch + 1
        txn.exec_time = None
        txn.state = TxnState.PENDING
        self.deps.on_unschedule(txn)
        floor = t + backoff
        # The backoff floor never pushes the next attempt past the run
        # horizon: a pathological reschedule count would otherwise park
        # the retry beyond max_time and guarantee a silent no-show.
        if self.max_time is not None and floor > self.max_time:
            floor = self.max_time
        restart = inj.restart_time(txn.home, t)
        if restart is not None and restart > floor:
            floor = restart
        self._resched_floor[txn.tid] = floor
        self.add_alarm(floor)
        # (3) The scheduler decides the new time (or re-enters its own
        # pending machinery, e.g. bucket insertion).
        self.scheduler.on_reschedule(txn, t)
        new_exec = txn.exec_time if txn.exec_time is not None else -1
        self.trace.reschedules.append(
            RescheduleRecord(txn.tid, t, old_exec, new_exec, backoff, tuple(sorted(missing)))
        )
        if self._obs is not None:
            self._obs.on_reschedule(txn.tid, t, backoff, new_exec, tuple(sorted(missing)))

    def _expire(self, txn: Transaction, t: Time) -> None:
        """Cancel an admitted transaction whose deadline passed (service
        mode, :mod:`repro.service`).

        Releases the transaction's object-queue slots, then retires it
        from the live set the way :meth:`_commit` does.  Served readers
        keep their copies: a reader is served only once every writer
        preceding it has committed, so an uncommitted expiring writer
        never precedes one and no copy depends on its queue position.
        The outcome is an :class:`ExpiredRecord`: the tid never reaches
        ``trace.txns``, and the certifier checks object conservation
        through the cancellation.
        """
        for oid in txn.objects:
            obj = self.objects[oid]
            obj.remove_writer(txn.tid)
            self._needs_departure_check.add(oid)
            self._service_reads(obj, t)
        for oid in txn.reads:
            self.objects[oid].finish_read(txn.tid)
        deadline = txn.deadline if txn.deadline is not None else t
        txn.exec_time = None
        txn.state = TxnState.CANCELLED
        self._retire(txn)
        self._resched_floor.pop(txn.tid, None)
        self.trace.expiries.append(
            ExpiredRecord(tid=txn.tid, time=t, deadline=deadline, gen_time=txn.gen_time)
        )
        if self._obs is not None:
            self._obs.on_expire(txn.tid, t, deadline)
        hook = getattr(self.scheduler, "on_cancel", None)
        if hook is not None:
            hook(txn, t)
        self.service.note_expired(txn, t)

    def _missing_objects(self, txn: Transaction) -> List[ObjectId]:
        missing = []
        for oid in txn.objects:
            obj = self.objects[oid]
            ok = (
                not obj.in_transit
                and obj.location == txn.home
                and obj.queue
                and obj.queue[0].tid == txn.tid
                and (obj.holder_txn is None or self.txns[obj.holder_txn].state is TxnState.EXECUTED)
            )
            if not ok:
                missing.append(oid)
        for oid in txn.reads:
            if txn.tid not in self.objects[oid].reads_delivered:
                missing.append(oid)
        return missing

    def _retire(self, txn: Transaction) -> None:
        """Remove ``txn`` from the live set (commit or deadline expiry)."""
        del self.live[txn.tid]
        if 0 <= txn.home < len(self._live_home_count):
            self._live_home_count[txn.home] -= 1
        self.deps.on_retire(txn)

    def _commit(self, txn: Transaction, t: Time) -> None:
        txn.state = TxnState.EXECUTED
        self._retire(txn)
        for oid in txn.reads:
            self.objects[oid].finish_read(txn.tid)
        for oid in txn.objects:
            obj = self.objects[oid]
            obj.pop_head(txn.tid)
            obj.holder_txn = txn.tid
            obj.version += 1
            # Cut copies for readers of the fresh version before the
            # master departs (departures run after executions).
            self._service_reads(obj, t)
            self._needs_departure_check.add(oid)
        for oid in txn.creates:
            obj = self.add_object(oid, txn.home)
            obj.holder_txn = txn.tid
        self.trace.txns[txn.tid] = TxnRecord(
            txn.tid,
            txn.home,
            tuple(sorted(txn.objects)),
            txn.gen_time,
            self._schedule_times.get(txn.tid, txn.gen_time),
            t,
            tuple(sorted(txn.reads)),
        )
        if self._obs is not None:
            self._obs.on_commit(txn, t)
        service = self.service
        if service is not None:
            # Commit accounting for the overload controller, inline: a
            # per-commit hot path where a method call is measurable.
            service._commits_since += 1
            service._seen_commit = True
            if txn.deadline is not None:
                service.deadline_commits += 1
        hook = self._sched_on_commit
        if hook is not None:
            hook(txn, t)
        wl_hook = self._wl_on_commit
        if wl_hook is not None:
            for spec in wl_hook(txn, t):
                self.submit(spec)

    def _service_reads(self, obj: SharedObject, t: Time) -> None:
        """Dispatch copies to serviceable readers (read/write extension).

        A reader is serviceable once every preceding writer (by execution
        key) has committed; its copy is cut from the master's resting
        position.  If the master is in transit, servicing re-triggers on
        arrival (the coloring's artificial-node accounting guarantees the
        copy still arrives in time).
        """
        if obj.in_transit or not obj.read_waiters:
            return
        graph = self.graph
        oracle = graph.oracle  # O(1) point lookups: no row materialised
        drow = None  # distances from the master's position, fetched lazily
        for entry in list(obj.read_waiters):
            if entry.tid in obj.reads_served or not obj.reader_serviceable(entry):
                continue
            obj.reads_served.add(entry.tid)
            reader_home = self.txns[entry.tid].home
            if reader_home == obj.location:
                # Co-located: a zero-length copy, recorded so the certifier
                # can verify where and at which version it was cut.
                obj.reads_delivered.add(entry.tid)
                self.trace.copy_legs.append(
                    CopyLeg(obj.oid, entry.tid, t, obj.location, reader_home, t, obj.version)
                )
                if self._obs is not None:
                    self._obs.on_copy(obj.oid, entry.tid, t, t)
                continue
            if oracle is not None:
                dist = oracle.distance(obj.location, reader_home)
            else:
                if drow is None:
                    drow = graph.distances_from(obj.location)
                dist = drow[reader_home]
            travel = obj.travel_time(dist)
            arrive = t + travel
            self.trace.copy_legs.append(
                CopyLeg(obj.oid, entry.tid, t, obj.location, reader_home, arrive, obj.version)
            )
            if self._obs is not None:
                self._obs.on_copy(obj.oid, entry.tid, t, arrive)
            self.events.push_copy(arrive, obj.oid, entry.tid, obj.read_epoch.get(entry.tid, 0))

    def _process_departures(self, t: Time) -> None:
        for _, _, oid, _ in self.events.pop_kind(EventKind.DEPART, t):
            self._needs_departure_check.add(oid)
        self.transport.begin_step(t)
        pending = self._needs_departure_check
        if not pending:
            return
        self._needs_departure_check = set()
        if len(pending) > 1:  # deterministic under capacity limits
            pending = sorted(pending)
        for oid in pending:
            self._maybe_depart(self.objects[oid], t)

    def _maybe_depart(self, obj: SharedObject, t: Time) -> None:
        if obj.in_transit or not obj.queue:
            return
        holder = obj.holder_txn
        if holder is not None and self.txns[holder].is_live:
            return  # current holder still needs the object
        nxt = obj.queue[0]
        target = self.txns[nxt.tid].home
        if target == obj.location:
            return  # already where it needs to be
        if self.departure_policy is DeparturePolicy.LAZY:
            travel = obj.travel_time(self.graph.distance(obj.location, target))
            depart = max(t, nxt.exec_time - travel)
            if depart > t:
                self.events.push_depart(depart, obj.oid)
                return
        leg = self.transport.plan_leg(obj, target, t)
        if leg is None:
            return  # blocked: the transport has scheduled a retry
        dst, arrive = leg
        self.trace.legs.append(ObjectLeg(obj.oid, t, obj.location, dst, arrive))
        if self._obs is not None:
            self._obs.on_depart(obj.oid, t, obj.location, dst, arrive)
        obj.begin_leg(dst, arrive)
        self.events.push_arrival(arrive, obj.oid)
