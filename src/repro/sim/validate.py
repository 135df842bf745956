"""Independent certification of execution traces.

Given only the raw trace (initial placement, object legs, transaction
records) and the graph, :func:`certify_trace` re-derives whether the run was
physically possible under the paper's model:

1. every object leg takes exactly ``speed_den * d_G(src, dst)`` steps;
2. legs of each object are contiguous in space and non-overlapping in time;
3. every transaction had *all* of its objects at its home node at its
   execution step;
4. per object, consecutive acquirers in execution order (ties broken by
   transaction id) at different homes are at least the object's travel
   time apart;
5. (optional) at most one live transaction per node at any time.

This is the library's correctness oracle: tests and every benchmark run it,
so a scheduler cannot report an infeasible makespan.

The checks are transport-agnostic: each trace leg is certified on its own
(length, contiguity, non-overlap), so a hop-granularity trace — many
single-edge legs per journey, as produced by
:class:`~repro.sim.transport.HopTransport` — certifies exactly like a
direct-transport trace of whole shortest-path legs.

Fault-injected traces (:mod:`repro.faults`) certify too: a trace carrying
fault records may have *slower* legs than physics dictates, but every
step of per-object slack must be accounted for by a matching ``delay`` /
``crash-delay`` / ``reroute`` fault record (legs may never be *faster*),
every recovery reschedule must be consistent with the final execution
times, and every partition-dependent record (``reroute``,
``partition-block``, ``partition-msg``) must fall inside a
:class:`~repro.sim.trace.PartitionRecord` window *or* after an elastic
membership leave (departed edges cut the routing graph exactly like a
partition that never heals).  A fault-free trace gets the
exact-equality checks, unchanged.

Traces with elastic membership (:class:`~repro.sim.trace.
MembershipRecord`) are certified against the *final* graph: join records
are replayed onto a scratch copy via :meth:`~repro.network.graph.Graph.
add_node`.  The no-shortcut admission condition guarantees pre-existing
distances never change, so one rebuilt graph certifies every leg of the
run — including legs that predate the joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._types import NodeId, ObjectId, Time, TxnId
from repro.errors import InfeasibleScheduleError
from repro.network.graph import Graph
from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class CertificationIssue:
    """One problem found by the certifier."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def certify_trace(
    graph: Graph,
    trace: ExecutionTrace,
    *,
    one_txn_per_node: bool = False,
    raise_on_failure: bool = True,
) -> List[CertificationIssue]:
    """Certify a trace; returns the list of issues (empty = feasible)."""
    issues: List[CertificationIssue] = []
    speed = trace.object_speed_den

    # Elastic membership: replay join records onto a scratch graph so
    # legs touching joined nodes certify with real distances.  The
    # caller's graph is never mutated; no-shortcut admission means the
    # rebuilt graph is distance-correct for the whole run.
    joins = [m for m in trace.membership if m.kind == "join"]
    if joins:
        if max(m.node for m in joins) < graph.num_nodes:
            # The graph already contains the joined nodes — the caller
            # passed the engine-mutated graph of a live run.  Verify the
            # anchor edges match the records instead of rebuilding.
            for m in joins:
                for a, _w in m.edges:
                    if not graph.has_edge(m.node, a):
                        issues.append(
                            CertificationIssue(
                                "membership",
                                f"join record for node {m.node} names anchor "
                                f"{a} but the graph has no such edge",
                            )
                        )
        else:
            rebuilt = graph.copy(oracle=False)
            for m in sorted(joins, key=lambda m: m.node):
                new = rebuilt.add_node(tuple(m.edges))
                if new != m.node:
                    issues.append(
                        CertificationIssue(
                            "membership",
                            f"join record names node {m.node} but the next "
                            f"dense id is {new}",
                        )
                    )
            graph = rebuilt
    leave_times = sorted(
        m.time for m in trace.membership if m.kind == "leave"
    )

    # Fault accounting (repro.faults): per-object slack budget from
    # delay / crash-delay / reroute records.  Empty for fault-free
    # traces, which then get the exact-equality leg check below.
    has_faults = (
        bool(trace.faults) or bool(trace.partitions) or bool(trace.membership)
    )
    fault_slack: Dict[ObjectId, Time] = {}
    for f in trace.faults:
        if f.kind in ("delay", "crash-delay", "reroute", "net-delay") and f.oid is not None:
            fault_slack[f.oid] = fault_slack.get(f.oid, 0) + f.extra

    timelines = trace.object_timelines()

    # 1 & 2: leg physics and contiguity.
    for oid, timeline in timelines.items():
        pos, t = timeline.start, 0
        slack_used: Time = 0
        for leg in timeline.legs:
            expected = speed * graph.distance(leg.src, leg.dst)
            actual = leg.arrive_time - leg.depart_time
            if has_faults:
                # Injected delays make legs slower, never faster; the
                # per-object total is reconciled against the fault
                # records after the loop.
                if actual < expected:
                    issues.append(
                        CertificationIssue(
                            "leg-speed",
                            f"object {oid} leg {leg.src}->{leg.dst} took "
                            f"{actual}, faster than physics ({expected})",
                        )
                    )
                else:
                    slack_used += actual - expected
            elif actual != expected:
                issues.append(
                    CertificationIssue(
                        "leg-speed",
                        f"object {oid} leg {leg.src}->{leg.dst} took "
                        f"{actual}, expected {expected}",
                    )
                )
            if leg.src != pos:
                issues.append(
                    CertificationIssue(
                        "leg-gap",
                        f"object {oid} departs from {leg.src} but was at {pos}",
                    )
                )
            if leg.depart_time < t:
                issues.append(
                    CertificationIssue(
                        "leg-overlap",
                        f"object {oid} departs at {leg.depart_time} before arriving at {t}",
                    )
                )
            pos, t = leg.dst, leg.arrive_time
        if has_faults and slack_used != fault_slack.get(oid, 0):
            issues.append(
                CertificationIssue(
                    "fault-slack",
                    f"object {oid} legs carry {slack_used} steps of slack but "
                    f"fault records account for {fault_slack.get(oid, 0)}",
                )
            )

    # 3: object presence at execution.
    for rec in trace.txns.values():
        for oid in rec.objects:
            timeline = timelines.get(oid)
            if timeline is None:
                issues.append(
                    CertificationIssue(
                        "unknown-object", f"txn {rec.tid} uses untracked object {oid}"
                    )
                )
                continue
            if not timeline.at_rest(rec.exec_time, rec.home):
                issues.append(
                    CertificationIssue(
                        "absent-object",
                        f"txn {rec.tid} executed at t={rec.exec_time} on node "
                        f"{rec.home} without object {oid}",
                    )
                )

    # 4: per-object serialization.
    writers_by_obj: Dict[ObjectId, list] = {}
    for rec in trace.executions_in_order():
        for oid in rec.objects:
            writers_by_obj.setdefault(oid, []).append(rec)
    for oid in timelines:
        prev = None
        for rec in writers_by_obj.get(oid, ()):
            if prev is not None:
                gap = speed * graph.distance(prev.home, rec.home)
                if rec.home != prev.home and rec.exec_time - prev.exec_time < gap:
                    issues.append(
                        CertificationIssue(
                            "too-fast",
                            f"object {oid}: {prev.tid}@{prev.home}(t={prev.exec_time})"
                            f" -> {rec.tid}@{rec.home}(t={rec.exec_time}) needs {gap}"
                            " steps of travel",
                        )
                    )
            prev = rec

    # 4b: read/write extension — copies cut correctly and delivered in time.
    copy_by_reader: Dict[Tuple[ObjectId, TxnId], list] = {}
    for cl in trace.copy_legs:
        copy_by_reader.setdefault((cl.oid, cl.reader_tid), []).append(cl)
    for cl in trace.copy_legs:
        expected = speed * graph.distance(cl.src, cl.dst)
        if cl.arrive_time - cl.depart_time != expected:
            issues.append(
                CertificationIssue(
                    "copy-speed",
                    f"copy of {cl.oid} for reader {cl.reader_tid} took "
                    f"{cl.arrive_time - cl.depart_time}, expected {expected}",
                )
            )
        timeline = timelines.get(cl.oid)
        if timeline is not None and not timeline.at_rest(cl.depart_time, cl.src):
            issues.append(
                CertificationIssue(
                    "copy-origin",
                    f"copy of {cl.oid} cut at node {cl.src} at t={cl.depart_time}"
                    " where the master was not at rest",
                )
            )
    # Each reader must have received at least one *current* copy: right
    # destination, in time, carrying exactly the version written by its
    # preceding writers, cut no earlier than their last commit.  (Earlier
    # copies may exist — they were invalidated by later-scheduled writers
    # and only need to satisfy the physics checks above.)
    for rec in trace.txns.values():
        for oid in rec.reads:
            preceding = [
                w for w in writers_by_obj.get(oid, [])
                if (w.exec_time, w.tid) < (rec.exec_time, rec.tid)
            ]
            expect_version = len(preceding)
            last_commit = max((w.exec_time for w in preceding), default=0)
            legs = copy_by_reader.get((oid, rec.tid), [])
            ok = any(
                cl.dst == rec.home
                and cl.arrive_time <= rec.exec_time
                and cl.version == expect_version
                and cl.depart_time >= last_commit
                for cl in legs
            )
            if not ok:
                issues.append(
                    CertificationIssue(
                        "absent-copy",
                        f"reader txn {rec.tid} executed at t={rec.exec_time} without"
                        f" a current copy (version {expect_version}) of object {oid}",
                    )
                )

    # 5: one live transaction per node.
    if one_txn_per_node:
        by_node: Dict[NodeId, List] = {}
        for rec in trace.txns.values():
            by_node.setdefault(rec.home, []).append(rec)
        for node, recs in by_node.items():
            recs.sort(key=lambda r: r.gen_time)
            for a, b in zip(recs, recs[1:]):
                if b.gen_time <= a.exec_time and b.tid != a.tid:
                    # A node may generate its next txn at the commit step's
                    # successor; simultaneous liveness is the violation.
                    if b.gen_time < a.exec_time:
                        issues.append(
                            CertificationIssue(
                                "node-overlap",
                                f"node {node}: txns {a.tid} and {b.tid} live together",
                            )
                        )

    # 6: recovery reschedules (repro.faults) must be consistent with the
    # final execution times: a transaction cannot have executed before the
    # reschedule that revived it, and a recommitted time cannot precede
    # the recovery step that chose it.
    last_resched: Dict[TxnId, Time] = {}
    for r in trace.reschedules:
        if r.new_exec != -1 and r.new_exec < r.time:
            issues.append(
                CertificationIssue(
                    "reschedule",
                    f"txn {r.tid} rescheduled at t={r.time} to earlier time {r.new_exec}",
                )
            )
        last_resched[r.tid] = max(last_resched.get(r.tid, 0), r.time)
    for tid, t_resched in last_resched.items():
        rec = trace.txns.get(tid)
        if rec is not None and rec.exec_time < t_resched:
            issues.append(
                CertificationIssue(
                    "reschedule",
                    f"txn {tid} executed at t={rec.exec_time} before its last "
                    f"reschedule at t={t_resched}",
                )
            )

    # 7: partition reconciliation (repro.faults).  Every window must be
    # well-formed over real edges of G, and every partition-dependent
    # fault record must fall inside some recorded window — a reroute or
    # block with no covering partition means the transport invented a
    # detour the injected plan never asked for.
    for p in trace.partitions:
        if p.start >= p.end:
            issues.append(
                CertificationIssue(
                    "partition",
                    f"partition window [{p.start}, {p.end}) is empty or reversed",
                )
            )
        for u, v in p.cut:
            if not graph.has_edge(u, v):
                issues.append(
                    CertificationIssue(
                        "partition",
                        f"partition cut names non-edge ({u}, {v}) of {graph.name!r}",
                    )
                )
    for f in trace.faults:
        if f.kind in ("reroute", "partition-block", "partition-msg"):
            covered = any(p.covers(f.time) for p in trace.partitions)
            # A membership leave severs its incident edges permanently:
            # detours after the first departure are legitimate even with
            # no partition window (the cut never heals).
            if not covered and not (leave_times and leave_times[0] <= f.time):
                issues.append(
                    CertificationIssue(
                        "partition",
                        f"{f.kind} record at t={f.time} has no covering "
                        "partition window or prior membership leave",
                    )
                )

    # 8: service-mode cancellations (repro.service).  A deadline-expired
    # transaction was cancelled before committing: its tid must never
    # carry a TxnRecord, it may expire only once, and the cancellation
    # cannot predate the deadline it enforces.  Object conservation
    # through the cancellation is implied by checks 1-4: the released
    # queue slots leave no trace legs, so any physics inconsistency the
    # un-commit introduced would already have surfaced above.
    seen_expired = set()
    for e in trace.expiries:
        if e.tid in trace.txns:
            issues.append(
                CertificationIssue(
                    "expired-commit",
                    f"txn {e.tid} both committed (t="
                    f"{trace.txns[e.tid].exec_time}) and expired (t={e.time})",
                )
            )
        if e.tid in seen_expired:
            issues.append(
                CertificationIssue(
                    "expired-twice", f"txn {e.tid} expired more than once"
                )
            )
        seen_expired.add(e.tid)
        if e.time < e.deadline:
            issues.append(
                CertificationIssue(
                    "early-expiry",
                    f"txn {e.tid} cancelled at t={e.time}, before its "
                    f"deadline {e.deadline}",
                )
            )

    # Engine-recorded violations are certification failures too.
    for v in trace.violations:
        issues.append(CertificationIssue("engine-violation", str(v)))

    if issues and raise_on_failure:
        raise InfeasibleScheduleError(issues)
    return issues
