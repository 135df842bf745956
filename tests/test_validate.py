"""Unit tests for the independent trace certifier."""

import copy
import dataclasses
import hashlib
import inspect
import json
import os
import re

import pytest

from repro.analysis.gantt import render_gantt
from repro.analysis.ratios import competitive_ratio
from repro.core import GreedyScheduler
from repro.errors import InfeasibleScheduleError
from repro.faults import FaultPlan
from repro.network import topologies
from repro.service.config import ServiceConfig
from repro.sim import validate
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.trace import ExecutionTrace, ObjectLeg, TxnRecord, Violation
from repro.sim.validate import certify_trace
from repro.workloads import ClosedLoopWorkload, OnlineWorkload
from repro.workloads.streaming import PoissonOpenWorkload


def make_trace(placement, txns, legs, speed=1):
    trace = ExecutionTrace("test", dict(placement), object_speed_den=speed)
    for rec in txns:
        trace.txns[rec.tid] = rec
    trace.legs.extend(legs)
    return trace


class TestCleanTraces:
    def test_empty_trace(self):
        g = topologies.line(4)
        assert certify_trace(g, make_trace({}, [], [])) == []

    def test_stationary_object(self):
        g = topologies.line(4)
        trace = make_trace(
            {0: 2}, [TxnRecord(0, 2, (0,), 0, 0, 1)], []
        )
        assert certify_trace(g, trace) == []

    def test_moving_object(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 5, (0,), 0, 0, 5)],
            [ObjectLeg(0, 0, 0, 5, 5)],
        )
        assert certify_trace(g, trace) == []

    def test_chain(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 2, (0,), 0, 0, 2), TxnRecord(1, 6, (0,), 0, 0, 6)],
            [ObjectLeg(0, 0, 0, 2, 2), ObjectLeg(0, 2, 2, 6, 6)],
        )
        assert certify_trace(g, trace) == []


class TestDetection:
    def test_wrong_leg_speed(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 5, (0,), 0, 0, 3)],
            [ObjectLeg(0, 0, 0, 5, 3)],  # 3 steps for distance 5
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "leg-speed" for i in issues)

    def test_teleporting_object(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 5, (0,), 0, 0, 10)],
            [ObjectLeg(0, 3, 2, 5, 6)],  # departs from node 2, was at 0
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "leg-gap" for i in issues)

    def test_overlapping_legs(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 5, (0,), 0, 0, 20)],
            [ObjectLeg(0, 0, 0, 4, 4), ObjectLeg(0, 2, 4, 5, 3)],
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert issues  # both overlap and speed problems

    def test_absent_object(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 5, (0,), 0, 0, 2)],  # executed before arrival
            [ObjectLeg(0, 0, 0, 5, 5)],
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "absent-object" for i in issues)

    def test_too_fast_serialization(self):
        g = topologies.line(8)
        # both executed with the object "present" per forged legs but the
        # schedule-level gap is impossible
        trace = make_trace(
            {0: 0},
            [TxnRecord(0, 0, (0,), 0, 0, 1), TxnRecord(1, 7, (0,), 0, 0, 2)],
            [ObjectLeg(0, 1, 0, 7, 8)],
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind in ("too-fast", "absent-object") for i in issues)

    def test_engine_violations_propagate(self):
        g = topologies.line(4)
        trace = make_trace({0: 0}, [], [])
        trace.violations.append(Violation(0, 5, (0,)))
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "engine-violation" for i in issues)

    def test_raise_on_failure(self):
        g = topologies.line(8)
        trace = make_trace(
            {0: 0}, [TxnRecord(0, 5, (0,), 0, 0, 2)], [ObjectLeg(0, 0, 0, 5, 5)]
        )
        with pytest.raises(InfeasibleScheduleError):
            certify_trace(g, trace)

    def test_unknown_object(self):
        g = topologies.line(8)
        trace = make_trace({}, [TxnRecord(0, 5, (9,), 0, 0, 2)], [])
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "unknown-object" for i in issues)


class TestOneTxnPerNode:
    def test_overlap_detected(self):
        g = topologies.line(4)
        trace = make_trace(
            {0: 1},
            [
                TxnRecord(0, 1, (0,), 0, 0, 10),
                TxnRecord(1, 1, (0,), 5, 5, 12),  # generated while tid 0 live
            ],
            [],
        )
        issues = certify_trace(g, trace, one_txn_per_node=True, raise_on_failure=False)
        assert any(i.kind == "node-overlap" for i in issues)

    def test_sequential_ok(self):
        g = topologies.line(4)
        trace = make_trace(
            {0: 1},
            [
                TxnRecord(0, 1, (0,), 0, 0, 4),
                TxnRecord(1, 1, (0,), 5, 5, 6),
            ],
            [],
        )
        assert certify_trace(g, trace, one_txn_per_node=True) == []


# -- mutation table: every issue kind fires on a corrupted engine trace --

def _closed():
    g = topologies.clique(8)
    wl = ClosedLoopWorkload(g, num_objects=4, k=2, rounds=3, seed=1)
    return Simulator(g, GreedyScheduler(), wl).run()


def _online(config=None, read_fraction=0.0):
    g = topologies.grid([3, 3])
    wl = OnlineWorkload.bernoulli(
        g, 6, 2, rate=0.25, horizon=16, seed=3, read_fraction=read_fraction
    )
    return Simulator(g, GreedyScheduler(), wl, config=config).run()


def _grid_edges():
    return [(u, v) for u, v, _ in topologies.grid([3, 3]).edges()]


def _faulty():
    plan = FaultPlan.random(
        5, num_nodes=9, horizon=16, drop_prob=0.1, delay_prob=0.2,
        max_delay=3, partition_count=2, edges=_grid_edges(),
    )
    return _online(SimConfig(faults=plan))


def _churn():
    plan = FaultPlan.random(
        13, num_nodes=9, horizon=16, join_count=1, leave_count=2,
        edges=_grid_edges(),
    )
    return _online(SimConfig(faults=plan))


def _deadlines():
    g = topologies.grid([3, 3])
    wl = PoissonOpenWorkload(g, 2.0, num_objects=6, k=2, seed=3)
    service = ServiceConfig(policy="deadline-edf", deadline=6, queue_cap=8)
    sim = Simulator(g, GreedyScheduler(), wl, config=SimConfig(service=service))
    return sim.run(until=30)


#: base name -> (fresh certification graph, engine run); the closed
#: greedy base also certifies check 5 (one live txn per node)
BASES = {
    "closed": (lambda: topologies.clique(8), _closed),
    "reads": (lambda: topologies.grid([3, 3]), lambda: _online(read_fraction=0.3)),
    "faults": (lambda: topologies.grid([3, 3]), _faulty),
    "churn": (lambda: topologies.grid([3, 3]), _churn),
    "deadlines": (lambda: topologies.grid([3, 3]), _deadlines),
}


def _certify(base, trace):
    graph = BASES[base][0]()
    return certify_trace(
        graph, trace, one_txn_per_node=base == "closed", raise_on_failure=False
    )


@pytest.fixture(scope="module")
def engine_traces():
    traces = {name: run() for name, (_, run) in BASES.items()}
    for name, trace in traces.items():
        assert _certify(name, trace) == [], name
    return traces


def _consecutive_legs(trace):
    """Indexes of two consecutive legs of one object."""
    by_oid = {}
    for i, leg in enumerate(trace.legs):
        by_oid.setdefault(leg.oid, []).append(i)
    return next(ix[:2] for ix in by_oid.values() if len(ix) >= 2)


def _node_away(trace, oid, t, num_nodes):
    """A node where object ``oid`` is neither resting nor departing or
    arriving at step ``t``."""
    near = {trace.initial_placement.get(oid)}
    for leg in trace.legs:
        if leg.oid == oid:
            if leg.arrive_time <= t:
                near = {leg.dst}
            elif leg.depart_time <= t:
                near |= {leg.src, leg.dst}
    return min(set(range(num_nodes)) - near)


def _replace_txn(trace, rec, **changes):
    trace.txns[rec.tid] = dataclasses.replace(rec, **changes)


def _users(trace):
    """Two commits of one object at different homes, in execution order."""
    for oid in trace.initial_placement:
        recs = sorted(
            (r for r in trace.txns.values() if oid in r.objects),
            key=lambda r: (r.exec_time, r.tid),
        )
        for a, b in zip(recs, recs[1:]):
            if a.home != b.home:
                return a, b
    raise AssertionError("no object moved between homes")


def m_membership(trace):
    i, join = next((i, m) for i, m in enumerate(trace.membership) if m.kind == "join")
    trace.membership[i] = dataclasses.replace(join, node=join.node + 1)


def m_leg_speed(trace):
    leg = trace.legs[0]
    trace.legs[0] = dataclasses.replace(leg, arrive_time=leg.arrive_time + 1)


def m_leg_gap(trace):
    _, j = _consecutive_legs(trace)
    src = _node_away(trace, trace.legs[j].oid, trace.legs[j].depart_time, 8)
    trace.legs[j] = dataclasses.replace(trace.legs[j], src=src)


def m_leg_overlap(trace):
    i, j = _consecutive_legs(trace)
    back = trace.legs[j].depart_time - trace.legs[i].arrive_time + 1
    leg = trace.legs[j]
    trace.legs[j] = dataclasses.replace(
        leg, depart_time=leg.depart_time - back, arrive_time=leg.arrive_time - back
    )


def m_fault_slack(trace):
    trace.faults.remove(next(f for f in trace.faults if f.kind == "delay" and f.extra))


def m_unknown_object(trace):
    rec = next(iter(trace.txns.values()))
    _replace_txn(trace, rec, objects=rec.objects + (999,))


def m_absent_object(trace):
    rec = next(r for r in trace.txns.values() if r.objects)
    home = _node_away(trace, rec.objects[0], rec.exec_time, 8)
    _replace_txn(trace, rec, home=home)


def m_swap_commits(trace):
    a, b = _users(trace)
    _replace_txn(trace, a, exec_time=b.exec_time)
    _replace_txn(trace, b, exec_time=a.exec_time)


def m_too_fast(trace):
    a, b = _users(trace)
    _replace_txn(trace, b, exec_time=a.exec_time)


def m_copy_speed(trace):
    cl = trace.copy_legs[0]
    trace.copy_legs[0] = dataclasses.replace(cl, arrive_time=cl.arrive_time + 1)


def m_copy_origin(trace):
    cl = trace.copy_legs[0]
    src = _node_away(trace, cl.oid, cl.depart_time, 9)
    trace.copy_legs[0] = dataclasses.replace(cl, src=src)


def m_absent_copy(trace):
    key = (trace.copy_legs[0].oid, trace.copy_legs[0].reader_tid)
    trace.copy_legs[:] = [c for c in trace.copy_legs if (c.oid, c.reader_tid) != key]


def m_node_overlap(trace):
    recs = sorted(trace.txns.values(), key=lambda r: (r.home, r.gen_time))
    a, b = next((a, b) for a, b in zip(recs, recs[1:]) if a.home == b.home)
    _replace_txn(trace, b, gen_time=a.gen_time)


def m_reschedule(trace):
    i, r = next((i, r) for i, r in enumerate(trace.reschedules) if r.new_exec != -1)
    trace.reschedules[i] = dataclasses.replace(r, new_exec=r.time - 1)


def m_partition(trace):
    p = trace.partitions[0]
    trace.partitions[0] = dataclasses.replace(p, end=p.start)


def m_expired_commit(trace):
    trace.expiries[0] = dataclasses.replace(trace.expiries[0], tid=next(iter(trace.txns)))


def m_expired_twice(trace):
    trace.expiries.append(trace.expiries[0])


def m_early_expiry(trace):
    e = trace.expiries[0]
    trace.expiries[0] = dataclasses.replace(e, time=e.deadline - 1)


def m_engine_violation(trace):
    rec = next(iter(trace.txns.values()))
    trace.violations.append(Violation(rec.tid, rec.exec_time, rec.objects))


MUTATIONS = [
    pytest.param("membership", "churn", m_membership, id="membership"),
    pytest.param("leg-speed", "closed", m_leg_speed, id="leg-speed"),
    pytest.param("leg-gap", "closed", m_leg_gap, id="leg-gap"),
    pytest.param("leg-overlap", "closed", m_leg_overlap, id="leg-overlap"),
    pytest.param("fault-slack", "faults", m_fault_slack, id="fault-slack"),
    pytest.param("unknown-object", "closed", m_unknown_object, id="unknown-object"),
    pytest.param("absent-object", "closed", m_absent_object, id="absent-object"),
    # commits swapped in time still serialize by execution step, so the
    # swap surfaces as too little travel time between the two homes
    pytest.param("too-fast", "closed", m_swap_commits, id="swapped-commits"),
    pytest.param("too-fast", "closed", m_too_fast, id="too-fast"),
    pytest.param("copy-speed", "reads", m_copy_speed, id="copy-speed"),
    pytest.param("copy-origin", "reads", m_copy_origin, id="copy-origin"),
    pytest.param("absent-copy", "reads", m_absent_copy, id="absent-copy"),
    pytest.param("node-overlap", "closed", m_node_overlap, id="node-overlap"),
    pytest.param("reschedule", "faults", m_reschedule, id="reschedule"),
    pytest.param("partition", "faults", m_partition, id="partition"),
    pytest.param("expired-commit", "deadlines", m_expired_commit, id="expired-commit"),
    pytest.param("expired-twice", "deadlines", m_expired_twice, id="expired-twice"),
    pytest.param("early-expiry", "deadlines", m_early_expiry, id="early-expiry"),
    pytest.param("engine-violation", "closed", m_engine_violation, id="engine-violation"),
]


@pytest.mark.parametrize("kind, base, mutate", MUTATIONS)
def test_mutation_rejected(engine_traces, kind, base, mutate):
    """One targeted corruption of a certified engine trace per issue kind
    the certifier emits; the certifier must report that kind."""
    trace = copy.deepcopy(engine_traces[base])
    mutate(trace)
    assert kind in {i.kind for i in _certify(base, trace)}


def test_mutation_table_covers_every_issue_kind():
    source = inspect.getsource(validate)
    emitted = set(re.findall(r'CertificationIssue\(\s*"([a-z-]+)"', source))
    assert emitted == {p.values[0] for p in MUTATIONS}


# -- oracle pins: certifier issues, ratio samples and Gantt text --

ORACLE_DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "oracle_digests.json")

#: case id -> (base, mutation or None): every clean base and every row
#: of the mutation table
ORACLE_CASES = {base: (base, None) for base in BASES}
ORACLE_CASES.update(
    (f"{p.values[1]}+{p.id}", (p.values[1], p.values[2])) for p in MUTATIONS
)


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj)
    return hashlib.sha256(text.encode()).hexdigest()


def _oracle_digests(trace, base):
    """sha256 of the three outputs that read object positions off a
    trace: the certifier's issue list, the competitive-ratio samples and
    the rendered Gantt chart."""
    issues = _certify(base, trace)
    overall, points = competitive_ratio(BASES[base][0](), trace)
    return {
        "certify": _sha([[i.kind, i.detail] for i in issues]),
        "ratio": _sha(
            [repr(overall)]
            + [[p.time, p.live, p.worst_duration, p.lower_bound] for p in points]
        ),
        "gantt": _sha(render_gantt(trace)),
    }


def _oracle_case(traces, case):
    base, mutate = ORACLE_CASES[case]
    trace = copy.deepcopy(traces[base])
    if mutate is not None:
        mutate(trace)
    return _oracle_digests(trace, base)


def _oracle_pins() -> dict:
    with open(ORACLE_DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_outputs_pinned(engine_traces, case):
    """Certification issues, ``RatioPoint`` lists and Gantt text are
    byte-identical to the pinned ones on every base and corruption."""
    assert _oracle_case(engine_traces, case) == _oracle_pins()[case], case


def test_every_oracle_case_pinned():
    assert sorted(_oracle_pins()) == sorted(ORACLE_CASES)


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    traces = {name: run() for name, (_, run) in BASES.items()}
    pins = {case: _oracle_case(traces, case) for case in sorted(ORACLE_CASES)}
    with open(ORACLE_DIGESTS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} cases -> {ORACLE_DIGESTS_PATH}")
