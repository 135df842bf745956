"""Fault injection + recovery (repro.faults) tests.

Four layers of guarantees:

1. **Inertness** — ``faults=None`` (and an inactive plan) leaves traces
   byte-identical to a fault-free run: the layer costs nothing unless
   armed.
2. **Determinism** — equal :class:`FaultPlan` + equal workload produce
   byte-identical serialized traces across runs (string-seeded RNG, no
   process-level randomness).
3. **Liveness** — under crash-restart plus 10% drops, *every* bundled
   scheduler still commits every transaction, with
   ``recovery.reschedules > 0`` observed through a CountersProbe.
4. **Accountability** — the certifier accepts honest faulted traces and
   rejects tampered ones (unexplained leg slack, inconsistent
   reschedule records); traces round-trip through JSON with their fault
   and reschedule records intact.
"""

import json

import pytest

from repro.cli import SCHEDULER_NAMES, make_scheduler
from repro.core import GreedyScheduler
from repro.errors import InfeasibleScheduleError, WorkloadError
from repro.faults import CrashWindow, FaultInjector, FaultPlan
from repro.network import topologies
from repro.obs import CountersProbe, JsonlProbe
from repro.sim import SimConfig, Simulator, certify_trace
from repro.sim.serialize import load_trace, save_trace, trace_to_dict
from repro.sim.trace import FaultRecord, RescheduleRecord
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload, OnlineWorkload


def canonical(trace) -> str:
    return json.dumps(trace_to_dict(trace), sort_keys=True, indent=0)


def bernoulli_run(scheduler, plan, *, speed=1, probe=None, seed=1):
    g = topologies.grid([3, 3])
    wl = OnlineWorkload.bernoulli(g, 5, 2, rate=0.08, horizon=30, seed=seed)
    cfg = SimConfig(object_speed_den=speed, faults=plan, probe=probe)
    trace = Simulator(g, scheduler, wl, config=cfg).run()
    return g, trace


# ----------------------------------------------------------------------
# plan construction and validation
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_crash_window_validation(self):
        CrashWindow(0, 3, 5)  # fine
        with pytest.raises(WorkloadError):
            CrashWindow(0, 5, 5)
        with pytest.raises(WorkloadError):
            CrashWindow(0, -1, 4)

    @pytest.mark.parametrize("bad", [
        dict(drop_prob=1.0),                  # liveness needs < 1
        dict(drop_prob=-0.1),
        dict(delay_prob=1.5),
        dict(delay_prob=0.5),                 # delay without max_delay
        dict(max_delay=-1),
        dict(backoff_base=0),
        dict(backoff_base=8, backoff_cap=4),
        dict(max_reschedules=0),
    ])
    def test_plan_validation(self, bad):
        with pytest.raises(WorkloadError):
            FaultPlan(**bad)

    def test_active(self):
        assert not FaultPlan(seed=9).active
        assert FaultPlan(drop_prob=0.1).active
        assert FaultPlan(crashes=(CrashWindow(0, 1, 2),)).active

    def test_random_draws_seeded_windows(self):
        a = FaultPlan.random(3, num_nodes=8, horizon=40, crash_count=2)
        b = FaultPlan.random(3, num_nodes=8, horizon=40, crash_count=2)
        c = FaultPlan.random(4, num_nodes=8, horizon=40, crash_count=2)
        assert a.crashes == b.crashes and len(a.crashes) == 2
        assert a.crashes != c.crashes
        for w in a.crashes:
            assert 0 <= w.node < 8 and 1 <= w.start <= 40

    def test_parse(self):
        plan = FaultPlan.parse(
            "seed=3, drop=0.1, delay=0.05, crash=2, crash-len=6, backoff-cap=32",
            num_nodes=9, horizon=30,
        )
        assert plan.seed == 3 and plan.drop_prob == 0.1
        assert plan.max_delay == 3          # defaulted when delay > 0
        assert len(plan.crashes) == 2 and plan.crashes[0].duration == 6
        assert plan.backoff_cap == 32

    @pytest.mark.parametrize("spec", ["drpo=0.1", "drop", "drop=x", "seed=1.5"])
    def test_parse_rejects(self, spec):
        with pytest.raises(WorkloadError):
            FaultPlan.parse(spec, num_nodes=4, horizon=10)

    def test_config_rejects_non_plan(self):
        with pytest.raises(WorkloadError, match="FaultPlan"):
            SimConfig(faults="drop=0.1")


class TestInjector:
    def test_coin_is_cross_run_deterministic(self):
        a = FaultInjector(FaultPlan(seed=5, drop_prob=0.3))
        b = FaultInjector(FaultPlan(seed=5, drop_prob=0.3))
        drops = [(oid, t) for oid in range(4) for t in range(50)]
        assert [a.should_drop(o, t) for o, t in drops] == \
               [b.should_drop(o, t) for o, t in drops]
        assert any(a.should_drop(o, t) for o, t in drops)

    def test_jitter_bounds(self):
        inj = FaultInjector(FaultPlan(seed=2, delay_prob=0.5, max_delay=4))
        delays = [inj.leg_delay(oid, t) for oid in range(4) for t in range(40)]
        assert all(0 <= d <= 4 for d in delays)
        assert any(d > 0 for d in delays)
        assert FaultInjector(FaultPlan(seed=2)).leg_delay(0, 5) == 0

    def test_restart_time_chains_overlapping_windows(self):
        inj = FaultInjector(FaultPlan(crashes=(
            CrashWindow(1, 5, 10), CrashWindow(1, 10, 14), CrashWindow(1, 30, 32),
        )))
        assert inj.restart_time(1, 4) is None
        assert inj.restart_time(1, 5) == 14     # windows chain through t=10
        assert inj.restart_time(1, 13) == 14
        assert inj.restart_time(1, 14) is None
        assert inj.node_down(1, 31) and not inj.node_down(0, 31)

    def test_backoff_schedule(self):
        inj = FaultInjector(FaultPlan(backoff_base=2, backoff_cap=32))
        assert [inj.backoff_for(n) for n in (1, 2, 3, 4, 5, 6)] == \
               [2, 4, 8, 16, 32, 32]
        assert inj.backoff_for(10_000) == 32    # shift clamp, no overflow


# ----------------------------------------------------------------------
# inertness: no plan / inactive plan change nothing
# ----------------------------------------------------------------------

class TestInertness:
    def test_inactive_plan_is_byte_identical_to_no_plan(self):
        _, base = bernoulli_run(GreedyScheduler(), None)
        _, inactive = bernoulli_run(GreedyScheduler(), FaultPlan(seed=99))
        assert canonical(base) == canonical(inactive)
        assert not base.faults and not base.reschedules

    def test_faultless_serialization_has_no_new_keys(self):
        _, trace = bernoulli_run(GreedyScheduler(), None)
        d = trace_to_dict(trace)
        assert "faults" not in d and "reschedules" not in d


# ----------------------------------------------------------------------
# determinism: same plan => byte-identical certified traces
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_two_runs_identical_and_certified(self):
        plan = FaultPlan.random(7, num_nodes=9, horizon=30,
                                drop_prob=0.1, delay_prob=0.05, max_delay=3,
                                crash_count=1, crash_len=6)
        g, t1 = bernoulli_run(GreedyScheduler(), plan)
        _, t2 = bernoulli_run(GreedyScheduler(), plan)
        assert canonical(t1) == canonical(t2)
        assert t1.faults and t1.reschedules
        assert certify_trace(g, t1) == []

    def test_different_seed_different_faults(self):
        mk = lambda s: FaultPlan.random(s, num_nodes=9, horizon=30, drop_prob=0.15)
        _, t1 = bernoulli_run(GreedyScheduler(), mk(1))
        _, t2 = bernoulli_run(GreedyScheduler(), mk(2))
        assert canonical(t1) != canonical(t2)


# ----------------------------------------------------------------------
# liveness: every bundled scheduler survives crash + 10% drop
# ----------------------------------------------------------------------

class TestLiveness:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_all_schedulers_commit_under_faults(self, name):
        g = topologies.grid([3, 3])
        sched, speed = make_scheduler(name, g)
        plan = FaultPlan.random(7, num_nodes=g.num_nodes, horizon=30,
                                drop_prob=0.1, crash_count=1, crash_len=6)
        probe = CountersProbe()
        g, trace = bernoulli_run(sched, plan, speed=speed, probe=probe)
        assert len(trace.txns) == 20
        assert all(r.exec_time >= 0 for r in trace.txns.values())
        assert probe.counters["recovery.reschedules"] > 0
        assert probe.counters["recovery.reschedules"] == len(trace.reschedules)
        assert certify_trace(g, trace) == []

    @pytest.mark.parametrize("name", ["greedy", "bucket", "adaptive"])
    def test_rescheduled_reader_ignores_in_flight_stale_copy(self, name):
        # Half the transactions read, and delayed legs force recoveries.
        # A rescheduled reader may still have a copy in flight that was
        # cut for its old time; recovery must invalidate it (epoch bump)
        # rather than forget the reader's epoch, or the stale copy is
        # accepted on arrival and the certifier flags an absent copy.
        g = topologies.grid([4, 4])
        sched, speed = make_scheduler(name, g)
        wl = OnlineWorkload.bernoulli(
            g, 8, 2, rate=0.2, horizon=30, seed=0, read_fraction=0.5
        )
        plan = FaultPlan(seed=0, drop_prob=0.1, delay_prob=0.2, max_delay=3)
        cfg = SimConfig(object_speed_den=speed, faults=plan)
        trace = Simulator(g, sched, wl, config=cfg).run()
        assert trace.reschedules and trace.copy_legs
        assert certify_trace(g, trace, raise_on_failure=False) == []

    def test_crash_defers_execution_past_restart(self):
        """A manual one-txn run whose home node is down at its committed
        time: the engine must reschedule it to >= the restart step."""
        g = topologies.line(6)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 4, (0,))])
        plan = FaultPlan(crashes=(CrashWindow(4, 1, 20),))
        trace = Simulator(g, GreedyScheduler(), wl,
                          config=SimConfig(faults=plan)).run()
        rec = trace.txns[0]
        assert rec.exec_time >= 20
        assert trace.reschedules and trace.reschedules[0].tid == 0
        assert certify_trace(g, trace) == []

    def test_reschedule_budget_exhaustion_raises(self):
        g = topologies.grid([3, 3])
        plan = FaultPlan.random(7, num_nodes=9, horizon=30,
                                drop_prob=0.6, max_reschedules=1)
        with pytest.raises(InfeasibleScheduleError):
            bernoulli_run(GreedyScheduler(), plan)


# ----------------------------------------------------------------------
# observability: counters and JSONL carry the fault story
# ----------------------------------------------------------------------

class TestObservability:
    def test_counters(self):
        plan = FaultPlan.random(7, num_nodes=9, horizon=30,
                                drop_prob=0.1, delay_prob=0.1, max_delay=3,
                                crash_count=1, crash_len=6)
        probe = CountersProbe()
        _, trace = bernoulli_run(GreedyScheduler(), plan, probe=probe)
        c = probe.counters
        counts = trace.fault_counts()
        assert c["faults.dropped"] == counts.get("drop", 0) > 0
        assert c["faults.crashes"] == counts.get("crash", 0) == 1
        assert c["faults.crashed_steps"] == 6
        assert c["recovery.reschedules"] == len(trace.reschedules) > 0
        assert c["recovery.backoff_max"] == trace.max_backoff() > 0

    def test_jsonl_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        plan = FaultPlan.random(7, num_nodes=9, horizon=30,
                                drop_prob=0.1, crash_count=1, crash_len=6)
        with open(path, "w") as fh:
            probe = JsonlProbe(fh)
            bernoulli_run(GreedyScheduler(), plan, probe=probe)
            probe.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        events = [e for e in lines if "e" in e]  # skip the schema header
        names = {e["e"] for e in events}
        assert {"fault.drop", "fault.crash", "fault.restart", "reschedule"} <= names
        resch = next(e for e in events if e["e"] == "reschedule")
        assert {"t", "tid", "backoff", "exec", "missing"} <= set(resch)
        drop = next(e for e in events if e["e"] == "fault.drop")
        assert "oid" in drop


# ----------------------------------------------------------------------
# accountability: serialization round-trip + certifier tampering checks
# ----------------------------------------------------------------------

def faulted_trace():
    plan = FaultPlan.random(7, num_nodes=9, horizon=30,
                            drop_prob=0.1, delay_prob=0.1, max_delay=3,
                            crash_count=1, crash_len=6)
    return bernoulli_run(GreedyScheduler(), plan)


class TestAccountability:
    def test_serialize_round_trip(self, tmp_path):
        g, trace = faulted_trace()
        path = tmp_path / "trace.json"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert loaded.faults == trace.faults
        assert loaded.reschedules == trace.reschedules
        assert canonical(loaded) == canonical(trace)
        assert certify_trace(g, loaded) == []

    def test_unexplained_slack_detected(self):
        """Slowing a leg without a matching fault record must trip the
        per-object fault-slack reconciliation."""
        g, trace = faulted_trace()
        leg = trace.legs[0]
        trace.legs[0] = leg.__class__(
            leg.oid, leg.depart_time, leg.src, leg.dst, leg.arrive_time + 2
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "fault-slack" for i in issues)

    def test_inflated_fault_record_detected(self):
        """Inflating a delay record (claiming more slack than the legs
        show) is just as dishonest as hiding one."""
        g, trace = faulted_trace()
        idx, rec = next(
            (i, f) for i, f in enumerate(trace.faults) if f.kind == "delay"
        )
        trace.faults[idx] = FaultRecord(rec.kind, rec.time, rec.node, rec.oid,
                                        rec.extra + 3)
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "fault-slack" for i in issues)

    def test_faster_than_physics_still_caught_under_faults(self):
        g, trace = faulted_trace()
        leg = trace.legs[0]
        trace.legs[0] = leg.__class__(
            leg.oid, leg.depart_time, leg.src, leg.dst, leg.depart_time
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "leg-speed" for i in issues)

    def test_execution_before_last_reschedule_detected(self):
        g, trace = faulted_trace()
        r = trace.reschedules[0]
        trace.reschedules[0] = RescheduleRecord(
            r.tid, trace.txns[r.tid].exec_time + 5,
            r.old_exec, r.new_exec, r.backoff, r.missing,
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "reschedule" for i in issues)

    def test_backward_reschedule_detected(self):
        g, trace = faulted_trace()
        r = trace.reschedules[0]
        trace.reschedules[0] = RescheduleRecord(
            r.tid, r.time, r.old_exec, max(0, r.time - 3), r.backoff, r.missing,
        )
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "reschedule" for i in issues)
