"""Unit tests for the synchronous engine."""

import pytest

from repro._types import DeparturePolicy, TxnState
from repro.core.base import OnlineScheduler
from repro.errors import InfeasibleScheduleError, SchedulingError, WorkloadError
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.sim.validate import certify_trace
from repro.workloads import ManualWorkload


class ScriptedScheduler(OnlineScheduler):
    """Schedules each arriving transaction at gen_time + a scripted offset."""

    def __init__(self, offsets):
        super().__init__()
        self.offsets = dict(offsets)

    def on_step(self, t, new_txns):
        for txn in new_txns:
            self.sim.commit_schedule(txn, t + self.offsets[txn.home])


class NullScheduler(OnlineScheduler):
    def on_step(self, t, new_txns):
        pass


def line_sim(offsets, specs, placement, n=8, **kw):
    wl = ManualWorkload(placement, specs)
    return Simulator(topologies.line(n), ScriptedScheduler(offsets), wl, config=SimConfig(**kw))


class TestBasicExecution:
    def test_single_txn_local_object(self):
        # object already at home: execute at t+1, no movement
        sim = line_sim({3: 1}, [TxnSpec(0, 3, (0,))], {0: 3})
        trace = sim.run()
        assert trace.txns[0].exec_time == 1
        assert trace.legs == []
        certify_trace(sim.graph, trace)

    def test_single_txn_remote_object(self):
        # object at node 0, txn at node 5 -> needs 5 steps
        sim = line_sim({5: 5}, [TxnSpec(0, 5, (0,))], {0: 0})
        trace = sim.run()
        assert trace.txns[0].exec_time == 5
        assert len(trace.legs) == 1
        leg = trace.legs[0]
        assert (leg.src, leg.dst, leg.depart_time, leg.arrive_time) == (0, 5, 0, 5)

    def test_object_chain_two_txns(self):
        # txn at node 2 at t=2 then object moves to node 6 for t=6
        specs = [TxnSpec(0, 2, (0,)), TxnSpec(0, 6, (0,))]
        sim = line_sim({2: 2, 6: 6}, specs, {0: 0})
        trace = sim.run()
        assert trace.txns[0].exec_time == 2
        assert trace.txns[1].exec_time == 6
        assert [(l.src, l.dst) for l in trace.legs] == [(0, 2), (2, 6)]
        certify_trace(sim.graph, trace)

    def test_object_waits_for_holder(self):
        # second requester scheduled later: object stays until first commits
        specs = [TxnSpec(0, 2, (0,)), TxnSpec(0, 6, (0,))]
        sim = line_sim({2: 4, 6: 10}, specs, {0: 0})
        trace = sim.run()
        legs = trace.legs
        assert legs[1].depart_time == 4  # leaves only after first commit
        assert trace.txns[1].exec_time == 10

    def test_infeasible_raises_in_strict_mode(self):
        sim = line_sim({7: 2}, [TxnSpec(0, 7, (0,))], {0: 0})  # needs 7 steps
        with pytest.raises(InfeasibleScheduleError):
            sim.run()

    def test_nonstrict_defers_and_records_violation(self):
        sim = line_sim({7: 2}, [TxnSpec(0, 7, (0,))], {0: 0}, strict=False)
        trace = sim.run()
        assert trace.violations
        assert trace.txns[0].exec_time == 7  # executed when object arrived


class TestSchedulerContract:
    def test_double_schedule_rejected(self):
        class Double(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 1)
                    self.sim.commit_schedule(txn, t + 2)

        wl = ManualWorkload({0: 0}, [TxnSpec(0, 0, (0,))])
        sim = Simulator(topologies.line(4), Double(), wl)
        with pytest.raises(SchedulingError):
            sim.run()

    def test_past_exec_time_rejected(self):
        class Past(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t - 1)

        wl = ManualWorkload({0: 0}, [TxnSpec(1, 0, (0,))])
        sim = Simulator(topologies.line(4), Past(), wl)
        with pytest.raises(SchedulingError):
            sim.run()

    def test_deadlock_detected_when_never_scheduled(self):
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 0, (0,))])
        sim = Simulator(topologies.line(4), NullScheduler(), wl)
        with pytest.raises(SchedulingError, match="deadlock"):
            sim.run()

    def test_unknown_object_rejected(self):
        wl = ManualWorkload({}, [TxnSpec(0, 0, (42,))])
        sim = Simulator(topologies.line(4), NullScheduler(), wl)
        with pytest.raises(WorkloadError):
            sim.run()


class TestArrivalHandling:
    def test_gen_times_respected(self):
        specs = [TxnSpec(5, 1, (0,)), TxnSpec(9, 2, (1,))]
        sim = line_sim({1: 1, 2: 1}, specs, {0: 1, 1: 2})
        trace = sim.run()
        assert trace.txns[0].gen_time == 5
        assert trace.txns[1].gen_time == 9

    def test_tids_assigned_in_arrival_order(self):
        specs = [TxnSpec(3, 2, (0,)), TxnSpec(1, 4, (1,))]
        sim = line_sim({2: 1, 4: 1}, specs, {0: 2, 1: 4})
        trace = sim.run()
        # txn at node 4 arrived first -> tid 0
        assert trace.txns[0].home == 4
        assert trace.txns[1].home == 2

    def test_submit_in_past_rejected(self):
        sim = Simulator(topologies.line(4), NullScheduler())
        sim.now = 10
        with pytest.raises(WorkloadError):
            sim.submit(TxnSpec(5, 0, ()))


class TestDeparturePolicies:
    def test_lazy_departs_just_in_time(self):
        specs = [TxnSpec(0, 5, (0,))]
        sim = line_sim(
            {5: 20}, specs, {0: 0}, departure_policy=DeparturePolicy.LAZY
        )
        trace = sim.run()
        leg = trace.legs[0]
        assert leg.depart_time == 15  # 20 - distance 5
        assert leg.arrive_time == 20
        certify_trace(sim.graph, trace)

    def test_eager_departs_immediately(self):
        specs = [TxnSpec(0, 5, (0,))]
        sim = line_sim({5: 20}, specs, {0: 0})
        trace = sim.run()
        assert trace.legs[0].depart_time == 0
        assert trace.legs[0].arrive_time == 5

    def test_half_speed_objects(self):
        specs = [TxnSpec(0, 5, (0,))]
        sim = line_sim({5: 10}, specs, {0: 0}, object_speed_den=2)
        trace = sim.run()
        leg = trace.legs[0]
        assert leg.arrive_time - leg.depart_time == 10
        certify_trace(sim.graph, trace)


class TestObjectCreation:
    def test_created_object_appears_at_commit(self):
        class Sched(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    offset = 1 if not txn.objects else 5
                    self.sim.commit_schedule(txn, t + offset)

        specs = [TxnSpec(0, 2, (), creates=(7,)), TxnSpec(2, 4, (7,))]
        wl = ManualWorkload({}, specs)
        sim = Simulator(topologies.line(8), Sched(), wl)
        trace = sim.run()
        assert trace.txns[1].exec_time == 7
        assert sim.objects[7].location == 4

    def test_requesting_object_before_creation_fails(self):
        specs = [TxnSpec(0, 4, (7,)), TxnSpec(1, 2, (), creates=(7,))]
        wl = ManualWorkload({}, specs)
        sim = Simulator(topologies.line(8), NullScheduler(), wl)
        with pytest.raises(WorkloadError):
            sim.run()


class TestQuiescenceAndTicks:
    def test_time_skipping_is_transparent(self):
        # events at 0 and 1000: engine must not iterate a million steps
        specs = [TxnSpec(0, 1, (0,)), TxnSpec(1000, 2, (0,))]
        sim = line_sim({1: 1, 2: 3}, specs, {0: 1})
        trace = sim.run(max_steps=50)
        assert trace.txns[1].exec_time == 1003

    def test_empty_run_terminates(self):
        sim = Simulator(topologies.line(4), NullScheduler())
        trace = sim.run()
        assert trace.num_txns == 0

    def test_max_steps_allows_exactly_n_active_steps(self):
        # The chain needs active steps at t=2 and t=6 (plus the t=0
        # bootstrap step, which max_steps does not count).
        def fresh():
            specs = [TxnSpec(0, 2, (0,)), TxnSpec(0, 6, (0,))]
            return line_sim({2: 2, 6: 6}, specs, {0: 0})

        trace = fresh().run(max_steps=2)  # exactly enough
        assert len(trace.txns) == 2

        with pytest.raises(SchedulingError, match="max_steps=1"):
            fresh().run(max_steps=1)

    def test_max_steps_stops_before_extra_step_runs(self):
        # With max_steps=N, the (N+1)-th step must NOT execute: the
        # second transaction stays live and uncommitted after the raise.
        specs = [TxnSpec(0, 2, (0,)), TxnSpec(0, 6, (0,))]
        sim = line_sim({2: 2, 6: 6}, specs, {0: 0})
        with pytest.raises(SchedulingError):
            sim.run(max_steps=1)
        assert sim.txns[0].state is TxnState.EXECUTED  # step 1 (t=2) ran
        assert sim.txns[1].state is not TxnState.EXECUTED  # step 2 did not

    def test_duplicate_alarms_deduplicated(self):
        sim = Simulator(topologies.line(4), NullScheduler())
        for _ in range(5):
            sim.add_alarm(10)
        sim.add_alarm(12)
        assert sim.events.pending_alarms() == [10, 12]
        sim.run_until(12)
        assert sim.events.pending_alarms() == []
