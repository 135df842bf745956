"""Systematic failure injection: every safety net must catch its failure.

For each contract in the system, inject a violation and assert the right
guard fires: scheduler contracts (engine), trace physics (certifier),
coloring validity (fuzz), directory invariants, and serialization
tampering.  Silence on any of these would mean a bug class could slip
through the whole harness unnoticed.
"""

import pytest

from repro.core import GreedyScheduler
from repro.core.base import OnlineScheduler
from repro.errors import GraphError, InfeasibleScheduleError, SchedulingError
from repro.network import topologies
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.trace import CopyLeg, ObjectLeg
from repro.sim.transactions import TxnSpec
from repro.sim.validate import certify_trace
from repro.testing import fuzz_scheduler, random_instance
from repro.workloads import ManualWorkload


def run_with(scheduler_cls, specs=None, placement=None):
    g = topologies.line(8)
    placement = placement if placement is not None else {0: 0}
    specs = specs if specs is not None else [TxnSpec(0, 5, (0,))]
    wl = ManualWorkload(placement, specs)
    return Simulator(g, scheduler_cls(), wl).run()


class TestSchedulerContractInjection:
    def test_ignores_travel_time(self):
        class Ignores(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 1)

        with pytest.raises(InfeasibleScheduleError):
            run_with(Ignores)

    def test_schedules_in_past(self):
        class Past(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, max(0, t - 3))

        with pytest.raises(SchedulingError):
            run_with(Past, specs=[TxnSpec(5, 5, (0,))])

    def test_revises_committed_time(self):
        class Revises(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 10)
                    self.sim.commit_schedule(txn, t + 20)

        with pytest.raises(SchedulingError, match="already scheduled"):
            run_with(Revises)

    def test_never_schedules(self):
        class Never(OnlineScheduler):
            def on_step(self, t, new_txns):
                pass

        with pytest.raises(SchedulingError, match="deadlock"):
            run_with(Never)

    def test_ignores_conflicts(self):
        """Scheduling two conflicting txns at the same remote time."""

        class Collides(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 6)

        specs = [TxnSpec(0, 5, (0,)), TxnSpec(0, 7, (0,))]
        with pytest.raises(InfeasibleScheduleError):
            run_with(Collides, specs=specs)

    def test_fuzz_catches_subtle_offset_bug(self):
        """An off-by-one on the color (classic bug) must be caught by the
        public fuzz harness within a few dozen instances."""
        from repro.core.coloring import min_valid_color
        from repro.core.dependency import constraints_for

        class OffByOne(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    c = min_valid_color(constraints_for(self.sim, txn, now=t))
                    self.sim.commit_schedule(txn, t + max(1, c - 1))

        with pytest.raises(InfeasibleScheduleError):
            fuzz_scheduler(OffByOne, trials=60, seed=1)


class TestStepContextInjection:
    """Scheduler exceptions must surface with simulation context: the
    step, the scheduler class, and the transactions being scheduled."""

    def test_foreign_exception_wrapped_with_context(self):
        class Boom(OnlineScheduler):
            def on_step(self, t, new_txns):
                if new_txns:
                    raise ValueError("bucket arithmetic went negative")

        with pytest.raises(SchedulingError) as ei:
            run_with(Boom, specs=[TxnSpec(3, 5, (0,))])
        msg = str(ei.value)
        assert "Boom.on_step failed at t=3" in msg
        assert "[0]" in msg                      # the offending txn ids
        assert "bucket arithmetic went negative" in msg
        assert isinstance(ei.value.__cause__, ValueError)  # original chained

    def test_repro_error_keeps_type_and_gains_context(self):
        class Revises(OnlineScheduler):
            def on_step(self, t, new_txns):
                for txn in new_txns:
                    self.sim.commit_schedule(txn, t + 10)
                    self.sim.commit_schedule(txn, t + 20)

        # The original message still matches (guards existing handlers)...
        with pytest.raises(SchedulingError, match="already scheduled") as ei:
            run_with(Revises)
        # ...and the context note is appended to it.
        assert "Revises.on_step at t=0" in str(ei.value)


class TestTracePhysicsInjection:
    def base_trace(self):
        g = topologies.line(8)
        wl = ManualWorkload({0: 0}, [TxnSpec(0, 5, (0,))])
        return g, Simulator(g, GreedyScheduler(), wl).run()

    def test_teleport_injection(self):
        g, trace = self.base_trace()
        trace.legs[0] = ObjectLeg(0, 0, 3, 5, 5)  # departs from wrong node
        assert any(
            i.kind in ("leg-gap", "leg-speed")
            for i in certify_trace(g, trace, raise_on_failure=False)
        )

    def test_ftl_injection(self):
        g, trace = self.base_trace()
        leg = trace.legs[0]
        trace.legs[0] = ObjectLeg(leg.oid, leg.depart_time, leg.src, leg.dst, leg.depart_time + 1)
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "leg-speed" for i in issues)

    def test_phantom_copy_injection(self):
        """A copy cut from a node the master never visited."""
        g, trace = self.base_trace()
        trace.copy_legs.append(CopyLeg(0, 99, 1, 7, 7, 1, version=0))
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "copy-origin" for i in issues)

    def test_time_travel_exec_injection(self):
        g, trace = self.base_trace()
        rec = trace.txns[0]
        from repro.sim.trace import TxnRecord

        trace.txns[0] = TxnRecord(rec.tid, rec.home, rec.objects, rec.gen_time,
                                  rec.schedule_time, 1)  # before object arrival
        issues = certify_trace(g, trace, raise_on_failure=False)
        assert any(i.kind == "absent-object" for i in issues)


class TestDirectoryInjection:
    def test_pointer_cycle_detected(self):
        from repro.directory import ArrowDirectory

        g = topologies.line(6)
        d = ArrowDirectory(g)
        d.register(0, 3)
        # corrupt: create a two-cycle
        d._pointers[0][2] = 1
        d._pointers[0][1] = 2
        with pytest.raises(GraphError, match="cycle"):
            d.find(0, 1)

    def test_lost_sink_detected(self):
        from repro.directory import ArrowDirectory

        g = topologies.line(6)
        d = ArrowDirectory(g)
        d.register(0, 3)
        d._pointers[0][3] = 2  # no node points to itself anymore
        with pytest.raises(GraphError, match="sink"):
            d.home(0)


class TestChaseBudgetInjection:
    def test_probe_chase_budget_guard(self):
        """With an absurdly small chase budget the guard trips instead of
        looping forever."""
        from repro.core import DistributedBucketScheduler
        from repro.offline import ColoringBatchScheduler

        g = topologies.line(16)
        specs = [TxnSpec(0, 12, (0,)), TxnSpec(40, 0, (0,))]
        wl = ManualWorkload({0: 0}, specs)
        sched = DistributedBucketScheduler(
            ColoringBatchScheduler(), seed=0, max_chase_hops=0
        )
        with pytest.raises(SchedulingError, match="chase budget"):
            Simulator(g, sched, wl, config=SimConfig(object_speed_den=2)).run()
