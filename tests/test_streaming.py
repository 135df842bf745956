"""Open-system streaming workloads, SLO analysis, and the frontier."""

import json

import pytest

from repro.analysis import (
    backlog_series,
    latency_percentiles,
    run_experiment,
    run_stream,
    slo_summary,
    stability_frontier,
    stability_verdict,
    throughput,
)
from repro.baselines import FifoSerialScheduler
from repro.chaos.search import EpisodeSpec, make_workload, run_episode
from repro.core import GreedyScheduler
from repro.errors import ReproError, WorkloadError
from repro.faults import FaultPlan
from repro.network import topologies
from repro.obs import CountersProbe
from repro.sim import SimConfig, Simulator
from repro.workloads import (
    AdversarialOpenWorkload,
    BatchWorkload,
    DiurnalWorkload,
    OnOffBurstyWorkload,
    PoissonOpenWorkload,
    WorkloadSpec,
)


def _trace_key(trace):
    """A byte-comparable fold of everything a run committed."""
    return sorted(
        (r.tid, r.home, r.gen_time, r.schedule_time, r.exec_time, tuple(r.objects))
        for r in trace.txns.values()
    )


class TestStreamingWorkloads:
    def test_arrival_stream_restarts_from_seed(self):
        g = topologies.clique(6)
        wl = PoissonOpenWorkload(g, 0.8, seed=5)
        first = [next(wl.arrival_stream()) for _ in range(1)]
        a = [s for _, s in zip(range(50), wl.arrival_stream())]
        b = [s for _, s in zip(range(50), wl.arrival_stream())]
        assert [(s.gen_time, s.home, s.objects) for s in a] == [
            (s.gen_time, s.home, s.objects) for s in b
        ]
        assert first[0].gen_time == a[0].gen_time

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: PoissonOpenWorkload(g, 0.6, seed=2),
            lambda g: OnOffBurstyWorkload(g, seed=2),
            lambda g: DiurnalWorkload(g, 0.6, seed=2, period=50),
            lambda g: AdversarialOpenWorkload(g, 0.6, seed=2),
        ],
        ids=["poisson", "onoff", "diurnal", "adversarial"],
    )
    def test_gen_times_nondecreasing(self, factory):
        g = topologies.clique(6)
        specs = [s for _, s in zip(range(120), factory(g).arrival_stream())]
        times = [s.gen_time for s in specs]
        assert times == sorted(times)
        assert all(s.objects for s in specs)

    def test_adversarial_bursts_conflict(self):
        g = topologies.clique(8)
        wl = AdversarialOpenWorkload(g, 0.5, burst=4, hot_objects=2, k=2, seed=0)
        specs = [s for _, s in zip(range(40), wl.arrival_stream())]
        hot = set(range(max(wl.k, wl.hot_objects)))
        assert all(set(s.objects) <= hot for s in specs)

    def test_diurnal_rate_oscillates(self):
        g = topologies.clique(4)
        wl = DiurnalWorkload(g, 1.0, amplitude=0.5, period=100, seed=0)
        assert wl.rate_at(25) == pytest.approx(1.5)
        assert wl.rate_at(75) == pytest.approx(0.5)
        assert wl.mean_rate == pytest.approx(1.0)

    def test_zero_rate_rejected(self):
        g = topologies.clique(4)
        with pytest.raises(WorkloadError):
            PoissonOpenWorkload(g, 0.0)
        with pytest.raises(WorkloadError):
            OnOffBurstyWorkload(g, lam_on=0.0, lam_off=0.0)


class TestWorkloadSpec:
    def test_round_trip(self):
        spec = WorkloadSpec.make("poisson-open", seed=4, lam=0.7, objects=10)
        clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.open_system
        assert clone.knob("lam") == 0.7

    def test_unknown_kind_and_knob_fail_loudly(self):
        with pytest.raises(WorkloadError, match="unknown workload kind"):
            WorkloadSpec.make("no-such-kind")
        with pytest.raises(WorkloadError, match="does not accept knobs"):
            WorkloadSpec.make("poisson-open", lamda=0.5)

    def test_with_seed_and_with_knobs(self):
        spec = WorkloadSpec.make("poisson-open", seed=1, lam=0.5)
        assert spec.with_seed(9).seed == 9
        assert spec.with_knobs(lam=1.5).knob("lam") == 1.5
        assert spec.knob("lam") == 0.5  # original untouched

    def test_build_closed_and_open(self):
        g = topologies.clique(6)
        closed = WorkloadSpec.make("batch", seed=3, objects=5, k=2).build(g)
        assert isinstance(closed, BatchWorkload)
        opened = WorkloadSpec.make("poisson-open", seed=3, lam=0.4).build(g)
        assert isinstance(opened, PoissonOpenWorkload)

    def test_spec_built_run_matches_instance_run(self):
        g = topologies.clique(6)
        spec = WorkloadSpec.make("poisson-open", seed=6, lam=0.5)
        a = run_stream(g, GreedyScheduler(), spec, until=150)
        b = run_stream(
            g, GreedyScheduler(), PoissonOpenWorkload(g, 0.5, seed=6), until=150
        )
        assert _trace_key(a.trace) == _trace_key(b.trace)
        assert a.slo == b.slo


class TestEngineOpenMode:
    def test_open_run_requires_horizon(self):
        g = topologies.clique(6)
        sim = Simulator(g, GreedyScheduler(), PoissonOpenWorkload(g, 0.5, seed=0))
        with pytest.raises(WorkloadError, match="until"):
            sim.run()

    def test_unstable_run_terminates_at_horizon(self):
        g = topologies.clique(6)
        wl = PoissonOpenWorkload(g, 3.0, seed=1)
        trace = Simulator(g, FifoSerialScheduler(), wl, config=SimConfig()).run(
            until=200, warmup=50
        )
        assert trace.end_time == 200
        meta = trace.meta["open"]
        assert meta["generated"] > meta["committed"]
        assert meta["backlog"] == meta["generated"] - meta["committed"]
        assert not stability_verdict(trace).stable

    def test_stable_run_drains_backlog(self):
        g = topologies.clique(8)
        wl = PoissonOpenWorkload(g, 0.3, seed=2)
        trace = Simulator(g, GreedyScheduler(), wl).run(until=300, warmup=75)
        assert stability_verdict(trace).stable
        series = backlog_series(trace)
        assert series[0][0] == 0 and series[-1][0] == 300
        assert series[-1][1] == trace.meta["open"]["backlog"]

    def test_warmup_validation(self):
        g = topologies.clique(4)
        sim = Simulator(g, GreedyScheduler(), PoissonOpenWorkload(g, 0.5, seed=0))
        with pytest.raises(WorkloadError, match="warmup"):
            sim.run(until=100, warmup=100)

    def test_closed_workloads_unaffected(self):
        g = topologies.clique(6)
        wl = BatchWorkload.uniform(g, 5, 2, seed=3)
        trace = Simulator(g, GreedyScheduler(), wl).run()
        assert "open" not in trace.meta
        assert trace.num_txns == g.num_nodes


class TestSloAnalysis:
    def _trace(self, lam=0.5, seed=3, until=300, warmup=75):
        g = topologies.clique(8)
        return Simulator(
            g, GreedyScheduler(), PoissonOpenWorkload(g, lam, seed=seed)
        ).run(until=until, warmup=warmup)

    def test_percentiles_ordered(self):
        pcts = latency_percentiles(self._trace(), warmup=75)
        assert pcts["p50"] <= pcts["p99"] <= pcts["p999"]

    def test_summary_consistent_with_meta(self):
        trace = self._trace()
        slo = slo_summary(trace)
        meta = trace.meta["open"]
        assert slo.generated == meta["generated"]
        assert slo.committed == meta["committed"]
        assert slo.backlog == meta["backlog"]
        assert slo.horizon == 300 and slo.warmup == 75
        assert slo.stable

    def test_requires_open_trace(self):
        g = topologies.clique(5)
        trace = Simulator(
            g, GreedyScheduler(), BatchWorkload.uniform(g, 4, 2, seed=0)
        ).run()
        with pytest.raises(ReproError, match="open"):
            slo_summary(trace)

    def test_throughput_absolute_warmup(self):
        trace = self._trace()
        tp = throughput(trace, warmup=75, horizon=300)
        committed_post = sum(1 for r in trace.txns.values() if r.exec_time > 75)
        assert tp == pytest.approx(committed_post / 225)
        with pytest.raises(ValueError, match="warmup"):
            throughput(trace, warmup=300, horizon=300)

    def test_stream_counters(self):
        g = topologies.clique(6)
        probe = CountersProbe()
        Simulator(
            g,
            GreedyScheduler(),
            PoissonOpenWorkload(g, 0.5, seed=1),
            config=SimConfig(probe=probe),
        ).run(until=100, warmup=25)
        out = probe.summary()
        assert out["stream.generated"] == out["stream.committed"] + out["stream.backlog"]
        assert out["stream.horizon"] == 100 and out["stream.warmup"] == 25


class TestDeterminismAcrossJobs:
    def test_stream_byte_identical_jobs_1_vs_4(self):
        """The tentpole determinism claim: traces and percentiles from a
        parallel fan-out are byte-identical to the serial run."""
        from repro.analysis import run_grid

        cases = [
            WorkloadSpec.make("poisson-open", seed=s, lam=0.6) for s in range(4)
        ]
        serial = run_grid(_stream_case, cases, jobs=1)
        parallel = run_grid(_stream_case, cases, jobs=4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_frontier_byte_identical_jobs_1_vs_4(self):
        wl = WorkloadSpec.make("poisson-open", seed=11)
        kwargs = dict(lam_min=0.1, lam_max=2.0, rounds=3, until=150, warmup=40)
        a = stability_frontier("clique:6", ["fifo", "greedy"], wl, jobs=1, **kwargs)
        b = stability_frontier("clique:6", ["fifo", "greedy"], wl, jobs=4, **kwargs)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_frontier_reproducible_from_seed(self):
        wl = WorkloadSpec.make("poisson-open", seed=11)
        kwargs = dict(lam_min=0.1, lam_max=2.0, rounds=3, until=150, warmup=40)
        a = stability_frontier("clique:6", ["fifo"], wl, **kwargs)
        b = stability_frontier("clique:6", ["fifo"], wl, **kwargs)
        c = stability_frontier("clique:6", ["fifo"], wl.with_seed(12), **kwargs)
        assert a.to_dict() == b.to_dict()
        assert a.schedulers[0].probes != c.schedulers[0].probes

    def test_frontier_finds_fifo_below_greedy(self):
        wl = WorkloadSpec.make("poisson-open", seed=7)
        res = stability_frontier(
            "clique:8",
            ["fifo", "greedy"],
            wl,
            lam_min=0.1,
            lam_max=3.0,
            rounds=4,
            until=200,
            warmup=50,
        )
        by_name = {s.scheduler: s for s in res.schedulers}
        assert by_name["fifo"].lambda_star < by_name["greedy"].lambda_star
        slo = by_name["fifo"].stable_slo
        assert slo is not None and slo["p50"] <= slo["p99"] <= slo["p999"]


def _stream_case(spec):
    g = topologies.clique(6)
    res = run_stream(g, GreedyScheduler(), spec, until=150, warmup=40)
    out = res.slo.to_dict()
    out["trace"] = _trace_key(res.trace)
    return out


class TestApiRedesign:
    def test_run_experiment_rejects_open_workload(self):
        g = topologies.clique(6)
        with pytest.raises(WorkloadError, match="run_stream"):
            run_experiment(
                g, GreedyScheduler(), WorkloadSpec.make("poisson-open", lam=0.5)
            )

    def test_run_stream_rejects_closed_workload(self):
        g = topologies.clique(6)
        with pytest.raises(WorkloadError, match="run_experiment"):
            run_stream(
                g, GreedyScheduler(), WorkloadSpec.make("batch"), until=100
            )

    def test_replicate_reseeds_workload_spec(self):
        from repro.analysis import replicate

        spec = WorkloadSpec.make("batch", objects=5, k=2)
        seen = []

        def experiment(seed, config, workload):
            seen.append((seed, workload.seed))
            g = topologies.clique(6)
            res = run_experiment(g, GreedyScheduler(), workload, config=config)
            return {"makespan": res.makespan}

        aggs = replicate(experiment, [0, 1, 2], workload=spec)
        assert aggs["makespan"].n == 3
        assert seen == [(0, 0), (1, 1), (2, 2)]

    def test_episode_spec_accepts_workload_spec(self):
        spec = EpisodeSpec(
            topology="ring:8",
            scheduler="greedy",
            workload=WorkloadSpec.make("batch", seed=2, objects=5, k=2),
            plan=FaultPlan(seed=1),
        )
        clone = EpisodeSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.workload == spec.workload
        result = run_episode(clone)
        assert result.ok
        assert result.committed > 0

    def test_episode_spec_rejects_legacy_workload_dict(self):
        data = EpisodeSpec(
            topology="ring:8",
            scheduler="greedy",
            workload=WorkloadSpec.make("batch", seed=2, objects=5, k=2),
            plan=FaultPlan(seed=1),
        ).to_dict()
        data["workload"] = {"kind": "batch", "objects": 5, "k": 2, "seed": 2}
        with pytest.raises(ReproError, match="legacy"):
            EpisodeSpec.from_dict(data)
        with pytest.raises(ReproError, match="WorkloadSpec"):
            make_workload(topologies.clique(6), data["workload"])

    def test_make_workload_dispatches_on_spec(self):
        g = topologies.clique(6)
        wl = make_workload(g, WorkloadSpec.make("batch", seed=1, objects=4, k=2))
        assert isinstance(wl, BatchWorkload)
