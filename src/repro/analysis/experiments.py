"""Reusable experiment runner.

One call = build a simulator, run it to quiescence, certify the trace
independently, and compute metrics/ratios.  Every benchmark and example
funnels through :func:`run_experiment`, so every number in EXPERIMENTS.md
comes from a *certified feasible* schedule.

Engine knobs are taken from a :class:`~repro.sim.config.SimConfig`::

    run_experiment(g, sched, wl, config=SimConfig(transport="hop",
                                                  link_capacity=1,
                                                  strict=False))

Non-strict runs record deferrals instead of raising; their traces are not
independently certifiable against the congestion-free model, so
certification is skipped for them (the deferral count is the measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro._types import Time
from repro.analysis.metrics import RunMetrics, summarize
from repro.analysis.ratios import RatioPoint, competitive_ratio, makespan_ratio
from repro.analysis.slo import SloSummary, slo_summary
from repro.errors import WorkloadError
from repro.network.graph import Graph
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.trace import ExecutionTrace
from repro.sim.validate import certify_trace


def resolve_workload(graph: Graph, workload):
    """Build ``workload`` if it is a :class:`~repro.workloads.spec.
    WorkloadSpec`; pass constructed instances through unchanged.

    The uniform entry point every runner (``run_experiment`` /
    ``run_stream`` / ``replicate`` / chaos episodes) funnels through, so
    a frozen spec is accepted anywhere an instance is.
    """
    if hasattr(workload, "build") and hasattr(workload, "kind"):
        return workload.build(graph)
    return workload


@dataclass
class RunResult:
    """Everything a bench needs to print one table row."""

    trace: ExecutionTrace
    metrics: RunMetrics
    competitive_ratio: float
    ratio_points: List[RatioPoint]
    makespan_ratio: Optional[float]
    #: probe summary (e.g. CountersProbe counters/timers) when the run
    #: carried a probe that provides ``summary()``; None otherwise
    obs: Optional[dict] = None

    @property
    def makespan(self) -> int:
        return self.metrics.makespan

    @property
    def max_latency(self) -> int:
        return self.metrics.max_latency

    @property
    def deadline_misses(self) -> int:
        """Deferral events recorded by non-strict runs."""
        return len(self.trace.violations)


def run_experiment(
    graph: Graph,
    scheduler,
    workload,
    *,
    config: Optional[SimConfig] = None,
    certify: bool = True,
    compute_ratios: bool = True,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Run one scheduler/workload pair to quiescence and analyse it.

    ``workload`` may be a constructed instance or a frozen
    :class:`~repro.workloads.spec.WorkloadSpec` (built on ``graph``
    here).  Open (streaming) workloads never reach quiescence — use
    :func:`run_stream` for those.

    ``config`` carries every engine knob (``None`` = the defaults).
    """
    cfg = config or SimConfig()
    workload = resolve_workload(graph, workload)
    if getattr(workload, "open_system", False):
        raise WorkloadError(
            "run_experiment drains a closed workload to quiescence; an "
            "open (streaming) workload needs a horizon — use "
            "run_stream(graph, scheduler, workload, until=...)"
        )
    return run_simulator(
        Simulator(graph, scheduler, workload, config=cfg),
        certify=certify, compute_ratios=compute_ratios, max_steps=max_steps,
    )


def run_simulator(
    sim: Simulator,
    *,
    certify: bool = True,
    compute_ratios: bool = True,
    max_steps: Optional[int] = None,
) -> RunResult:
    """The second half of :func:`run_experiment`: run a built — or
    restored (:meth:`Simulator.restore`) — simulator to quiescence, then
    certify and analyse its trace."""
    graph, cfg = sim.graph, sim.config
    trace = sim.run(max_steps=max_steps)
    if certify and cfg.strict:
        certify_trace(graph, trace)
    ratio, points = (0.0, [])
    mk_ratio: Optional[float] = None
    if compute_ratios and trace.txns:
        ratio, points = competitive_ratio(graph, trace)
        gen_times = {r.gen_time for r in trace.txns.values()}
        if len(gen_times) == 1:
            mk_ratio = makespan_ratio(graph, trace)
    obs = None
    summarize_probe = getattr(cfg.probe, "summary", None)
    if summarize_probe is not None:
        obs = summarize_probe()
    return RunResult(
        trace=trace,
        metrics=summarize(trace),
        competitive_ratio=ratio,
        ratio_points=points,
        makespan_ratio=mk_ratio,
        obs=obs,
    )


@dataclass
class StreamResult:
    """One open-system run: the truncated trace plus its SLO fold."""

    trace: ExecutionTrace
    slo: SloSummary
    #: probe summary, as on :class:`RunResult`
    obs: Optional[dict] = None

    @property
    def stable(self) -> bool:
        return self.slo.stable

    @property
    def throughput(self) -> float:
        return self.slo.throughput


def run_stream(
    graph: Graph,
    scheduler,
    workload,
    *,
    until: Time,
    warmup: Optional[Time] = None,
    config: Optional[SimConfig] = None,
) -> StreamResult:
    """Run one scheduler against an open workload to the horizon.

    The open-system sibling of :func:`run_experiment`: ``workload`` is an
    open streaming workload (or a ``WorkloadSpec`` of an open kind),
    arrivals are pulled lazily from its seeded stream, and the run stops
    at ``until`` whether or not the system kept up.  The result carries
    the :class:`~repro.analysis.slo.SloSummary` — percentiles, rates, and
    the stability verdict.  Certification is skipped: a truncated run
    legitimately ends with objects mid-flight, which the closed-run
    certifier rejects by design.
    """
    cfg = config or SimConfig()
    workload = resolve_workload(graph, workload)
    if not getattr(workload, "open_system", False):
        raise WorkloadError(
            "run_stream needs an open (streaming) workload; closed "
            "workloads drain to quiescence — use run_experiment"
        )
    sim = Simulator(graph, scheduler, workload, config=cfg)
    trace = sim.run(until=until, warmup=warmup)
    obs = None
    summarize_probe = getattr(cfg.probe, "summary", None)
    if summarize_probe is not None:
        obs = summarize_probe()
    return StreamResult(trace=trace, slo=slo_summary(trace), obs=obs)


def run_grid(
    case_fn: Callable[[Any], Mapping[str, float]],
    cases: Sequence[Any],
    *,
    jobs: int = 1,
) -> List[Dict[str, float]]:
    """Evaluate an experiment grid, optionally on a process pool.

    ``case_fn(case)`` builds and runs one experiment from its picklable
    case description (a seed, a ``(topology, scheduler, seed)`` tuple, a
    frozen :class:`~repro.workloads.spec.WorkloadSpec`, a dict of knobs —
    whatever the study sweeps) and returns a flat metric mapping.  Results come back as plain dicts **in case order**,
    identical for every ``jobs`` value (:mod:`repro.parallel`), so grid
    tables and downstream aggregation never depend on worker timing.

    This is the grid-shaped sibling of
    :func:`~repro.analysis.aggregate.replicate`, which aggregates one
    experiment across seeds; ``run_grid`` keeps each case's metrics
    separate.
    """
    from repro.parallel import pmap

    return [dict(out) for out in pmap(case_fn, cases, jobs=jobs)]
