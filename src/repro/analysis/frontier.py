"""Stability frontiers: bisecting λ to find each scheduler's capacity.

The open-system question "is scheduler S stable at arrival rate λ?"
(:mod:`repro.analysis.slo`) has a monotone answer in practice — stable
below some critical rate λ*, unstable above it — so λ* is findable by
bisection.  This module runs that search for several schedulers at once
on the deterministic :mod:`repro.parallel` runtime:

* each **round** gathers one probe rate per still-searching scheduler
  and fans the batch out through one :func:`~repro.parallel.pmap` call
  (lockstep bisection: wall-clock scales with rounds, not with
  ``schedulers x rounds``);
* bracket updates depend only on the index-ordered verdicts, so the
  frontier is **byte-identical for every** ``jobs`` **value** — the same
  guarantee the rest of the repo's fan-out points make;
* every probe is a pure seeded :class:`~repro.workloads.spec.
  WorkloadSpec` run, so the whole frontier is reproducible from
  ``(topology, workload spec, λ-range, seed)``.

The result — λ* per scheduler plus the SLO row at the last stable probe
— is the capacity-planning answer: "how much load can each scheduler
take on this topology, and what latency tail do you get just below the
cliff?"  Surfaced on the CLI as ``repro frontier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro._types import Time
from repro.errors import WorkloadError
from repro.sim.config import SimConfig
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "FrontierProbe",
    "FrontierResult",
    "SchedulerFrontier",
    "rate_knob",
    "stability_frontier",
]

#: which knob carries the arrival rate, per open workload kind
_RATE_KNOBS = {
    "poisson-open": "lam",
    "diurnal-open": "lam",
    "onoff-open": "lam_on",
    "adversarial-open": "rate",
}


def rate_knob(kind: str) -> str:
    """The knob name the frontier bisects for ``kind``."""
    try:
        return _RATE_KNOBS[kind]
    except KeyError:
        raise WorkloadError(
            f"workload kind {kind!r} has no rate knob to bisect "
            f"(open kinds: {sorted(_RATE_KNOBS)})"
        ) from None


# Worker-side topology cache, keyed by spec string (idiom shared with the
# chaos harness): one Dijkstra-warmed Graph per process, not per probe.
_GRAPH_CACHE: Dict[str, Any] = {}


def _cached_topology(topology: str):
    graph = _GRAPH_CACHE.get(topology)
    if graph is None:
        from repro.cli import parse_topology

        graph = _GRAPH_CACHE[topology] = parse_topology(topology)
    return graph


@dataclass(frozen=True)
class FrontierProbe:
    """One picklable bisection probe: scheduler x rate, fully seeded."""

    topology: str
    scheduler: str
    workload: WorkloadSpec
    lam: float
    until: Time
    warmup: Time


def run_probe(probe: FrontierProbe) -> Dict[str, Any]:
    """Run one probe and fold it to a flat dict (the pmap worker fn)."""
    from repro.analysis.experiments import run_stream
    from repro.cli import make_scheduler

    graph = _cached_topology(probe.topology)
    scheduler, speed = make_scheduler(probe.scheduler, graph)
    cfg = SimConfig(object_speed_den=speed)
    result = run_stream(
        graph,
        scheduler,
        probe.workload,
        until=probe.until,
        warmup=probe.warmup,
        config=cfg,
    )
    row = result.slo.to_dict()
    row["scheduler"] = probe.scheduler
    row["lam"] = probe.lam
    return row


@dataclass
class SchedulerFrontier:
    """One scheduler's frontier: λ* and the SLO at the last stable probe."""

    scheduler: str
    #: largest probed rate judged stable; 0.0 when even ``lam_min`` fails
    lambda_star: float
    #: SLO row (slo.to_dict() + scheduler/lam) at λ*; None when unstable
    #: across the whole range
    stable_slo: Optional[Dict[str, Any]]
    #: every probe this scheduler ran, in execution order
    probes: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "lambda_star": self.lambda_star,
            "stable_slo": self.stable_slo,
            "probes": self.probes,
        }


@dataclass
class FrontierResult:
    """The full sweep: per-scheduler frontiers plus the search inputs."""

    topology: str
    workload: WorkloadSpec
    lam_min: float
    lam_max: float
    rounds: int
    until: Time
    warmup: Time
    schedulers: List[SchedulerFrontier]

    @property
    def probe_count(self) -> int:
        return sum(len(s.probes) for s in self.schedulers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "workload": self.workload.to_dict(),
            "lam_min": self.lam_min,
            "lam_max": self.lam_max,
            "rounds": self.rounds,
            "until": self.until,
            "warmup": self.warmup,
            "probe_count": self.probe_count,
            "schedulers": [s.to_dict() for s in self.schedulers],
        }


@dataclass
class _Search:
    """Mutable bisection state for one scheduler."""

    name: str
    lo: float  # largest rate known stable (0.0 = none yet)
    hi: float  # smallest rate known unstable (inf = none yet)
    lo_row: Optional[Dict[str, Any]] = None
    probes: List[Dict[str, Any]] = field(default_factory=list)
    done: bool = False


def stability_frontier(
    topology: str,
    schedulers: List[str],
    workload: WorkloadSpec,
    *,
    lam_min: float = 0.05,
    lam_max: float = 4.0,
    rounds: int = 6,
    until: Time = 600,
    warmup: Time = 150,
    jobs: int = 1,
    resume_path: Optional[str] = None,
) -> FrontierResult:
    """Bisect λ in ``[lam_min, lam_max]`` for every scheduler.

    ``workload`` is an open-kind :class:`WorkloadSpec`; its rate knob
    (:func:`rate_knob`) is overwritten per probe.  Two bracketing rounds
    (``lam_max`` first — a scheduler stable at the top of the range is
    done immediately — then ``lam_min``) are followed by ``rounds``
    bisection rounds, every round one :func:`~repro.parallel.pmap` batch
    across the still-searching schedulers.

    ``resume_path`` makes the search crash-resumable: every finished
    probe row is appended to the JSONL log keyed by ``(scheduler, λ)``
    as it completes, and a restarted search replays logged probes
    instead of re-running them.  Bisection is a deterministic function
    of the index-ordered verdicts, so a resumed frontier is identical
    to an uninterrupted one.
    """
    import json

    from repro.durability import read_resume_log
    from repro.parallel import pmap

    if not schedulers:
        raise WorkloadError("stability_frontier needs at least one scheduler")
    if not getattr(workload, "open_system", False):
        raise WorkloadError(
            f"stability_frontier needs an open workload kind, got {workload.kind!r}"
        )
    if not 0 < lam_min < lam_max:
        raise WorkloadError(
            f"need 0 < lam_min < lam_max, got [{lam_min}, {lam_max}]"
        )
    knob = rate_knob(workload.kind)

    cache: Dict[Tuple[str, float], Dict[str, Any]] = {}
    log_fh = None
    if resume_path is not None:
        for rec in read_resume_log(resume_path):
            cache[(rec["scheduler"], rec["lam"])] = rec["row"]
        log_fh = open(resume_path, "a")

    def probe_at(name: str, lam: float) -> FrontierProbe:
        return FrontierProbe(
            topology=topology,
            scheduler=name,
            workload=workload.with_knobs(**{knob: lam}),
            lam=lam,
            until=until,
            warmup=warmup,
        )

    def run_batch(batch: List[Tuple[_Search, float]]) -> None:
        todo = [(s, lam) for s, lam in batch if (s.name, lam) not in cache]
        fresh = iter(
            pmap(
                run_probe,
                [probe_at(s.name, lam) for s, lam in todo],
                jobs=jobs,
                initializer=_cached_topology,
                initargs=(topology,),
            )
            if todo
            else []
        )
        for search, lam in batch:
            row = cache.get((search.name, lam))
            if row is None:
                row = next(fresh)
                cache[(search.name, lam)] = row
                if log_fh is not None:
                    log_fh.write(
                        json.dumps(
                            {"scheduler": search.name, "lam": lam, "row": row}
                        )
                        + "\n"
                    )
                    log_fh.flush()
            search.probes.append(row)
            if row["stable"]:
                if lam > search.lo:
                    search.lo, search.lo_row = lam, row
            else:
                search.hi = min(search.hi, lam)

    states = [_Search(name=n, lo=0.0, hi=float("inf")) for n in schedulers]

    try:
        # Bracketing: the whole range first.
        run_batch([(s, lam_max) for s in states])
        for s in states:
            s.done = s.lo >= lam_max  # stable at the top: λ* is the range edge
        remaining = [s for s in states if not s.done]
        if remaining:
            run_batch([(s, lam_min) for s in remaining])
            for s in remaining:
                s.done = s.hi <= lam_min  # unstable even at the bottom
        # Bisection rounds, lockstep across schedulers.
        for _ in range(rounds):
            active = [s for s in states if not s.done]
            if not active:
                break
            run_batch([(s, (max(s.lo, lam_min) + s.hi) / 2.0) for s in active])
    finally:
        if log_fh is not None:
            log_fh.close()

    return FrontierResult(
        topology=topology,
        workload=workload,
        lam_min=lam_min,
        lam_max=lam_max,
        rounds=rounds,
        until=until,
        warmup=warmup,
        schedulers=[
            SchedulerFrontier(
                scheduler=s.name,
                lambda_star=s.lo,
                stable_slo=s.lo_row,
                probes=s.probes,
            )
            for s in states
        ],
    )
