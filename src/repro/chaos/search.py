"""Chaos-search harness: seeded fault sweeps with invariant monitoring.

One **episode** is a full simulation run — topology, scheduler, seeded
workload — under a seeded :class:`repro.faults.FaultPlan` mixing every
fault class (crashes, drops, delays, partitions), with an
:class:`~repro.chaos.invariants.InvariantMonitor` wired in as the probe.
A **sweep** runs many episodes, rotating schedulers and re-drawing the
plan and workload from the episode seed, and collects every failure:
invariant violations, engine errors, uncommitted transactions, and
post-hoc certification failures all count.

Determinism is the contract: an episode is a pure function of its
parameters (the :class:`EpisodeSpec`), so any failing episode can be
re-run bit-for-bit from its spec alone — which is exactly what the
shrinker (:mod:`repro.chaos.shrink`) and replay artifacts
(:mod:`repro.chaos.artifact`) rely on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantMonitor, InvariantViolation
from repro.durability import read_resume_log
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.parallel import WorkerPool
from repro.workloads.spec import WorkloadSpec

#: Per-process memo of parsed topologies.  A sweep re-runs hundreds of
#: episodes (and the shrinker thousands of candidates) on the same few
#: topology strings; sharing one :class:`~repro.network.graph.Graph` per
#: string also shares its Dijkstra cache.  Safe because graphs are
#: immutable after construction and their cached distances are pure.
_GRAPH_CACHE: Dict[str, object] = {}


def _cached_topology(topology: str):
    graph = _GRAPH_CACHE.get(topology)
    if graph is None:
        from repro.cli import parse_topology

        graph = _GRAPH_CACHE[topology] = parse_topology(topology)
    return graph


def _warm_worker(topology: str) -> None:
    """Pool initializer: build the sweep topology and every Dijkstra row
    once per worker process instead of once per episode."""
    graph = _cached_topology(topology)
    for node in graph.nodes():
        graph.distances_from(node)

#: Default scheduler rotation for sweeps: a cross-section of the bundled
#: families (greedy coloring, adaptive, coordinated, bucket conversion,
#: windowed batching, serial baseline).  All run at object speed 1 and
#: survive fault injection; the distributed schedulers (speed 2, message
#: heavy) can be opted in via the ``schedulers`` argument.
DEFAULT_SCHEDULERS = (
    "greedy",
    "greedy-degree",
    "adaptive",
    "coordinated",
    "bucket",
    "windowed",
    "fifo",
    "tsp",
)


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything needed to re-run one episode bit-for-bit.

    ``workload`` is a frozen :class:`~repro.workloads.spec.WorkloadSpec`.
    ``planted`` is the test-only violation hook passed through to the
    monitor.

    ``lambda_mult`` scales the workload's arrival rate (2.0 = twice the
    drawn traffic — the overload regime); ``deadline_frac`` > 0 enables
    the ingestion front-end (:mod:`repro.service`) and stamps that
    fraction of submissions with a commit deadline, so sweeps exercise
    the shed/expire paths under faults.  Both default to the historical
    behavior (no scaling, no service).
    """

    topology: str
    scheduler: str
    workload: WorkloadSpec
    plan: FaultPlan
    stall_k: int = 512
    monitor: bool = True
    planted: Optional[Dict[str, object]] = None
    lambda_mult: float = 1.0
    deadline_frac: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "topology": self.topology,
            "scheduler": self.scheduler,
            "workload": {"spec": self.workload.to_dict()},
            "plan": self.plan.to_dict(),
            "stall_k": self.stall_k,
            "monitor": self.monitor,
        }
        if self.planted is not None:
            planted = dict(self.planted)
            if "edge" in planted:
                planted["edge"] = list(planted["edge"])
            out["planted"] = planted
        # Emitted only when non-default so pre-service artifacts and
        # sweep logs round-trip byte-identically.
        if self.lambda_mult != 1.0:
            out["lambda_mult"] = self.lambda_mult
        if self.deadline_frac > 0.0:
            out["deadline_frac"] = self.deadline_frac
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EpisodeSpec":
        planted = data.get("planted")
        if planted is not None:
            planted = dict(planted)
            if "edge" in planted:
                planted["edge"] = tuple(planted["edge"])
        raw = dict(data["workload"])
        if set(raw) != {"spec"}:
            raise ReproError(
                f"episode workload must be a WorkloadSpec ({{'spec': ...}}), "
                f"got the legacy parameter dict {raw!r}"
            )
        return cls(
            topology=data["topology"],
            scheduler=data["scheduler"],
            workload=WorkloadSpec.from_dict(raw["spec"]),
            plan=FaultPlan.from_dict(data["plan"]),
            stall_k=data.get("stall_k", 512),
            monitor=data.get("monitor", True),
            planted=planted,
            lambda_mult=float(data.get("lambda_mult", 1.0)),
            deadline_frac=float(data.get("deadline_frac", 0.0)),
        )


@dataclass
class EpisodeResult:
    """Outcome of one episode."""

    spec: EpisodeSpec
    committed: int = 0
    generated: int = 0
    makespan: int = 0
    end_time: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    reschedules: int = 0
    checks_run: int = 0
    #: service-mode outcomes (0 unless the episode enabled the
    #: ingestion front-end via ``deadline_frac``)
    expired: int = 0
    shed: int = 0
    #: structured failure, or None for a clean episode:
    #: {"invariant", "detail", "message", "step", "tid", "oid", "node"}
    violation: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def to_dict(self) -> Dict[str, object]:
        out = {
            "spec": self.spec.to_dict(),
            "committed": self.committed,
            "generated": self.generated,
            "makespan": self.makespan,
            "end_time": self.end_time,
            "fault_counts": dict(self.fault_counts),
            "reschedules": self.reschedules,
            "checks_run": self.checks_run,
            "violation": self.violation,
        }
        if self.expired:
            out["expired"] = self.expired
        if self.shed:
            out["shed"] = self.shed
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EpisodeResult":
        return cls(
            spec=EpisodeSpec.from_dict(data["spec"]),
            committed=data.get("committed", 0),
            generated=data.get("generated", 0),
            makespan=data.get("makespan", 0),
            end_time=data.get("end_time", 0),
            fault_counts=dict(data.get("fault_counts", {})),
            reschedules=data.get("reschedules", 0),
            checks_run=data.get("checks_run", 0),
            expired=data.get("expired", 0),
            shed=data.get("shed", 0),
            violation=data.get("violation"),
        )


def make_workload(graph, spec: WorkloadSpec):
    """Build the episode workload from its :class:`~repro.workloads.spec.
    WorkloadSpec`."""
    if not isinstance(spec, WorkloadSpec):
        raise ReproError(
            f"episode workload must be a WorkloadSpec, got {type(spec).__name__}"
        )
    return spec.build(graph)


#: base value of each arrival-rate knob when the spec leaves it default
_RATE_DEFAULTS = {"lam": 0.5, "lam_on": 1.0, "rate": 0.5}


def _scale_rate(workload: WorkloadSpec, mult: float) -> WorkloadSpec:
    """The episode workload with its arrival rate scaled by ``mult``."""
    if workload.kind == "bernoulli":
        knob, default = "rate", 0.05
    else:
        from repro.analysis.frontier import rate_knob

        knob = rate_knob(workload.kind)
        default = _RATE_DEFAULTS[knob]
    return workload.with_knobs(**{knob: float(workload.knob(knob, default)) * mult})


def _violation_dict(exc: InvariantViolation) -> Dict[str, object]:
    return {
        "invariant": exc.invariant,
        "detail": exc.detail,
        "message": str(exc),
        "step": exc.step,
        "tid": exc.tid,
        "oid": exc.oid,
        "node": exc.node,
    }


def run_episode(spec: EpisodeSpec) -> EpisodeResult:
    """Run one episode; never raises on a fault-layer failure.

    Invariant violations, engine errors (deadlock, infeasibility,
    reschedule-budget exhaustion), uncommitted transactions at
    quiescence, and post-hoc certification failures are all folded into
    ``result.violation``; genuinely broken specs (unknown scheduler or
    topology) still raise.
    """
    # Function-level imports: repro.cli imports repro.chaos for the
    # ``chaos`` subcommand, so the factories are pulled lazily here to
    # keep the layering acyclic.
    from repro.cli import make_scheduler
    from repro.sim.config import SimConfig
    from repro.sim.engine import Simulator
    from repro.sim.validate import certify_trace

    graph = _cached_topology(spec.topology)
    if spec.plan.membership is not None and spec.plan.membership.joins:
        # Joins mutate the engine's graph (Graph.add_node); give such
        # episodes a private copy so the shared per-process cache stays
        # pristine.  The copy shares the cached oracle until the first
        # join detaches it.
        graph = graph.copy()
    scheduler, speed = make_scheduler(spec.scheduler, graph)
    workload_params = spec.workload
    if spec.lambda_mult != 1.0:
        workload_params = _scale_rate(workload_params, spec.lambda_mult)
    workload = make_workload(graph, workload_params)
    probe = (
        InvariantMonitor(stall_k=spec.stall_k, planted=spec.planted)
        if spec.monitor
        else None
    )
    service = None
    if spec.deadline_frac > 0.0:
        from repro.service import ServiceConfig

        horizon = int(workload_params.knob("horizon", 64))
        service = ServiceConfig(
            policy="fifo",
            deadline=max(4, horizon // 4),
            deadline_frac=spec.deadline_frac,
            seed=workload_params.seed,
        )
    config = SimConfig(
        faults=spec.plan, probe=probe, object_speed_den=speed, service=service
    )
    result = EpisodeResult(spec=spec)
    try:
        sim = Simulator(graph, scheduler, workload, config=config)
        trace = sim.run()
    except InvariantViolation as exc:
        result.violation = _violation_dict(exc)
    except ReproError as exc:
        result.violation = {
            "invariant": "engine-error",
            "detail": f"{type(exc).__name__}: {exc}",
            "message": str(exc),
            "step": None,
            "tid": None,
            "oid": None,
            "node": None,
        }
    else:
        result.committed = trace.num_txns
        result.generated = len(sim.txns)
        result.makespan = trace.makespan()
        result.end_time = trace.end_time
        result.fault_counts = trace.fault_counts()
        result.reschedules = len(trace.reschedules)
        result.expired = len(trace.expiries)
        result.shed = len(trace.sheds)
        # Liveness counts *resolved* transactions: a deadline expiry
        # cancelled its transaction deliberately (service mode), so only
        # work that neither committed nor expired is left behind.
        if result.committed + result.expired < result.generated:
            expired_tids = {e.tid for e in trace.expiries}
            missing = sorted(
                tid
                for tid in sim.txns
                if tid not in trace.txns and tid not in expired_tids
            )[:8]
            result.violation = {
                "invariant": "liveness",
                "detail": (
                    f"{result.generated - result.committed - result.expired} "
                    f"of {result.generated} transactions never resolved "
                    f"(e.g. {missing})"
                ),
                "message": "uncommitted transactions at quiescence",
                "step": trace.end_time,
                "tid": missing[0] if missing else None,
                "oid": None,
                "node": None,
            }
        else:
            issues = certify_trace(graph, trace, raise_on_failure=False)
            if issues:
                result.violation = {
                    "invariant": "certify",
                    "detail": "; ".join(str(i) for i in issues[:5]),
                    "message": f"{len(issues)} certification issues",
                    "step": trace.end_time,
                    "tid": None,
                    "oid": None,
                    "node": None,
                }
    if probe is not None:
        result.checks_run = probe.checks_run
    return result


def episode_spec(
    index: int,
    *,
    seed: int = 0,
    topology: str = "ring:12",
    schedulers: Tuple[str, ...] = DEFAULT_SCHEDULERS,
    workload_kind: str = "bernoulli",
    objects: int = 6,
    k: int = 2,
    horizon: int = 40,
    drop: float = 0.05,
    delay: float = 0.1,
    max_delay: int = 3,
    crashes: int = 1,
    crash_len: int = 6,
    partitions: int = 1,
    partition_len: int = 8,
    joins: int = 0,
    leaves: int = 0,
    stall_k: int = 512,
    monitor: bool = True,
    planted: Optional[Dict[str, object]] = None,
    lambda_mult: float = 1.0,
    deadline_frac: float = 0.0,
) -> EpisodeSpec:
    """The ``index``-th episode of a sweep: scheduler rotates round-robin,
    fault plan and workload are drawn from a per-episode seed derived by
    the same string-keyed RNG the injector uses.  ``joins`` / ``leaves``
    add elastic-membership churn to every drawn plan.  ``planted``
    forwards the monitor's test-only violation hook to every generated
    spec.  ``lambda_mult`` / ``deadline_frac`` forward the overload and
    deadline knobs (see :class:`EpisodeSpec`)."""
    ep_seed = random.Random(f"{seed}|chaos-episode|{index}").randrange(2**31)
    graph = _cached_topology(topology)
    plan = FaultPlan.random(
        ep_seed,
        num_nodes=graph.num_nodes,
        horizon=horizon,
        drop_prob=drop,
        delay_prob=delay,
        max_delay=max_delay,
        crash_count=crashes,
        crash_len=crash_len,
        partition_count=partitions,
        partition_len=partition_len,
        join_count=joins,
        leave_count=leaves,
        edges=[(u, v) for u, v, _ in graph.edges()],
    )
    knobs: Dict[str, object] = {"objects": objects, "k": k}
    if workload_kind == "bernoulli":
        knobs.update(rate=1.0 / graph.num_nodes, horizon=horizon)
    workload = WorkloadSpec.make(workload_kind, seed=ep_seed, **knobs)
    return EpisodeSpec(
        topology=topology,
        scheduler=schedulers[index % len(schedulers)],
        workload=workload,
        plan=plan,
        stall_k=stall_k,
        monitor=monitor,
        planted=planted,
        lambda_mult=lambda_mult,
        deadline_frac=deadline_frac,
    )


@dataclass
class SweepResult:
    """Outcome of a chaos sweep."""

    episodes: List[EpisodeResult] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[EpisodeResult]:
        return [r for r in self.episodes if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, object]:
        fault_totals: Dict[str, int] = {}
        for r in self.episodes:
            for kind, count in r.fault_counts.items():
                fault_totals[kind] = fault_totals.get(kind, 0) + count
        out = {
            "episodes": len(self.episodes),
            "violations": len(self.violations),
            "committed": sum(r.committed for r in self.episodes),
            "reschedules": sum(r.reschedules for r in self.episodes),
            "invariant_checks": sum(r.checks_run for r in self.episodes),
            "fault_counts": fault_totals,
            "schedulers": sorted({r.spec.scheduler for r in self.episodes}),
            "artifacts": list(self.artifacts),
        }
        expired = sum(r.expired for r in self.episodes)
        shed = sum(r.shed for r in self.episodes)
        if expired or shed:
            out["expired"] = expired
            out["shed"] = shed
        return out


def run_sweep(
    episodes: int,
    *,
    seed: int = 0,
    shrink: bool = False,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[EpisodeResult], None]] = None,
    jobs: int = 1,
    specs: Optional[Sequence[EpisodeSpec]] = None,
    resume_path: Optional[str] = None,
    **episode_kwargs,
) -> SweepResult:
    """Run ``episodes`` seeded chaos episodes; optionally minimize and
    archive every failure.

    With ``shrink=True`` each failing episode's fault plan is
    delta-debugged down to a smallest still-failing reproducer
    (:func:`repro.chaos.shrink.shrink_spec`); with ``artifact_dir`` set,
    each (minimized) failure is written as a replayable JSON artifact.
    ``episode_kwargs`` are forwarded to :func:`episode_spec`.

    ``jobs`` > 1 fans the episodes (and the shrinker's candidate plans)
    out over a process pool (:mod:`repro.parallel`).  Episodes are pure
    functions of their spec and results are merged by episode index, so
    the sweep result — episode order, shrunk plans, artifacts — is
    identical to a serial run for any worker count.

    ``specs`` overrides episode generation with an explicit list of
    :class:`EpisodeSpec` to run (``episodes``/``episode_kwargs`` are then
    ignored); artifacts and progress behave exactly as for generated
    specs.

    ``resume_path`` makes the sweep crash-resumable: each finished
    episode (post-shrink) is appended to the JSONL log as it completes,
    and a restarted sweep with the same path replays logged episodes
    from the log instead of re-running them.  Episodes are pure
    functions of their spec, so the merged result is identical to an
    uninterrupted sweep.
    """
    from repro.chaos.artifact import save_artifact
    from repro.chaos.shrink import shrink_spec

    if specs is None:
        specs = [episode_spec(i, seed=seed, **episode_kwargs) for i in range(episodes)]
    else:
        specs = list(specs)
    topology = specs[0].topology if specs else "ring:12"

    done: Dict[int, Dict[str, object]] = {}
    log_fh = None
    if resume_path is not None:
        done = {int(rec["index"]): rec for rec in read_resume_log(resume_path)}
        log_fh = open(resume_path, "a")

    out = SweepResult()
    try:
        with WorkerPool(
            run_episode, jobs=jobs, initializer=_warm_worker, initargs=(topology,)
        ) as pool:
            # Serial runs stream episode-by-episode (progress fires as
            # each completes); parallel runs map everything first and
            # then post-process in episode order, which yields the same
            # results.  Already-logged episodes are never re-mapped.
            todo = [s for i, s in enumerate(specs) if i not in done]
            mapped = iter(pool.map(todo) if pool.jobs > 1 else [])
            for i, spec in enumerate(specs):
                if i in done:
                    rec = done[i]
                    result = EpisodeResult.from_dict(rec["result"])
                    if rec.get("artifact"):
                        out.artifacts.append(rec["artifact"])
                    out.episodes.append(result)
                    if progress is not None:
                        progress(result)
                    continue
                result = next(mapped) if pool.jobs > 1 else run_episode(spec)
                if result.violation is not None and shrink:
                    small = shrink_spec(
                        spec, result.violation["invariant"], pool=pool
                    )
                    result = run_episode(small)
                    if result.violation is None:  # shrink must preserve failure
                        result = run_episode(spec)
                artifact_path = None
                if result.violation is not None and artifact_dir is not None:
                    artifact_path = save_artifact(
                        result, artifact_dir, name=f"chaos-{seed}-{i:04d}.json"
                    )
                    out.artifacts.append(artifact_path)
                if log_fh is not None:
                    rec = {"index": i, "result": result.to_dict()}
                    if artifact_path is not None:
                        rec["artifact"] = artifact_path
                    log_fh.write(json.dumps(rec) + "\n")
                    log_fh.flush()
                out.episodes.append(result)
                if progress is not None:
                    progress(result)
    finally:
        if log_fh is not None:
            log_fh.close()
    return out


def rerun_with_plan(spec: EpisodeSpec, plan: FaultPlan) -> EpisodeResult:
    """Re-run ``spec`` with a substituted fault plan (shrinker probe)."""
    return run_episode(replace(spec, plan=plan))
