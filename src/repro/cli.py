"""Command-line interface: run, compare, and inspect DTM schedules.

Examples::

    python -m repro run --topology grid:5x5 --scheduler greedy \
        --workload bernoulli --objects 8 --k 2 --rate 0.05 --horizon 60

    python -m repro compare --topology line:32 --workload bernoulli \
        --objects 8 --k 2 --rate 0.04 --horizon 80

    python -m repro cover --topology cluster:4x4:8 --seed 0

Topology specs: ``clique:N``, ``line:N``, ``ring:N``, ``grid:AxB[xC...]``,
``torus:AxB``, ``hypercube:D``, ``butterfly:D``, ``cluster:AxB:GAMMA``,
``star:AxB``, ``tree:BxDEPTH``, ``rgg:N:RADIUS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Tuple

from repro import durability
from repro._types import DeparturePolicy
from repro.analysis import render_table, run_simulator
from repro.baselines import FifoSerialScheduler, TspTourScheduler
from repro.core import (
    AdaptiveScheduler,
    BucketScheduler,
    CoordinatedGreedyScheduler,
    DistributedBucketScheduler,
    GreedyScheduler,
)
from repro.cover import build_sparse_cover
from repro.errors import ReproError
from repro.network import Graph, topologies
from repro.obs import CountersProbe, JsonlProbe, MultiProbe
from repro.parallel import pmap
from repro.offline import (
    ClusterBatchScheduler,
    ColoringBatchScheduler,
    LineBatchScheduler,
    StarBatchScheduler,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.serialize import save_trace
from repro.workloads import WorkloadSpec
from repro.workloads.spec import allowed_knobs

SCHEDULER_NAMES = [
    "greedy",
    "greedy-uniform",
    "greedy-degree",
    "adaptive",
    "coordinated",
    "bucket",
    "bucket-line",
    "bucket-cluster",
    "bucket-star",
    "windowed",
    "distributed",
    "distributed-arrow",
    "fifo",
    "tsp",
]


def parse_topology(spec: str) -> Graph:
    """Build a graph from a compact ``kind:params`` spec (see module doc)."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "clique":
            return topologies.clique(int(parts[1]))
        if kind == "line":
            return topologies.line(int(parts[1]))
        if kind == "ring":
            return topologies.ring(int(parts[1]))
        if kind in ("grid", "torus"):
            dims = [int(d) for d in parts[1].split("x")]
            return topologies.grid(dims) if kind == "grid" else topologies.torus(dims)
        if kind == "hypercube":
            return topologies.hypercube(int(parts[1]))
        if kind == "butterfly":
            return topologies.butterfly(int(parts[1]))
        if kind == "cluster":
            alpha, beta = (int(x) for x in parts[1].split("x"))
            return topologies.cluster_graph(alpha, beta, int(parts[2]))
        if kind == "star":
            alpha, beta = (int(x) for x in parts[1].split("x"))
            return topologies.star_graph(alpha, beta)
        if kind == "tree":
            b, d = (int(x) for x in parts[1].split("x"))
            return topologies.tree(b, d)
        if kind == "rgg":
            seed = int(parts[3]) if len(parts) > 3 else 0
            return topologies.random_geometric(int(parts[1]), float(parts[2]), seed=seed)
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad topology spec {spec!r}: {exc}")
    raise SystemExit(f"unknown topology kind {kind!r} (spec {spec!r})")


def make_scheduler(name: str, graph: Graph) -> Tuple[object, int]:
    """Scheduler instance plus the object speed it requires."""
    if name == "greedy":
        return GreedyScheduler(), 1
    if name == "greedy-degree":
        return GreedyScheduler(order="degree"), 1
    if name == "greedy-uniform":
        beta = max(1, int(graph.diameter()))
        return GreedyScheduler(uniform_beta=beta), 1
    if name == "adaptive":
        return AdaptiveScheduler(), 1
    if name == "coordinated":
        return CoordinatedGreedyScheduler(), 1
    if name == "bucket":
        return BucketScheduler(ColoringBatchScheduler()), 1
    if name == "bucket-line":
        return BucketScheduler(LineBatchScheduler()), 1
    if name == "bucket-cluster":
        return BucketScheduler(ClusterBatchScheduler()), 1
    if name == "bucket-star":
        return BucketScheduler(StarBatchScheduler()), 1
    if name == "windowed":
        from repro.core import WindowedBatchScheduler

        return WindowedBatchScheduler(ColoringBatchScheduler(), window=16), 1
    if name == "distributed":
        return DistributedBucketScheduler(ColoringBatchScheduler(), seed=0), 2
    if name == "distributed-arrow":
        return (
            DistributedBucketScheduler(ColoringBatchScheduler(), seed=0, discovery="arrow"),
            2,
        )
    if name == "fifo":
        return FifoSerialScheduler(), 1
    if name == "tsp":
        return TspTourScheduler(), 1
    raise SystemExit(f"unknown scheduler {name!r} (choose from {SCHEDULER_NAMES})")


#: ``--workload`` -> (WorkloadSpec kind, {knob: flag attribute}); the
#: object-pool knobs (--objects, --k, --zipf, --read-fraction) are added
#: for every kind that accepts them
_WORKLOADS = {
    "batch": ("batch", {}),
    "bernoulli": ("bernoulli", {"rate": "rate", "horizon": "horizon"}),
    "poisson": ("poisson-bulk", {"lam": "rate", "horizon": "horizon"}),
    "closed-loop": ("closed-loop", {"rounds": "rounds"}),
    "hotspot": ("hotspot", {}),
    "chain": ("chain", {}),
    "poisson-open": ("poisson-open", {"lam": "lam"}),
    "onoff-open": ("onoff-open", {"lam_on": "lam", "lam_off": "lam_off"}),
    "diurnal-open": (
        "diurnal-open", {"lam": "lam", "amplitude": "amplitude", "period": "period"}
    ),
    "adversarial-open": ("adversarial-open", {"rate": "lam", "burst": "burst"}),
}
OPEN_WORKLOAD_KINDS = [name for name in _WORKLOADS if name.endswith("-open")]
CLOSED_WORKLOAD_KINDS = [name for name in _WORKLOADS if not name.endswith("-open")]


def make_stream_spec(args) -> WorkloadSpec:
    """The :class:`WorkloadSpec` that ``--workload`` and its knob flags
    describe, for closed (run/compare/suite) and open (stream/serve/
    frontier) kinds alike.  A knob the kind does not accept is an error
    (``poisson`` draws write-only transactions, so it rejects
    ``--read-fraction``)."""
    kind, flags = _WORKLOADS[args.workload]
    knobs = {
        knob: getattr(args, flag)
        for knob, flag in flags.items()
        if getattr(args, flag) is not None
    }
    if "objects" in allowed_knobs(kind):
        knobs.update(objects=args.objects, k=args.k)
        if args.zipf > 0:
            knobs["zipf"] = args.zipf
        if args.read_fraction > 0:
            knobs["read_fraction"] = args.read_fraction
    if getattr(args, "priority_classes", 1) > 1:
        knobs["priority_classes"] = args.priority_classes
    return WorkloadSpec.make(kind, seed=args.seed, **knobs)


def make_workload(args, graph: Graph):
    """The workload ``--workload`` and its knob flags describe, on ``graph``."""
    return make_stream_spec(args).build(graph)


def _result_dict(name: str, res) -> dict:
    m = res.metrics
    return {
        "scheduler": name,
        "txns": m.num_txns,
        "makespan": m.makespan,
        "max_latency": m.max_latency,
        "mean_latency": round(m.mean_latency, 2),
        "p99_latency": round(m.p99_latency, 2),
        "object_travel": m.total_object_travel,
        "messages": m.messages_sent,
        "competitive_ratio": round(res.competitive_ratio, 3),
    }


def make_probe(args, jsonl_path: Optional[str] = None):
    """Build the probe requested by --obs-counters / --obs-jsonl /
    --monitor (or None when nothing was asked for)."""
    probes = []
    if getattr(args, "obs_counters", False):
        probes.append(CountersProbe())
    path = jsonl_path if jsonl_path is not None else getattr(args, "obs_jsonl", None)
    if path:
        probes.append(JsonlProbe(path))
    if getattr(args, "monitor", False):
        from repro.chaos import InvariantMonitor

        probes.append(InvariantMonitor(stall_k=getattr(args, "stall_k", 512)))
    if not probes:
        return None
    return probes[0] if len(probes) == 1 else MultiProbe(*probes)


def make_faults(args, graph: Graph):
    """Parse ``--faults seed=S,drop=P,crash=K,partition=K,...`` into a FaultPlan."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults import FaultPlan

    horizon = getattr(args, "horizon", 60) or 60
    return FaultPlan.parse(
        spec,
        num_nodes=graph.num_nodes,
        horizon=horizon,
        edges=[(u, v) for u, v, _ in graph.edges()],
    )


def make_service_config(args):
    """Build the :class:`~repro.service.ServiceConfig` requested by
    --admission/--queue-cap/--deadline/--deadline-frac (None when the
    ingestion front-end was not asked for)."""
    policy = getattr(args, "admission", None)
    if policy is None:
        return None
    from repro.service import ServiceConfig

    return ServiceConfig(
        policy=policy,
        queue_cap=args.queue_cap,
        deadline=args.deadline,
        deadline_frac=args.deadline_frac,
        seed=args.seed,
    )


def make_config(args, speed: int, probe=None, faults=None) -> SimConfig:
    """Translate CLI knobs into one SimConfig; every command builds its
    engine config here.

    Congestion studies (--link-capacity / --node-capacity) need the
    deferral engine, not hard errors, so they switch to strict=False —
    their schedules target the congestion-free model and the deferral
    count is the measurement.  Fault runs (--faults) stay strict: misses
    route through the recovery machinery, not the deferral path.

    ``--transport`` selects the motion model explicitly; without it a
    ``--link-capacity`` implies ``transport="hop"``.  Long-tail delivery
    (``--latency-dist``) rides on the recovery machinery, so without a
    fault plan it gets an empty one (no injected faults).
    """
    link_capacity = getattr(args, "link_capacity", None)
    node_capacity = getattr(args, "node_capacity", None)
    transport = getattr(args, "transport", None)
    if transport == "direct" and link_capacity:
        raise SystemExit(
            "--link-capacity requires a hop transport "
            "(use --transport hop, or drop --transport direct)"
        )
    if transport is None and link_capacity:
        transport = "hop"
    latency = getattr(args, "latency_dist", None)
    if latency and faults is None:
        from repro.faults import FaultPlan

        faults = FaultPlan(seed=args.seed)
    checkpoint = getattr(args, "checkpoint", None)
    return SimConfig(
        departure_policy=DeparturePolicy.LAZY if getattr(args, "lazy", False)
        else DeparturePolicy.EAGER,
        object_speed_den=max(speed, getattr(args, "object_speed", 1)),
        strict=not (link_capacity or node_capacity),
        node_egress_capacity=node_capacity,
        link_capacity=link_capacity,
        probe=probe,
        transport=transport,
        faults=faults,
        checkpoint_path=checkpoint,
        checkpoint_every=(
            getattr(args, "checkpoint_every", None) if checkpoint else None
        ),
        service=make_service_config(args),
        latency_dist=latency,
        latency_seed=args.seed if latency else 0,
    )


def _simulator(args, name: str, jsonl_path: Optional[str] = None):
    """The engine the flags describe.  With ``--resume`` it is restored
    from the checkpoint, whose snapshot carries the graph, scheduler,
    workload (with its arrival cursor) and config; otherwise it is built
    from the topology, scheduler ``name``, workload and config flags."""
    if getattr(args, "resume", None):
        return Simulator.restore(args.resume)
    if not args.topology:
        raise SystemExit("--topology is required (unless resuming with --resume)")
    graph = parse_topology(args.topology)
    scheduler, speed = make_scheduler(name, graph)
    workload = make_workload(args, graph)
    config = make_config(
        args, speed, probe=make_probe(args, jsonl_path), faults=make_faults(args, graph)
    )
    return Simulator(graph, scheduler, workload, config=config)


def _run_closed(args, name: str, jsonl_path: Optional[str] = None):
    """Run one closed workload to quiescence: certified and analysed
    (:func:`~repro.analysis.run_simulator`).  Returns ``(sim, result)``."""
    sim = _simulator(args, name, jsonl_path)
    res = run_simulator(sim)
    durability.close_probes(sim.config.probe)
    return sim, res


def cmd_run(args) -> int:
    """``repro run``: one scheduler on a closed workload.  With
    ``--resume`` a killed run continues from its checkpoint, keeps
    checkpointing to the path it was started with, and produces the
    trace — and report — the uninterrupted run would have."""
    sim, res = _run_closed(args, args.scheduler)
    graph = sim.graph
    name = type(sim.scheduler).__name__ if args.resume else args.scheduler
    out = _result_dict(name, res)
    out["topology"] = graph.name
    out["deadline_misses"] = len(res.trace.violations)
    if res.trace.faults or res.trace.reschedules:
        out["faults"] = res.trace.fault_counts()
        out["reschedules"] = len(res.trace.reschedules)
        out["backoff_max"] = res.trace.max_backoff()
    if res.obs is not None:
        out["obs"] = res.obs
    if args.obs_jsonl:
        out["obs_jsonl"] = args.obs_jsonl
    if args.trace:
        save_trace(res.trace, args.trace)
        out["trace_file"] = args.trace
    title = f"{'resumed ' if args.resume else ''}{graph.name} / {name}"
    if args.report:
        from repro.analysis.report import run_report

        with open(args.report, "w") as fh:
            fh.write(run_report(graph, res, title=title))
        out["report_file"] = args.report
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        obs = out.pop("obs", None)
        rows = [[k, v] for k, v in out.items()]
        if obs:
            rows.extend([[f"obs.{k}", v] for k, v in obs.items()])
        print(render_table(["metric", "value"], rows, title=title))
    return 0


def _slo_rows(slo: dict) -> list:
    rows = [
        ["stable", slo["stable"]],
        ["arrival rate", round(slo["arrival_rate"], 4)],
        ["throughput", round(slo["throughput"], 4)],
        ["p50 latency", slo["p50"]],
        ["p99 latency", slo["p99"]],
        ["p999 latency", slo["p999"]],
        ["mean latency", round(slo["mean_latency"], 3)],
        ["generated", slo["generated"]],
        ["committed", slo["committed"]],
        ["backlog at horizon", slo["backlog"]],
        ["backlog first/second half",
         f"{slo['backlog_first_half']:.1f} / {slo['backlog_second_half']:.1f}"],
    ]
    if slo.get("goodput") is not None:
        rows += [
            ["goodput", round(slo["goodput"], 4)],
            ["shed rate", round(slo["shed_rate"], 4)],
            ["deadline hit rate", round(slo["deadline_hit_rate"], 4)],
            ["p99 of admitted", slo["p99_admitted"]],
        ]
    return rows


def cmd_stream(args) -> int:
    """``repro stream`` / ``repro serve``: one scheduler against an open
    workload up to ``--until``; print the SLO fold.  With ``--resume`` a
    killed run continues from its checkpoint (pass the original
    ``--until`` for a byte-identical trace)."""
    from repro.analysis.frontier import rate_knob
    from repro.analysis.slo import slo_summary

    warmup = args.warmup if args.warmup is not None else args.until // 4
    sim = _simulator(args, args.scheduler)
    trace = sim.run(until=args.until, warmup=warmup)
    summarize_probe = getattr(sim.config.probe, "summary", None)
    obs = summarize_probe() if summarize_probe is not None else None
    durability.close_probes(sim.config.probe)
    name = type(sim.scheduler).__name__ if args.resume else args.scheduler
    spec = getattr(sim.workload, "spec", None)
    service = sim.config.service
    out = {"topology": sim.graph.name, "scheduler": name}
    title = f"{'resumed ' if args.resume else ''}{sim.graph.name} / {name}"
    if spec is not None:
        out["workload"] = spec.to_dict()
        title += f" @ λ={spec.knob(rate_knob(spec.kind))} ({spec.kind})"
    out.update(slo_summary(trace).to_dict())
    if service is not None:
        out["admission"] = service.policy
        title += f" [{service.policy}]"
    if obs is not None:
        out["obs"] = obs
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(f"# Open-system run — {title}\n\n")
            fh.write(render_table(["metric", "value"], _slo_rows(out), title=None))
            fh.write("\n")
        out["report_file"] = args.report
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        obs = out.pop("obs", None)
        print(render_table(["metric", "value"], _slo_rows(out), title=title))
        if obs:
            print(render_table(
                ["counter", "value"], [[k, v] for k, v in obs.items()], title="obs"
            ))
    return 0


def cmd_frontier(args) -> int:
    """Bisect λ per scheduler; print the stability frontier."""
    from repro.analysis import stability_frontier

    if not args.topology:
        raise SystemExit("--topology is required")
    names = args.schedulers.split(",") if args.schedulers else ["greedy", "bucket", "fifo"]
    spec = make_stream_spec(args)
    warmup = args.warmup if args.warmup is not None else args.until // 4
    res = stability_frontier(
        args.topology,
        names,
        spec,
        lam_min=args.lam_min,
        lam_max=args.lam_max,
        rounds=args.rounds,
        until=args.until,
        warmup=warmup,
        jobs=args.jobs,
        resume_path=getattr(args, "resume", None),
    )
    rows = []
    for s in res.schedulers:
        slo = s.stable_slo
        rows.append([
            s.scheduler,
            round(s.lambda_star, 4),
            round(slo["throughput"], 3) if slo else "-",
            slo["p50"] if slo else "-",
            slo["p99"] if slo else "-",
            slo["p999"] if slo else "-",
            len(s.probes),
        ])
    header = ["scheduler", "λ*", "tput@λ*", "p50", "p99", "p999", "probes"]
    title = (
        f"stability frontier — {args.topology}, {spec.kind}, "
        f"λ∈[{args.lam_min}, {args.lam_max}], until={args.until}"
    )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(f"# {title}\n\n")
            fh.write(render_table(header, rows, title=None))
            fh.write(
                f"\nλ* is the largest probed arrival rate with a stable "
                f"verdict; latencies are the p50/p99/p999 commit latency at "
                f"λ*.  {res.probe_count} probes total.\n"
            )
    if args.json:
        print(json.dumps(res.to_dict(), indent=2))
    else:
        print(render_table(header, rows, title=title))
    return 0


def _compare_one(payload) -> dict:
    """One scheduler of a ``compare``: a full timed run, returned as the
    JSON-ready result dict.  Module-level and driven by a picklable
    ``(args, name, jsonl_path)`` payload so ``--jobs N`` can fan the
    schedulers out over a process pool."""
    args, name, jsonl_path = payload
    started = time.perf_counter()
    _, res = _run_closed(args, name, jsonl_path)
    d = _result_dict(name, res)
    d["seconds"] = round(time.perf_counter() - started, 3)
    if res.trace.faults or res.trace.reschedules:
        d["faults"] = res.trace.fault_counts()
        d["reschedules"] = len(res.trace.reschedules)
    if res.obs is not None:
        d["obs"] = res.obs
    if jsonl_path:
        d["obs_jsonl"] = jsonl_path
    return d


def cmd_compare(args) -> int:
    if not args.topology:
        raise SystemExit("--topology is required")
    graph = parse_topology(args.topology)
    names = args.schedulers.split(",") if args.schedulers else [
        "greedy", "bucket", "fifo", "tsp"
    ]
    payloads = []
    for name in names:
        jsonl_path = None
        if args.obs_jsonl:
            # One stream per scheduler: results.jsonl -> results.greedy.jsonl
            root, dot, ext = args.obs_jsonl.rpartition(".")
            jsonl_path = f"{root}.{name}{dot}{ext}" if dot else f"{args.obs_jsonl}.{name}"
        payloads.append((args, name, jsonl_path))
    results = pmap(_compare_one, payloads, jobs=args.jobs)
    rows = [
        [d["scheduler"], d["txns"], d["makespan"], d["mean_latency"],
         d["p99_latency"], d["competitive_ratio"], d["messages"], d["seconds"]]
        for d in results
    ]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(render_table(
            ["scheduler", "txns", "makespan", "mean-lat", "p99-lat", "ratio", "msgs",
             "seconds"],
            rows, title=graph.name,
        ))
        if args.obs_counters:
            for d in results:
                obs_rows = [[k, v] for k, v in d.get("obs", {}).items()]
                if obs_rows:
                    print(render_table(["counter", "value"], obs_rows,
                                       title=f"obs: {d['scheduler']}"))
    return 0


def _suite_one(payload) -> dict:
    """One ``suite`` entry — its name and parsed ``run`` flags — as a
    picklable unit of work for ``--jobs N``."""
    name, args = payload
    sim, res = _run_closed(args, args.scheduler)
    d = _result_dict(args.scheduler, res)
    d["name"] = name
    d["topology"] = sim.graph.name
    return d


def cmd_suite(args) -> int:
    """Run a JSON-defined list of experiments and print one combined table.

    The suite file is a JSON array of objects, each holding ``run`` flags
    as keys (topology, scheduler, workload, objects, k, rate, horizon,
    rounds, read_fraction, zipf, seed, object_speed; ``_`` for ``-``)
    plus an optional ``name``.  Each entry is parsed by the ``run``
    parser, so it gets the same defaults and checks as a command line.
    Unknown keys are rejected to catch typos.
    """
    allowed = {
        "name", "topology", "scheduler", "workload", "objects", "k",
        "rate", "horizon", "rounds", "read_fraction", "zipf", "seed",
        "object_speed",
    }
    with open(args.file) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        print("suite file must be a non-empty JSON array", file=sys.stderr)
        return 2
    parser = build_parser()
    runs = []
    for i, entry in enumerate(entries):
        unknown = set(entry) - allowed
        if unknown:
            print(f"suite entry {i}: unknown keys {sorted(unknown)}", file=sys.stderr)
            return 2
        argv = ["run"]
        for key, value in entry.items():
            if key != "name":
                argv += [f"--{key.replace('_', '-')}", str(value)]
        try:
            runs.append((entry.get("name", f"entry-{i}"), parser.parse_args(argv)))
        except SystemExit:
            print(f"suite entry {i}: bad run flags (error above)", file=sys.stderr)
            return 2
    results = pmap(_suite_one, runs, jobs=args.jobs)
    rows = [[d["name"], d["topology"], d["scheduler"], d["txns"],
             d["makespan"], d["mean_latency"], d["competitive_ratio"]]
            for d in results]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(render_table(
            ["name", "topology", "scheduler", "txns", "makespan", "mean-lat", "ratio"],
            rows, title=f"suite: {args.file}",
        ))
    return 0


def cmd_replay(args) -> int:
    """Re-run an archived trace: re-certify, regenerate its workload, and
    replay the recorded schedule (optionally under congestion knobs).
    The replay records deferrals instead of raising on them: a missed
    archived time is the measurement."""
    from repro.core import ReplayScheduler
    from repro.sim.serialize import load_trace
    from repro.sim.validate import certify_trace
    from repro.workloads import workload_from_trace

    graph = parse_topology(args.topology)
    trace = load_trace(args.trace)
    issues = certify_trace(graph, trace, raise_on_failure=False)
    if issues:
        print(f"archive FAILED certification ({len(issues)} issues):", file=sys.stderr)
        for i in issues[:10]:
            print(f"  {i}", file=sys.stderr)
        return 1
    config = make_config(args, trace.object_speed_den).replace(strict=False)
    sim = Simulator(graph, ReplayScheduler(trace), workload_from_trace(trace), config=config)
    replayed = sim.run()
    out = {
        "archived_makespan": trace.makespan(),
        "replayed_makespan": replayed.makespan(),
        "deadline_misses": len(replayed.violations),
        "txns": replayed.num_txns,
    }
    if trace.faults or trace.reschedules:
        # The archived schedule was shaped by injected faults and
        # recovery; the replay runs on a reliable network, so objects
        # route in commit order and some archived times may miss.
        out["archived_faults"] = sum(trace.fault_counts().values())
        out["note"] = "archive carries fault records; replay is fault-free"
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(render_table(["metric", "value"], [[k, v] for k, v in out.items()],
                           title=f"replay of {args.trace} on {graph.name}"))
    return 0


def cmd_cover(args) -> int:
    graph = parse_topology(args.topology)
    cover = build_sparse_cover(graph, seed=args.seed)
    problems = cover.verify()
    rows = []
    for layer in range(cover.num_layers):
        clusters = [c for part in cover.layers[layer] for c in part]
        biggest = max(len(c.nodes) for c in clusters)
        rows.append([layer, cover.pad_of_layer(layer), len(cover.layers[layer]),
                     len(clusters), biggest])
    print(render_table(
        ["layer", "pad", "sublayers", "clusters", "max-size"],
        rows,
        title=f"sparse cover of {graph.name} (D={graph.diameter()})",
    ))
    if problems:
        print("\nPROBLEMS:")
        for p in problems:
            print(" ", p)
        return 1
    print("\nall sparse-cover properties verified")
    return 0


def cmd_topo(args) -> int:
    """Topology inspector: ``repro topo info <spec>``.

    Prints the graph's size, diameter, which distance oracle (if any)
    answers its queries in O(1), and what a full Dijkstra distance-cache
    would cost — the memory the oracle avoids materialising.
    """
    from repro.network.oracles import estimate_matrix_bytes

    graph = parse_topology(args.topology)
    n = graph.num_nodes
    oracle = graph.oracle
    cache = estimate_matrix_bytes(n)
    if cache >= 1 << 30:
        cache_h = f"{cache / (1 << 30):.1f} GiB"
    elif cache >= 1 << 20:
        cache_h = f"{cache / (1 << 20):.1f} MiB"
    else:
        cache_h = f"{cache / 1024:.1f} KiB"
    print(f"topology : {graph.name}")
    print(f"nodes    : {n}")
    print(f"edges    : {graph.num_edges()}")
    print(f"diameter : {graph.diameter()}")
    print(f"oracle   : {oracle.kind if oracle is not None else 'none (cached Dijkstra)'}")
    print(f"distance-cache estimate: {cache_h} ({'avoided by oracle' if oracle is not None else 'worst case if all rows touched'})")
    return 0


def cmd_chaos(args) -> int:
    """Chaos harness: ``repro chaos sweep`` / ``repro chaos replay``.

    ``sweep`` runs seeded fault episodes (crashes + drops + delays +
    partitions) across a scheduler rotation with invariant monitors on;
    any failure exits non-zero, optionally minimized (``--shrink``) and
    archived as a replayable artifact (``--artifact-dir``).  ``replay``
    re-runs an archived artifact and verifies the violation reproduces.
    """
    from repro import chaos

    if args.action == "replay":
        if not args.artifact:
            raise SystemExit("chaos replay needs an artifact path")
        result, reproduced = chaos.replay_artifact(args.artifact)
        out = {
            "artifact": args.artifact,
            "reproduced": reproduced,
            "violation": result.violation,
        }
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            status = "reproduced" if reproduced else "NOT reproduced"
            print(f"{args.artifact}: violation {status}")
            if result.violation:
                print(f"  {result.violation['message']}")
        return 0 if reproduced else 1

    schedulers = (
        tuple(s.strip() for s in args.schedulers.split(",") if s.strip())
        if args.schedulers
        else chaos.DEFAULT_SCHEDULERS
    )

    def progress(result) -> None:
        if args.json or args.quiet:
            return
        mark = "." if result.ok else "F"
        print(mark, end="", flush=True)

    res = chaos.run_sweep(
        args.episodes,
        seed=args.seed,
        shrink=args.shrink,
        artifact_dir=args.artifact_dir,
        progress=progress,
        jobs=args.jobs,
        topology=args.topology,
        schedulers=schedulers,
        workload_kind=args.workload,
        objects=args.objects,
        k=args.k,
        horizon=args.horizon,
        drop=args.drop,
        delay=args.delay,
        max_delay=args.max_delay,
        crashes=args.crashes,
        crash_len=args.crash_len,
        partitions=args.partitions,
        partition_len=args.partition_len,
        joins=args.joins,
        leaves=args.leaves,
        lambda_mult=args.lambda_mult,
        deadline_frac=args.deadline_frac,
        stall_k=args.stall_k,
        resume_path=args.resume,
    )
    summary = res.summary()
    if args.json:
        summary["episode_violations"] = [r.to_dict() for r in res.violations]
        print(json.dumps(summary, indent=2))
    else:
        if not args.quiet:
            print()
        rows = [[k, v] for k, v in summary.items() if k != "fault_counts"]
        rows.extend(
            [f"faults.{k}", v] for k, v in sorted(summary["fault_counts"].items())
        )
        print(render_table(["metric", "value"], rows, title="chaos sweep"))
        for r in res.violations:
            print(f"FAIL {r.spec.scheduler}: {r.violation['message']}")
    return 0 if res.ok else 1


def cmd_checkpoint(args) -> int:
    """``repro checkpoint inspect <path>``: triage a snapshot header.

    Reads only the JSON header line — no unpickling, so no code from the
    snapshot runs.  Prints the schema, progress cursors, and RNG digests
    that identify the exact decision point the run was frozen at.
    """
    header = durability.inspect_checkpoint(args.path)
    if args.json:
        print(json.dumps(header, indent=2))
        return 0
    rng = header.pop("rng_cursors", {})
    rows = [[k, v] for k, v in header.items()]
    rows.extend([f"rng.{k}", v] for k, v in sorted(rng.items()))
    print(render_table(["field", "value"], rows,
                       title=f"checkpoint {args.path}"))
    return 0


def cmd_profile(args) -> int:
    """Profile one run under cProfile and print the hottest functions.

    The profiled region is exactly :func:`~repro.analysis.run_simulator`:
    the engine and scheduler, the trace certifier and the
    competitive-ratio analysis.  Graph, workload and simulator
    construction are excluded.  Future hot-path claims should cite this
    output rather than intuition.
    """
    import cProfile
    import io
    import pstats

    sim = _simulator(args, args.scheduler)
    graph = sim.graph
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    res = run_simulator(sim)
    profiler.disable()
    seconds = time.perf_counter() - started

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats(args.sort)
    summary = {
        "topology": graph.name,
        "scheduler": args.scheduler,
        "txns": res.metrics.num_txns,
        "makespan": res.metrics.makespan,
        "seconds": round(seconds, 3),
        "calls": stats.total_calls,
    }
    # (cc, nc, tt, ct) per function, hottest by the chosen sort key.
    # pstats accepts both spellings; the index table must agree.
    sort_index = {"cumulative": 3, "cumtime": 3, "tottime": 2}[args.sort]
    entries = sorted(
        stats.stats.items(), key=lambda kv: kv[1][sort_index], reverse=True
    )[: args.top]
    top = [
        {
            "function": f"{path.rsplit('/', 1)[-1]}:{line}({func})",
            "ncalls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        }
        for (path, line, func), (cc, nc, tt, ct, _callers) in entries
    ]
    if args.json:
        summary["top"] = top
        print(json.dumps(summary, indent=2))
    else:
        print(render_table(["metric", "value"], [[k, v] for k, v in summary.items()],
                           title=f"profile: {graph.name} / {args.scheduler}"))
        rows = [[t["ncalls"], t["tottime"], t["cumtime"], t["function"]] for t in top]
        print(render_table(["ncalls", "tottime", "cumtime", "function"], rows,
                           title=f"top {args.top} by {args.sort}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Distributed TM dynamic scheduling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_flags(p, kinds, default):
        p.add_argument("--topology", help="e.g. clique:16, grid:4x4, cluster:3x4:6")
        p.add_argument("--workload", default=default, choices=kinds)
        p.add_argument("--objects", type=int, default=8)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--zipf", type=float, default=0.0, help="Zipf skew s (0 = uniform)")
        p.add_argument("--read-fraction", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--object-speed", type=int, default=1)
        p.add_argument("--json", action="store_true")

    def obs_flags(p):
        p.add_argument("--obs-counters", action="store_true",
                       help="attach a CountersProbe; print/emit its summary")
        p.add_argument("--obs-jsonl", metavar="FILE", default=None,
                       help="stream probe events to FILE as JSONL (repro.obs schema)")

    def capacity_flags(p):
        p.add_argument("--link-capacity", type=int, default=None,
                       help="max concurrent traversals per edge (implies hop motion)")
        p.add_argument("--node-capacity", type=int, default=None,
                       help="max object departures per node per step")

    def common(p):
        workload_flags(p, CLOSED_WORKLOAD_KINDS, "bernoulli")
        p.add_argument("--rate", type=float, default=0.05)
        p.add_argument("--horizon", type=int, default=60)
        p.add_argument("--rounds", type=int, default=3)
        p.add_argument("--transport", choices=["direct", "hop"], default=None,
                       help="object motion model (default: direct, or hop when "
                            "--link-capacity is given)")
        obs_flags(p)
        p.add_argument("--faults", metavar="SPEC", default=None,
                       help="deterministic fault plan, e.g. "
                            "seed=1,drop=0.1,delay=0.05,max-delay=3,crash=2,crash-len=8")

    def run_flags(p):
        """The flags of a single run, fresh or resumed (run/stream/serve)."""
        p.add_argument("--scheduler", default="greedy", choices=SCHEDULER_NAMES)
        p.add_argument("--report", help="write a markdown run report to this file")
        p.add_argument("--monitor", action="store_true",
                       help="attach the runtime InvariantMonitor (repro.chaos): "
                            "abort with a structured error on any safety violation")
        p.add_argument("--stall-k", type=int, default=512,
                       help="liveness watchdog: flag a stall after this many "
                            "active steps without a commit (with --monitor)")
        p.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="write durability checkpoints here (a {step} "
                            "placeholder keeps every snapshot); SIGTERM/SIGINT "
                            "also write one before exiting")
        p.add_argument("--checkpoint-every", type=int, default=50,
                       help="active steps between periodic checkpoints "
                            "(with --checkpoint; default 50)")
        p.add_argument("--resume", metavar="PATH", default=None,
                       help="restore a checkpoint and continue the run; the "
                            "snapshot carries topology, scheduler, workload "
                            "and config, so their flags are ignored "
                            "(stream/serve: pass the original --until)")

    p_run = sub.add_parser("run", help="run one scheduler and print metrics")
    common(p_run)
    run_flags(p_run)
    p_run.add_argument("--lazy", action="store_true", help="lazy object departure")
    p_run.add_argument("--trace", help="write the execution trace to this JSON file")
    capacity_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several schedulers on one workload")
    common(p_cmp)
    p_cmp.add_argument("--schedulers", help="comma-separated (default greedy,bucket,fifo,tsp)")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="worker processes, one scheduler each (0 = cpu "
                            "count); results are identical to --jobs 1")
    p_cmp.set_defaults(func=cmd_compare)

    def stream_common(p):
        workload_flags(p, OPEN_WORKLOAD_KINDS, "poisson-open")
        p.add_argument("--lam", type=float, default=0.5,
                       help="arrival rate λ (the open kind's rate knob; "
                            "frontier bisects it)")
        p.add_argument("--until", type=int, default=600,
                       help="run horizon in steps (open runs never drain)")
        p.add_argument("--warmup", type=int, default=None,
                       help="measurement cutoff in absolute steps "
                            "(default: until/4)")
        p.add_argument("--lam-off", type=float, default=None,
                       help="idle-phase rate (onoff-open)")
        p.add_argument("--amplitude", type=float, default=0.5,
                       help="rate swing (diurnal-open)")
        p.add_argument("--period", type=int, default=200,
                       help="cycle length in steps (diurnal-open)")
        p.add_argument("--burst", type=int, default=8,
                       help="burst allowance (adversarial-open)")

    def service_common(p, *, default_policy=None):
        from repro.service import POLICY_NAMES

        p.add_argument("--admission", default=default_policy,
                       choices=list(POLICY_NAMES),
                       help="admission-queue policy; enables the ingestion "
                            "front-end (repro.service)" +
                            ("" if default_policy is None
                             else f" (default {default_policy})"))
        p.add_argument("--queue-cap", type=int, default=64,
                       help="bound on the admission queue depth (default 64)")
        p.add_argument("--deadline", type=int, default=None,
                       help="relative commit deadline in steps stamped onto "
                            "admitted transactions; expired ones are "
                            "cancelled mid-flight")
        p.add_argument("--deadline-frac", type=float, default=1.0,
                       help="fraction of submissions that receive --deadline "
                            "(seeded coin; default 1.0)")
        p.add_argument("--priority-classes", type=int, default=1,
                       help="draw each transaction's priority class from "
                            "[0, N) in the workload (default 1 = all equal)")
        p.add_argument("--latency-dist", metavar="SPEC", default=None,
                       help="long-tail per-leg network delays: "
                            "lognormal:MU:SIGMA[:CAP] or empirical:V1,V2,...")

    p_stream = sub.add_parser(
        "stream", help="open-system run: SLO percentiles + stability verdict"
    )
    p_serve = sub.add_parser(
        "serve",
        help="open-system run with the ingestion front-end on: admission "
             "control, deadlines, graceful degradation (repro.service)",
    )
    for p, default_policy in ((p_stream, None), (p_serve, "fifo")):
        stream_common(p)
        obs_flags(p)
        run_flags(p)
        service_common(p, default_policy=default_policy)
        p.set_defaults(func=cmd_stream)

    p_front = sub.add_parser(
        "frontier",
        help="bisect λ per scheduler into a throughput-vs-λ stability frontier",
    )
    stream_common(p_front)
    p_front.add_argument("--report", help="write a markdown report to this file")
    p_front.add_argument("--schedulers",
                         help="comma-separated (default greedy,bucket,fifo)")
    p_front.add_argument("--lam-min", type=float, default=0.05)
    p_front.add_argument("--lam-max", type=float, default=4.0)
    p_front.add_argument("--rounds", type=int, default=6,
                         help="bisection rounds after the two bracketing probes")
    p_front.add_argument("--resume", metavar="PATH", default=None,
                         help="probe log for crash-resumable searches: probes "
                              "are appended as they finish and replayed on "
                              "restart")
    p_front.add_argument("--jobs", type=int, default=1,
                         help="worker processes per bisection round "
                              "(0 = cpu count); results identical to --jobs 1")
    p_front.set_defaults(func=cmd_frontier)

    p_cov = sub.add_parser("cover", help="build and verify a sparse cover")
    p_cov.add_argument("--topology", required=True)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.set_defaults(func=cmd_cover)

    p_topo = sub.add_parser(
        "topo", help="inspect a topology: size, diameter, distance oracle"
    )
    p_topo.add_argument("action", choices=["info"])
    p_topo.add_argument("topology", help="topology spec, e.g. grid:100x100")
    p_topo.set_defaults(func=cmd_topo)

    p_rep = sub.add_parser("replay", help="re-certify and replay an archived trace")
    p_rep.add_argument("--topology", required=True)
    p_rep.add_argument("--trace", required=True, help="trace JSON written by `run --trace`")
    capacity_flags(p_rep)
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_replay)

    p_suite = sub.add_parser("suite", help="run a JSON-defined experiment suite")
    p_suite.add_argument("--file", required=True, help="JSON array of run configs")
    p_suite.add_argument("--json", action="store_true")
    p_suite.add_argument("--jobs", type=int, default=1,
                         help="worker processes (0 = cpu count)")
    p_suite.set_defaults(func=cmd_suite)

    p_prof = sub.add_parser(
        "profile", help="cProfile one run; print the top-N hottest functions"
    )
    common(p_prof)
    p_prof.add_argument("--scheduler", default="greedy", choices=SCHEDULER_NAMES)
    p_prof.add_argument("--top", type=int, default=20,
                        help="number of functions to show")
    p_prof.add_argument("--sort", choices=["cumulative", "cumtime", "tottime"],
                        default="cumulative",
                        help="'cumtime' is the pstats spelling of 'cumulative'")
    p_prof.set_defaults(func=cmd_profile)

    p_chaos = sub.add_parser(
        "chaos", help="chaos-search harness: seeded fault sweeps and replay"
    )
    p_chaos.add_argument("action", choices=["sweep", "replay"])
    p_chaos.add_argument("artifact", nargs="?", default=None,
                         help="artifact JSON path (replay action)")
    p_chaos.add_argument("--episodes", type=int, default=50)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--topology", default="ring:12")
    p_chaos.add_argument("--schedulers", default=None,
                         help="comma-separated rotation (default: 8 bundled)")
    p_chaos.add_argument("--workload", default="bernoulli",
                         choices=["batch", "bernoulli"])
    p_chaos.add_argument("--objects", type=int, default=6)
    p_chaos.add_argument("--k", type=int, default=2)
    p_chaos.add_argument("--horizon", type=int, default=40)
    p_chaos.add_argument("--drop", type=float, default=0.05)
    p_chaos.add_argument("--delay", type=float, default=0.1)
    p_chaos.add_argument("--max-delay", type=int, default=3)
    p_chaos.add_argument("--crashes", type=int, default=1)
    p_chaos.add_argument("--crash-len", type=int, default=6)
    p_chaos.add_argument("--partitions", type=int, default=1)
    p_chaos.add_argument("--partition-len", type=int, default=8)
    p_chaos.add_argument("--joins", type=int, default=0,
                         help="elastic-membership joins per episode plan")
    p_chaos.add_argument("--leaves", type=int, default=0,
                         help="elastic-membership leaves per episode plan "
                              "(drawn connectivity-safe)")
    p_chaos.add_argument("--lambda-mult", type=float, default=1.0,
                         help="scale each episode's arrival rate (2.0 = "
                              "sustained 2x overload; exercises shedding)")
    p_chaos.add_argument("--deadline-frac", type=float, default=0.0,
                         help="fraction of episode transactions given a "
                              "commit deadline via the ingestion front-end "
                              "(0 = service disabled)")
    p_chaos.add_argument("--stall-k", type=int, default=512)
    p_chaos.add_argument("--resume", metavar="PATH", default=None,
                         help="episode log for crash-resumable sweeps: "
                              "finished episodes are appended and replayed "
                              "on restart")
    p_chaos.add_argument("--shrink", action="store_true",
                         help="delta-debug failing plans to minimal reproducers")
    p_chaos.add_argument("--artifact-dir", default=None,
                         help="write replayable failure artifacts here")
    p_chaos.add_argument("--jobs", type=int, default=1,
                         help="worker processes for episodes and shrink "
                              "candidates (0 = cpu count); deterministic")
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.add_argument("--quiet", action="store_true")
    p_chaos.set_defaults(func=cmd_chaos)

    p_ckpt = sub.add_parser(
        "checkpoint", help="inspect durability checkpoints (repro.durability)"
    )
    p_ckpt.add_argument("action", choices=["inspect"])
    p_ckpt.add_argument("path", help="checkpoint file written by --checkpoint")
    p_ckpt.add_argument("--json", action="store_true")
    p_ckpt.set_defaults(func=cmd_checkpoint)
    return parser


def main(argv: Optional[list] = None) -> int:
    from repro.errors import RunInterrupted

    args = build_parser().parse_args(argv)
    # With --checkpoint, a SIGTERM/SIGINT from here on (even while the
    # workload is still being built) ends the run at its next step
    # boundary with a checkpoint and exit 3.
    guard = durability.catch_interrupts() if getattr(args, "checkpoint", None) else []
    try:
        return args.func(args)
    except RunInterrupted as exc:
        # SIGTERM/SIGINT mid-run with --checkpoint: the engine wrote a
        # final snapshot and fsynced every probe before raising.
        print(
            f"interrupted: checkpoint written to {exc.path} "
            f"(continue with --resume {exc.path})",
            file=sys.stderr,
        )
        return 3
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        durability.restore_handlers(guard)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
