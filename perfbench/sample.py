"""One timed sample: a single ``repro`` job in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/sample.py --workload clique-greedy \
        --seed 0 [--tiny] [--corrupt] [--trace SPANS]

Runs the workload exactly as the CLI would (same parser, same builders),
checks its outputs, and prints one JSON line: host times, simulated
statistics, the check verdict and a sha256 digest of the serialized trace
and statistics.  The digest is computed after the timed region.

Host times are CPU seconds (user + system) of this process, read with
``time.process_time()``, which counts from the moment the process was
created: ``wall_s`` and ``setup_s`` include interpreter start-up and every
import, as a ``repro`` invocation pays them, and leave out the time the
process waited for a processor.

They are then scaled to a reference processor speed.  On a shared
virtual machine the same instructions take up to twice as long while other
tenants load the physical core, in spells of milliseconds to minutes, and
CPU time does not leave that out.  So the sample times a fixed
pure-Python loop (:func:`reference_work`) just before the job and just
after it, and multiplies every host time by ``REF_WORK_S`` over the
loop's mean time: a host time reads as the CPU seconds the job would take
on a processor that runs the loop in ``REF_WORK_S``.  The loop's own time
is left out of every figure; the raw loop time and the factor are
reported as ``cal_s`` and ``scale``.

``--corrupt`` (closed runs) also certifies a copy of the trace with one
leg arriving a step early and reports the certifier's complaint.

With ``--trace SPANS`` the sample also attaches a ``CountersProbe`` and a
step timer, wraps each layer's public functions (``perfbench/tracer.py``),
writes every span to ``SPANS`` and adds a ``layers`` mapping.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import traceback
from time import process_time as clock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return float(sorted_vals[rank - 1])


def histogram(values) -> dict:
    """``{value: count}`` with string keys (JSON), ascending."""
    out: dict = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def corrupted_rejected(graph, trace) -> str:
    """Move one leg's arrival a step early and certify the result.

    Returns the certifier's first complaint, or "" when the corrupted
    trace was (wrongly) accepted.
    """
    from repro.sim import validate
    from repro.sim.serialize import trace_from_dict, trace_to_dict

    data = trace_to_dict(trace)
    leg = next(leg for leg in data["legs"] if leg[2] != leg[3])  # src != dst
    leg[4] -= 1  # [oid, depart, src, dst, arrive]
    issues = validate.certify_trace(graph, trace_from_dict(data), raise_on_failure=False)
    return str(issues[0]) if issues else ""


#: CPU seconds of one reference_work() on the reference processor: about
#: its time on the 2.1 GHz Xeon vCPU of the README's baseline, host quiet
REF_WORK_S = 0.0044
#: reference_work() runs per calibration; their median is the reading
CAL_REPS = 7


def reference_work() -> None:
    """A fixed pure-Python mix of dict and list updates, calls and a
    sort, the kind of work the simulator does, and nothing of ``repro``."""
    counts: dict = {}
    pairs = []
    for i in range(12000):
        k = (i * 7919) % 211
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            pairs.append((k, i))
    pairs.sort(key=lambda p: (p[0], -p[1]))
    "".join(str(k) for k, _ in pairs[:2000])


def calibrate() -> float:
    """CPU seconds of one :func:`reference_work` on this processor now,
    the median of ``CAL_REPS`` runs.  The collector is off meanwhile, so
    the reading does not depend on how many objects the job left."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_REPS):
            t = clock()
            reference_work()
            times.append(clock() - t)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[CAL_REPS // 2]


def run_sample(name: str, seed: int, tiny: bool, spans_path, corrupt=False) -> dict:
    spec = WORKLOADS[name]
    c0 = clock()
    cal_before = calibrate()
    cal_spent = clock() - c0
    argv = list(spec["tiny" if tiny else "argv"]) + ["--seed", str(seed)]
    t_import = clock()
    import repro.cli as cli
    from repro.analysis import metrics, ratios, slo
    from repro.sim import validate
    from repro.sim.config import SimConfig
    from repro.sim.engine import Simulator
    from repro.sim.serialize import trace_to_dict

    host = {"import_s": clock() - t_import}
    tracer = probe = counters = steps = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.record("import", t_import, t_import + host["import_s"])
        tracing.install(tracer)
        probe, counters, steps = tracing.make_probes()

    args = cli.build_parser().parse_args(argv)
    graph = cli.parse_topology(args.topology)
    scheduler, speed = cli.make_scheduler(args.scheduler, graph)
    if spec["open"]:
        workload = cli.make_stream_spec(args).build(graph)
        config = SimConfig(
            object_speed_den=max(speed, args.object_speed), probe=probe,
            service=cli.make_service_config(args),
        )
    else:
        workload = cli.make_workload(args, graph)
        config = cli.make_config(args, speed, probe=probe)
    sim = Simulator(graph, scheduler, workload, config=config)
    t_setup = clock()

    if spec["open"]:
        trace = sim.run(until=args.until, warmup=args.warmup)
    else:
        trace = sim.run()
    t_run = clock()

    committed = len(trace.txns)
    checks = []
    if spec["open"]:
        summary = slo.slo_summary(trace)
        svc, meta = trace.meta["service"], trace.meta["open"]
        if svc["submitted"] != svc["admitted"] + svc["shed"] + svc["queue_final"]:
            checks.append(f"service conservation: {svc}")
        if meta["generated"] != meta["committed"] + svc["expired"] + meta["backlog"]:
            checks.append(f"open conservation: {meta} expired={svc['expired']}")
        attempted = svc["submitted"]
        failed = svc["shed"] + svc["expired"]
        # the SLO fold's goodput: post-warmup commits per step
        sim_stats = {
            "goodput_commits": sum(
                1 for r in trace.txns.values() if r.exec_time > summary.warmup
            ),
            "goodput_steps": summary.horizon - summary.warmup,
        }
    else:
        issues = validate.certify_trace(graph, trace, raise_on_failure=False)
        checks.extend(str(i) for i in issues)
        attempted = len(sim.txns)
        failed = attempted - committed
        if failed:
            checks.append(f"{failed} of {attempted} txns never committed")
        ratio, _points = ratios.competitive_ratio(graph, trace)
        run_metrics = metrics.summarize(trace)
        sim_stats = {
            "makespan_steps": run_metrics.makespan,
            "competitive_ratio": ratio,
            "goodput_commits": committed,
            "goodput_steps": run_metrics.makespan,
        }
    t_done = clock()
    cal_s = (cal_before + calibrate()) / 2
    scale = REF_WORK_S / cal_s
    host = {
        "import_s": host["import_s"] * scale,
        "wall_s": (t_done - cal_spent) * scale,
        "setup_s": (t_setup - cal_spent) * scale,
        "run_s": (t_run - t_setup) * scale,
        "check_s": (t_done - t_run) * scale,
        "sim_commits_per_s": committed / ((t_run - t_setup) * scale),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cal_s": cal_s,
        "scale": scale,
    }

    # -- outside the timed region ----------------------------------------
    # Commit latency from submission (queue wait included); open runs
    # count the transactions submitted after the warmup, as the SLO does.
    warmup = summary.warmup if spec["open"] else 0
    sim_stats["committed"] = committed
    sim_stats["latency_hist"] = histogram(
        r.exec_time - r.gen_time for r in trace.txns.values() if r.gen_time >= warmup
    )
    blob = json.dumps(
        {"trace": trace_to_dict(trace), "stats": sim_stats}, sort_keys=True
    ).encode()
    out = {
        "ok": not checks,
        "error": "; ".join(checks[:3]) or None,
        "attempted": attempted,
        "failed": attempted if checks else failed,
        "host": host,
        "sim": sim_stats,
        "digest": hashlib.sha256(blob).hexdigest(),
    }
    if corrupt and not spec["open"]:
        out["corrupt_rejected"] = corrupted_rejected(graph, trace)
    if tracer is not None:
        folded = tracer.fold()
        out["layers"] = layer_metrics(tracer, folded, counters, steps, trace, committed, scale)
        out["layer_self_s"] = {
            layer: secs * scale for layer, secs in tracing.layer_self_seconds(folded).items()
        }
        tracer.write(spans_path)
    return out


#: scheduler decision kinds the four workloads can emit (repro.obs.probe)
SCHED_EVENTS = ("color", "bucket-insert", "activate", "probe-msg", "wake")


def layer_metrics(tracer, folded, counters, steps, trace, committed, scale) -> dict:
    """The per-layer numbers of one traced sample; times are multiplied
    by ``scale``, like the sample's host figures."""
    from repro.obs.probe import PHASES

    def total(name: str) -> float:
        return folded.get(name, {}).get("total_s", 0.0) * scale

    def calls(name: str) -> int:
        return int(folded.get(name, {}).get("calls", 0))

    c = counters.counters
    # the probe reads perf_counter: CPU seconds for a process that never waits
    phases = counters.phase_seconds
    step_ms = sorted(x * 1000.0 * scale for x in steps.seconds) or [0.0]
    svc = trace.meta.get("service") or {}
    plan_txns = tracer.sizes.get("offline.plan", 0)
    out = {
        "import.s": total("import"),
        "network.build_s": total("network.build"),
        "network.distance_rows": calls("network.oracle_row"),
        "workloads.build_s": total("workloads.build"),
        "workloads.arrivals_s": total("workloads.arrivals"),
        "cover.build_s": total("cover.build_sparse_cover"),
        "engine.init_s": total("engine.init"),
        "engine.run_s": total("engine.run"),
        "engine.steps": c.get("steps", 0),
        "engine.step_ms_p50": percentile(step_ms, 50),
        "engine.step_ms_p99": percentile(step_ms, 99),
        "transport.departures": c.get("departures", 0),
        "transport.copies": c.get("copies", 0),
        "messages.sent": trace.messages_sent,
        "sched.calls": calls("sched.entry"),
        "sched.s": total("sched.entry"),
        "coloring.calls": calls("coloring.min_valid_color"),
        "coloring.s": total("coloring.min_valid_color"),
        "deps.constraints_calls": calls("deps.constraints_for"),
        "deps.constraints_s": total("deps.constraints_for"),
        "deps.constraints_emitted": tracer.sizes.get("deps.constraints_for.out", 0),
        "offline.plan_calls": calls("offline.plan"),
        "offline.plan_s": total("offline.plan"),
        "offline.plan_txns_per_commit": plan_txns / max(1, committed),
        "service.admit_s": total("service.offer") + total("service.admit"),
        "service.shed": svc.get("shed", 0),
        "service.queue_peak": svc.get("queue_peak", 0),
        "certify.s": total("validate.certify_trace"),
        "analysis.ratio_s": total("analysis.competitive_ratio"),
        "analysis.ratio_samples": tracer.sizes.get("analysis.competitive_ratio.out", 0),
        "analysis.lower_bound_calls": calls("analysis.live_set_lower_bound"),
        "analysis.slo_s": total("analysis.slo_summary"),
    }
    for phase in PHASES:
        out[f"engine.phase_s.{phase}"] = phases.get(phase, 0.0) * scale
    for kind in SCHED_EVENTS:
        out[f"sched.events.{kind}"] = c.get(f"sched.{kind}", 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", metavar="SPANS", default=None)
    ap.add_argument("--corrupt", action="store_true",
                    help="also certify a copy of the trace with one leg a step early")
    a = ap.parse_args()
    try:
        out = run_sample(a.workload, a.seed, a.tiny, a.trace, a.corrupt)
    except Exception as exc:  # a crashed run is a failed sample, reported
        out = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
