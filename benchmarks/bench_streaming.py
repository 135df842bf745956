"""E-STREAM — open-system engine throughput and frontier probe budget.

Guard-rail for the streaming path, the open-system sibling of
``bench_engine.py``: the lazy arrival pump + SLO fold must not pay for
their structure with throughput.  Times probe-less ``run(until=...)``
runs of a Poisson open workload at fixed λ (steps counted in a separate,
untimed probed run — the streams are deterministic, so counts match) and
compares *calibrated* steps/sec (divided by a fixed pure-Python heap
workload's ops/sec, so CPU-speed differences cancel) against the
committed ``BENCH_streaming.json`` snapshot, failing on a >30%
regression.

Also runs one small stability-frontier bisection and records its λ* and
probe count per scheduler: the probe count is a pure function of the
search parameters, so a drift against the snapshot means the bisection
(or the stability verdict under it) changed behaviour, not the machine.
"""

import heapq
import json
import os
import time

import pytest

from _util import emit, once
from repro.analysis import slo_summary, stability_frontier
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.obs import CountersProbe
from repro.sim import SimConfig, Simulator
from repro.workloads import PoissonOpenWorkload, WorkloadSpec

#: (clique size, λ, horizon): dense enough that most steps are active.
SWEEP = [(16, 0.8, 600), (32, 1.2, 400)]
WARMUP_FRACTION = 4  # warmup = horizon // 4, as the CLI defaults
#: fail when calibrated steps/sec drops below this fraction of the snapshot
REGRESSION_FLOOR = 0.7
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_streaming.json")
TITLE = "E-STREAM  open-system throughput — poisson stream at fixed λ"
FRONTIER_TITLE = "E-STREAM  frontier bisection — probe budget per scheduler"

FRONTIER_KW = dict(lam_min=0.1, lam_max=2.0, rounds=3, until=200, warmup=50)
FRONTIER_SCHEDULERS = ["fifo", "greedy"]


def _run(n, lam, until, probe=None):
    g = topologies.clique(n)
    wl = PoissonOpenWorkload(g, lam, num_objects=max(4, n // 2), k=2, seed=0)
    sim = Simulator(g, GreedyScheduler(uniform_beta=1), wl, config=SimConfig(probe=probe))
    return sim.run(until=until, warmup=until // WARMUP_FRACTION)


def _measure(n, lam, until, repeats=3):
    """(steps, slo, best wall seconds) for one sweep point."""
    probe = CountersProbe()
    trace = _run(n, lam, until, probe=probe)
    steps = probe.counters["steps"]
    slo = slo_summary(trace)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run(n, lam, until)
        best = min(best, time.perf_counter() - t0)
    return steps, slo, best


def _calibrate(n=150_000, repeats=3):
    """ops/sec of a fixed heap push/pop workload (machine speed proxy)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        h = []
        for i in range(n):
            heapq.heappush(h, (i * 2654435761) % 1000003)
        while h:
            heapq.heappop(h)
        best = min(best, time.perf_counter() - t0)
    return 2 * n / best


def _committed(title, key):
    """``extra[key]`` of the snapshot table called ``title``, or None."""
    try:
        with open(BASELINE_PATH) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    for table in doc.get("tables", []):
        if table.get("title") == title:
            return (table.get("extra") or {}).get(key)
    return None


@pytest.mark.benchmark(group="E-STREAM-throughput")
def test_stream_throughput_no_regression(benchmark):
    baseline = _committed(TITLE, "calibrated")
    cal = _calibrate()
    rows = []
    steps_per_sec = {}
    calibrated = {}
    for n, lam, until in SWEEP:
        steps, slo, secs = _measure(n, lam, until)
        rate = steps / secs
        key = f"clique:{n}@{lam}"
        steps_per_sec[key] = round(rate, 1)
        calibrated[key] = round(rate / cal, 6)
        base = (baseline or {}).get(key)
        rows.append([
            key, until, slo.committed, slo.backlog,
            "yes" if slo.stable else "NO",
            steps, round(secs * 1e3, 1), round(rate, 1),
            round(calibrated[key] / base, 2) if base else "-",
        ])
    once(benchmark, lambda: _run(*SWEEP[0]))
    emit(
        TITLE,
        ["stream", "until", "committed", "backlog", "stable",
         "steps", "best_ms", "steps/s", "vs_base"],
        rows,
        extra={"steps_per_sec": steps_per_sec, "calibrated": calibrated,
               "calibration_ops": round(cal, 1), "sweep": SWEEP,
               "regression_floor": REGRESSION_FLOOR},
    )
    if baseline:
        for key, rate in calibrated.items():
            base = baseline.get(key)
            assert base is None or rate >= REGRESSION_FLOOR * base, (
                f"{key}: calibrated throughput {rate:.4f} < "
                f"{REGRESSION_FLOOR:.0%} of committed baseline {base:.4f}"
            )


@pytest.mark.benchmark(group="E-STREAM-frontier")
def test_frontier_probe_budget(benchmark):
    committed_probes = _committed(FRONTIER_TITLE, "probes")
    wl = WorkloadSpec.make("poisson-open", seed=0)
    result = once(benchmark, lambda: stability_frontier(
        "clique:8", FRONTIER_SCHEDULERS, wl, **FRONTIER_KW))
    probes = {s.scheduler: len(s.probes) for s in result.schedulers}
    rows = [
        [s.scheduler, round(s.lambda_star, 4), len(s.probes),
         round(s.stable_slo["p50"], 1) if s.stable_slo else "-",
         round(s.stable_slo["p99"], 1) if s.stable_slo else "-"]
        for s in result.schedulers
    ]
    emit(
        FRONTIER_TITLE,
        ["scheduler", "λ*", "probes", "p50", "p99"],
        rows,
        extra={"probes": probes, "params": FRONTIER_KW,
               "lambda_star": {s.scheduler: s.lambda_star
                               for s in result.schedulers}},
    )
    # The bisection is deterministic: a probe-count drift means the search
    # or the stability verdict changed, which a PR must own up to.
    if committed_probes:
        assert probes == committed_probes, (
            f"frontier probe budget drifted: {probes} != committed "
            f"{committed_probes}"
        )
