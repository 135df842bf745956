"""E-ENGINE — raw engine throughput (steps/sec) on a dense clique sweep.

Not a paper experiment: a guard-rail for the simulator itself.  The
layered-kernel refactor (event spine + transport strategies) must not pay
for its structure with throughput, so this bench times probe-less runs of
a dense Bernoulli clique workload (nearly every step active — the engine's
worst case) and compares steps/sec against the committed
``BENCH_engine.json`` snapshot, failing on a >30% regression.

Steps are counted in a separate, untimed probed run (the workloads are
deterministic, so the counts match); the timed runs carry no probe.

Raw steps/sec is machine-dependent (CI runners, laptop thermal state),
so the guard compares *calibrated* throughput: steps/sec divided by the
ops/sec of a fixed pure-Python heap workload measured in the same
session.  CPU-speed differences cancel; only engine-code regressions
move the ratio.
"""

import heapq
import json
import os
import time

import pytest

from _util import emit, once
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.obs import CountersProbe
from repro.sim import SimConfig, Simulator
from repro.workloads import OnlineWorkload

#: (clique size, horizon): ~2000-2600 txns each, nearly every step active.
SWEEP = [(16, 600), (32, 400), (64, 200)]
#: fail when steps/sec drops below this fraction of the committed snapshot
REGRESSION_FLOOR = 0.7
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")
TITLE = "E-ENGINE  kernel throughput — dense bernoulli clique sweep"

#: oracle-path scale sweep at n = 1k / 10k / 100k: (spec, builder, horizon,
#: bernoulli rate) tuned to ~300 txns each so the points are comparable.
SCALE_SWEEP = [
    ("clique:1024", lambda: topologies.clique(1024), 30, 0.01),
    ("grid:100x100", lambda: topologies.grid([100, 100]), 15, 0.002),
    ("torus:100x100x10", lambda: topologies.torus([100, 100, 10]), 10, 0.0003),
]
#: the oracle path must beat the stripped (Dijkstra-fallback) path by at
#: least this factor on clique:1024 — the refactor's headline claim.
SPEEDUP_FLOOR = 5.0
SCALE_TITLE = "E-ENGINE-SCALE  oracle kernel — n=1k/10k/100k sweep"
SCALE_SCHEMA = "repro.bench-engine-scale/1"


def _build(n, horizon):
    g = topologies.clique(n)
    wl = OnlineWorkload.bernoulli(
        g, num_objects=max(4, n // 2), k=2, rate=0.2, horizon=horizon, seed=0
    )
    return g, wl


def _run(n, horizon, probe=None):
    g, wl = _build(n, horizon)
    return Simulator(g, GreedyScheduler(uniform_beta=1), wl, config=SimConfig(probe=probe)).run()


def _measure(n, horizon, repeats=3):
    """(steps, txns, best wall seconds) for one sweep point."""
    probe = CountersProbe()
    trace = _run(n, horizon, probe=probe)
    steps = probe.counters["steps"]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run(n, horizon)
        best = min(best, time.perf_counter() - t0)
    return steps, len(trace.txns), best


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


def _committed_baseline():
    """title -> {config: calibrated steps-per-heap-op} from the snapshot."""
    try:
        with open(BASELINE_PATH) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    for table in doc.get("tables", []):
        if table.get("title") == TITLE:
            return (table.get("extra") or {}).get("calibrated")
    return None


@pytest.mark.benchmark(group="E-ENGINE-throughput")
def test_engine_throughput_no_regression(benchmark):
    baseline = _committed_baseline()
    cal = _calibrate()
    rows = []
    steps_per_sec = {}
    calibrated = {}
    for n, horizon in SWEEP:
        steps, txns, secs = _measure(n, horizon)
        rate = steps / secs
        key = f"clique:{n}"
        steps_per_sec[key] = round(rate, 1)
        calibrated[key] = round(rate / cal, 6)
        base = (baseline or {}).get(key)
        rows.append([
            key, horizon, txns, steps, round(secs * 1e3, 1), round(rate, 1),
            round(calibrated[key] / base, 2) if base else "-",
        ])
    # One representative timed point for the pytest-benchmark record.
    once(benchmark, lambda: _run(32, 400))
    emit(
        TITLE,
        ["graph", "horizon", "txns", "steps", "best_ms", "steps/s", "vs_base"],
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


def _scale_point(builder, horizon, rate, strip_oracle=False, probe=None):
    """One timed run at scale; timing covers ``run()`` only, not setup."""
    g = builder()
    if strip_oracle:
        g.oracle = None  # force the cached-Dijkstra fallback path
    wl = OnlineWorkload.bernoulli(
        g, num_objects=64, k=2, rate=rate, horizon=horizon, seed=0
    )
    sim = Simulator(g, GreedyScheduler(uniform_beta=1), wl, config=SimConfig(probe=probe))
    t0 = time.perf_counter()
    trace = sim.run()
    return g, trace, time.perf_counter() - t0


@pytest.mark.benchmark(group="E-ENGINE-scale")
def test_engine_scale_sweep(benchmark):
    """Huge-topology sweep on the oracle path plus the ≥5x headline guard.

    Each point runs a low-rate Bernoulli workload under the greedy
    scheduler; the oracle path must leave the Dijkstra row cache empty,
    and the clique:1024 point re-run with the oracle stripped must be at
    least ``SPEEDUP_FLOOR`` times slower — the speedup is structural
    (O(1) vs O(n log n) per distance source), so the guard is
    machine-independent.
    """
    rows = []
    steps_per_sec = {}
    for spec, builder, horizon, rate in SCALE_SWEEP:
        probe = CountersProbe()
        g, trace, _ = _scale_point(builder, horizon, rate, probe=probe)
        assert not g._dist, f"{spec}: oracle run materialised Dijkstra rows"
        steps = probe.counters["steps"]
        best = float("inf")
        for _ in range(3):
            _, _, secs = _scale_point(builder, horizon, rate)
            best = min(best, secs)
        sps = steps / best
        steps_per_sec[spec] = round(sps, 1)
        rows.append([
            spec, g.num_nodes, horizon, len(trace.txns), steps,
            round(best * 1e3, 1), round(sps, 1),
        ])
    # Headline comparison: same clique:1024 workload with and without the
    # oracle.  Traces are byte-identical (the oracle IS Dijkstra on these
    # graphs), so the time ratio is a pure kernel-speed ratio.
    _, _, fast = _scale_point(*SCALE_SWEEP[0][1:], strip_oracle=False)
    g_slow, _, slow = _scale_point(*SCALE_SWEEP[0][1:], strip_oracle=True)
    assert g_slow._dist, "stripped run never hit the Dijkstra fallback"
    speedup = slow / fast
    once(benchmark, lambda: _scale_point(*SCALE_SWEEP[1][1:]))
    emit(
        SCALE_TITLE,
        ["graph", "nodes", "horizon", "txns", "steps", "best_ms", "steps/s"],
        rows,
        extra={
            "schema": SCALE_SCHEMA,
            "steps_per_sec": steps_per_sec,
            "oracle_speedup_clique1024": round(speedup, 1),
            "speedup_floor": SPEEDUP_FLOOR,
            "dijkstra_rows_built": len(g_slow._dist),
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"oracle path only {speedup:.1f}x faster than the Dijkstra "
        f"fallback on clique:1024 (floor {SPEEDUP_FLOOR}x)"
    )
