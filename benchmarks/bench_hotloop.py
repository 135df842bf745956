"""E-HOTLOOP — allocation accounting of the engine's steady-state loop.

Not a paper experiment: a guard-rail for the allocation-lean hot-loop
pass (slotted ``Message``, lazy trace stores, per-kind event counts —
docs/performance.md, "Incremental scheduling").  Wall-clock throughput is
guarded by ``bench_engine.py``; this bench guards the *allocation side*
with tracemalloc, which is deterministic for a seeded run and therefore
far less machine-sensitive than steps/sec:

* **live blocks per step** — traced blocks still alive at quiescence,
  divided by active steps.  The lazy stores keep this flat: legs and
  transaction records stay argument tuples until someone looks.
* **materialization overhead** — extra bytes after forcing every lazy
  record to materialize (what an analysis pass would pay; runs that only
  archive the trace never do).

The committed snapshot lives in ``BENCH_engine.json`` (table
``E-HOTLOOP``) alongside the throughput tables; the guard fails when
live blocks per step grow past ``GROWTH_CAP`` times the committed value.
"""

import gc
import json
import os
import sys
import tracemalloc

import pytest

from _util import RESULTS_PATH, _write_json, once
from repro.analysis import render_table
from repro.core import GreedyScheduler
from repro.network import topologies
from repro.obs import CountersProbe
from repro.sim import SimConfig, Simulator
from repro.workloads import OnlineWorkload

#: same shape as bench_engine's mid sweep point: dense, mostly-active run
N, HORIZON = 32, 400
TITLE = "E-HOTLOOP  allocation accounting — tracemalloc live blocks per step"
#: fail when live blocks/step grow beyond this factor of the snapshot
GROWTH_CAP = 1.4
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")


def _run(probe=None):
    g = topologies.clique(N)
    wl = OnlineWorkload.bernoulli(
        g, num_objects=max(4, N // 2), k=2, rate=0.2, horizon=HORIZON, seed=0
    )
    return Simulator(g, GreedyScheduler(uniform_beta=1), wl, config=SimConfig(probe=probe)).run()


def _committed_blocks_per_step():
    try:
        with open(BASELINE_PATH) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    for table in doc.get("tables", []):
        if table.get("title") == TITLE:
            return (table.get("extra") or {}).get("blocks_per_step")
    return None


@pytest.mark.benchmark(group="E-HOTLOOP-alloc")
def test_hotloop_allocation_guard(benchmark):
    baseline = _committed_blocks_per_step()
    probe = CountersProbe()
    trace = _run(probe)
    steps = probe.counters["steps"]
    txns = len(trace.txns)

    gc.collect()
    tracemalloc.start()
    traced = _run()
    lazy_bytes, lazy_peak = tracemalloc.get_traced_memory()
    snap = tracemalloc.take_snapshot()
    # Force every lazy record to materialize (iteration materializes and
    # caches in place) — the cost an analysis pass pays, and only then.
    mat = (
        sum(1 for _ in traced.legs)
        + sum(1 for _ in traced.copy_legs)
        + sum(1 for _ in traced.txns.values())
    )
    full_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    lazy_blocks = sum(s.count for s in snap.statistics("filename"))
    blocks_per_step = round(lazy_blocks / steps, 2)
    rows = [
        ["live blocks at quiescence", lazy_blocks],
        ["active steps", steps],
        ["blocks / step", blocks_per_step],
        ["live KiB at quiescence", round(lazy_bytes / 1024, 1)],
        ["peak KiB during run", round(lazy_peak / 1024, 1)],
        ["records materialized", mat],
        ["materialization extra KiB", round((full_bytes - lazy_bytes) / 1024, 1)],
        ["vs committed blocks/step", round(blocks_per_step / baseline, 2) if baseline else "-"],
    ]
    extra = {
        "blocks_per_step": blocks_per_step,
        "growth_cap": GROWTH_CAP,
        "steps": steps,
        "txns": txns,
        "peak_kb": round(lazy_peak / 1024, 1),
        "materialize_extra_kb": round((full_bytes - lazy_bytes) / 1024, 1),
    }
    # Committed into BENCH_engine.json (the engine guard's snapshot), not
    # a separate file: one JSON carries the whole hot-loop contract.
    table = render_table(["metric", "value"], rows, title=TITLE)
    print("\n" + table + "\n", file=sys.__stdout__, flush=True)
    with open(RESULTS_PATH, "a") as fh:
        fh.write(table + "\n\n")
    _write_json("engine", TITLE, ["metric", "value"], rows, None, extra, None)

    once(benchmark, lambda: _run())
    if baseline:
        assert blocks_per_step <= GROWTH_CAP * baseline, (
            f"live blocks/step {blocks_per_step} > {GROWTH_CAP}x committed "
            f"baseline {baseline} — the hot loop got allocation-heavier"
        )
