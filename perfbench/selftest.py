"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

For every workload, at seed 0 and at seed 1 (the held-out seed), a tiny
run untraced and traced must:

* pass its output checks, with the traced and untraced samples agreeing
  exactly on the trace digest and the simulated statistics;
* yield every end-to-end and every per-layer metric, each with its unit;
* (closed runs) have a copy of its trace with one leg arriving a step
  early rejected by the certifier.

The known defect (reads combined with deadline expiry) is run and
reported; it does not decide the verdict.  Exit status 0 iff all pass.
"""

from __future__ import annotations

import os

import run as bench
from workloads import WORKLOADS

SEEDS = (0, 1)


def check_workload(name: str, seed: int) -> list:
    """Failure messages for one tiny workload run (empty = passed)."""
    spec = WORKLOADS[name]
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    spans = os.path.join(bench.OUT_DIR, f"selftest-{name}-seed{seed}.tsv")
    got = {
        "plain": {seed: [bench.run_sample(name, seed, tiny=True, corrupt=not spec["open"])]},
        "traced": {seed: [bench.run_sample(name, seed, tiny=True, spans=spans)]},
    }
    errors, attempted, failed = bench.check(got)
    if errors:
        return errors
    e2e, _notes = bench.end_to_end_metrics(got["plain"])
    layers, _self_s, _wall = bench.per_layer_metrics(got["plain"], got["traced"])
    out = []
    for metrics, expected in ((e2e, bench.END_TO_END), (layers, bench.PER_LAYER)):
        for metric, unit in expected.items():
            m = metrics.get(metric)
            if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                out.append(f"metric {metric} missing or without unit {unit!r}: {m}")
    if not spec["open"]:
        complaint = got["plain"][seed][0].get("corrupt_rejected")
        if not complaint:
            out.append("a leg arriving a step early was not rejected by the certifier")
    if failed:
        out.append(f"{failed} of {attempted} txns failed")
    if not os.path.getsize(spans):
        out.append(f"no spans written to {spans}")
    return out


def main() -> int:
    failures = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            problems = check_workload(name, seed)
            failures += bool(problems)
            verdict = "ok" if not problems else "FAILED"
            print(f"self-test {name} seed {seed}: {verdict}", flush=True)
            for p in problems:
                print(f"  {p}", flush=True)
    bench.known_defect_check()
    total = len(WORKLOADS) * len(SEEDS)
    print(f"self-test: {total - failures} of {total} workload runs passed", flush=True)
    return 1 if failures else 0
