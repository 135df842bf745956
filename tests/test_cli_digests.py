"""Pinned outputs of the command-line layer.

``tests/test_incremental.py`` pins engine traces of workloads built
directly; this file pins what the ``repro`` commands themselves produce
from flags: the ``--trace`` file and the ``--json`` report of ``run``
over every closed ``--workload`` and three schedulers, plus ``stream``,
``serve``, ``compare``, ``suite`` and ``replay``.  Each case's sha256
digests must equal the ones in ``tests/data/cli_digests.json``, so a
refactor of the flag-to-run path that changes a schedule, a workload or
a reported number fails here.

Wall-clock fields (``seconds``) are dropped before hashing.  Every run
writes its files under relative names inside a scratch directory, so
the reported paths are part of the pin.

To re-pin after an *intended* output change, run this file as a script:
``PYTHONPATH=src python tests/test_cli_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_digests.json")

CLOSED_WORKLOADS = ("batch", "bernoulli", "poisson", "closed-loop", "hotspot", "chain")
#: scheduler -> the small graph it runs on
SCHEDULER_GRAPHS = (("greedy", "clique:6"), ("bucket-line", "line:8"), ("distributed", "grid:3x3"))
FLAG_SETS = {
    "base": [],
    "zipf": ["--zipf", "0.8"],
    "reads": ["--read-fraction", "0.4"],
    "hop": ["--transport", "hop", "--link-capacity", "1"],
}
POOL = ["--objects", "4", "--k", "2", "--rate", "0.15", "--horizon", "12", "--rounds", "2"]

SUITE = [
    {"name": "a", "topology": "clique:6", "workload": "batch", "objects": 3, "k": 1},
    {"name": "b", "topology": "line:8", "scheduler": "bucket-line", "workload": "hotspot"},
    {"name": "c", "topology": "grid:3x3", "scheduler": "distributed", "rate": 0.1,
     "horizon": 15, "read_fraction": 0.3, "zipf": 0.5, "seed": 3},
    {"name": "d", "topology": "ring:6", "workload": "closed-loop", "rounds": 2,
     "object_speed": 2},
]


def _cases():
    """case id -> list of argv lists run in order (the last one's
    ``--json`` output is pinned, and every ``trace.json`` left behind)."""
    cases = {}
    for workload in CLOSED_WORKLOADS:
        for sched, topo in SCHEDULER_GRAPHS:
            for flag_name, flags in FLAG_SETS.items():
                if workload == "poisson" and flag_name == "reads":
                    continue  # rejected: see tests/test_cli.py
                for seed in (0, 1):
                    argv = ["run", "--topology", topo, "--scheduler", sched,
                            "--workload", workload, *POOL, *flags,
                            "--seed", str(seed), "--trace", "trace.json", "--json"]
                    cases[f"run-{workload}-{sched}-{flag_name}-s{seed}"] = [argv]
    grid = ["--topology", "grid:3x3", "--workload", "bernoulli", *POOL, "--seed", "2"]
    cases["run-lazy"] = [["run", *grid, "--lazy", "--trace", "trace.json", "--json"]]
    cases["run-node-capacity"] = [
        ["run", *grid, "--node-capacity", "1", "--trace", "trace.json", "--json"]]
    cases["run-object-speed"] = [
        ["run", *grid, "--object-speed", "2", "--trace", "trace.json", "--json"]]
    cases["run-faults"] = [[
        "run", *grid, "--faults", "seed=7,drop=0.1,crash=1,crash-len=6",
        "--trace", "trace.json", "--json"]]
    cases["run-report"] = [["run", *grid, "--report", "report.md", "--json"]]

    open_kinds = {
        "poisson": ["--workload", "poisson-open", "--lam", "0.6"],
        "onoff": ["--workload", "onoff-open", "--lam", "1.0", "--lam-off", "0.1"],
        "diurnal": ["--workload", "diurnal-open", "--lam", "0.5",
                    "--amplitude", "0.4", "--period", "20"],
        "adversarial": ["--workload", "adversarial-open", "--lam", "0.5", "--burst", "3"],
    }
    base = ["--topology", "clique:8", "--objects", "6", "--k", "2", "--until", "60"]
    for name, flags in open_kinds.items():
        cases[f"stream-{name}"] = [["stream", *base, *flags, "--json"]]
    cases["stream-pool-knobs"] = [[
        "stream", *base, *open_kinds["poisson"], "--zipf", "0.8",
        "--read-fraction", "0.3", "--scheduler", "bucket", "--warmup", "10", "--json"]]
    cases["stream-latency"] = [[
        "stream", *base, *open_kinds["poisson"], "--latency-dist", "lognormal:0:1:5",
        "--seed", "4", "--json"]]
    cases["stream-admission"] = [[
        "stream", *base, "--lam", "1.5", "--admission", "deadline-edf",
        "--deadline", "20", "--queue-cap", "8", "--report", "report.md", "--json"]]
    cases["serve-default"] = [["serve", *base, "--lam", "1.2", "--json"]]
    cases["serve-priority"] = [[
        "serve", *base, "--lam", "1.2", "--admission", "priority-class",
        "--priority-classes", "3", "--deadline", "30", "--deadline-frac", "0.5", "--json"]]
    cases["serve-latency"] = [[
        "serve", *base, "--lam", "0.8", "--latency-dist", "empirical:0,1,3",
        "--scheduler", "fifo", "--json"]]

    cmp_base = ["compare", "--topology", "grid:3x3", "--workload", "bernoulli", *POOL]
    cases["compare"] = [[*cmp_base, "--schedulers", "greedy,bucket,fifo,tsp", "--json"]]
    cases["compare-faults"] = [[
        *cmp_base, "--schedulers", "greedy,fifo", "--seed", "1",
        "--faults", "seed=7,drop=0.1,crash=1,crash-len=6", "--json"]]
    cases["compare-hop"] = [[
        *cmp_base, "--schedulers", "greedy,distributed", "--transport", "hop", "--json"]]
    cases["suite"] = [["suite", "--file", "suite.json", "--json"]]

    archive = ["run", "--topology", "line:8", "--workload", "hotspot", "--trace",
               "trace.json", "--json"]
    for name, flags in {
        "plain": [],
        "link-capacity": ["--link-capacity", "1"],
        "node-capacity": ["--node-capacity", "1"],
    }.items():
        cases[f"replay-{name}"] = [archive, [
            "replay", "--topology", "line:8", "--trace", "trace.json", *flags, "--json"]]
    return cases


CASES = _cases()


def _drop_seconds(obj):
    if isinstance(obj, list):
        return [_drop_seconds(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _drop_seconds(v) for k, v in obj.items() if k != "seconds"}
    return obj


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(case: str, workdir: str) -> dict:
    """Run ``case`` with ``workdir`` as the current directory."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("suite.json", "w") as fh:
            json.dump(SUITE, fh)
        for argv in CASES[case]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            assert rc == 0, (argv, rc)
        report = _drop_seconds(json.loads(out.getvalue()))
        got = {"json": _sha(json.dumps(report, sort_keys=True).encode())}
        for name in ("trace.json", "report.md"):
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    got[name] = _sha(fh.read())
        return got
    finally:
        os.chdir(cwd)


def _pinned() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_pinned(case, tmp_path):
    assert _digests(case, str(tmp_path)) == _pinned()[case], (
        f"{case}: CLI output changed ({CASES[case][-1]})"
    )


def test_every_case_pinned():
    assert sorted(_pinned()) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    pins = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            pins[name] = _digests(name, tmp)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} cases -> {DIGESTS_PATH}")
