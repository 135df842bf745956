"""Deterministic parallel runtime tests (repro.parallel).

1. **pmap contract** — ``pmap(fn, specs, jobs=N)`` returns exactly
   ``[fn(s) for s in specs]`` for any worker count, merged by spec
   index; ``jobs=0`` resolves to the host core count and negative
   worker counts are rejected.
2. **Failure semantics** — the lowest-index failing spec's exception is
   raised (matching serial short-circuit order), chained to a
   :class:`ParallelError` carrying the index and remote traceback;
   exceptions that would corrupt under pickling (e.g.
   ``InfeasibleScheduleError``) are transported as text instead.
3. **Clean shutdown** — a ``KeyboardInterrupt`` in a worker re-raises in
   the parent with the pool torn down; a worker that dies outright
   surfaces as a context-rich ``ParallelError``, never a hang.
4. **End-to-end determinism** — ``jobs=4`` output is identical to
   ``jobs=1`` for :func:`replicate`, :func:`run_grid`, a chaos
   ``run_sweep`` with shrinking (including artifact bytes), and the CLI
   ``compare`` / ``chaos sweep`` golden stdout.
5. **Cut-cache LRU** (satellite) — evicting ``Graph._cut_sssp`` entries
   past ``CUT_CACHE_MAX`` never changes any distance answer.
"""

import json
import os
import re
from dataclasses import replace

import pytest

from repro.analysis import replicate, run_experiment, run_grid
from repro.chaos import episode_spec, run_sweep
from repro.cli import main
from repro.core import GreedyScheduler
from repro.errors import InfeasibleScheduleError, ParallelError
from repro.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.network import topologies
from repro.parallel import WorkerPool, pmap, resolve_jobs
from repro.workloads import OnlineWorkload


# ----------------------------------------------------------------------
# module-level worker functions (picklable under any start method)
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _fail_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"even spec {x}")
    return x


def _interrupt_on_five(x):
    if x == 5:
        raise KeyboardInterrupt
    return x


def _die_on_three(x):
    if x == 3:
        os._exit(3)
    return x


def _raise_infeasible(x):
    raise InfeasibleScheduleError([f"txn {x} missed object 1"])


def _replicate_case(seed):
    g = topologies.clique(8)
    wl = OnlineWorkload.bernoulli(
        g, num_objects=4, k=2, rate=0.2, horizon=40, seed=seed
    )
    res = run_experiment(g, GreedyScheduler(), wl)
    return {"makespan": res.makespan, "ratio": res.competitive_ratio}


def _grid_case(case):
    num_nodes, seed = case
    g = topologies.clique(num_nodes)
    wl = OnlineWorkload.bernoulli(
        g, num_objects=4, k=2, rate=0.2, horizon=30, seed=seed
    )
    res = run_experiment(g, GreedyScheduler(), wl)
    return {"makespan": res.makespan, "txns": res.metrics.num_txns}


def planted_spec():
    """Same planted crash+partition episode as tests/test_chaos.py: node 2
    crashes while edge (2, 3) is cut, amid decoy windows and noise."""
    spec = episode_spec(0, seed=3, topology="ring:10", horizon=30)
    plan = FaultPlan(
        seed=3,
        drop_prob=0.1,
        delay_prob=0.1,
        max_delay=3,
        crashes=(CrashWindow(2, 5, 15), CrashWindow(4, 6, 12)),
        partitions=(
            PartitionWindow(((2, 3),), 8, 18),
            PartitionWindow(((5, 6),), 4, 10),
        ),
    )
    return replace(spec, plan=plan, planted={"node": 2, "edge": (2, 3)})


def canon(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# pmap contract
# ----------------------------------------------------------------------

class TestPmapContract:
    def test_parallel_identical_to_serial(self):
        specs = list(range(37))
        expected = [_square(s) for s in specs]
        assert pmap(_square, specs, jobs=1) == expected
        assert pmap(_square, specs, jobs=4) == expected

    def test_small_chunks_still_ordered(self):
        specs = list(range(23))
        assert pmap(_square, specs, jobs=4, chunk=1) == [s * s for s in specs]

    def test_empty_specs(self):
        assert pmap(_square, [], jobs=4) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ParallelError, match="jobs must be >= 0"):
            resolve_jobs(-2)

    def test_pool_reuse_across_maps(self):
        with WorkerPool(_square, jobs=2, chunk=3) as pool:
            assert pool.map(list(range(10))) == [s * s for s in range(10)]
            assert pool.map(list(range(5))) == [s * s for s in range(5)]


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------

class TestFailureSemantics:
    def test_lowest_index_failure_wins(self):
        # Failing specs sit at indices 2 and 4; serial order raises the
        # one at index 2 even though chunk=1 lets index 4 finish first.
        specs = [1, 3, 2, 5, 4]
        with pytest.raises(ValueError, match="even spec 2") as excinfo:
            pmap(_fail_on_even, specs, jobs=4, chunk=1)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert cause.index == 2
        assert cause.cause_type == "ValueError"
        assert "even spec 2" in cause.remote_traceback

    def test_serial_and_parallel_raise_same_message(self):
        specs = [1, 3, 2, 5, 4]
        with pytest.raises(ValueError) as serial:
            pmap(_fail_on_even, specs, jobs=1)
        with pytest.raises(ValueError) as par:
            pmap(_fail_on_even, specs, jobs=4, chunk=1)
        assert str(serial.value) == str(par.value)

    def test_unfaithful_pickle_transported_as_text(self):
        # InfeasibleScheduleError(msg) reconstruction corrupts .violations,
        # so it must arrive as a ParallelError, not a mangled re-raise.
        with pytest.raises(ParallelError) as excinfo:
            pmap(_raise_infeasible, [7], jobs=2)
        err = excinfo.value
        assert err.index == 0
        assert err.cause_type == "InfeasibleScheduleError"
        assert "txn 7 missed object 1" in str(err)


# ----------------------------------------------------------------------
# clean shutdown
# ----------------------------------------------------------------------

class TestCleanShutdown:
    def test_keyboard_interrupt_in_worker_reraises(self):
        pool = WorkerPool(_interrupt_on_five, jobs=2, chunk=1)
        with pytest.raises(KeyboardInterrupt):
            pool.map(list(range(8)))
        assert pool._executor is None  # pool torn down, not leaked
        pool.close()  # idempotent after interrupt

    def test_worker_hard_crash_is_context_rich(self):
        pool = WorkerPool(_die_on_three, jobs=2, chunk=1)
        with pytest.raises(ParallelError) as excinfo:
            pool.map(list(range(6)))
        msg = str(excinfo.value)
        assert "worker process died" in msg
        assert "jobs=2" in msg
        assert "_die_on_three" in msg
        assert pool._executor is None
        pool.close()


# ----------------------------------------------------------------------
# end-to-end determinism: jobs=4 == jobs=1
# ----------------------------------------------------------------------

class TestEndToEndDeterminism:
    def test_replicate_jobs4_identical(self):
        seeds = list(range(6))
        serial = replicate(_replicate_case, seeds)
        par = replicate(_replicate_case, seeds, jobs=4)
        assert serial == par  # Aggregate is a frozen dataclass: deep ==
        assert canon({k: v.values for k, v in serial.items()}) == canon(
            {k: v.values for k, v in par.items()}
        )

    def test_run_grid_jobs4_identical(self):
        cases = [(n, seed) for n in (6, 8) for seed in (0, 1, 2)]
        assert run_grid(_grid_case, cases) == run_grid(_grid_case, cases, jobs=4)

    def test_sweep_with_shrink_identical_including_artifacts(self, tmp_path):
        # One planted violation (shrunk + archived) and one healthy decoy.
        specs = [
            planted_spec(),
            episode_spec(1, seed=3, topology="ring:10", horizon=30),
        ]
        serial_dir = tmp_path / "serial"
        par_dir = tmp_path / "par"
        serial = run_sweep(
            len(specs), specs=specs, shrink=True, artifact_dir=str(serial_dir)
        )
        par = run_sweep(
            len(specs), specs=specs, shrink=True, artifact_dir=str(par_dir),
            jobs=4,
        )
        assert canon([r.to_dict() for r in serial.episodes]) == canon(
            [r.to_dict() for r in par.episodes]
        )
        serial_arts = sorted(p.name for p in serial_dir.iterdir())
        par_arts = sorted(p.name for p in par_dir.iterdir())
        assert serial_arts == par_arts and serial_arts  # same files, >= 1
        for name in serial_arts:
            assert (serial_dir / name).read_bytes() == (par_dir / name).read_bytes()

    def test_cli_compare_golden_stdout(self, capsys):
        argv = [
            "compare", "--topology", "clique:8", "--workload", "batch",
            "--objects", "4", "--schedulers", "greedy,fifo",
        ]

        def run(jobs):
            assert main(argv + ["--jobs", jobs]) == 0
            return capsys.readouterr().out

        # Wall-clock seconds legitimately differ run to run; mask the
        # trailing seconds column before demanding byte identity.
        def mask_seconds(out):
            return "\n".join(
                re.sub(r"[0-9.]+$", "S", line) for line in out.splitlines()
            )

        serial = run("1")
        par = run("4")
        assert "seconds" in serial.splitlines()[1]
        assert mask_seconds(serial) == mask_seconds(par)

    def test_cli_compare_json_identical_modulo_seconds(self, capsys):
        argv = [
            "compare", "--topology", "clique:8", "--workload", "batch",
            "--objects", "4", "--schedulers", "greedy,fifo", "--json",
        ]

        def run(jobs):
            assert main(argv + ["--jobs", jobs]) == 0
            rows = json.loads(capsys.readouterr().out)
            for row in rows:
                assert row.pop("seconds") >= 0
            return rows

        assert run("1") == run("4")

    def test_cli_chaos_sweep_jobs_identical(self, capsys):
        argv = [
            "chaos", "sweep", "--episodes", "6", "--seed", "7",
            "--topology", "ring:8", "--horizon", "20", "--json",
        ]

        def run(jobs):
            assert main(argv + ["--jobs", jobs]) == 0
            return capsys.readouterr().out

        assert run("1") == run("2")


# ----------------------------------------------------------------------
# cut-cache LRU eviction (satellite: bounded memory, unchanged answers)
# ----------------------------------------------------------------------

class TestCutCacheLRU:
    def test_eviction_never_changes_distances(self):
        g = topologies.ring(10)
        fresh = topologies.ring(10)  # uncached oracle, rebuilt per query
        g.CUT_CACHE_MAX = 8  # instance override: force heavy eviction
        cuts = [frozenset({(i, i + 1)}) for i in range(9)]
        cuts.append(frozenset({(0, 9)}))

        expected = {}
        for cut in cuts:
            for src in (0, 3, 7):
                expected[(cut, src)] = g.distance_avoiding(src, 5, cut)
        assert len(g._cut_sssp) <= 8  # far fewer than the 30 queries

        # Re-query everything (most entries were evicted and recompute);
        # answers must match both the first pass and a cold graph.
        for (cut, src), want in expected.items():
            assert g.distance_avoiding(src, 5, cut) == want
            assert fresh.distance_avoiding(src, 5, cut) == want
            assert len(g._cut_sssp) <= 8

        # Plain distances (the unbounded _dist cache) are untouched.
        for src in range(10):
            assert g.distance(src, 5) == fresh.distance(src, 5)

    def test_lru_keeps_hot_entries(self):
        g = topologies.ring(12)
        g.CUT_CACHE_MAX = 4
        hot = frozenset({(0, 1)})
        g.distance_avoiding(0, 6, hot)
        for i in range(1, 11):
            g.distance_avoiding(0, 6, frozenset({(i, i + 1)}))
            g.distance_avoiding(0, 6, hot)  # touch: must survive eviction
            assert (hot, 0) in g._cut_sssp
        assert len(g._cut_sssp) <= 4
