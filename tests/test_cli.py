"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_scheduler, parse_topology
from repro.network import topologies


class TestParseTopology:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("clique:8", 8),
            ("line:12", 12),
            ("ring:10", 10),
            ("grid:3x4", 12),
            ("torus:3x3", 9),
            ("hypercube:3", 8),
            ("butterfly:2", 12),
            ("cluster:3x4:6", 12),
            ("star:3x4", 13),
            ("tree:2x3", 15),
            ("rgg:15:0.4", 15),
        ],
    )
    def test_specs(self, spec, n):
        assert parse_topology(spec).num_nodes == n

    def test_bad_kind(self):
        with pytest.raises(SystemExit):
            parse_topology("moebius:9")

    def test_bad_params(self):
        with pytest.raises(SystemExit):
            parse_topology("grid:axb")


class TestMakeScheduler:
    def test_all_names_resolve(self):
        from repro.cli import SCHEDULER_NAMES

        g = topologies.line(8)
        for name in SCHEDULER_NAMES:
            sched, speed = make_scheduler(name, g)
            assert sched is not None
            assert speed in (1, 2)

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            make_scheduler("quantum", topologies.line(4))


class TestCommands:
    def test_run_json(self, capsys):
        rc = main([
            "run", "--topology", "clique:8", "--scheduler", "greedy",
            "--workload", "batch", "--objects", "4", "--k", "2",
            "--seed", "1", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["txns"] == 8
        assert out["makespan"] >= 1

    def test_run_table(self, capsys):
        rc = main([
            "run", "--topology", "line:10", "--scheduler", "bucket-line",
            "--workload", "hotspot",
        ])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    def test_run_trace_export(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        rc = main([
            "run", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "4", "--rate", "0.08", "--horizon", "20",
            "--trace", str(path), "--json",
        ])
        assert rc == 0
        from repro.sim.serialize import load_trace

        assert load_trace(str(path)).num_txns > 0

    def test_run_distributed_forces_half_speed(self, capsys):
        rc = main([
            "run", "--topology", "line:8", "--scheduler", "distributed",
            "--workload", "batch", "--objects", "3", "--k", "1", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["messages"] > 0

    def test_compare(self, capsys):
        rc = main([
            "compare", "--topology", "clique:8", "--workload", "batch",
            "--objects", "4", "--schedulers", "greedy,fifo", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [d["scheduler"] for d in out] == ["greedy", "fifo"]
        greedy, fifo = out
        assert greedy["makespan"] <= fifo["makespan"]

    def test_cover(self, capsys):
        rc = main(["cover", "--topology", "grid:3x3", "--seed", "0"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_run_readwrite(self, capsys):
        rc = main([
            "run", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "4", "--rate", "0.08", "--horizon", "20",
            "--read-fraction", "0.5", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["txns"] > 0

    def test_run_congested_reports_misses(self, capsys):
        rc = main([
            "run", "--topology", "line:10", "--workload", "hotspot",
            "--link-capacity", "1", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "deadline_misses" in out
        assert out["txns"] == 10

    def test_run_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        rc = main([
            "run", "--topology", "clique:6", "--workload", "batch",
            "--objects", "3", "--k", "1", "--report", str(path), "--json",
        ])
        assert rc == 0
        text = path.read_text()
        assert text.startswith("# ")
        assert "## Metrics" in text

    def test_replay_round_trip(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        rc = main([
            "run", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "4", "--rate", "0.08", "--horizon", "20",
            "--seed", "2", "--trace", str(trace_file), "--json",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "replay", "--topology", "grid:3x3", "--trace", str(trace_file), "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["archived_makespan"] == out["replayed_makespan"]
        assert out["deadline_misses"] == 0

    def test_replay_under_congestion(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        main([
            "run", "--topology", "line:10", "--workload", "hotspot",
            "--trace", str(trace_file), "--json",
        ])
        capsys.readouterr()
        rc = main([
            "replay", "--topology", "line:10", "--trace", str(trace_file),
            "--link-capacity", "1", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["replayed_makespan"] >= out["archived_makespan"]

    def test_replay_rejects_corrupt_archive(self, tmp_path, capsys):
        import json as _json

        trace_file = tmp_path / "t.json"
        main([
            "run", "--topology", "line:8", "--workload", "hotspot",
            "--trace", str(trace_file), "--json",
        ])
        capsys.readouterr()
        data = _json.loads(trace_file.read_text())
        data["txns"][0]["exec_time"] = 0  # forge an impossible commit
        trace_file.write_text(_json.dumps(data))
        rc = main(["replay", "--topology", "line:8", "--trace", str(trace_file)])
        assert rc == 1

    def test_suite_runs_entries(self, tmp_path, capsys):
        import json as _json

        suite = [
            {"name": "a", "topology": "clique:6", "workload": "batch", "objects": 3, "k": 1},
            {"name": "b", "topology": "line:8", "scheduler": "bucket-line",
             "workload": "hotspot"},
        ]
        path = tmp_path / "suite.json"
        path.write_text(_json.dumps(suite))
        rc = main(["suite", "--file", str(path), "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in out] == ["a", "b"]
        assert all(d["txns"] > 0 for d in out)

    def test_suite_rejects_unknown_keys(self, tmp_path, capsys):
        import json as _json

        path = tmp_path / "suite.json"
        path.write_text(_json.dumps([{"topology": "clique:4", "typo_key": 1}]))
        assert main(["suite", "--file", str(path)]) == 2

    def test_suite_rejects_empty(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("[]")
        assert main(["suite", "--file", str(path)]) == 2

    def test_run_transport_hop(self, capsys):
        rc = main([
            "run", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "4", "--rate", "0.08", "--horizon", "20",
            "--transport", "hop", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["txns"] > 0

    def test_run_transport_direct_explicit(self, capsys):
        rc = main([
            "run", "--topology", "clique:6", "--workload", "batch",
            "--objects", "3", "--k", "1", "--transport", "direct", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["txns"] == 6

    def test_run_rejects_link_capacity_with_direct_transport(self, capsys):
        with pytest.raises(SystemExit, match="hop transport"):
            main([
                "run", "--topology", "line:10", "--workload", "hotspot",
                "--transport", "direct", "--link-capacity", "1", "--json",
            ])

    def test_compare_accepts_transport(self, capsys):
        rc = main([
            "compare", "--topology", "grid:3x3", "--workload", "batch",
            "--objects", "3", "--k", "1", "--schedulers", "greedy,fifo",
            "--transport", "hop", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [d["scheduler"] for d in out] == ["greedy", "fifo"]

    def test_run_faults(self, capsys):
        rc = main([
            "run", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "5", "--rate", "0.08", "--horizon", "30", "--seed", "1",
            "--faults", "seed=7,drop=0.1,crash=1,crash-len=6",
            "--obs-counters", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reschedules"] > 0
        assert out["faults"].get("drop", 0) > 0
        assert out["obs"]["recovery.reschedules"] == out["reschedules"]
        assert out["deadline_misses"] == 0  # recovery, not deferral

    def test_run_rejects_bad_faults_spec(self, capsys):
        rc = main([
            "run", "--topology", "clique:6", "--workload", "batch",
            "--objects", "3", "--k", "1", "--faults", "drop=1.5", "--json",
        ])
        assert rc == 2  # WorkloadError surfaces as exit code 2
        assert "drop_prob" in capsys.readouterr().err

    def test_compare_with_faults(self, capsys):
        rc = main([
            "compare", "--topology", "grid:3x3", "--workload", "bernoulli",
            "--objects", "5", "--rate", "0.08", "--horizon", "30", "--seed", "1",
            "--schedulers", "greedy,fifo",
            "--faults", "seed=7,drop=0.1,crash=1,crash-len=6", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert all(d["reschedules"] > 0 for d in out)

    def test_run_zipf_closed_loop(self, capsys):
        rc = main([
            "run", "--topology", "clique:6", "--workload", "closed-loop",
            "--objects", "5", "--rounds", "2", "--zipf", "1.2", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["txns"] == 12

    def test_poisson_rejects_read_fraction(self, capsys):
        """``poisson`` draws write-only transactions: asking for reads is
        an error naming the knob, not a silently write-only run."""
        rc = main([
            "run", "--topology", "clique:8", "--workload", "poisson",
            "--rate", "0.5", "--horizon", "20", "--read-fraction", "0.5",
        ])
        assert rc == 2
        assert "read_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_single_run_commands_reject_jobs(self, command, capsys):
        """``run`` and ``profile`` have no fan-out, so ``--jobs`` is an
        unknown flag there rather than one silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--topology", "clique:4", "--horizon", "5", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestResume:
    """A resumed run reports exactly as a fresh one does."""

    FLAGS = [
        "--topology", "grid:3x3", "--workload", "bernoulli", "--objects", "4",
        "--rate", "0.2", "--horizon", "30", "--seed", "1",
    ]

    def _json(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_resumed_run_writes_report_and_reports_every_key(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.bin")
        fresh = self._json(capsys, [
            "run", *self.FLAGS, "--checkpoint", ck, "--checkpoint-every", "5",
            "--report", str(tmp_path / "fresh.md"), "--json",
        ])
        report = tmp_path / "resumed.md"
        resumed = self._json(capsys, [
            "run", "--resume", ck, "--report", str(report), "--json",
        ])
        assert report.read_text().startswith("# resumed grid(3x3)")
        assert "## Metrics" in report.read_text()
        assert sorted(resumed) == sorted(fresh)
        for key in ("txns", "makespan", "p99_latency", "competitive_ratio", "messages"):
            assert resumed[key] == fresh[key], key

    def test_resumed_stream_writes_report(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.bin")
        flags = ["--topology", "clique:8", "--lam", "0.6", "--until", "80"]
        fresh = self._json(capsys, [
            "serve", *flags, "--checkpoint", ck, "--checkpoint-every", "10",
            "--report", str(tmp_path / "fresh.md"), "--json",
        ])
        report = tmp_path / "resumed.md"
        resumed = self._json(capsys, [
            "serve", "--resume", ck, "--until", "80", "--report", str(report), "--json",
        ])
        assert report.read_text().startswith("# Open-system run — resumed clique")
        assert sorted(resumed) == sorted(fresh)
        for key in ("committed", "p99", "goodput", "workload", "admission"):
            assert resumed[key] == fresh[key], key


class TestTopoInfo:
    def test_golden_stdout_oracle(self, capsys):
        rc = main(["topo", "info", "grid:100x100"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "topology : grid(100x100)\n"
            "nodes    : 10000\n"
            "edges    : 19800\n"
            "diameter : 198\n"
            "oracle   : grid\n"
            "distance-cache estimate: 763.5 MiB (avoided by oracle)\n"
        )

    def test_golden_stdout_fallback(self, capsys):
        rc = main(["topo", "info", "butterfly:2"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "topology : butterfly(d=2)\n"
            "nodes    : 12\n"
            "edges    : 16\n"
            "diameter : 4\n"
            "oracle   : none (cached Dijkstra)\n"
            "distance-cache estimate: 1.8 KiB (worst case if all rows touched)\n"
        )

    def test_every_oracle_kind_reported(self, capsys):
        kinds = {
            "clique:6": "clique", "line:6": "line", "ring:6": "ring",
            "grid:3x3": "grid", "torus:3x3": "torus", "hypercube:3": "hypercube",
            "cluster:2x3:4": "cluster", "star:2x3": "star", "tree:2x2": "tree",
        }
        for spec, kind in kinds.items():
            assert main(["topo", "info", spec]) == 0
            assert f"oracle   : {kind}\n" in capsys.readouterr().out

    def test_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["topo", "info", "blorp:9"])


class TestServeCli:
    def test_serve_json_reports_service_fields(self, capsys):
        rc = main([
            "serve", "--topology", "grid:4x4", "--until", "200",
            "--lam", "2.0", "--deadline", "40", "--queue-cap", "32",
            "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["admission"] == "fifo"  # serve defaults the policy on
        assert out["goodput"] > 0
        assert 0 <= out["shed_rate"] <= 1

    def test_stream_without_admission_emits_no_service_fields(self, capsys):
        rc = main([
            "stream", "--topology", "grid:4x4", "--until", "120",
            "--lam", "0.3", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "goodput" not in out and "admission" not in out

    def test_stream_admission_flag_enables_service(self, capsys):
        rc = main([
            "stream", "--topology", "grid:4x4", "--until", "200",
            "--lam", "2.0", "--admission", "deadline-edf",
            "--deadline", "30", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["admission"] == "deadline-edf"
        assert out["deadline_hit_rate"] <= 1

    def test_stream_latency_dist(self, capsys):
        rc = main([
            "stream", "--topology", "ring:8", "--until", "120",
            "--lam", "0.2", "--latency-dist", "empirical:0,1,2", "--json",
        ])
        assert rc == 0
        json.loads(capsys.readouterr().out)

    def test_chaos_sweep_overload_flags(self, capsys):
        rc = main([
            "chaos", "sweep", "--episodes", "4", "--lambda-mult", "2.0",
            "--deadline-frac", "0.5", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == 0
        assert out["shed"] + out["expired"] > 0


class TestProfile:
    """Golden-stdout checks for ``repro profile``: the deterministic
    skeleton (field names, table titles, row shape) is pinned; timing
    values themselves are machine-dependent and only sanity-checked."""

    ARGS = [
        "profile", "--topology", "clique:6", "--scheduler", "greedy",
        "--workload", "batch", "--objects", "4", "--k", "2", "--seed", "0",
    ]

    def test_json_skeleton(self, capsys):
        rc = main(self.ARGS + ["--top", "3", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == [
            "topology", "scheduler", "txns", "makespan", "seconds", "calls", "top",
        ]
        assert out["topology"] == "clique(n=6)"
        assert out["scheduler"] == "greedy"
        assert out["txns"] == 6
        assert len(out["top"]) == 3
        for entry in out["top"]:
            assert list(entry) == ["function", "ncalls", "tottime", "cumtime"]
            assert entry["ncalls"] >= 1

    def test_top_limits_rows(self, capsys):
        rc = main(self.ARGS + ["--top", "1", "--json"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["top"]) == 1

    def test_cumtime_alias_matches_cumulative(self, capsys):
        rc = main(self.ARGS + ["--top", "5", "--sort", "cumulative", "--json"])
        assert rc == 0
        cumulative = [t["function"] for t in json.loads(capsys.readouterr().out)["top"]]
        rc = main(self.ARGS + ["--top", "5", "--sort", "cumtime", "--json"])
        assert rc == 0
        cumtime = [t["function"] for t in json.loads(capsys.readouterr().out)["top"]]
        assert cumtime == cumulative

    def test_table_skeleton(self, capsys):
        rc = main(self.ARGS + ["--top", "2", "--sort", "tottime"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: clique(n=6) / greedy" in out
        assert "top 2 by tottime" in out
        for header in ("ncalls", "tottime", "cumtime", "function"):
            assert header in out
