"""Checkpoint/restore (``repro.durability``): crash-resumable runs.

The contract under test is byte-identity: a run killed at *any*
checkpoint and resumed must produce exactly the trace the uninterrupted
run produces — same commits, same fault records, same serialized JSON
artifact.  Comparison uses the canonical trace serialization
(:mod:`repro.sim.serialize`), the archival byte format; raw
``pickle.dumps`` of in-memory traces is deliberately *not* the
comparator (pickle memoizes shared references, so two semantically
identical traces can pickle differently after a restore).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main, make_scheduler
from repro.durability import (
    CHECKPOINT_SCHEMA,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import CheckpointError, WorkloadError
from repro.faults import FaultPlan, JoinEvent, LeaveEvent, MembershipPlan
from repro.network.topologies import grid
from repro.obs.jsonl import iter_events
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.serialize import trace_to_dict
from repro.workloads import OnlineWorkload


def _trace_bytes(trace) -> bytes:
    """Canonical archival bytes of a trace (the identity comparator)."""
    return json.dumps(trace_to_dict(trace), sort_keys=True).encode()


def _build(scheduler_name, plan, tmp_path, every=5, seed=9, horizon=25, sync=True):
    g = grid([3, 3])
    sched, speed = make_scheduler(scheduler_name, g)
    wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.4, horizon=horizon, seed=seed)
    cfg = SimConfig(
        object_speed_den=speed,
        faults=plan,
        checkpoint_every=every,
        checkpoint_path=os.path.join(str(tmp_path), "ck-{step}.bin"),
        checkpoint_sync=sync,
    )
    return Simulator(g, sched, wl, config=cfg)


CHURN = MembershipPlan(
    joins=(JoinEvent(9, 8, ((4, 1),)),),
    leaves=(LeaveEvent(1, 10, graceful=False), LeaveEvent(7, 14, graceful=True)),
)

#: fault modes the restore property is exercised under
FAULT_MODES = {
    "clean": None,
    "faults": FaultPlan(seed=5, drop_prob=0.05, delay_prob=0.1, max_delay=3),
    "partitions": FaultPlan.random(
        11,
        num_nodes=9,
        horizon=25,
        drop_prob=0.05,
        partition_count=1,
        partition_len=6,
        edges=[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4)],
    ),
    "churn": FaultPlan(seed=5, drop_prob=0.05, membership=CHURN),
}


class TestRestoreByteIdentity:
    """Kill-at-every-k-th-step: each snapshot resumes byte-identically."""

    @pytest.mark.parametrize("scheduler", ["greedy", "bucket", "distributed"])
    @pytest.mark.parametrize("mode", sorted(FAULT_MODES))
    def test_every_checkpoint_resumes_identically(
        self, scheduler, mode, tmp_path
    ):
        sim = _build(scheduler, FAULT_MODES[mode], tmp_path)
        ref = _trace_bytes(sim.run())
        snapshots = sorted(
            f for f in os.listdir(tmp_path) if f.startswith("ck-")
        )
        assert snapshots, "run produced no checkpoints"
        for name in snapshots:
            resumed = Simulator.restore(os.path.join(str(tmp_path), name))
            assert _trace_bytes(resumed.run()) == ref, (
                f"{scheduler}/{mode}: resume from {name} diverged"
            )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_async_checkpoints_resume_identically(self, tmp_path):
        """checkpoint_sync=False: forked writers produce the same snapshots
        (same bytes, same resumed trace) — the run just doesn't stall."""
        from repro.durability import reap_async_writers

        sim = _build("greedy", FAULT_MODES["faults"], tmp_path, sync=False)
        ref = _trace_bytes(sim.run())
        reap_async_writers(block=True)  # all snapshot files on disk
        expected = [
            os.path.join(str(tmp_path), f"ck-{s}.bin") for s in (5, 10, 15)
        ]
        for path in expected:
            assert os.path.exists(path), f"async snapshot {path} never landed"
            resumed = Simulator.restore(path)
            assert _trace_bytes(resumed.run()) == ref

    def test_restore_continues_checkpointing(self, tmp_path):
        sim = _build("greedy", None, tmp_path)
        sim.run()
        first = sorted(f for f in os.listdir(tmp_path) if f.startswith("ck-"))
        resumed = Simulator.restore(os.path.join(str(tmp_path), first[0]))
        resumed.run()
        # the resumed engine keeps writing to the same {step} template
        again = sorted(f for f in os.listdir(tmp_path) if f.startswith("ck-"))
        assert set(first) <= set(again)


class TestCheckpointFile:
    def test_header_inspectable_without_unpickling(self, tmp_path):
        sim = _build("greedy", None, tmp_path)
        path = os.path.join(str(tmp_path), "snap.bin")
        sim.run_until(10)
        resolved = save_checkpoint(sim, path)
        header = inspect_checkpoint(resolved)
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["graph"] == "grid(3x3)"
        assert header["scheduler"] == "GreedyScheduler"
        assert header["payload_bytes"] > 0
        assert set(header["rng_cursors"]) >= {"tid", "spec-seq", "arrivals"}

    def test_corrupt_payload_rejected(self, tmp_path):
        sim = _build("greedy", None, tmp_path)
        sim.run_until(10)
        path = save_checkpoint(sim, os.path.join(str(tmp_path), "snap.bin"))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-20])  # torn copy
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "payload, missing",
        [
            (b"cno_such_pkg.gone\nThing\n.", "no_such_pkg"),
            (b"crepro.sim.engine\nNoSuchThing\n.", "NoSuchThing"),
            (b"\x80\x05garbage", ""),
        ],
        ids=["missing-module", "missing-class", "garbage"],
    )
    def test_payload_from_other_build_rejected(self, tmp_path, payload, missing):
        """A checkpoint whose header and hash are valid but whose payload
        names code this build lacks (an older engine layout) fails with a
        CheckpointError naming the file, schema, step and missing name."""
        import hashlib

        path = os.path.join(str(tmp_path), "old.bin")
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "step": 5,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError) as err:
            Simulator.restore(path)
        msg = str(err.value)
        assert path in msg and CHECKPOINT_SCHEMA in msg and "step 5" in msg
        assert missing in msg

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x80\x04 not a header\n")
        with pytest.raises(CheckpointError, match="bad header"):
            inspect_checkpoint(path)

    def test_config_rejects_bad_checkpoint_interval(self):
        with pytest.raises(WorkloadError, match="checkpoint_every"):
            SimConfig(checkpoint_every=0, checkpoint_path="x.bin")
        with pytest.raises(WorkloadError, match="checkpoint_path"):
            SimConfig(checkpoint_every=5)


class TestInspectCli:
    def test_inspect_golden_stdout(self, tmp_path, capsys):
        """`repro checkpoint inspect` output is deterministic and complete:
        two identically-seeded runs snapshot to byte-identical stdout."""
        outputs = []
        for _ in range(2):
            sim = _build("greedy", None, tmp_path)
            sim.run_until(12)
            path = save_checkpoint(
                sim, os.path.join(str(tmp_path), "golden.bin")
            )
            assert main(["checkpoint", "inspect", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for needle in (
            CHECKPOINT_SCHEMA,
            "grid(3x3)",
            "GreedyScheduler",
            "rng.tid",
            "rng.arrivals",
        ):
            assert needle in outputs[0], f"missing {needle!r} in inspect output"

    def test_inspect_json(self, tmp_path, capsys):
        sim = _build("greedy", None, tmp_path)
        sim.run_until(12)
        path = save_checkpoint(sim, os.path.join(str(tmp_path), "j.bin"))
        assert main(["checkpoint", "inspect", path, "--json"]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header == inspect_checkpoint(path)


class TestJsonlDurability:
    def test_torn_final_line_tolerated(self, tmp_path):
        """A reader of a killed run's JSONL sees every complete record and
        silently drops the torn tail (satellite of the SIGTERM fsync path)."""
        path = os.path.join(str(tmp_path), "events.jsonl")
        from repro.obs.jsonl import JsonlProbe

        g = grid([3, 3])
        sched, speed = make_scheduler("greedy", g)
        wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.4, horizon=15, seed=3)
        sim = Simulator(
            g, sched, wl,
            config=SimConfig(object_speed_den=speed, probe=JsonlProbe(path)),
        )
        sim.run()
        sim.config.probe.close()
        whole = list(iter_events(path))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 7])  # tear mid-final-record
        torn = list(iter_events(path))
        assert torn == whole[: len(torn)]
        assert len(whole) - len(torn) == 1


@pytest.mark.slow
class TestKillAndResumeProcess:
    """True SIGTERM kill of a CLI subprocess, then --resume: the trace
    artifact matches the uninterrupted run byte-for-byte."""

    def _env(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def _cli(self, *extra):
        return [
            sys.executable, "-m", "repro.cli", "run",
            "--topology", "grid:4x4", "--workload", "bernoulli",
            "--objects", "8", "--k", "2", "--rate", "0.3",
            "--horizon", "50", "--seed", "7",
            "--faults", "seed=3,drop=0.05,join=1,leave=1",
            "--json", *extra,
        ]

    def _resume_matches(self, env, ck, got, ref):
        resumed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run",
             "--resume", ck, "--trace", got, "--json"],
            env=env, capture_output=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert open(ref, "rb").read() == open(got, "rb").read()

    def test_sigterm_before_run_loop_checkpoints(self, tmp_path):
        # The signal lands while the workload is still being built, before
        # the engine exists: the run ends at its first step boundary with
        # a checkpoint and exit 3 instead of dying with the signal.
        env = self._env()
        ref = os.path.join(str(tmp_path), "ref.json")
        subprocess.run(
            self._cli("--trace", ref), env=env, check=True,
            capture_output=True, timeout=120,
        )
        ck = os.path.join(str(tmp_path), "ck.bin")
        got = os.path.join(str(tmp_path), "got.json")
        script = (
            "import os, signal, sys\n"
            "import repro.cli as cli\n"
            "build = cli.make_workload\n"
            "def make_workload(args, graph):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return build(args, graph)\n"
            "cli.make_workload = make_workload\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = self._cli("--trace", got, "--checkpoint", ck)[3:]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr.decode()
        assert b"--resume" in proc.stderr
        self._resume_matches(env, ck, got, ref)

    def test_sigterm_then_resume_byte_identical(self, tmp_path):
        env = self._env()
        ref = os.path.join(str(tmp_path), "ref.json")
        subprocess.run(
            self._cli("--trace", ref), env=env, check=True,
            capture_output=True, timeout=120,
        )
        ck = os.path.join(str(tmp_path), "ck.bin")
        got = os.path.join(str(tmp_path), "got.json")
        proc = subprocess.Popen(
            self._cli("--trace", got, "--checkpoint", ck,
                      "--checkpoint-every", "5"),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # Signal once the run is demonstrably under way: the first
        # periodic checkpoint exists (written atomically, so existence
        # means complete).
        deadline = time.monotonic() + 60
        while (not os.path.exists(ck) and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
        if proc.returncode == 0:
            pytest.skip("run finished before the signal landed")
        assert proc.returncode == 3, err.decode()
        assert b"--resume" in err
        assert os.path.exists(ck)
        self._resume_matches(env, ck, got, ref)
