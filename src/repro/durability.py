"""Checkpoint/restore for long simulations (schema ``repro.checkpoint/2``).

A checkpoint is one file with two parts:

* a single JSON **header line** — schema version, step/now, live txn and
  object counts, RNG cursor digests — readable without unpickling, so
  ``repro checkpoint inspect`` and sweep resumption can triage snapshots
  cheaply (and safely: no code runs);
* a pickle **payload** of the full :class:`~repro.sim.engine.Simulator`
  — event-spine buckets, txn table, dependency edges, transport
  in-flight legs, fault injector cursors, probe state, and the trace
  prefix.

Restoring (:func:`load_checkpoint` / ``Simulator.restore``) yields an
engine that continues the run and produces a trace **byte-identical** to
the uninterrupted one: all fault randomness is stateless string-keyed
RNG (:mod:`repro.faults`), open-system arrival streams are rebuilt from
their seed and fast-forwarded by the consumed-spec count, and the
engine's pickle hooks capture every mutable cursor.

Checkpoints are written atomically (temp file + ``os.replace`` + fsync),
so a crash *during* checkpointing never corrupts the previous snapshot.
Periodic writes are driven by ``SimConfig.checkpoint_every``; SIGTERM/
SIGINT during a run with ``checkpoint_path`` set triggers a final write
plus probe fsync before the run raises
:class:`~repro.errors.RunInterrupted`.  The handler
(:func:`catch_interrupts`) only records the signal in :data:`interrupted`;
the run loop acts on it at the next step boundary.  The CLI installs it
as soon as its arguments are parsed, so a signal that lands while the
workload is still being built is honoured too.

Serializing the payload is O(run history) — late in a long run one
snapshot costs hundreds of milliseconds — so periodic writes can also
run **asynchronously** (:func:`save_checkpoint_async`, selected by
``SimConfig(checkpoint_sync=False)``): the engine forks at the step
boundary and a detached child serializes the copy-on-write image while
the parent simulates on.  The child sees the exact step-boundary state,
so the snapshot bytes are identical to a synchronous write; the parent
pays only the fork (``benchmarks/bench_checkpoint.py`` guards the
overhead at < 5%).  Where ``os.fork`` is unavailable the async path
falls back to the synchronous writer.

Long searches (the chaos sweep, the stability frontier) resume from an
append-only JSONL log of finished work instead of a snapshot:
:func:`read_resume_log` reads one back.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "save_checkpoint_async",
    "reap_async_writers",
    "load_checkpoint",
    "inspect_checkpoint",
    "resolve_checkpoint_path",
    "close_probes",
    "read_resume_log",
    "catch_interrupts",
    "restore_handlers",
]

#: signal number caught by the :func:`catch_interrupts` handler and not
#: yet turned into a checkpoint by a run loop (None: nothing pending).
#: Module-level because signal handlers are per process.
interrupted: Optional[int] = None


def _on_signal(signum, frame) -> None:
    global interrupted
    interrupted = signum


def catch_interrupts() -> List[Tuple[int, Any]]:
    """Route SIGTERM/SIGINT to :data:`interrupted`; returns the previous
    handlers for :func:`restore_handlers`.  Off the main thread signals
    cannot be caught and the run goes unguarded (empty list)."""
    import signal

    previous = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((sig, signal.signal(sig, _on_signal)))
        except ValueError:
            break
    return previous


def restore_handlers(previous: List[Tuple[int, Any]]) -> None:
    """Undo :func:`catch_interrupts`; a signal no run loop consumed is
    dropped with the guard."""
    global interrupted
    import signal

    for sig, handler in previous:
        signal.signal(sig, handler)
    interrupted = None


#: bumped whenever the pickled engine layout changes, so a checkpoint
#: from an older build fails at the header instead of inside unpickling
CHECKPOINT_SCHEMA = "repro.checkpoint/2"


def _digest(*parts: Any) -> str:
    """Short stable digest of a tuple of state cursors (hex, 12 chars)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]


def _rng_cursors(sim) -> Dict[str, str]:
    """Digests of every RNG-adjacent cursor the run's determinism rests on.

    The fault layer's randomness is stateless (string-keyed
    ``random.Random`` per decision), so its "cursor" is the plan seed
    plus the injector's mutable bookkeeping; the arrival stream's cursor
    is the consumed-spec count; the tid and spec-sequence counters are
    the engine's own monotone cursors.  Matching digests between two
    snapshots mean the runs are at identical decision points.
    """
    cursors = {
        "tid": _digest(sim._tid_counter),
        "spec-seq": _digest(sim.events._spec_seq),
        "arrivals": _digest(sim._arrival_pulled, sim._arrival_buffered),
    }
    inj = sim.faults
    if inj is not None:
        cursors["faults"] = _digest(
            inj.plan.seed,
            sorted(inj.reschedule_counts.items()),
            sorted(inj.lost.items()),
        )
    return cursors


def resolve_checkpoint_path(path: str, step: int) -> str:
    """Expand a ``{step}`` placeholder (keep-every-snapshot mode)."""
    return path.format(step=step) if "{step}" in path else path


def save_checkpoint(sim, path: str) -> str:
    """Write ``sim`` to ``path`` atomically; returns the resolved path."""
    resolved = resolve_checkpoint_path(path, sim._active_steps)
    payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "step": sim._active_steps,
        "now": sim.now,
        "graph": sim.graph.name,
        "nodes": sim.graph.num_nodes,
        "scheduler": type(sim.scheduler).__name__,
        "live_txns": len(sim.live),
        "txns_total": len(sim.txns),
        "committed": len(sim.trace.txns),
        "objects": len(sim.objects),
        "events_pending": len(sim.events),
        "messages_in_flight": sim.router.pending,
        "rng_cursors": _rng_cursors(sim),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    tmp = resolved + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, resolved)
    return resolved


#: pids of in-flight forked checkpoint writers, reaped opportunistically
_ASYNC_WRITERS: list = []


def reap_async_writers(block: bool = False) -> None:
    """Collect finished forked checkpoint writers (no zombies linger).

    Called automatically before every :func:`save_checkpoint_async`;
    ``block=True`` waits for every outstanding writer — useful in tests
    that want all snapshot files on disk before asserting on them.
    """
    for pid in _ASYNC_WRITERS[:]:
        try:
            done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            done = pid  # already collected elsewhere
        if done:
            _ASYNC_WRITERS.remove(pid)


def save_checkpoint_async(sim, path: str) -> str:
    """Write ``sim`` to ``path`` from a forked child; returns the resolved
    path the write will land at.

    The fork happens at the caller's step boundary, so the child's
    copy-on-write image — and therefore the snapshot bytes — are
    identical to what :func:`save_checkpoint` would produce, but the
    parent pays only the fork and simulates on while the niced child
    serializes.  The parent never blocks on the writer: finished writers
    are reaped on the next call (:func:`reap_async_writers`).  The child
    still writes atomically, so a reader never observes a partial file;
    it may just observe the *previous* snapshot until the new one lands.
    Prefer a ``{step}`` path template with this mode: concurrent writers
    then target distinct files, so a slow older writer can never replace
    a newer fixed-path snapshot.  Falls back to the synchronous writer
    where ``os.fork`` does not exist.
    """
    if not hasattr(os, "fork"):
        return save_checkpoint(sim, path)
    resolved = resolve_checkpoint_path(path, sim._active_steps)
    reap_async_writers()
    pid = os.fork()
    if pid:
        _ASYNC_WRITERS.append(pid)
        return resolved
    # Child: serialize + atomic write, then hard-exit so inherited file
    # buffers (probes, logs) are never double-flushed.
    try:
        try:
            os.nice(10)  # the writer must not starve the simulating parent
        except OSError:
            pass
        save_checkpoint(sim, resolved)
    finally:
        os._exit(0)


def _read_header(fh: io.BufferedReader, path: str) -> dict:
    line = fh.readline()
    try:
        header = json.loads(line)
    except ValueError:
        raise CheckpointError(f"{path}: not a repro checkpoint (bad header)") from None
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unknown checkpoint schema {schema!r} "
            f"(this build reads {CHECKPOINT_SCHEMA!r})"
        )
    return header


def inspect_checkpoint(path: str) -> dict:
    """Parse a checkpoint's header only — no unpickling, no code runs."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path: str):
    """Rebuild the :class:`Simulator` stored at ``path``.

    The payload hash recorded in the header is verified before
    unpickling, so a torn write (e.g. copied mid-checkpoint) fails with a
    clear error instead of an arbitrary pickle exception.  A payload that
    names a class or module this build does not have (written by another
    build under the same schema) fails the same way.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    if len(payload) != header["payload_bytes"] or (
        hashlib.sha256(payload).hexdigest() != header["payload_sha256"]
    ):
        raise CheckpointError(
            f"{path}: payload corrupt ({len(payload)} bytes, expected "
            f"{header['payload_bytes']}) — was the file truncated?"
        )
    try:
        return pickle.loads(payload)
    except (ModuleNotFoundError, AttributeError, pickle.UnpicklingError) as exc:
        raise CheckpointError(
            f"{path}: cannot restore checkpoint (schema {header['schema']!r}, "
            f"step {header.get('step')}): {exc} — it was written by a build "
            "with a different engine layout"
        ) from exc


def close_probes(probe) -> None:
    """Flush-and-close every file-owning probe in ``probe`` (fsync path).

    Walks a :class:`~repro.obs.probe.MultiProbe` composite; used by the
    engine's signal exit so a killed run leaves durable JSONL prefixes,
    and by the CLI after a run.
    """
    if probe is None:
        return
    for p in getattr(probe, "probes", (probe,)):
        close = getattr(p, "close", None)
        if close is not None:
            close()


def read_resume_log(path: str) -> List[dict]:
    """The records of an append-only JSONL resume log, in file order.

    A missing file is an empty log.  A torn line (the writer was killed
    mid-append) is skipped, so the work it recorded simply runs again.
    """
    records = []
    try:
        fh = open(path)
    except FileNotFoundError:
        return records
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn final line from an interrupted run
    return records
