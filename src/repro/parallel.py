"""Deterministic process-pool fan-out (``pmap``) for seeded experiments.

Every fan-out point in the repo — multi-seed :func:`~repro.analysis.aggregate.replicate`,
chaos sweeps, CLI ``compare`` — is a loop over *pure, seeded, picklable
specs*.  This module gives them one primitive:

``pmap(fn, specs, jobs=N)``
    Run ``fn(spec)`` for every spec on a pool of ``N`` worker processes
    and return ``[fn(s) for s in specs]`` — **identical** to the serial
    list regardless of worker count or completion order.  Results are
    merged by spec index, never by arrival.

Design notes
------------
* ``jobs=1`` (the default everywhere) is a plain serial loop: no pool,
  no pickling, no new failure modes when parallelism is off.
* The worker function travels to the pool via the process initializer
  arguments.  Under the ``fork`` start method (Linux default) it is
  inherited by memory copy, so closures and lambdas work; under
  ``spawn`` the function itself must be picklable (module-level).
  Specs always cross the call queue and must be picklable either way.
* Work is submitted as index-ordered chunks with a bounded in-flight
  window (``2 * jobs`` chunks), so a million specs never materialize a
  million futures.
* Failure semantics mirror serial execution: the *lowest-index* failing
  spec's exception is raised.  If the original exception survives a
  pickle round-trip faithfully (same type, same message) it is re-raised
  unchanged, chained to a :class:`~repro.errors.ParallelError` carrying
  the spec index and remote traceback; otherwise a ``ParallelError``
  with the remote type name, message, and traceback is raised instead.
* ``KeyboardInterrupt`` (in a worker or the parent) cancels outstanding
  work, shuts the pool down, and re-raises.  A worker that dies outright
  (``os._exit``, OOM kill) surfaces as a context-rich ``ParallelError``.

Per-worker warm caches: pass ``initializer=...`` — it runs once per
worker process (e.g. pre-building a topology's Dijkstra rows) instead of
once per task.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ParallelError

__all__ = ["WorkerPool", "pmap", "resolve_jobs"]


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``0`` means ``os.cpu_count()``.

    Negative values are rejected; ``None`` is treated as 1 (serial).
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0 (0 = cpu count), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# Worker-side plumbing.  The function (and user initializer) arrive via the
# pool initializer so they are fork-inherited rather than pickled per task.

_WORKER_FN: Optional[Callable[[Any], Any]] = None


def _worker_init(fn, initializer, initargs) -> None:
    global _WORKER_FN
    _WORKER_FN = fn
    if initializer is not None:
        initializer(*initargs)


def _pickles_faithfully(exc: BaseException) -> bool:
    """True when ``exc`` survives a pickle round-trip with type and message
    intact.  Exceptions with custom ``__init__`` signatures (e.g.
    ``InfeasibleScheduleError``) can unpickle into a corrupted object; those
    are transported as text instead of re-raised."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
    except Exception:
        return False
    return type(clone) is type(exc) and str(clone) == str(exc)


def _run_chunk(start: int, specs: Sequence[Any]) -> Tuple[int, List[Any], Optional[tuple]]:
    """Execute one chunk in a worker.

    Returns ``(start, results, failure)`` where ``failure`` is ``None`` on
    success or a transportable description of the first failing spec:
    ``("exc", exc, index, tb)`` when the exception pickles faithfully,
    ``("info", type_name, message, index, tb)`` otherwise, and
    ``("kbd", index)`` for a KeyboardInterrupt.
    """
    results: List[Any] = []
    for offset, spec in enumerate(specs):
        index = start + offset
        try:
            results.append(_WORKER_FN(spec))
        except KeyboardInterrupt:
            return start, results, ("kbd", index)
        except BaseException as exc:  # transported, re-raised in the parent
            tb = traceback.format_exc()
            if _pickles_faithfully(exc):
                return start, results, ("exc", exc, index, tb)
            return start, results, ("info", type(exc).__name__, str(exc), index, tb)
    return start, results, None


# ---------------------------------------------------------------------------
# Parent-side pool.


class WorkerPool:
    """A process pool bound to one function, with deterministic ``map``.

    Parameters
    ----------
    fn:
        The per-spec function.  Fork-inherited by workers (see module
        docstring for spawn caveats).
    jobs:
        Worker count after :func:`resolve_jobs`; ``1`` runs serially in
        the calling process.
    initializer / initargs:
        Optional per-worker warm-up (build graph/Dijkstra caches once per
        worker, not per task).  Under ``jobs=1`` it runs once, lazily, in
        the calling process so cache behaviour matches.
    chunk:
        Specs per task.  Default balances scheduling overhead against
        load balance: ``ceil(n / (4 * jobs))`` clamped to [1, 32].

    Usable as a context manager; the pool is created lazily on first
    ``map`` and shut down on ``close()``/``__exit__``.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        jobs: int = 1,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
        chunk: Optional[int] = None,
    ) -> None:
        self.fn = fn
        self.jobs = resolve_jobs(jobs)
        self.initializer = initializer
        self.initargs = initargs
        self.chunk = chunk
        self._executor: Optional[ProcessPoolExecutor] = None
        self._warmed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(self.fn, self.initializer, self.initargs),
            )
        return self._executor

    # -- mapping -----------------------------------------------------------

    def map(self, specs: Iterable[Any]) -> List[Any]:
        """``[fn(s) for s in specs]``, deterministically."""
        specs = list(specs)
        if not specs:
            return []
        if self.jobs == 1:
            if not self._warmed:
                if self.initializer is not None:
                    self.initializer(*self.initargs)
                self._warmed = True
            return [self.fn(s) for s in specs]
        return self._map_parallel(specs)

    def _chunk_size(self, n: int) -> int:
        if self.chunk is not None:
            return max(1, int(self.chunk))
        return max(1, min(32, math.ceil(n / (4 * self.jobs))))

    def _map_parallel(self, specs: List[Any]) -> List[Any]:
        n = len(specs)
        size = self._chunk_size(n)
        chunks = [(i, specs[i:i + size]) for i in range(0, n, size)]
        executor = self._ensure_executor()

        slots: List[Any] = [None] * n
        failure: Optional[tuple] = None  # lowest-index failure seen so far
        next_chunk = 0
        pending = set()
        window = 2 * self.jobs

        def _note_failure(fail: tuple) -> None:
            nonlocal failure
            idx = fail[2] if fail[0] in ("exc", "info") else fail[1]
            cur = None if failure is None else (
                failure[2] if failure[0] in ("exc", "info") else failure[1])
            if cur is None or idx < cur:
                failure = fail

        try:
            while pending or (next_chunk < len(chunks) and failure is None):
                while next_chunk < len(chunks) and len(pending) < window and failure is None:
                    start, chunk = chunks[next_chunk]
                    pending.add(executor.submit(_run_chunk, start, chunk))
                    next_chunk += 1
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    start, results, fail = fut.result()
                    for offset, value in enumerate(results):
                        slots[start + offset] = value
                    if fail is not None:
                        _note_failure(fail)
        except KeyboardInterrupt:
            executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            raise
        except BrokenProcessPool as exc:
            self._executor = None
            raise ParallelError(
                f"worker process died while mapping {n} spec(s) with jobs={self.jobs} "
                f"(fn={getattr(self.fn, '__name__', self.fn)!r}); a worker likely "
                "crashed hard (os._exit, OOM kill, segfault) before returning a result"
            ) from exc

        if failure is not None:
            self._raise_failure(failure, n)
        return slots

    def _raise_failure(self, failure: tuple, n: int) -> None:
        kind = failure[0]
        if kind == "kbd":
            self.close()
            raise KeyboardInterrupt
        if kind == "exc":
            _, exc, index, tb = failure
            context = ParallelError(
                f"spec {index} of {n} failed in a worker (jobs={self.jobs}); "
                f"remote traceback:\n{tb}",
                index=index,
                cause_type=type(exc).__name__,
                remote_traceback=tb,
            )
            raise exc from context
        _, type_name, message, index, tb = failure
        raise ParallelError(
            f"spec {index} of {n} failed in a worker (jobs={self.jobs}) with "
            f"{type_name}: {message}\nremote traceback:\n{tb}",
            index=index,
            cause_type=type_name,
            remote_traceback=tb,
        )


def pmap(
    fn: Callable[[Any], Any],
    specs: Iterable[Any],
    *,
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    chunk: Optional[int] = None,
) -> List[Any]:
    """One-shot deterministic parallel map (see :class:`WorkerPool`)."""
    with WorkerPool(fn, jobs=jobs, initializer=initializer,
                    initargs=initargs, chunk=chunk) as pool:
        return pool.map(specs)
