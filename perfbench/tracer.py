"""Spans around the public functions of each layer, recorded from outside.

:func:`install` replaces each traced function or method with a wrapper
that records one span — name, start, end, parent span — per call.  The
wrappers are installed from here, by attribute assignment on the modules
and classes of the ``repro`` package; nothing inside ``src/`` is edited.
A function that other modules imported by name (``from m import f``) is
replaced in every loaded ``repro`` module that holds it.

Span times are CPU seconds of the process (``time.process_time``), the
clock the sample's host figures use, so a layer's share of the job is a
share of one clock.

Spans stay in memory (flat arrays, a few bytes each) until the run ends;
:meth:`Tracer.write` then dumps them as tab-separated lines.  A layer's
self time is the length of its spans minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

from repro.obs import CountersProbe, MultiProbe
from repro.obs.probe import Probe

#: span name -> layer (the repo module it belongs to)
LAYER_OF = {
    "import": "import",
    "network.build": "network",
    "network.distances_from": "network",
    "network.oracle_row": "network",
    "workloads.build": "workloads",
    "workloads.arrivals": "workloads",
    "cover.build_sparse_cover": "cover",
    "engine.init": "sim.engine",
    "engine.run": "sim.engine",
    "sched.entry": "core",
    "coloring.min_valid_color": "core.coloring",
    "deps.constraints_for": "core.dependency",
    "offline.plan": "offline",
    "service.offer": "service",
    "service.admit": "service",
    "validate.certify_trace": "sim.validate",
    "analysis.summarize": "analysis",
    "analysis.competitive_ratio": "analysis",
    "analysis.live_set_lower_bound": "analysis",
    "analysis.slo_summary": "analysis",
}


class Tracer:
    """In-memory span recorder.  One per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: per span name: calls currently on the stack (outermost test)
        self._active: List[int] = []
        #: sizes summed over outermost calls, e.g. txns handed to plan()
        self.sizes: Dict[str, int] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        size: Optional[Callable] = None,
        out_size: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with one span per call.  Over outermost calls,
        ``size(*args, **kwargs)`` is summed into ``sizes[name]`` and
        ``out_size(result)`` into ``sizes[name + ".out"]``."""
        out_key = name + ".out"
        nid = self._intern(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, active, sizes = self._stack, self._active, self.sizes
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if size is not None and not active[nid]:
                sizes[name] = sizes.get(name, 0) + size(*args, **kwargs)
            stack.append(sid)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if out_size is not None and active[nid] == 1:
                    sizes[out_key] = sizes.get(out_key, 0) + out_size(result)
                return result
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                active[nid] -= 1
                stack.pop()

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (used for the import)."""
        self.name_ids.append(self._intern(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(start)
        self.ends.append(end)

    # -- folding -------------------------------------------------------
    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost ``calls`` and ``total_s`` (nested
        calls of the same name are not counted twice) and ``self_s``."""
        n = len(self.starts)
        child = [0.0] * n
        parents, starts, ends, name_ids = self.parents, self.starts, self.ends, self.name_ids
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[name_ids[i]]]
            dur = ends[i] - starts[i]
            row["self_s"] += dur - child[i]
            # outermost: no ancestor carries the same name
            nid, p = name_ids[i], parents[i]
            while p >= 0 and name_ids[p] != nid:
                p = parents[p]
            if p < 0:
                row["calls"] += 1
                row["total_s"] += dur
        return out

    def write(self, path: str) -> None:
        """Dump every span as ``name<TAB>start<TAB>end<TAB>parent``."""
        names, name_ids = self.names, self.name_ids
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{names[name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )


def layer_self_seconds(folded: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self time per layer (:data:`LAYER_OF`) from :meth:`Tracer.fold`."""
    out: Dict[str, float] = {}
    for name, row in folded.items():
        layer = LAYER_OF.get(name, name)
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


class StepTimer(Probe):
    """CPU time of every active engine step."""

    def __init__(self) -> None:
        self.seconds = array("d")
        self._t0 = 0.0

    def on_step_begin(self, t) -> None:
        self._t0 = time.process_time()

    def on_step_end(self, t) -> None:
        self.seconds.append(time.process_time() - self._t0)


def make_probes():
    """``(probe for SimConfig, counters, step timer)``."""
    counters, steps = CountersProbe(), StepTimer()
    return MultiProbe(counters, steps), counters, steps


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every loaded ``repro`` module attribute that is ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, **sizes) -> None:
    if attr in vars(cls):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], **sizes))


def _all_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class _TracedIter:
    """An iterator whose every ``next`` is one span."""

    def __init__(self, step: Callable) -> None:
        self._next = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (call after importing
    ``repro.cli``, which loads every module involved)."""
    import repro.cli as cli
    from repro.analysis import lower_bounds, metrics, ratios, slo
    from repro.core import coloring
    from repro.core.base import OnlineScheduler
    from repro.core.dependency import DependencyTracker
    from repro.cover import sparse_cover
    from repro.network.graph import Graph
    from repro.network.oracles import DistanceOracle
    from repro.offline.base import BatchScheduler
    from repro.service.frontend import ServiceFrontEnd
    from repro.sim import validate
    from repro.sim.engine import Simulator
    from repro.workloads.spec import WorkloadSpec
    from repro.workloads.streaming import OpenWorkload

    for mod, attr, name, sizes in (
        (cli, "parse_topology", "network.build", {}),
        (cli, "make_workload", "workloads.build", {}),
        (sparse_cover, "build_sparse_cover", "cover.build_sparse_cover", {}),
        (coloring, "min_valid_color", "coloring.min_valid_color", {}),
        (validate, "certify_trace", "validate.certify_trace", {}),
        (metrics, "summarize", "analysis.summarize", {}),
        (ratios, "competitive_ratio", "analysis.competitive_ratio",
         {"out_size": lambda result: len(result[1])}),
        (lower_bounds, "live_set_lower_bound", "analysis.live_set_lower_bound", {}),
        (slo, "slo_summary", "analysis.slo_summary", {}),
    ):
        original = getattr(mod, attr)
        _replace_everywhere(original, tracer.wrap(name, original, **sizes))

    _wrap_method(tracer, WorkloadSpec, "build", "workloads.build")
    _wrap_method(tracer, Graph, "distances_from", "network.distances_from")
    # a row actually built: a closed-form oracle row on a row-cache miss
    for cls in _all_subclasses(DistanceOracle):
        _wrap_method(tracer, cls, "row", "network.oracle_row")
    _wrap_method(tracer, Simulator, "__init__", "engine.init")
    _wrap_method(tracer, Simulator, "run", "engine.run")
    _wrap_method(
        tracer, DependencyTracker, "constraints_for", "deps.constraints_for", out_size=len
    )
    _wrap_method(tracer, ServiceFrontEnd, "offer", "service.offer")
    _wrap_method(tracer, ServiceFrontEnd, "admit", "service.admit")
    for cls in _all_subclasses(OnlineScheduler):
        _wrap_method(tracer, cls, "on_deltas", "sched.entry")
        _wrap_method(tracer, cls, "on_step", "sched.entry")
    for cls in _all_subclasses(BatchScheduler):
        _wrap_method(
            tracer, cls, "plan", "offline.plan",
            size=lambda self, view, txns, **kw: len(txns),
        )

    for cls in _all_subclasses(OpenWorkload):
        if "arrival_stream" in vars(cls):
            original = vars(cls)["arrival_stream"]

            def arrival_stream(self, _original=original):
                it = iter(_original(self))
                return _TracedIter(tracer.wrap("workloads.arrivals", it.__next__))

            setattr(cls, "arrival_stream", arrival_stream)
