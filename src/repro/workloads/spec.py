"""WorkloadSpec: a frozen, picklable description of a workload.

The experiment API grew up around *instances*: every runner took a
constructed workload object, so sweeps had to thread ``(kind, seed,
knobs)`` tuples through ad-hoc dicts (the chaos harness), argparse
namespaces (the CLI), and positional ctor calls (the benches).  A
:class:`WorkloadSpec` is the spec-first replacement: one frozen value —
``kind + seed + knobs`` — that any layer can hash, pickle, serialize, and
turn into a workload with :meth:`WorkloadSpec.build`::

    spec = WorkloadSpec.make("poisson-open", seed=3, lam=0.6, objects=12, k=2)
    wl = spec.build(graph)                    # a PoissonOpenWorkload
    run_experiment(g, sched, spec.with_seed(7))   # runners build it themselves

``run_experiment`` / ``run_stream`` / ``replicate`` / ``run_grid`` and
the chaos :class:`~repro.chaos.search.EpisodeSpec` all accept a
``WorkloadSpec`` wherever they accept a workload; because the spec is a
pure value, fan-out over :mod:`repro.parallel` needs no pickling of live
workload state and every worker rebuilds bit-identical arrivals from the
seed.

Unknown kinds and misspelled knobs raise :class:`~repro.errors.
WorkloadError` at construction — a typo fails loudly instead of running
the wrong experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import WorkloadError
from repro.network.graph import Graph

#: knobs every object-pool workload kind understands
_COMMON_KNOBS = frozenset({"objects", "k", "zipf", "read_fraction"})

#: kind -> (extra allowed knobs, open_system)
_KIND_KNOBS: Dict[str, Tuple[frozenset, bool]] = {
    "batch": (frozenset({"num_txns"}), False),
    "bernoulli": (frozenset({"rate", "horizon"}), False),
    "bursty": (
        frozenset({"horizon", "burst_rate", "idle_rate", "mean_burst", "mean_idle"}),
        False,
    ),
    "poisson-bulk": (frozenset({"lam", "horizon"}), False),
    "closed-loop": (frozenset({"rounds"}), False),
    "hotspot": (frozenset({"num_cold_objects", "k_cold"}), False),
    "chain": (frozenset({"length"}), False),
    "poisson-open": (frozenset({"lam"}), True),
    "onoff-open": (frozenset({"lam_on", "lam_off", "mean_on", "mean_off"}), True),
    "diurnal-open": (frozenset({"lam", "amplitude", "period"}), True),
    "adversarial-open": (frozenset({"rate", "burst", "hot_objects"}), True),
}

#: kinds whose knob set excludes the common object-pool knobs
_NO_POOL_KINDS = frozenset({"hotspot", "chain"})

#: pool kinds whose generator draws write-only transactions
_WRITE_ONLY_KINDS = frozenset({"poisson-bulk"})

#: service-mode knobs every *open* kind additionally understands
#: (:mod:`repro.workloads.streaming`): per-spec deadlines + priorities
_OPEN_KNOBS = frozenset({"deadline", "deadline_frac", "priority_classes"})


def _chooser(knobs: Mapping[str, Any]):
    zipf = float(knobs.get("zipf", 0.0))
    if zipf > 0.0:
        from repro.workloads.generators import ZipfChooser

        return ZipfChooser(int(knobs.get("objects", 8)), zipf)
    return None


def _pool_kwargs(knobs: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "chooser": _chooser(knobs),
        "read_fraction": float(knobs.get("read_fraction", 0.0)),
    }


def _open_kwargs(knobs: Mapping[str, Any]) -> Dict[str, Any]:
    """Pool kwargs + the service-mode knobs of the open kinds."""
    out = _pool_kwargs(knobs)
    if "deadline" in knobs:
        out["deadline"] = int(knobs["deadline"])
    if "deadline_frac" in knobs:
        out["deadline_frac"] = float(knobs["deadline_frac"])
    if "priority_classes" in knobs:
        out["priority_classes"] = int(knobs["priority_classes"])
    return out


def _build_batch(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.arrivals import BatchWorkload

    return BatchWorkload.uniform(
        graph,
        int(knobs.get("objects", 8)),
        int(knobs.get("k", 2)),
        seed=seed,
        num_txns=knobs.get("num_txns"),
        **_pool_kwargs(knobs),
    )


def _build_bernoulli(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.arrivals import OnlineWorkload

    return OnlineWorkload.bernoulli(
        graph,
        int(knobs.get("objects", 8)),
        int(knobs.get("k", 2)),
        rate=float(knobs.get("rate", 0.05)),
        horizon=int(knobs.get("horizon", 60)),
        seed=seed,
        **_pool_kwargs(knobs),
    )


def _build_bursty(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.arrivals import OnlineWorkload

    extra = {
        name: kind(knobs[name])
        for name, kind in (
            ("burst_rate", float), ("idle_rate", float),
            ("mean_burst", int), ("mean_idle", int),
        )
        if name in knobs
    }
    return OnlineWorkload.bursty(
        graph,
        int(knobs.get("objects", 8)),
        int(knobs.get("k", 2)),
        horizon=int(knobs.get("horizon", 60)),
        seed=seed,
        **extra,
        **_pool_kwargs(knobs),
    )


def _build_poisson_bulk(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.arrivals import OnlineWorkload

    return OnlineWorkload.poisson_bulk(
        graph,
        int(knobs.get("objects", 8)),
        int(knobs.get("k", 2)),
        lam=float(knobs.get("lam", 0.5)),
        horizon=int(knobs.get("horizon", 60)),
        seed=seed,
        chooser=_chooser(knobs),
    )


def _build_closed_loop(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.arrivals import ClosedLoopWorkload

    return ClosedLoopWorkload(
        graph,
        int(knobs.get("objects", 8)),
        int(knobs.get("k", 2)),
        rounds=int(knobs.get("rounds", 3)),
        seed=seed,
        **_pool_kwargs(knobs),
    )


def _build_hotspot(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.adversarial import hotspot_workload

    return hotspot_workload(
        graph,
        num_cold_objects=int(knobs.get("num_cold_objects", 0)),
        k_cold=int(knobs.get("k_cold", 0)),
        seed=seed,
    )


def _build_chain(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.adversarial import chain_workload

    return chain_workload(graph, length=knobs.get("length"))


def _build_poisson_open(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.streaming import PoissonOpenWorkload

    return PoissonOpenWorkload(
        graph,
        float(knobs.get("lam", 0.5)),
        num_objects=int(knobs.get("objects", 8)),
        k=int(knobs.get("k", 2)),
        seed=seed,
        **_open_kwargs(knobs),
    )


def _build_onoff_open(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.streaming import OnOffBurstyWorkload

    extra = {
        name: kind(knobs[name])
        for name, kind in (
            ("lam_on", float), ("lam_off", float),
            ("mean_on", int), ("mean_off", int),
        )
        if name in knobs
    }
    return OnOffBurstyWorkload(
        graph,
        num_objects=int(knobs.get("objects", 8)),
        k=int(knobs.get("k", 2)),
        seed=seed,
        **extra,
        **_open_kwargs(knobs),
    )


def _build_diurnal_open(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.streaming import DiurnalWorkload

    extra = {
        name: kind(knobs[name])
        for name, kind in (("amplitude", float), ("period", int))
        if name in knobs
    }
    return DiurnalWorkload(
        graph,
        float(knobs.get("lam", 0.5)),
        num_objects=int(knobs.get("objects", 8)),
        k=int(knobs.get("k", 2)),
        seed=seed,
        **extra,
        **_open_kwargs(knobs),
    )


def _build_adversarial_open(graph: Graph, seed: int, knobs: Mapping[str, Any]):
    from repro.workloads.streaming import AdversarialOpenWorkload

    extra = {
        name: kind(knobs[name])
        for name, kind in (("burst", int), ("hot_objects", int))
        if name in knobs
    }
    return AdversarialOpenWorkload(
        graph,
        float(knobs.get("rate", 0.5)),
        num_objects=int(knobs.get("objects", 8)),
        k=int(knobs.get("k", 2)),
        seed=seed,
        **extra,
        **_open_kwargs(knobs),
    )


_BUILDERS: Dict[str, Callable[[Graph, int, Mapping[str, Any]], Any]] = {
    "batch": _build_batch,
    "bernoulli": _build_bernoulli,
    "bursty": _build_bursty,
    "poisson-bulk": _build_poisson_bulk,
    "closed-loop": _build_closed_loop,
    "hotspot": _build_hotspot,
    "chain": _build_chain,
    "poisson-open": _build_poisson_open,
    "onoff-open": _build_onoff_open,
    "diurnal-open": _build_diurnal_open,
    "adversarial-open": _build_adversarial_open,
}

WORKLOAD_KINDS: Tuple[str, ...] = tuple(sorted(_BUILDERS))


def allowed_knobs(kind: str) -> frozenset:
    """The knob names ``kind`` accepts (for error messages and docs)."""
    extra, open_system = _KIND_KNOBS[kind]
    allowed = extra if kind in _NO_POOL_KINDS else _COMMON_KNOBS | extra
    if kind in _WRITE_ONLY_KINDS:
        allowed = allowed - {"read_fraction"}
    if open_system:
        allowed = allowed | _OPEN_KNOBS
    return allowed


@dataclass(frozen=True)
class WorkloadSpec:
    """``kind + seed + knobs`` — everything needed to build a workload.

    ``knobs`` is stored as a sorted tuple of ``(name, value)`` pairs so
    the spec is hashable and its dict/JSON form is canonical; construct
    via :meth:`make` (keyword knobs) rather than positionally.
    """

    kind: str
    seed: int = 0
    knobs: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise WorkloadError(
                f"unknown workload kind {self.kind!r} "
                f"(choose from {list(WORKLOAD_KINDS)})"
            )
        object.__setattr__(self, "knobs", tuple(sorted(dict(self.knobs).items())))
        allowed = allowed_knobs(self.kind)
        unknown = [name for name, _ in self.knobs if name not in allowed]
        if unknown:
            raise WorkloadError(
                f"workload kind {self.kind!r} does not accept knobs {unknown} "
                f"(allowed: {sorted(allowed)})"
            )

    @classmethod
    def make(cls, kind: str, seed: int = 0, **knobs: Any) -> "WorkloadSpec":
        """The ergonomic constructor: ``WorkloadSpec.make("poisson-open",
        seed=3, lam=0.6, objects=12)``."""
        return cls(kind=kind, seed=int(seed), knobs=tuple(knobs.items()))

    # -- accessors ------------------------------------------------------
    @property
    def open_system(self) -> bool:
        """True for streaming (unbounded-arrival) kinds."""
        return _KIND_KNOBS[self.kind][1]

    def knob(self, name: str, default: Any = None) -> Any:
        for key, value in self.knobs:
            if key == name:
                return value
        return default

    def with_seed(self, seed: int) -> "WorkloadSpec":
        """The same spec re-seeded — the unit of :func:`~repro.analysis.
        aggregate.replicate` fan-out."""
        return replace(self, seed=int(seed))

    def with_knobs(self, **knobs: Any) -> "WorkloadSpec":
        """A copy with ``knobs`` merged over the existing ones (the
        frontier uses this to move λ between bisection probes)."""
        merged = dict(self.knobs)
        merged.update(knobs)
        return replace(self, knobs=tuple(merged.items()))

    # -- the point of the class ----------------------------------------
    def build(self, graph: Graph):
        """Construct the described workload on ``graph``.

        The built workload carries its spec (``wl.spec``) when the class
        allows the attribute, so a checkpointed run can report what it
        was running after a restore.
        """
        wl = _BUILDERS[self.kind](graph, self.seed, dict(self.knobs))
        try:
            wl.spec = self
        except AttributeError:
            pass  # slotted workload class: resumed runs just omit the spec
        return wl

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "seed": self.seed, "knobs": dict(self.knobs)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(
            kind=data["kind"],
            seed=int(data.get("seed", 0)),
            knobs=tuple(dict(data.get("knobs", {})).items()),
        )
