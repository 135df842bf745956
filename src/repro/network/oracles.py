"""Implicit distance oracles for structured topologies.

Every topology the paper analyzes (clique, line, grid, cluster, star —
Section I) has closed-form shortest-path distances, yet the kernel used to
answer each query from cached Dijkstra rows: O(m log n) per touched source
and, for all-sources questions like :meth:`Graph.diameter`, a full O(n^2)
materialization.  That caps the simulator near 10^2 nodes; the follow-on
application domains (fog-cloud hierarchies, blockchain sharding — see
ROADMAP) only make sense at 10^4-10^6.

A :class:`DistanceOracle` answers ``distance``/``eccentricity``/
``diameter`` in O(1) (O(log n) for trees) from the topology's parameters,
without touching the adjacency structure.  The topology constructors in
:mod:`repro.network.topologies` attach the matching oracle, and
:class:`repro.network.graph.Graph` dispatches to it when present, falling
back to cached Dijkstra for arbitrary graphs.

**Exactness contract**: an oracle must return *bit-identical* values to
the Dijkstra fallback — golden traces are pinned byte-for-byte, so "close
enough" floats are not enough.  Integer edge weights make ``k * w`` equal
any summation order exactly; constructors therefore only attach an oracle
when their weights are ints (the common case; float-weighted variants
silently keep the Dijkstra path).  ``tests/test_oracles.py`` sweeps every
oracle against the fallback pairwise.

Cut-aware queries (:meth:`Graph.distance_avoiding`) never consult the
oracle: a partition invalidates the closed form, so they keep the explicit
cut-aware Dijkstra path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._types import NodeId, Weight


def _is_exact_weight(*weights: Weight) -> bool:
    """True when every weight is an int (bools excluded for clarity).

    Integer arithmetic guarantees ``k * w == w + w + ... + w`` exactly, so
    oracle answers are bit-identical to the Dijkstra fallback.  Float
    weights could differ in the last ulp depending on summation order —
    those graphs keep the explicit path.
    """
    return all(isinstance(w, int) and not isinstance(w, bool) for w in weights)


class DistanceOracle:
    """Closed-form distance geometry of one structured topology.

    Subclasses implement :meth:`distance` (and usually override
    :meth:`eccentricity` / :meth:`diameter` with closed forms).  ``kind``
    is a short human-readable tag surfaced by ``repro topo info``.

    The base-class ``row`` builds one source row by n ``distance`` calls;
    subclasses may override with a vectorized fill when profitable.
    """

    kind = "oracle"

    def __init__(self, num_nodes: int) -> None:
        self.n = int(num_nodes)

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        raise NotImplementedError

    def eccentricity(self, u: NodeId) -> Weight:
        # Generic O(n) fallback; every bundled oracle overrides it.
        return max(self.distance(u, v) for v in range(self.n))

    def diameter(self) -> Weight:
        # Generic O(n^2); every bundled oracle overrides it.
        return max(self.eccentricity(u) for u in range(self.n))

    def row(self, src: NodeId) -> List[Weight]:
        """Distances from ``src`` to every node (a fresh list)."""
        d = self.distance
        return [d(src, v) for v in range(self.n)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class OracleRow:
    """Lazy one-source distance row: ``row[v] == distance(src, v)``.

    A drop-in stand-in for the list returned by
    :meth:`Graph.distances_from` at hot sites that hoist a row but only
    probe a few entries — each probe is one O(1) closed-form query and no
    O(n) list is ever built.
    """

    __slots__ = ("_oracle", "_src")

    def __init__(self, oracle: DistanceOracle, src: NodeId) -> None:
        self._oracle = oracle
        self._src = src

    def __getitem__(self, v: NodeId) -> Weight:
        return self._oracle.distance(self._src, v)


class CliqueOracle(DistanceOracle):
    """Complete graph: every distinct pair at distance ``w``."""

    kind = "clique"

    def __init__(self, num_nodes: int, weight: Weight) -> None:
        super().__init__(num_nodes)
        self.w = weight

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        return 0 if u == v else self.w

    def eccentricity(self, u: NodeId) -> Weight:
        return self.w if self.n > 1 else 0

    def diameter(self) -> Weight:
        return self.w if self.n > 1 else 0

    def row(self, src: NodeId) -> List[Weight]:
        out = [self.w] * self.n
        out[src] = 0
        return out


class LineOracle(DistanceOracle):
    """Path graph ``0-1-...-(n-1)``."""

    kind = "line"

    def __init__(self, num_nodes: int, weight: Weight) -> None:
        super().__init__(num_nodes)
        self.w = weight

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        return abs(u - v) * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        return max(u, self.n - 1 - u) * self.w

    def diameter(self) -> Weight:
        return (self.n - 1) * self.w

    def row(self, src: NodeId) -> List[Weight]:
        w = self.w
        return [abs(src - v) * w for v in range(self.n)]


class RingOracle(DistanceOracle):
    """Cycle of ``n`` nodes: distance is the shorter arc."""

    kind = "ring"

    def __init__(self, num_nodes: int, weight: Weight) -> None:
        super().__init__(num_nodes)
        self.w = weight

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        k = abs(u - v)
        return min(k, self.n - k) * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        return (self.n // 2) * self.w

    def diameter(self) -> Weight:
        return (self.n // 2) * self.w


class GridOracle(DistanceOracle):
    """Mixed-radix (row-major) multi-dimensional grid: Manhattan metric."""

    kind = "grid"

    def __init__(self, dims: Sequence[int], weight: Weight) -> None:
        dims = tuple(int(d) for d in dims)
        n = 1
        strides = []
        for d in reversed(dims):
            strides.append(n)
            n *= d
        super().__init__(n)
        self.dims = dims
        #: stride per axis, aligned with ``dims`` (last axis stride 1)
        self.strides: Tuple[int, ...] = tuple(reversed(strides))
        self.w = weight

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        total = 0
        for d, s in zip(self.dims, self.strides):
            total += abs((u // s) % d - (v // s) % d)
        return total * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        total = 0
        for d, s in zip(self.dims, self.strides):
            c = (u // s) % d
            total += max(c, d - 1 - c)
        return total * self.w

    def diameter(self) -> Weight:
        return sum(d - 1 for d in self.dims) * self.w


class TorusOracle(GridOracle):
    """Grid with wraparound: per-axis distance is the shorter direction."""

    kind = "torus"

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        total = 0
        for d, s in zip(self.dims, self.strides):
            k = abs((u // s) % d - (v // s) % d)
            total += min(k, d - k)
        return total * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        return sum(d // 2 for d in self.dims) * self.w

    def diameter(self) -> Weight:
        return sum(d // 2 for d in self.dims) * self.w


class HypercubeOracle(DistanceOracle):
    """``dim``-dimensional hypercube: Hamming distance."""

    kind = "hypercube"

    def __init__(self, dim: int, weight: Weight) -> None:
        super().__init__(1 << dim)
        self.dim = dim
        self.w = weight

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        # bin().count keeps 3.9 compatibility (int.bit_count is 3.10+).
        return bin(u ^ v).count("1") * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        return self.dim * self.w

    def diameter(self) -> Weight:
        return self.dim * self.w


class ClusterOracle(DistanceOracle):
    """Cluster graph (paper Section IV-D): ``alpha`` cliques of ``beta``
    nodes, unit intra-clique edges, bridge-to-bridge edges of weight
    ``gamma >= beta``.

    Node ``u`` lives in clique ``u // beta``; the clique's bridge is its
    node 0 (id ``(u // beta) * beta``).  Inter-clique routes always go
    bridge-to-bridge directly (``gamma`` beats any ``2*gamma`` detour),
    so ``d(u, v) = [u != bridge] + gamma + [v != bridge]``.
    """

    kind = "cluster"

    def __init__(self, alpha: int, beta: int, gamma: Weight) -> None:
        super().__init__(alpha * beta)
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        if u == v:
            return 0
        beta = self.beta
        cu, cv = u // beta, v // beta
        if cu == cv:
            return 1
        hop_u = 0 if u == cu * beta else 1
        hop_v = 0 if v == cv * beta else 1
        return hop_u + self.gamma + hop_v

    def eccentricity(self, u: NodeId) -> Weight:
        if self.alpha == 1:
            return 1 if self.beta > 1 else 0
        hop_u = 0 if u % self.beta == 0 else 1
        far = 1 if self.beta > 1 else 0  # non-bridge member of another clique
        return hop_u + self.gamma + far

    def diameter(self) -> Weight:
        if self.alpha == 1:
            return 1 if self.beta > 1 else 0
        extra = 2 if self.beta > 1 else 0
        return self.gamma + extra


class StarOracle(DistanceOracle):
    """Star of ``alpha`` rays of ``beta`` path nodes from a center.

    Node 0 is the center; node ``u > 0`` sits on ray ``(u-1) // beta`` at
    depth ``(u-1) % beta + 1``.  Same-ray pairs follow the path; pairs on
    different rays route through the center.
    """

    kind = "star"

    def __init__(self, alpha: int, beta: int, weight: Weight) -> None:
        super().__init__(1 + alpha * beta)
        self.alpha = alpha
        self.beta = beta
        self.w = weight

    def _depth_ray(self, u: NodeId) -> Tuple[int, int]:
        if u == 0:
            return 0, -1
        return (u - 1) % self.beta + 1, (u - 1) // self.beta

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        du, ru = self._depth_ray(u)
        dv, rv = self._depth_ray(v)
        if ru == rv:
            return abs(du - dv) * self.w
        return (du + dv) * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        du, _ = self._depth_ray(u)
        if self.alpha == 1:
            return max(du, self.beta - du) * self.w
        return (du + self.beta) * self.w

    def diameter(self) -> Weight:
        if self.alpha == 1:
            return self.beta * self.w
        return 2 * self.beta * self.w


class TreeOracle(DistanceOracle):
    """Complete ``b``-ary tree in heap layout: distance via the LCA.

    ``parent(u) = (u - 1) // b``; node depths and the lowest common
    ancestor are found by walking up — O(depth) = O(log n) per query.
    """

    kind = "tree"

    def __init__(self, branching: int, depth: int, weight: Weight) -> None:
        n = sum(branching**i for i in range(depth + 1))
        super().__init__(n)
        self.b = branching
        self.depth = depth
        self.w = weight

    def node_depth(self, u: NodeId) -> int:
        """Depth of ``u`` (root = 0)."""
        if self.b == 1:
            return u
        d = 0
        while u:
            u = (u - 1) // self.b
            d += 1
        return d

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        if u == v:
            return 0
        b = self.b
        du, dv = self.node_depth(u), self.node_depth(v)
        steps = 0
        while du > dv:
            u = (u - 1) // b
            du -= 1
            steps += 1
        while dv > du:
            v = (v - 1) // b
            dv -= 1
            steps += 1
        while u != v:
            u = (u - 1) // b
            v = (v - 1) // b
            steps += 2
        return steps * self.w

    def eccentricity(self, u: NodeId) -> Weight:
        du = self.node_depth(u)
        if self.b == 1:
            return max(du, self.depth - du) * self.w
        if self.depth == 0:
            return 0
        # Farthest node: up to the root, down a deepest leaf of another
        # root subtree (b >= 2 guarantees one exists).
        return (du + self.depth) * self.w

    def diameter(self) -> Weight:
        if self.b == 1 or self.depth == 0:
            return self.depth * self.w
        return 2 * self.depth * self.w


def estimate_matrix_bytes(n: int) -> int:
    """Rough bytes to materialize a full n x n distance cache.

    One CPython list row of n small-int references is ~8 bytes per slot
    plus ~56 bytes of list header; ``repro topo info`` reports this so the
    cost of the Dijkstra fallback at a given scale is visible before a
    run is launched.
    """
    return n * (8 * n + 56)
