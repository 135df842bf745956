"""Weighted communication graph ``G = (V, E, w)`` (paper Section II).

The graph is immutable after construction.  Shortest-path distances are the
only geometry the schedulers consume, so :class:`Graph` centralises a lazily
cached single-source Dijkstra; repeated queries (the hot path of every
scheduler) are dictionary lookups.  Following the HPC guides, we avoid
recomputing anything inside scheduler loops: one Dijkstra per touched source,
ever.

Structured topologies go further: their constructors attach a
:class:`repro.network.oracles.DistanceOracle` with closed-form O(1)
distances, and :meth:`Graph.distance` / :meth:`distances_from` /
:meth:`diameter` / :meth:`eccentricity` / :meth:`ball` dispatch to it —
no Dijkstra row is ever built, which is what lets the kernel run at
10^4-10^6 nodes.  Oracle answers are bit-identical to the fallback (see
the exactness contract in :mod:`repro.network.oracles`), so traces do not
change.  Cut-aware queries (partition windows) always take the explicit
path: a cut invalidates any closed form.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro._types import NodeId, Weight
from repro.errors import GraphError

_Edge = Tuple[NodeId, NodeId, Weight]

#: A normalized edge cut: frozenset of ``(u, v)`` pairs with ``u < v``.
Cut = frozenset


def normalize_cut(edges: Iterable[Tuple[NodeId, NodeId]]) -> Cut:
    """Canonical form of an edge set: ``frozenset`` of ``(min, max)`` pairs.

    Used as the cache key for cut-aware shortest paths and as the stored
    form of :class:`repro.faults.PartitionWindow` cuts, so two spellings
    of the same cut share one Dijkstra cache entry.
    """
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


class Graph:
    """An undirected, connected, positively weighted graph.

    Parameters
    ----------
    num_nodes:
        Nodes are ``0 .. num_nodes-1``.
    edges:
        Iterable of ``(u, v, w)`` triples with ``w > 0``.  Parallel edges
        keep the minimum weight; self-loops are rejected.
    name:
        Optional human-readable label (topology constructors set this).
    oracle:
        Optional :class:`repro.network.oracles.DistanceOracle` answering
        distance queries in closed form (attached by the structured
        topology constructors; ``None`` for arbitrary graphs).
    """

    #: Max cached cut-aware Dijkstra results (per ``(cut, src)`` pair).
    #: Plain ``_dist`` rows stay unbounded — there are at most ``n`` of
    #: them — but a long chaos sweep can touch thousands of distinct
    #: cuts, so ``_cut_sssp`` evicts least-recently-used entries past
    #: this cap.  Eviction only discards cached work; distances are
    #: recomputed identically on the next query.
    CUT_CACHE_MAX = 256

    #: Max cached oracle-built distance rows.  Unlike Dijkstra rows
    #: (expensive to rebuild, hence unbounded) an oracle row is O(n)
    #: arithmetic, so the cache is purely a hot-loop convenience and can
    #: be evicted freely — at n = 10^5 an unbounded row cache would
    #: quietly re-materialize the O(n^2) matrix the oracle exists to
    #: avoid.
    ORACLE_ROW_CACHE_MAX = 64

    def __init__(
        self, num_nodes: int, edges: Iterable[_Edge], name: str = "", oracle=None
    ) -> None:
        if num_nodes <= 0:
            raise GraphError(f"graph needs at least one node, got {num_nodes}")
        self._n = int(num_nodes)
        self.name = name or f"graph(n={num_nodes})"
        self._adj: List[Dict[NodeId, Weight]] = [dict() for _ in range(self._n)]
        for u, v, w in edges:
            self._check_node(u)
            self._check_node(v)
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if w <= 0:
                raise GraphError(f"edge ({u},{v}) has non-positive weight {w}")
            old = self._adj[u].get(v)
            if old is None or w < old:
                self._adj[u][v] = w
                self._adj[v][u] = w
        #: closed-form distance oracle (None = Dijkstra fallback)
        self.oracle = oracle
        # Lazy caches.
        self._dist: Dict[NodeId, List[Weight]] = {}
        self._pred: Dict[NodeId, List[Optional[NodeId]]] = {}
        self._oracle_rows: "OrderedDict[NodeId, List[Weight]]" = OrderedDict()
        self._cut_sssp: "OrderedDict[Tuple[Cut, NodeId], Tuple[List[Weight], List[Optional[NodeId]]]]" = OrderedDict()
        self._diameter: Optional[Weight] = None
        if self._n > 1 and all(not a for a in self._adj):
            raise GraphError("graph with more than one node has no edges")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    def __len__(self) -> int:
        return self._n

    def nodes(self) -> range:
        """All node ids, ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[_Edge]:
        """Each undirected edge once, as ``(u, v, w)`` with ``u < v``."""
        for u in range(self._n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(a) for a in self._adj) // 2

    def neighbors(self, u: NodeId) -> Dict[NodeId, Weight]:
        """Adjacency map ``{v: w(u,v)}`` of ``u`` (do not mutate)."""
        self._check_node(u)
        return self._adj[u]

    # ------------------------------------------------------------------
    # elastic membership (repro.faults joins)
    # ------------------------------------------------------------------
    def add_node(self, edges: Iterable[Tuple[NodeId, Weight]]) -> NodeId:
        """Attach one new node with anchor ``(node, weight)`` edges; returns
        the new node's id (always the next dense id ``n``).

        This is the single sanctioned mutation of an otherwise immutable
        graph, used by elastic membership joins.  All distance caches are
        flushed and any closed-form oracle is detached — a mutated
        structured topology no longer matches its closed forms, so queries
        fall back to (re-)cached Dijkstra.  Callers enforce the no-shortcut
        condition (new edges never shorten existing pairwise distances) so
        previously returned distances stay valid even though the caches
        are rebuilt.
        """
        anchors = list(edges)
        if not anchors:
            raise GraphError("add_node needs at least one anchor edge")
        new = self._n
        for a, w in anchors:
            self._check_node(a)
            if w <= 0:
                raise GraphError(f"edge ({a},{new}) has non-positive weight {w}")
        self._n = new + 1
        self._adj.append({})
        for a, w in anchors:
            old = self._adj[new].get(a)
            if old is None or w < old:
                self._adj[new][a] = w
                self._adj[a][new] = w
        self.oracle = None
        self._dist.clear()
        self._pred.clear()
        self._oracle_rows.clear()
        self._cut_sssp.clear()
        self._diameter = None
        return new

    def copy(self, *, oracle: bool = True) -> "Graph":
        """Fresh :class:`Graph` with the same nodes/edges (caches empty).

        ``oracle=False`` drops the closed-form oracle so the copy can be
        mutated (membership validation dry-runs joins on such a scratch
        copy without touching the caller's graph).
        """
        return Graph(
            self._n,
            self.edges(),
            name=self.name,
            oracle=self.oracle if oracle else None,
        )

    def _check_node(self, u: NodeId) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} outside 0..{self._n - 1}")

    # ------------------------------------------------------------------
    # shortest paths
    # ------------------------------------------------------------------
    def _sssp(self, src: NodeId) -> List[Weight]:
        """Single-source Dijkstra with predecessor recording, cached."""
        cached = self._dist.get(src)
        if cached is not None:
            return cached
        inf = float("inf")
        dist: List[Weight] = [inf] * self._n
        pred: List[Optional[NodeId]] = [None] * self._n
        dist[src] = 0
        heap: List[Tuple[Weight, NodeId]] = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u].items():
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        if any(d == inf for d in dist):
            raise GraphError(f"graph {self.name!r} is disconnected (from node {src})")
        self._dist[src] = dist
        self._pred[src] = pred
        return dist

    def distance(self, u: NodeId, v: NodeId) -> Weight:
        """Shortest-path distance ``d_G(u, v)``."""
        # Hot path 1: closed-form oracle — O(1), no row ever built.
        orc = self.oracle
        if orc is not None:
            if 0 <= u < self._n and 0 <= v < self._n:
                return orc.distance(u, v)
            self._check_node(u)
            self._check_node(v)
        # Hot path 2: one dict probe when the source row is already cached.
        row = self._dist.get(u)
        if row is not None:
            if 0 <= v < self._n:
                return row[v]
            self._check_node(v)
        self._check_node(u)
        self._check_node(v)
        # Reuse whichever endpoint is already cached to keep the cache small.
        if v in self._dist:
            u, v = v, u
        return self._sssp(u)[v]

    def distances_from(self, src: NodeId) -> Sequence[Weight]:
        """Distances from ``src`` to every node (cached; do not mutate).

        With an oracle the row is filled by closed-form arithmetic (O(n),
        no heap) and cached in a small LRU — cheap to rebuild, and an
        unbounded cache would re-materialize the O(n^2) matrix at scale.
        Dijkstra rows (arbitrary graphs) stay unbounded as before: there
        are at most n of them and each is expensive to recompute.
        """
        self._check_node(src)
        orc = self.oracle
        if orc is not None:
            rows = self._oracle_rows
            row = rows.get(src)
            if row is None:
                row = orc.row(src)
                rows[src] = row
                while len(rows) > self.ORACLE_ROW_CACHE_MAX:
                    rows.popitem(last=False)
            else:
                rows.move_to_end(src)
            return row
        return self._sssp(src)

    def predecessors(self, src: NodeId) -> List[Optional[NodeId]]:
        """Shortest-path-tree predecessor array rooted at ``src``.

        Always runs (and caches) the explicit Dijkstra even when a
        distance oracle is attached: callers such as the Arrow directory
        need the tree *structure*, which the closed forms don't carry.
        Do not mutate the returned list.
        """
        self._check_node(src)
        if src not in self._pred:
            self._sssp(src)
        return self._pred[src]

    def shortest_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """One shortest path from ``u`` to ``v`` as a node list (inclusive)."""
        self._check_node(u)
        self._check_node(v)
        self._sssp(u)
        pred = self._pred[u]
        path = [v]
        while path[-1] != u:
            p = pred[path[-1]]
            assert p is not None
            path.append(p)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # cut-aware shortest paths (repro.faults partition windows)
    # ------------------------------------------------------------------
    def _sssp_avoiding(
        self, src: NodeId, cut: Cut
    ) -> Tuple[List[Weight], List[Optional[NodeId]]]:
        """Dijkstra from ``src`` ignoring the edges of ``cut``.

        Unlike :meth:`_sssp`, unreachable nodes keep distance ``inf``
        instead of raising — a partition *is* a temporary disconnection.
        Results are cached per ``(cut, src)`` with LRU eviction past
        :data:`CUT_CACHE_MAX`: during a partition window the same few
        cuts are queried every step, while a long chaos sweep cycling
        through thousands of distinct cuts must not grow without bound.
        """
        cached = self._cut_sssp.get((cut, src))
        if cached is not None:
            self._cut_sssp.move_to_end((cut, src))
            return cached
        inf = float("inf")
        dist: List[Weight] = [inf] * self._n
        pred: List[Optional[NodeId]] = [None] * self._n
        dist[src] = 0
        heap: List[Tuple[Weight, NodeId]] = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u].items():
                if ((u, v) if u < v else (v, u)) in cut:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        self._cut_sssp[(cut, src)] = (dist, pred)
        while len(self._cut_sssp) > self.CUT_CACHE_MAX:
            self._cut_sssp.popitem(last=False)
        return dist, pred

    def distance_avoiding(self, u: NodeId, v: NodeId, cut: Cut) -> Weight:
        """Shortest-path distance in ``G`` minus the edges of ``cut``.

        Returns ``float('inf')`` when the cut separates ``u`` from ``v``.
        ``cut`` must be normalized (see :func:`normalize_cut`); an empty
        cut falls back to the plain cached :meth:`distance`.
        """
        if not cut:
            return self.distance(u, v)
        self._check_node(u)
        self._check_node(v)
        return self._sssp_avoiding(u, cut)[0][v]

    def shortest_path_avoiding(
        self, u: NodeId, v: NodeId, cut: Cut
    ) -> Optional[List[NodeId]]:
        """One shortest ``u``-``v`` path avoiding ``cut``, or ``None``
        when the cut separates the endpoints."""
        if not cut:
            return self.shortest_path(u, v)
        self._check_node(u)
        self._check_node(v)
        dist, pred = self._sssp_avoiding(u, cut)
        if dist[v] == float("inf"):
            return None
        path = [v]
        while path[-1] != u:
            p = pred[path[-1]]
            assert p is not None
            path.append(p)
        path.reverse()
        return path

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when ``{u, v}`` is an edge of ``G``."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def eccentricity(self, u: NodeId) -> Weight:
        """Maximum distance from ``u`` to any node (closed form with an
        oracle; max over the cached Dijkstra row otherwise)."""
        if self.oracle is not None:
            self._check_node(u)
            return self.oracle.eccentricity(u)
        return max(self.distances_from(u))

    def diameter(self) -> Weight:
        """Graph diameter ``D`` (maximum pairwise shortest-path distance).

        O(1) with an oracle; the fallback materializes every Dijkstra row
        (O(n^2)) exactly as before — one reason arbitrary graphs stay
        small while structured topologies scale.
        """
        if self._diameter is None:
            if self.oracle is not None:
                self._diameter = self.oracle.diameter()
            else:
                self._diameter = max(self.eccentricity(u) for u in self.nodes())
        return self._diameter

    def ball(self, u: NodeId, radius: Weight) -> List[NodeId]:
        """Nodes within distance ``radius`` of ``u`` (the *r-neighborhood*)."""
        d = self.distances_from(u)
        return [v for v in self.nodes() if d[v] <= radius]

    #: Alias matching the paper's "r-neighborhood" vocabulary.
    neighborhood = ball

    # ------------------------------------------------------------------
    # derived metrics used by lower bounds
    # ------------------------------------------------------------------
    def metric_mst_weight(self, subset: Sequence[NodeId]) -> Weight:
        """Weight of the minimum spanning tree of ``subset`` in the metric
        induced by shortest-path distances.

        Any walk that visits all of ``subset`` has length at least this
        weight, which makes it a valid lower bound on the travel time of a
        single object that must reach every node of ``subset``
        (cf. DESIGN.md S12, the object-MST lower bound).
        Duplicates in ``subset`` are ignored.
        """
        pts = sorted(set(subset))
        for p in pts:
            self._check_node(p)
        if len(pts) <= 1:
            return 0
        # Prim's algorithm on the metric closure; O(s^2) distance lookups.
        in_tree = {pts[0]}
        best: Dict[NodeId, Weight] = {}
        d0 = self.distances_from(pts[0])
        for p in pts[1:]:
            best[p] = d0[p]
        total: Weight = 0
        while best:
            nxt = min(best, key=lambda p: best[p])
            total += best.pop(nxt)
            in_tree.add(nxt)
            dn = self.distances_from(nxt)
            for p in list(best):
                if dn[p] < best[p]:
                    best[p] = dn[p]
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph({self.name!r}, n={self._n}, m={self.num_edges()})"
