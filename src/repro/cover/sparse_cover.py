"""Hierarchical sparse cover (paper Section V, after [14]/[28]).

``H1 = floor(log2 D) + 2`` layers; at layer ``l`` every node needs a *home
cluster* containing its ``(2**l - 1)``-neighborhood.  A layer consists of
``H2 = O(log n)`` *sub-layers*, each a partition of ``G`` into clusters of
weak diameter ``O(2**l log n)``; a node's home cluster at layer ``l`` is
one (the first) sub-layer cluster that pads it.  Each cluster designates a
*leader* node which will host partial buckets for Algorithm 3.

Construction: repeated randomized padded decompositions
(:func:`repro.cover.decomposition.padded_decomposition`).  Nodes still
unpadded after the random rounds get *forced* sub-layers (their pad-ball
carved out verbatim) — this keeps the construction total without breaking
the partition property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._types import NodeId, Weight
from repro.errors import CoverError
from repro.network.graph import Graph
from repro.cover.decomposition import greedy_ball_partition, padded_decomposition


@dataclass(frozen=True)
class Cluster:
    """One cluster of the hierarchy.

    ``height`` is the paper's lexicographic pair ``(layer, sublayer)``
    used to order partial buckets in the distributed analysis (Lemma 8).
    """

    layer: int
    sublayer: int
    index: int
    nodes: FrozenSet[NodeId]
    leader: NodeId

    @property
    def height(self) -> Tuple[int, int]:
        return (self.layer, self.sublayer)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.nodes


class SparseCover:
    """The assembled hierarchy with home-cluster lookup."""

    def __init__(
        self,
        graph: Graph,
        layers: List[List[List[Cluster]]],
        home: Dict[Tuple[int, NodeId], Cluster],
    ) -> None:
        self.graph = graph
        self.layers = layers
        self._home = home

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def max_sublayers(self) -> int:
        """The paper's ``H2``."""
        return max(len(subs) for subs in self.layers)

    def pad_of_layer(self, layer: int) -> int:
        """The padding radius ``2**layer - 1`` of ``layer``."""
        return (1 << layer) - 1

    def home_cluster(self, node: NodeId, layer: int) -> Cluster:
        """The home cluster of ``node`` at ``layer`` (contains its
        ``(2**layer - 1)``-neighborhood)."""
        return self._home[(layer, node)]

    def lowest_layer_covering(self, node: NodeId, radius: Weight) -> int:
        """Algorithm 3 line 5: smallest layer whose home cluster of
        ``node`` contains the ``radius``-neighborhood."""
        for layer in range(self.num_layers):
            if self.pad_of_layer(layer) >= radius:
                return layer
        return self.num_layers - 1

    # ------------------------------------------------------------------
    def verify(self) -> List[str]:
        """Check the sparse-cover properties; returns human-readable
        problems (empty = all good).  Exercised by tests and bench E12."""
        problems: List[str] = []
        nodes = set(self.graph.nodes())
        for layer, subs in enumerate(self.layers):
            pad = self.pad_of_layer(layer)
            for si, part in enumerate(subs):
                seen: Set[NodeId] = set()
                for c in part:
                    if c.leader not in c.nodes:
                        problems.append(f"L{layer}/S{si}: leader {c.leader} outside cluster")
                    overlap = seen & c.nodes
                    if overlap:
                        problems.append(f"L{layer}/S{si}: overlap {sorted(overlap)[:4]}")
                    seen |= c.nodes
                if seen != nodes:
                    problems.append(f"L{layer}/S{si}: not a partition (missing {len(nodes - seen)})")
            for v in nodes:
                home = self._home.get((layer, v))
                if home is None:
                    problems.append(f"L{layer}: node {v} has no home cluster")
                    continue
                ball = set(self.graph.ball(v, pad))
                if not ball <= home.nodes:
                    problems.append(f"L{layer}: node {v} pad-ball escapes its home cluster")
        return problems

    def cluster_diameter(self, cluster: Cluster) -> Weight:
        """Weak diameter (distances measured in ``G``)."""
        members = sorted(cluster.nodes)
        best: Weight = 0
        for u in members:
            d = self.graph.distances_from(u)
            best = max(best, max(d[v] for v in members))
        return best


def _leader_of(graph: Graph, nodes: Set[NodeId]) -> NodeId:
    """Member minimising its eccentricity within the cluster (weak)."""
    members = sorted(nodes)
    if len(members) == 1:
        return members[0]
    best, best_ecc = members[0], math.inf
    for u in members:
        d = graph.distances_from(u)
        ecc = max(d[v] for v in members)
        if ecc < best_ecc:
            best, best_ecc = u, ecc
    return best


def build_sparse_cover(
    graph: Graph,
    seed: Optional[int] = None,
    *,
    max_random_sublayers: Optional[int] = None,
    max_forced_sublayers: int = 64,
    construction: str = "mpx",
) -> SparseCover:
    """Build the full hierarchy for ``graph``.

    Layer 0 (pad 0) is the singleton partition.  Any layer whose pad
    reaches the diameter is the single all-nodes cluster.  Intermediate
    layers repeat padded decompositions with carving radius
    ``2**l * ceil(log2(n+1))`` until every node is padded, then force
    sub-layers for stragglers.

    ``construction``: ``"mpx"`` (exponential shifts, weak diameter) or
    ``"greedy"`` (ball carving, strong diameter); both satisfy the
    properties Algorithm 3 consumes (bench E12b compares their quality).
    """
    if construction not in ("mpx", "greedy"):
        raise CoverError(f"unknown cover construction {construction!r}")
    decompose = padded_decomposition if construction == "mpx" else greedy_ball_partition
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    diameter = max(1, graph.diameter())
    h1 = int(math.floor(math.log2(diameter))) + 2
    logn = max(1, math.ceil(math.log2(n + 1)))
    if max_random_sublayers is None:
        max_random_sublayers = 4 * logn

    layers: List[List[List[Cluster]]] = []
    home: Dict[Tuple[int, NodeId], Cluster] = {}

    for layer in range(h1):
        pad = (1 << layer) - 1
        sublayers: List[List[Cluster]] = []
        if pad == 0:
            part = [
                Cluster(layer, 0, i, frozenset({v}), v) for i, v in enumerate(graph.nodes())
            ]
            sublayers.append(part)
            for c in part:
                home[(layer, c.leader)] = c
        elif pad >= diameter:
            whole = Cluster(layer, 0, 0, frozenset(graph.nodes()), _leader_of(graph, set(graph.nodes())))
            sublayers.append([whole])
            for v in graph.nodes():
                home[(layer, v)] = whole
        else:
            radius = (1 << layer) * logn
            unpadded: Set[NodeId] = set(graph.nodes())
            for si in range(max_random_sublayers):
                raw, padded, _ = decompose(graph, radius, pad, rng)
                part = [
                    Cluster(layer, si, i, frozenset(cl), _leader_of(graph, cl))
                    for i, cl in enumerate(raw)
                ]
                sublayers.append(part)
                for c in part:
                    for v in padded & c.nodes:
                        if (layer, v) not in home:
                            home[(layer, v)] = c
                unpadded -= padded
                if not unpadded:
                    break
            forced_rounds = 0
            while unpadded:
                forced_rounds += 1
                if forced_rounds > max_forced_sublayers:
                    raise CoverError(
                        f"layer {layer}: {len(unpadded)} nodes unpadded after "
                        f"{max_random_sublayers} random + {max_forced_sublayers} forced sub-layers"
                    )
                si = len(sublayers)
                taken: Set[NodeId] = set()
                carved: List[Set[NodeId]] = []
                newly_padded: List[NodeId] = []
                for v in sorted(unpadded):
                    ball = set(graph.ball(v, pad))
                    if ball & taken:
                        continue
                    carved.append(ball)
                    taken |= ball
                    newly_padded.append(v)
                rest = set(graph.nodes()) - taken
                part_sets = carved + [{v} for v in sorted(rest)]
                part = [
                    Cluster(layer, si, i, frozenset(cl), _leader_of(graph, cl))
                    for i, cl in enumerate(part_sets)
                ]
                sublayers.append(part)
                for v in newly_padded:
                    for c in part:
                        if v in c.nodes:
                            home[(layer, v)] = c
                            break
                unpadded -= set(newly_padded)
        layers.append(sublayers)
    return SparseCover(graph, layers, home)
