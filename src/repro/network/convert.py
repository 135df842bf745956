"""Interop with networkx: import arbitrary graphs, export for analysis.

Downstream users often already have their datacenter/NoC topology as a
``networkx`` graph; :func:`from_networkx` adopts it (relabelling nodes to
``0..n-1``), and :func:`to_networkx` exports ours so the whole networkx
toolbox (centrality, drawing, generators) applies to scheduling studies.
networkx is imported inside the two functions, so ``import repro`` does
not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Tuple

from repro._types import NodeId
from repro.errors import GraphError
from repro.network.graph import Graph

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def from_networkx(
    nxg: "nx.Graph",
    *,
    weight_attr: str = "weight",
    default_weight: int = 1,
    name: str = "",
) -> Tuple[Graph, Dict[Hashable, NodeId]]:
    """Convert an undirected networkx graph.

    Returns ``(graph, mapping)`` where ``mapping`` takes original node
    labels to our integer ids (sorted-label order for determinism).
    Edge weights default to ``default_weight`` when the attribute is
    missing; non-positive weights are rejected by :class:`Graph`.
    """
    if nxg.is_directed():
        raise GraphError("from_networkx expects an undirected graph")
    if nxg.number_of_nodes() == 0:
        raise GraphError("empty graph")
    labels = sorted(nxg.nodes(), key=str)
    mapping: Dict[Hashable, NodeId] = {lbl: i for i, lbl in enumerate(labels)}
    edges = [
        (mapping[u], mapping[v], data.get(weight_attr, default_weight))
        for u, v, data in nxg.edges(data=True)
    ]
    g = Graph(len(labels), edges, name=name or f"networkx(n={len(labels)})")
    return g, mapping


def to_networkx(graph: Graph) -> "nx.Graph":
    """Export to a networkx graph with ``weight`` edge attributes."""
    import networkx as nx

    nxg = nx.Graph(name=graph.name)
    nxg.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    return nxg
