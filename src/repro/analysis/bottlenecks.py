"""Structural bottleneck prediction vs measured congestion.

Which edges will hurt under bounded link capacity?  Weighted edge
betweenness centrality (computed via networkx on the exported graph)
predicts it from structure alone; :func:`measured_edge_load` counts the
traversals a trace actually put on each edge (hop-motion traces give the
exact edge sequence).  Bench E20's topologies are validated by the
rank correlation between the two (`predicted_vs_measured`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro._types import NodeId
from repro.network.convert import to_networkx
from repro.network.graph import Graph
from repro.sim.trace import ExecutionTrace

EdgeKey = Tuple[NodeId, NodeId]


def _key(u: NodeId, v: NodeId) -> EdgeKey:
    return (u, v) if u < v else (v, u)


def edge_betweenness(graph: Graph) -> Dict[EdgeKey, float]:
    """Weighted edge betweenness centrality of every edge."""
    import networkx as nx

    nxg = to_networkx(graph)
    raw = nx.edge_betweenness_centrality(nxg, weight="weight")
    return {_key(u, v): c for (u, v), c in raw.items()}


def measured_edge_load(graph: Graph, trace: ExecutionTrace) -> Dict[EdgeKey, int]:
    """Traversal counts per edge from a trace.

    Hop-motion traces contribute their exact edges; leg-motion traces are
    expanded along one shortest path per leg (the path the engine would
    have taken).
    """
    load: Dict[EdgeKey, int] = {_key(u, v): 0 for u, v, _ in graph.edges()}
    for leg in trace.legs:
        if leg.dst in graph.neighbors(leg.src):
            load[_key(leg.src, leg.dst)] += 1
        else:
            path = graph.shortest_path(leg.src, leg.dst)
            for a, b in zip(path, path[1:]):
                load[_key(a, b)] += 1
    return load


def predicted_vs_measured(
    graph: Graph, trace: ExecutionTrace
) -> Tuple[float, List[Tuple[EdgeKey, float, int]]]:
    """Spearman rank correlation between betweenness and measured load,
    with the per-edge table (sorted by measured load, heaviest first)."""
    predicted = edge_betweenness(graph)
    measured = measured_edge_load(graph, trace)
    keys = sorted(measured)
    if len(keys) < 2:
        return 1.0, [(k, predicted.get(k, 0.0), measured[k]) for k in keys]
    p = [predicted.get(k, 0.0) for k in keys]
    m = [float(measured[k]) for k in keys]
    rho = _spearman(p, m)
    table = sorted(
        ((k, predicted.get(k, 0.0), measured[k]) for k in keys),
        key=lambda row: -row[2],
    )
    return rho, table


def _rank(values: List[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _spearman(a: List[float], b: List[float]) -> float:
    ra, rb = _rank(a), _rank(b)
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra) ** 0.5
    vb = sum((y - mb) ** 2 for y in rb) ** 0.5
    if va == 0 or vb == 0:
        return 0.0
    return cov / (va * vb)
