"""Search information over degenerate shortest paths.

The pair quantity is H(s->d) = -log2 of the probability that a
non-backtracking random walker follows one of the shortest paths from
s to d: each path contributes (1/k_s) * prod over interior nodes j of
1/(k_j - 1). The sum over all shortest paths is computed by dynamic
programming over the shortest-path DAG, never by path enumeration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import NetskelError, UnreachableError
from .graph import Graph, require_connected

UNREACHABLE = -1

# Below this probability the per-source DP switches to log-space
# accumulation; plain products would denormalize/underflow.
UNDERFLOW_THRESHOLD = 1e-300


@dataclass(frozen=True)
class ShortestPathDag:
    """BFS distances plus, per node, the neighbors one hop closer to source."""

    source: int
    dist: tuple[int, ...]
    predecessors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchInfoReport:
    """Whole-network search information in bits.

    average_bits uses the N^2 denominator (the s=d diagonal counts as 0).
    """

    node_count: int
    link_count: int
    per_source_bits: tuple[float, ...]
    total_bits: float
    average_bits: float
    pair_bits: Optional[tuple[tuple[float, ...], ...]] = None


def _bfs(g: Graph, source: int) -> tuple[list[int], list[list[int]], list[int]]:
    """BFS giving (dist, shortest-path predecessors, nodes in visit order)."""
    dist = [UNREACHABLE] * g.node_count
    preds: list[list[int]] = [[] for _ in range(g.node_count)]
    dist[source] = 0
    order = [source]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
                order.append(v)
            if dist[v] == du + 1:
                preds[v].append(u)
    return dist, preds, order


def shortest_path_dag(g: Graph, source: int) -> ShortestPathDag:
    """BFS from source; predecessor lists span exactly the shortest-path DAG."""
    if not (0 <= source < g.node_count):
        raise NetskelError(f"invalid source index {source}")
    dist, preds, _ = _bfs(g, source)
    return ShortestPathDag(
        source=source,
        dist=tuple(dist),
        predecessors=tuple(tuple(ps) for ps in preds),
    )


def _walk_log2_probabilities(
    g: Graph,
    source: int,
    dist: list[int],
    preds: list[list[int]],
    order: list[int],
) -> list[float]:
    """Log-space DP over the shortest-path DAG: returns log2 A(v)."""
    la = [-math.inf] * g.node_count
    la[source] = 0.0
    log2_ks = math.log2(g.degrees[source]) if g.degrees[source] > 0 else 0.0
    degrees = g.degrees
    for v in order[1:]:
        if dist[v] == 1:
            la[v] = -log2_ks
            continue
        terms = [la[u] - math.log2(degrees[u] - 1) for u in preds[v]]
        top = max(terms)
        la[v] = top + math.log2(math.fsum(2.0 ** (t - top) for t in terms))
    return la


def _source_log2_probabilities(
    g: Graph,
    source: int,
    dist: list[int],
    preds: list[list[int]],
    order: list[int],
) -> list[float]:
    """log2 A(v) for every node, using plain products unless they underflow.

    A(v) is the probability of reaching v from source along some shortest
    path: 1/k_s on the first hop, then 1/(k_u - 1) per interior hop origin.
    """
    a = [0.0] * g.node_count
    a[source] = 1.0
    inv_ks = 1.0 / g.degrees[source] if g.degrees[source] > 0 else 1.0
    degrees = g.degrees
    underflow = False
    for v in order[1:]:
        if dist[v] == 1:
            a[v] = inv_ks
            continue
        total = 0.0
        for u in preds[v]:
            total += a[u] / (degrees[u] - 1)
        if total < UNDERFLOW_THRESHOLD:
            underflow = True
            break
        a[v] = total
    if underflow:
        return _walk_log2_probabilities(g, source, dist, preds, order)
    la = [0.0] * g.node_count
    log2 = math.log2
    for v in order[1:]:
        la[v] = log2(a[v])
    return la


def pair_search_information(g: Graph, s: int, d: int) -> float:
    """Bits of routing information from s to d over all shortest paths."""
    if not (0 <= s < g.node_count):
        raise NetskelError(f"invalid source index {s}")
    if not (0 <= d < g.node_count):
        raise NetskelError(f"invalid destination index {d}")
    if s == d:
        return 0.0
    dist, preds, order = _bfs(g, s)
    if dist[d] == UNREACHABLE:
        raise UnreachableError(
            f"node {g.labels[d]!r} is unreachable from {g.labels[s]!r}"
        )
    la = _source_log2_probabilities(g, s, dist, preds, order)
    return -la[d]


def total_search_information(g: Graph, with_pairs: bool = False) -> SearchInfoReport:
    """Sum of H(s->d) over all ordered pairs of a connected graph."""
    require_connected(g)
    return _search_information(g, with_pairs)


def _search_information(g: Graph, with_pairs: bool = False) -> SearchInfoReport:
    """total_search_information on a graph known to be connected."""
    per_source: list[float] = []
    pair_rows: list[tuple[float, ...]] = []
    for s in range(g.node_count):
        dist, preds, order = _bfs(g, s)
        la = _source_log2_probabilities(g, s, dist, preds, order)
        per_source.append(-math.fsum(la))
        if with_pairs:
            pair_rows.append(tuple(-x if x != 0.0 else 0.0 for x in la))
    total = math.fsum(per_source)
    n = g.node_count
    return SearchInfoReport(
        node_count=n,
        link_count=g.link_count,
        per_source_bits=tuple(per_source),
        total_bits=total,
        average_bits=total / (n * n),
        pair_bits=tuple(pair_rows) if with_pairs else None,
    )


def _tree_total_bits(g: Graph) -> float:
    """Exact total search information of a tree in O(N); g must be a tree.

    Every pair of a tree has one path, so H = sum_s (N-1)*log2(k_s) +
    sum_j log2(k_j - 1) * ((N-1)^2 - sum_b n_b^2), where the n_b are the
    sizes of the branches at j: the second factor counts the ordered
    pairs whose path passes through j. Branch sizes come from one
    iterative subtree-size pass, so deep trees need no recursion.
    """
    n = g.node_count
    if n <= 2:
        return 0.0
    parent = [-1] * n
    order = [0]
    for u in order:
        for v in g.adjacency[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # sum of squared branch sizes at each node: the branch through its
    # parent, then one branch per child
    branch_sq = [(n - size[v]) ** 2 for v in range(n)]
    for v in order[1:]:
        branch_sq[parent[v]] += size[v] ** 2
    pairs = (n - 1) ** 2
    log2 = math.log2
    terms = []
    for v, k in enumerate(g.degrees):
        terms.append((n - 1) * log2(k))
        if k > 2:
            terms.append(log2(k - 1) * (pairs - branch_sq[v]))
    return math.fsum(terms)


def chain_search_information(n: int) -> float:
    """Closed-form total search information of a path of n nodes: (n-2)(n-1)."""
    if n < 1:
        raise NetskelError(f"chain needs at least 1 node, got {n}")
    if n <= 2:
        return 0.0
    return float((n - 2) * (n - 1))


def ring_min_simplified_H(n: int) -> tuple[float, tuple[int, int, int]]:
    """Minimal simplified search information of an n-ring and its chain split.

    The skeleton is always a triangle (6 bits); the three super-node chains
    are as even as possible, which minimizes 6 + sum (p-2)(p-1). Equals
    n^2/3 - 3n + 12 when n is divisible by 3.
    """
    if n < 3:
        raise NetskelError(f"ring needs at least 3 nodes, got {n}")
    base, extra = divmod(n, 3)
    parts = tuple(sorted((base + (1 if i < extra else 0) for i in range(3)), reverse=True))
    bits = 6.0 + sum(chain_search_information(p) for p in parts)
    return bits, parts  # type: ignore[return-value]
