"""Independent brute-force oracle: explicit shortest-path enumeration.

Deliberately shares nothing with the DAG dynamic program it checks:
its own BFS, then a DFS over all shortest paths summing per-path
walker probabilities. ``reference_tree_contract`` is the original
copy-on-merge contraction, kept as the slow reference for the
small-to-large one in the library. ``reference_rewire_degree_preserving``
is the original rewiring, which checks connectivity with a full DFS
after every swap, kept as the reference for the library's early-exit
check. ``reference_source_log2_probabilities`` is the two-pass
search-information kernel (a BFS that records predecessor lists, then a
DP over them) that the library's fused single-pass kernel replaced; the
fused rows must equal it bit for bit, and the library's one-pass
log-space redo must equal its ``_walk_log2_probabilities``. Its ``_bfs``
is the only predecessor-list BFS in the repository.
``reference_tree_total_bits`` is the one-tree O(N) total that super-node H
was computed with, one standalone ``supernode_tree`` graph per super-node
(``reference_supernode_bits``), before the library scored every super-node
in one pass over the forest of internal links; the two must agree bit for bit.
``quotient_graph`` builds the quotient of a membership by rescanning every
link, as the library's skeletons were built before they were read from the
merge pass; the skeletons must equal it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Sequence

from netskel.contraction import SimplifiedNetwork
from netskel.errors import ValidationError
from netskel.graph import Graph, Link

UNREACHABLE = -1
UNDERFLOW_THRESHOLD = 1e-300


def brute_force_pair_bits(g: Graph, s: int, d: int) -> float:
    if s == d:
        return 0.0
    dist = [-1] * g.node_count
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if dist[d] < 0:
        raise ValueError(f"{d} unreachable from {s}")

    total = 0.0

    def dfs(u: int, prob: float) -> None:
        nonlocal total
        if u == d:
            total += prob
            return
        for v in g.adjacency[u]:
            if dist[v] == dist[u] + 1:
                step = 1.0 / g.degrees[s] if u == s else 1.0 / (g.degrees[u] - 1)
                dfs(v, prob * step)

    dfs(s, 1.0)
    return -math.log2(total)


def brute_force_total_bits(g: Graph) -> float:
    return math.fsum(
        brute_force_pair_bits(g, s, d)
        for s in range(g.node_count)
        for d in range(g.node_count)
        if s != d
    )


def reference_tree_contract(
    g: Graph, order: list[Link]
) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], tuple[Link, ...]]], list[Link]]:
    """Contraction that copies the merged neighbor set and the internal link
    lists on every merge (quadratic on hubs). Returns membership, each
    super-node's (members, sorted internal links) and the skeleton links."""
    parent = list(range(g.node_count))
    size = [1] * g.node_count

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neigh = {u: set(g.adjacency[u]) for u in range(g.node_count)}
    internal: dict[int, list[Link]] = {u: [] for u in range(g.node_count)}
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        nu, nv = neigh[ru], neigh[rv]
        small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
        if any(w in large for w in small if w != ru and w != rv):
            continue
        if size[ru] < size[rv]:
            ru, rv = rv, ru
            nu, nv = nv, nu
        parent[rv] = ru
        size[ru] += size[rv]
        merged = (nu | nv) - {ru, rv}
        for w in merged:
            neigh[w].discard(ru)
            neigh[w].discard(rv)
            neigh[w].add(ru)
        neigh[ru] = merged
        del neigh[rv]
        internal[ru] = internal[ru] + internal[rv] + [(u, v)]
        del internal[rv]

    min_member: dict[int, int] = {}
    for node in range(g.node_count):
        min_member.setdefault(find(node), node)
    roots = sorted(neigh, key=lambda r: min_member[r])
    root_index = {r: i for i, r in enumerate(roots)}
    membership = tuple(root_index[find(u)] for u in range(g.node_count))
    members: list[list[int]] = [[] for _ in roots]
    for node, grp in enumerate(membership):
        members[grp].append(node)
    supernodes = [
        (tuple(members[i]), tuple(sorted(internal[r]))) for i, r in enumerate(roots)
    ]
    skeleton = {
        (min(membership[u], membership[v]), max(membership[u], membership[v]))
        for u, v in g.links
        if membership[u] != membership[v]
    }
    return membership, supernodes, sorted(skeleton)


def reference_rewire_degree_preserving(g: Graph, swap_attempts: int, seed: int) -> Graph:
    """Double-edge swaps with a full DFS over all N nodes after each one.
    Draws the same random numbers as the library, so a given seed must
    give the same links."""
    if g.link_count < 2:
        return g
    rng = random.Random(seed)
    edges = list(g.links)
    adj: list[set[int]] = [set(ns) for ns in g.adjacency]

    def connected() -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.node_count

    for _ in range(swap_attempts):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if a == c or b == d or c in adj[a] or d in adj[b]:
            continue
        adj[a].remove(b), adj[b].remove(a)
        adj[c].remove(d), adj[d].remove(c)
        adj[a].add(c), adj[c].add(a)
        adj[b].add(d), adj[d].add(b)
        if connected():
            edges[i] = (a, c) if a < c else (c, a)
            edges[j] = (b, d) if b < d else (d, b)
        else:
            adj[a].remove(c), adj[c].remove(a)
            adj[b].remove(d), adj[d].remove(b)
            adj[a].add(b), adj[b].add(a)
            adj[c].add(d), adj[d].add(c)
    return Graph.from_links(g.node_count, edges, g.labels)


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


def reference_source_log2_probabilities(g: Graph, source: int) -> list[float]:
    """log2 A(v) for every node of a connected graph, by BFS then DP."""
    return _source_log2_probabilities(g, source, *_bfs(g, source))


def reference_tree_total_bits(g: Graph) -> float:
    """Exact total search information of a tree in O(N); g must be a tree.

    Every pair of a tree has one path, so H = sum_s (N-1)*log2(k_s) +
    sum_j log2(k_j - 1) * ((N-1)^2 - sum_b n_b^2), where the n_b are the
    sizes of the branches at j, from one subtree-size pass rooted at node 0.
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


def supernode_tree(g: Graph, members: Sequence[int]) -> Graph:
    """The links of g between the members, as a standalone graph over them."""
    local = {node: i for i, node in enumerate(members)}
    links = [(local[u], local[v]) for u in members for v in g.adjacency[u] if u < v and v in local]
    return Graph._trusted(len(members), links, tuple(g.labels[m] for m in members))


def reference_supernode_bits(s: SimplifiedNetwork) -> list[float]:
    """H of each super-node, its tree built as a standalone graph."""
    return [
        reference_tree_total_bits(supernode_tree(s.original, members)) if len(members) > 2 else 0.0
        for members in s.supernodes
    ]


def quotient_graph(g: Graph, membership: Sequence[int]) -> Graph:
    """Simple graph over the groups 0..max(membership), labelled s0, s1, ...:
    cross-group links deduplicated, intra-group links dropped."""
    if len(membership) != g.node_count:
        raise ValidationError(
            f"membership covers {len(membership)} nodes, graph has {g.node_count}"
        )
    if min(membership, default=0) < 0:
        raise ValidationError("group indices must be non-negative")
    group_count = max(membership, default=-1) + 1
    pairs = ((membership[u], membership[v]) for u, v in g.links)
    cross = {(a, b) if a < b else (b, a) for a, b in pairs if a != b}
    return Graph._trusted(group_count, cross, tuple(f"s{i}" for i in range(group_count)))
