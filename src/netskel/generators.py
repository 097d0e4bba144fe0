"""Synthetic graphs, degree-preserving randomization, tree-scaling experiment."""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Optional

from .errors import NetskelError

# Only tree_scaling_experiment needs the estimator, but it stays a module-level
# import: bench/tracer.py wraps every layer module and expects each one to be
# loaded already, which for the estimator only this import ensures (ROADMAP
# item 2 has the tracer load them itself).
from .estimator import PowerLawFit, fit_power_law
from .graph import Graph, require_connected
from .seeding import derive_seed, seeded_random


class TreeScalingRow(NamedTuple):
    n: int
    mean_bits: float
    std_bits: float
    samples: int


def gen_ring(n: int) -> Graph:
    if n < 3:
        raise NetskelError(f"ring needs at least 3 nodes, got {n}")
    return Graph._trusted(n, [(i, (i + 1) % n) for i in range(n)])


def gen_chain(n: int) -> Graph:
    if n < 1:
        raise NetskelError(f"chain needs at least 1 node, got {n}")
    return Graph._trusted(n, [(i, i + 1) for i in range(n - 1)])


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise NetskelError(f"tree needs at least 1 node, got {n}")
    if n == 1:
        return Graph._trusted(1, [])
    rng = seeded_random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    links: list[tuple[int, int]] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        links.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    links.append((u, v))
    return Graph._trusted(n, links)


def rewire_degree_preserving(g: Graph, swap_attempts: int, seed: int) -> Graph:
    """Randomize by double-edge swaps that keep the graph simple and connected.

    Each attempt picks two edges and swaps endpoints; the swap is discarded
    if it would create a self-loop or multilink, and reverted if it would
    disconnect the graph. The degree sequence never changes.

    Once {a,b}, {c,d} become {a,c}, {b,d}, every node still hangs off a, b,
    c or d, so the graph stays connected iff a reaches b. Searches from a
    and from b grow the smaller frontier first and stop when they meet or
    when one side runs out: a full search's answer, without visiting all N.
    """
    require_connected(g)
    if swap_attempts < 1:
        raise NetskelError(f"swap_attempts must be positive, got {swap_attempts}")
    if g.link_count < 2:
        return g
    rng = seeded_random(seed)
    edges = list(g.links)
    adj: list[set[int]] = [set(ns) for ns in g.adjacency]
    # mark[w] is the stamp of the side that last reached w; each call takes two
    # fresh stamps, so no call clears or allocates a per-node table
    mark = [0] * g.node_count
    stamp = 0

    def joined(a: int, b: int) -> bool:
        nonlocal stamp
        sides = (stamp + 1, stamp + 2)
        stamp += 2
        mark[a], mark[b] = sides
        frontiers = [[a], [b]]
        while frontiers[0] and frontiers[1]:
            s = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
            own, other = sides[s], sides[1 - s]
            grown = []
            for u in frontiers[s]:
                for w in adj[u]:
                    m = mark[w]
                    if m == other:
                        return True
                    if m != own:
                        mark[w] = own
                        grown.append(w)
            frontiers[s] = grown
        return False

    for _ in range(swap_attempts):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        # proposed replacement: {a,c} and {b,d}
        if a == c or b == d or c in adj[a] or d in adj[b]:
            continue
        adj[a].remove(b), adj[b].remove(a)
        adj[c].remove(d), adj[d].remove(c)
        adj[a].add(c), adj[c].add(a)
        adj[b].add(d), adj[d].add(b)
        if joined(a, b):
            edges[i] = (a, c) if a < c else (c, a)
            edges[j] = (b, d) if b < d else (d, b)
        else:
            adj[a].remove(c), adj[c].remove(a)
            adj[b].remove(d), adj[d].remove(b)
            adj[a].add(b), adj[b].add(a)
            adj[c].add(d), adj[d].add(c)
    return Graph._trusted(g.node_count, edges, g.labels)


def tree_scaling_experiment(
    n_min: int,
    n_max: int,
    step: int,
    samples: int,
    seed: int,
) -> tuple[list[TreeScalingRow], Optional[PowerLawFit]]:
    """Mean search information of random trees per size, with a power-law fit.

    Each sample is a uniform labelled tree (``gen_random_tree``, a random
    Pruefer sequence), and its H is the exact O(N) tree total, which
    equals ``total_search_information`` without the all-pairs DP.
    Standard deviation is the population convention (0 for a single sample).
    The fit is None when fewer than 3 sizes give positive means.
    """
    if n_min < 2 or n_min > n_max:
        raise NetskelError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    if step < 1:
        raise NetskelError(f"step must be positive, got {step}")
    if samples < 1:
        raise NetskelError(f"samples must be positive, got {samples}")
    # only this function walks trees, so rewiring and generating load no searchinfo
    from .searchinfo import _forest_total_bits

    rows: list[TreeScalingRow] = []
    counter = 0
    for n in range(n_min, n_max + 1, step):
        values = []
        for _ in range(samples):
            tree = gen_random_tree(n, derive_seed(seed, counter))
            counter += 1
            values.append(_forest_total_bits(tree.adjacency)[0])
        mean = math.fsum(values) / samples
        var = math.fsum((v - mean) ** 2 for v in values) / samples
        rows.append(
            TreeScalingRow(n=n, mean_bits=mean, std_bits=math.sqrt(var), samples=samples)
        )
    points = [(float(row.n), row.mean_bits) for row in rows if row.mean_bits > 0]
    fit = fit_power_law(points) if len(points) >= 3 else None
    return rows, fit
