"""Tree-contraction into skeleton + super-nodes and its search information.

A single Kruskal-like pass merges link endpoints in a given order; a
merge is rejected when the two current super-nodes share a skeleton
neighbor, since that merge would create a multilink. Every super-node's
internal structure is therefore a tree, and the skeleton keeps the
original graph's cyclomatic number.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import NetskelError
from .graph import Graph, Link, _cross_links, _quotient, quotient_graph, require_connected
from .searchinfo import _all_source_bits, _forest_total_bits
from .seeding import derive_seed


@dataclass(frozen=True)
class SuperNode:
    members: tuple[int, ...]
    internal_links: tuple[Link, ...]


@dataclass(frozen=True)
class SimplifiedNetwork:
    original: Graph
    skeleton: Graph
    supernodes: tuple[SuperNode, ...]
    membership: tuple[int, ...]


@dataclass(frozen=True)
class SimplifiedSearchInfo:
    h_skeleton: float
    h_supernodes: tuple[float, ...]
    h_supernodes_total: float
    h_simp: float


@dataclass(frozen=True)
class ContractionSample:
    trial: int
    skeleton_nodes: int
    h_skeleton: float
    h_supernodes: float
    h_simp: float


@dataclass(frozen=True)
class MinimizeResult:
    best: SimplifiedNetwork
    best_info: SimplifiedSearchInfo
    best_trial: int
    worst: SimplifiedNetwork
    worst_info: SimplifiedSearchInfo
    worst_trial: int
    samples: tuple[ContractionSample, ...]


def order_links_random(g: Graph, seed: int) -> list[Link]:
    """Uniform random permutation of g's links, deterministic per seed."""
    links = list(g.links)
    random.Random(seed).shuffle(links)
    return links


def order_links_degree(g: Graph) -> list[Link]:
    """Links by ascending endpoint degree sum, ties broken lexicographically.

    Weights use the original degrees, fixed before any contraction.
    """
    return sorted(g.links, key=lambda l: (g.degrees[l[0]] + g.degrees[l[1]], l))


def tree_contract(g: Graph, order: list[Link]) -> SimplifiedNetwork:
    """One pass over links in the given order, merging wherever no multilink
    would result. Rejected links stay rejected (merging can only add common
    neighbors), so a single pass is exhaustive.

    Merges are small-to-large: the root with more skeleton neighbors
    survives and only the other root's neighbors are relabelled, so a hub
    absorbs its leaves in O(1) each."""
    require_connected(g)
    if sorted(order) != list(g.links):
        raise NetskelError("order must be a permutation of the graph's links")
    return _network(g, *_merge(g, order))


def _merge(g: Graph, order: list[Link]) -> tuple[tuple[int, ...], int, list[Link]]:
    """The merge pass of tree_contract on a connected graph and a permutation
    of its links: each node's super-node, the super-node count and the
    accepted links in merge order. Super-nodes are numbered by their
    minimum member."""
    parent = list(range(g.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neigh = [set(adj) for adj in g.adjacency]
    accepted: list[Link] = []
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        large, small = neigh[ru], neigh[rv]
        if len(large) < len(small):
            ru, rv, large, small = rv, ru, small, large
        # ru and rv are neighbors and neither is its own, so the sets meet
        # exactly in the shared neighbors
        if not large.isdisjoint(small):
            continue  # merge would create a multilink
        parent[rv] = ru
        large.discard(rv)
        small.discard(ru)
        for w in small:
            nw = neigh[w]
            nw.discard(rv)
            nw.add(ru)
        large |= small
        accepted.append((u, v))

    index: dict[int, int] = {}
    membership = tuple([index.setdefault(find(u), len(index)) for u in range(g.node_count)])
    return membership, len(index), accepted


def _network(
    g: Graph, membership: tuple[int, ...], group_count: int, accepted: list[Link]
) -> SimplifiedNetwork:
    """The SimplifiedNetwork of a _merge result."""
    members: list[list[int]] = [[] for _ in range(group_count)]
    for node, grp in enumerate(membership):
        members[grp].append(node)
    internal: list[list[Link]] = [[] for _ in range(group_count)]
    for link in sorted(accepted):
        internal[membership[link[0]]].append(link)
    supernodes = tuple(
        SuperNode(members=tuple(m), internal_links=tuple(links))
        for m, links in zip(members, internal)
    )
    return SimplifiedNetwork(
        original=g,
        skeleton=quotient_graph(g, membership),
        supernodes=supernodes,
        membership=membership,
    )


def skeleton_bits(skeleton: Graph) -> float:
    """Total search information of a skeleton (connected by construction, so not
    re-checked)."""
    return math.fsum(_all_source_bits(skeleton))


def _supernode_bits(node_count: int, internal_links: Iterable[Link]) -> list[float]:
    """H of each super-node's tree, by super-node index: one pass over the forest
    of internal links, whose trees come in order of minimum node as super-nodes do."""
    forest: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in internal_links:
        forest[u].append(v)
        forest[v].append(u)
    return _forest_total_bits(forest)


def simplified_search_information(s: SimplifiedNetwork) -> SimplifiedSearchInfo:
    """H_simp = H of the skeleton plus H of each super-node tree in isolation,
    from the exact O(N) tree total (every super-node is a tree)."""
    internal = chain.from_iterable(sn.internal_links for sn in s.supernodes)
    return _info(skeleton_bits(s.skeleton), _supernode_bits(s.original.node_count, internal))


def _info(h_skeleton: float, h_super: list[float]) -> SimplifiedSearchInfo:
    """SimplifiedSearchInfo from the skeleton's H and each super-node's."""
    h_super_total = sum(h_super)
    return SimplifiedSearchInfo(
        h_skeleton=h_skeleton,
        h_supernodes=tuple(h_super),
        h_supernodes_total=h_super_total,
        h_simp=h_skeleton + h_super_total,
    )


def minimize_h_simp(g: Graph, trials: int, seed: int) -> MinimizeResult:
    """Sample random contraction orderings and track the extremes of h_simp.

    Trial i uses a seed derived from the master seed by counter, so the
    result is reproducible and trials could run in any order. Ties keep
    the lowest trial index. A trial merges, keys the memo below on its
    cross-group links, builds a skeleton only on a memo miss and scores every
    super-node in one forest pass; only the best and worst networks are built.
    """
    if trials < 1:
        raise NetskelError(f"trials must be positive, got {trials}")
    require_connected(g)
    samples: list[ContractionSample] = []
    best = worst = None  # (trial, info, _merge result)
    # Few distinct skeletons recur over many trials, so each one's H is
    # computed once. Super-nodes are numbered by their minimum member and
    # cross links are sorted, so equal keys mean equal graphs. The links are
    # packed into one ASCII string, so the memo does not keep their tuples
    # alive (array or struct would load an extension module, which alone
    # adds about 0.25 MiB of peak RSS).
    skeleton_memo: dict[tuple[int, str], float] = {}
    for trial in range(trials):
        order = order_links_random(g, derive_seed(seed, trial))
        merged = membership, group_count, accepted = _merge(g, order)
        cross = sorted(_cross_links(g, membership))
        key = (group_count, " ".join(map(str, chain.from_iterable(cross))))
        h_skeleton = skeleton_memo.get(key)
        if h_skeleton is None:
            h_skeleton = skeleton_memo[key] = skeleton_bits(_quotient(group_count, cross))
        info = _info(h_skeleton, _supernode_bits(g.node_count, accepted))
        samples.append(
            ContractionSample(
                trial=trial,
                skeleton_nodes=group_count,
                h_skeleton=info.h_skeleton,
                h_supernodes=info.h_supernodes_total,
                h_simp=info.h_simp,
            )
        )
        if best is None or info.h_simp < best[1].h_simp:
            best = (trial, info, merged)
        if worst is None or info.h_simp > worst[1].h_simp:
            worst = (trial, info, merged)
    assert best is not None and worst is not None
    return MinimizeResult(
        best=_network(g, *best[2]),
        best_info=best[1],
        best_trial=best[0],
        worst=_network(g, *worst[2]),
        worst_info=worst[1],
        worst_trial=worst[0],
        samples=tuple(samples),
    )
