"""Tree-contraction into skeleton + super-nodes and its search information.

A single Kruskal-like pass merges link endpoints in a given order; a
merge is rejected when the two current super-nodes share a skeleton
neighbor, since that merge would create a multilink. Every super-node's
internal structure is therefore a tree, and the skeleton keeps the
original graph's cyclomatic number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .errors import NetskelError
from .graph import Graph, Link, quotient_graph, require_connected
from .searchinfo import SearchInfoReport, _tree_total_bits, search_information_rows
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
    return _contract(g, order)


def _contract(g: Graph, order: list[Link]) -> SimplifiedNetwork:
    """tree_contract on a connected graph and a permutation of its links."""
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
        if len(neigh[ru]) < len(neigh[rv]):
            ru, rv = rv, ru
        large, small = neigh[ru], neigh[rv]
        if any(w in large for w in small if w != ru):
            continue  # merge would create a multilink
        parent[rv] = ru
        large.discard(rv)
        for w in small:
            if w != ru:
                neigh[w].discard(rv)
                neigh[w].add(ru)
                large.add(w)
        accepted.append((u, v))

    # super-nodes are numbered by their minimum member
    index: dict[int, int] = {}
    membership = tuple(index.setdefault(find(u), len(index)) for u in range(g.node_count))
    members: list[list[int]] = [[] for _ in index]
    for node, grp in enumerate(membership):
        members[grp].append(node)
    internal: list[list[Link]] = [[] for _ in index]
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


def supernode_tree(g: Graph, sn: SuperNode) -> Graph:
    """The internal tree of a super-node as a standalone graph."""
    local = {node: i for i, node in enumerate(sn.members)}
    links = [(local[u], local[v]) for u, v in sn.internal_links]
    return Graph._trusted(len(sn.members), links, tuple(g.labels[m] for m in sn.members))


def skeleton_bits(skeleton: Graph) -> float:
    """Total search information of a skeleton (connected by construction, so not
    re-checked); one super-node has no paths."""
    if skeleton.node_count <= 1:
        return 0.0
    return SearchInfoReport.from_rows(skeleton, search_information_rows(skeleton)).total_bits


def simplified_search_information(s: SimplifiedNetwork) -> SimplifiedSearchInfo:
    """H_simp = H of the skeleton plus H of each super-node tree in isolation.

    Every super-node is a tree, so its H comes from the exact O(N) tree
    total; a tree of one or two nodes has no choices and needs no graph."""
    return _simplified_info(s, skeleton_bits(s.skeleton))


def _simplified_info(s: SimplifiedNetwork, h_skeleton: float) -> SimplifiedSearchInfo:
    """simplified_search_information given the skeleton's H."""
    h_super = [
        _tree_total_bits(supernode_tree(s.original, sn)) if len(sn.members) > 2 else 0.0
        for sn in s.supernodes
    ]
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
    the lowest trial index.
    """
    if trials < 1:
        raise NetskelError(f"trials must be positive, got {trials}")
    require_connected(g)
    best = worst = None
    best_info = worst_info = None
    best_trial = worst_trial = -1
    samples: list[ContractionSample] = []
    # Few distinct skeletons recur over many trials, so each one's H is
    # computed once. Super-nodes are numbered by their minimum member and
    # links are sorted, so equal keys mean equal graphs. The links are
    # packed into one ASCII string, so the memo does not keep their tuples
    # alive (array or struct would load an extension module, which alone
    # adds about 0.25 MiB of peak RSS).
    skeleton_memo: dict[tuple[int, str], float] = {}
    for trial in range(trials):
        order = order_links_random(g, derive_seed(seed, trial))
        simp = _contract(g, order)
        skeleton = simp.skeleton
        key = (skeleton.node_count, " ".join(map(str, chain.from_iterable(skeleton.links))))
        h_skeleton = skeleton_memo.get(key)
        if h_skeleton is None:
            h_skeleton = skeleton_memo[key] = skeleton_bits(skeleton)
        info = _simplified_info(simp, h_skeleton)
        samples.append(
            ContractionSample(
                trial=trial,
                skeleton_nodes=simp.skeleton.node_count,
                h_skeleton=info.h_skeleton,
                h_supernodes=info.h_supernodes_total,
                h_simp=info.h_simp,
            )
        )
        if best_info is None or info.h_simp < best_info.h_simp:
            best, best_info, best_trial = simp, info, trial
        if worst_info is None or info.h_simp > worst_info.h_simp:
            worst, worst_info, worst_trial = simp, info, trial
    assert best is not None and worst is not None
    assert best_info is not None and worst_info is not None
    return MinimizeResult(
        best=best,
        best_info=best_info,
        best_trial=best_trial,
        worst=worst,
        worst_info=worst_info,
        worst_trial=worst_trial,
        samples=tuple(samples),
    )
