"""Tree-contraction into skeleton + super-nodes and its search information.

A single Kruskal-like pass merges link endpoints in a given order; a
merge is rejected when the two current super-nodes share a skeleton
neighbor, since that merge would create a multilink. Every super-node's
internal structure is therefore a tree, and the skeleton keeps the
original graph's cyclomatic number.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import NetskelError
from .graph import Graph, Link, require_connected
from .searchinfo import _all_source_bits, _forest_total_bits, _spread
from .seeding import derive_seed, seeded_random


# What one minimize trial costs per link of the graph, in the N*L units of
# searchinfo.FORK_BREAK_EVEN_WORK (walking every source of a graph costs
# about N*L): 11-43 on the graphs measured in BENCH_14.json, least where
# memo hits or trivial skeletons leave only the merge and the forest pass.
TRIAL_WORK_PER_LINK = 20

# The most neighbouring roots _merge keeps in a tuple rather than a set: a
# CPython set never takes less memory than its 8-slot table. Testing, merging
# or relabelling a tuple this short costs O(8), and a root with more gets a
# set for good, so hubs still update in O(1) and no merge order turns
# quadratic.
SHORT_NEIGHBOURS = 8


class SimplifiedNetwork(NamedTuple):
    """A contraction of original: membership is each node's super-node index,
    and super-node i is node i of skeleton. A super-node's internal links are
    the links of original between its members, and they form a tree."""

    original: Graph
    skeleton: Graph
    membership: tuple[int, ...]

    @property
    def supernodes(self) -> tuple[tuple[int, ...], ...]:
        """Each super-node's members, ascending, by super-node index."""
        members: list[list[int]] = [[] for _ in range(self.skeleton.node_count)]
        for node, grp in enumerate(self.membership):
            members[grp].append(node)
        return tuple(map(tuple, members))


class SimplifiedSearchInfo(NamedTuple):
    h_skeleton: float
    h_supernodes: tuple[float, ...]
    h_supernodes_total: float
    h_simp: float


class ContractionSample(NamedTuple):
    trial: int
    skeleton_nodes: int
    h_skeleton: float
    h_supernodes: float
    h_simp: float


class MinimizeResult(NamedTuple):
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
    seeded_random(seed).shuffle(links)
    return links


def order_links_degree(g: Graph) -> list[Link]:
    """Links by ascending endpoint degree sum, ties broken lexicographically.

    Weights use the original degrees, fixed before any contraction. The sort
    is stable and g.links is sorted, so ties keep their lexicographic order.
    """
    deg = g.degrees
    return sorted(g.links, key=lambda l: deg[l[0]] + deg[l[1]])


def tree_contract(g: Graph, order: Iterable[Link] | None = None) -> SimplifiedNetwork:
    """One pass over links in the given order, merging wherever no multilink
    would result. Rejected links stay rejected (merging can only add common
    neighbors), so a single pass is exhaustive. With no order, the pass takes
    order_links_degree(g), a permutation of the links by construction, so it
    is not checked as a given order is. A given iterator is listed first, as
    the check would consume it; a given list is not copied.

    Merges are small-to-large: the root with more skeleton neighbors
    survives and only the other root's neighbors are relabelled, so a hub
    absorbs its leaves in O(1) each."""
    require_connected(g)
    if order is not None and iter(order) is order:
        order = list(order)
    if order is not None and sorted(order) != list(g.links):
        raise NetskelError("order must be a permutation of the graph's links")
    membership, group_count, links = _merge(g, order)
    return SimplifiedNetwork(g, _skeleton(group_count, links), membership)


def _merge(g: Graph, order: list[Link] | None) -> tuple[tuple[int, ...], int, list[Link]]:
    """The merge pass of tree_contract on a connected graph and a permutation
    of its links, order_links_degree(g) if order is None: each node's
    super-node, the super-node count and the skeleton's links, sorted. The
    degree order is sorted before the pass's own lists exist and is freed
    before the read-out; a given order is the caller's and is left as it is.
    Super-nodes are numbered by their minimum member.
    At most one link joins two super-nodes, so no link is read inside one, and a
    super-node's internal links are all of g's links between its members: the
    membership holds the whole contraction (SimplifiedNetwork.supernodes).

    Each root holds exactly its neighbouring roots: a tuple while there are
    at most SHORT_NEIGHBOURS of them, from its adjacency tuple in g on, and a
    set for good once there are more, so a tuple is always short. A set root
    is tested with isdisjoint and updated in place; a root it absorbs that
    dangles from it (whose only neighbour it is) costs one remove and no
    test. Two tuple roots are tested entry by entry, so a refusal leaves both
    as they were, and only an accepted merge picks a tuple or a set for the
    result. A relabel rebuilds a tuple through a list. A negative parent
    marks a root, so the union-find stores only ints that g's links already
    hold."""
    if order is None:
        order = order_links_degree(g)
    parent = [-1] * g.node_count

    def find(x: int) -> int:
        while (p := parent[x]) >= 0:
            if (up := parent[p]) < 0:
                return p
            parent[x] = up
            x = up
        return x

    neigh: list = [ns if len(ns) <= SHORT_NEIGHBOURS else set(ns) for ns in g.adjacency]
    for u, v in order:
        ru, rv = find(u), find(v)
        large, small = neigh[ru], neigh[rv]
        if len(large) < len(small):
            ru, rv, large, small = rv, ru, small, large
        if type(large) is set:
            # ru and rv are neighbors and neither is its own, so the two meet
            # exactly in the shared neighbors; a dangling rv (whose only
            # neighbour is ru) shares none and leaves nothing to relabel
            if len(small) > 1:
                if not large.isdisjoint(small):
                    continue  # merge would create a multilink
                large.update(small)
                large.remove(ru)
            large.remove(rv)
        else:
            # two short roots: small's entries are looked up in the tuple,
            # and only an accepted merge gathers both in a list
            for w in small:
                if w in large:
                    break
            else:
                large = [*large, *small]
            if type(large) is tuple:
                continue  # merge would create a multilink
            large.remove(rv)
            large.remove(ru)
            neigh[ru] = tuple(large) if len(large) <= SHORT_NEIGHBOURS else set(large)
        for w in small:
            if w != ru:
                nw = neigh[w]
                if type(nw) is set:
                    nw.discard(rv)
                    nw.add(ru)
                else:
                    nw = list(nw)
                    nw[nw.index(rv)] = ru
                    neigh[w] = tuple(nw)
        parent[rv] = ru
        neigh[rv] = None  # rv is no longer a root, so nothing reads it again
    del order  # not read again, so a degree order built here is freed now

    index: dict[int, int] = {}
    members = [index.setdefault(find(u), len(index)) for u in range(g.node_count)]
    parent.clear()  # read out: freed before the tuple copy and the skeleton's links
    membership = tuple(members)
    del members
    # a live root's neighbors are live roots: the skeleton's adjacency
    links = sorted((i, index[w]) for r, i in index.items() for w in neigh[r] if i < index[w])
    return membership, len(index), links


def _skeleton(group_count: int, links: list[Link]) -> Graph:
    """The skeleton graph over super-nodes labelled s0, s1, ... from _merge's links."""
    return Graph._trusted(group_count, links, tuple(f"s{i}" for i in range(group_count)))


def skeleton_bits(skeleton: Graph) -> float:
    """Total search information of a skeleton (connected by construction, so not
    re-checked)."""
    return math.fsum(_all_source_bits(skeleton))


def _supernode_bits(g: Graph, membership: tuple[int, ...]) -> list[float]:
    """H of each super-node's tree, by super-node index: one pass over the forest
    of internal links, whose trees come in order of minimum node as super-nodes do."""
    forest: list[list[int]] = [[] for _ in range(g.node_count)]
    for u, v in g.links:
        if membership[u] == membership[v]:
            forest[u].append(v)
            forest[v].append(u)
    return _forest_total_bits(forest)


def simplified_search_information(s: SimplifiedNetwork) -> SimplifiedSearchInfo:
    """H_simp = H of the skeleton plus H of each super-node tree in isolation,
    from the exact O(N) tree total (every super-node is a tree)."""
    return _info(skeleton_bits(s.skeleton), _supernode_bits(s.original, s.membership))


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
    result is reproducible and trials can run in any order. A trial merges,
    keys the memo below on the skeleton links of the merge, builds a
    skeleton only on a memo miss and scores every super-node in one forest
    pass. Ties keep the lowest trial index; only the best and worst
    networks are built, by tree_contract on their orders, and their
    skeleton H is the sample's, not walked again.

    The trials may be shared among processes (searchinfo._spread), with
    TRIAL_WORK_PER_LINK of work per trial and link; every process keeps its
    own memo. Scores come back as values marshal writes, so the result is the
    serial one bit for bit.
    """
    if trials < 1:
        raise NetskelError(f"trials must be positive, got {trials}")
    require_connected(g)
    # Few distinct skeletons recur over many trials, so each one's H is
    # computed once. Super-nodes are numbered by their minimum member and
    # skeleton links are sorted, so equal keys mean equal graphs. The links are
    # packed into one ASCII string, so the memo does not keep their tuples
    # alive (array or struct would load an extension module, which alone
    # adds about 0.25 MiB of peak RSS).
    skeleton_memo: dict[tuple[int, str], float] = {}

    def score(trial: int) -> tuple[int, float, float]:
        """The trial's skeleton nodes, skeleton H and super-node H total."""
        membership, group_count, links = _merge(g, order_links_random(g, derive_seed(seed, trial)))
        key = (group_count, " ".join(map(str, chain.from_iterable(links))))
        h_skeleton = skeleton_memo.get(key)
        if h_skeleton is None:
            h_skeleton = skeleton_memo[key] = skeleton_bits(_skeleton(group_count, links))
        return group_count, h_skeleton, sum(_supernode_bits(g, membership))

    scores = _spread(trials, trials * g.link_count * TRIAL_WORK_PER_LINK, score)
    samples = [
        ContractionSample(trial, nodes, h_skeleton, h_super, h_skeleton + h_super)
        for trial, (nodes, h_skeleton, h_super) in enumerate(scores)
    ]
    best = min(samples, key=lambda sample: sample.h_simp)  # the first of ties
    worst = max(samples, key=lambda sample: sample.h_simp)

    def extreme(s: ContractionSample) -> tuple[SimplifiedNetwork, SimplifiedSearchInfo, int]:
        net = tree_contract(g, order_links_random(g, derive_seed(seed, s.trial)))
        return net, _info(s.h_skeleton, _supernode_bits(g, net.membership)), s.trial

    return MinimizeResult(*extreme(best), *extreme(worst), tuple(samples))
