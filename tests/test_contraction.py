import gc
import itertools
import os
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netskel as ns
from netskel import contraction, searchinfo
from netskel.errors import ConnectivityError, NetskelError
from netskel.seeding import derive_seed
from conftest import bitwise, connected_graphs, forking, random_connected_graph, tree_with_chords
from oracle import (
    quotient_graph,
    reference_supernode_bits,
    reference_tree_contract,
    reference_tree_total_bits,
    supernode_tree,
)


def pin_to_one_cpu(monkeypatch):
    """Nothing forks, so every call a test counts is made in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def star(n):
    return ns.Graph.from_links(n, [(0, i) for i in range(1, n)])


def wheel(n):
    """A hub joined to every node of a ring of n - 1."""
    spokes = [(0, i) for i in range(1, n)]
    return ns.Graph.from_links(n, spokes + [(i, i % (n - 1) + 1) for i in range(1, n)])


def hub(d):
    """A hub of degree d whose spokes each lead into a path of two links, and
    every other path into the next one by a chord. A path node can outgrow its
    spoke, so spokes are absorbed away from the hub and the hub's entries are
    relabelled, with d on either side of contraction.SHORT_NEIGHBOURS."""
    links = []
    for i in range(d):
        s = 1 + 3 * i
        links += [(0, s), (s, s + 1), (s + 1, s + 2)]
        if i % 2:
            links.append((s + 1, 2 + 3 * ((i + 1) % d)))
    return ns.Graph.from_links(1 + 3 * d, links)


def contraction_corpus(karate):
    """Karate, small ER graphs, trees with chords, stars, chains, hubs of
    degree 7 to 10 and a wheel."""
    rng = random.Random(11)
    graphs = [karate]
    for _ in range(8):
        graphs.append(random_connected_graph(rng.randint(5, 40), 0.2, rng.randrange(1 << 30)))
        n, chords = rng.randint(10, 200), rng.randint(0, 30)
        graphs.append(tree_with_chords(n, chords, rng.randrange(1 << 30)))
    graphs += [star(n) for n in (2, 3, 50, 300)] + [ns.gen_chain(n) for n in (2, 3, 40)]
    return graphs + [hub(d) for d in (7, 8, 9, 10)] + [wheel(12)]


def supernodes_with_links(g, simp):
    """Each super-node's members and the links of g between them, read from
    the membership, by super-node index."""
    inside = [[] for _ in range(simp.skeleton.node_count)]
    for u, v in g.links:
        if simp.membership[u] == simp.membership[v]:
            inside[simp.membership[u]].append((u, v))
    return [(members, tuple(links)) for members, links in zip(simp.supernodes, inside)]


def check_simplified_invariants(g, simp):
    """Partition, spanning-tree super-nodes, simple skeleton, conservation."""
    # membership partitions the node set
    assert sorted(m for members in simp.supernodes for m in members) == list(
        range(g.node_count)
    )
    internal = 0
    for i, members in enumerate(simp.supernodes):
        assert all(simp.membership[m] == i for m in members)
        # the links between the members form a spanning tree of them
        tree = supernode_tree(g, members)
        assert tree.link_count == len(members) - 1
        assert ns.is_connected(tree)
        internal += tree.link_count
    # link bookkeeping and cyclomatic conservation
    assert simp.skeleton.link_count + internal == g.link_count
    assert ns.cyclomatic_number(simp.skeleton) == ns.cyclomatic_number(g)
    # the skeleton is simple: normalized, unique links and no self-loops
    links = simp.skeleton.links
    assert all(u < v for u, v in links)
    assert len(set(links)) == len(links)
    assert sum(simp.skeleton.degrees) == 2 * simp.skeleton.link_count


class TestOrderings:
    def test_random_is_deterministic(self):
        g = ns.gen_ring(10)
        assert ns.order_links_random(g, 7) == ns.order_links_random(g, 7)

    def test_random_is_permutation(self):
        g = random_connected_graph(20, 0.2, 4)
        order = ns.order_links_random(g, 1)
        assert sorted(order) == list(g.links)

    def test_single_link(self):
        g = ns.gen_chain(2)
        assert ns.order_links_random(g, 123) == [(0, 1)]

    def test_degree_order_star_ties_by_index(self):
        g = ns.Graph.from_links(5, [(0, i) for i in range(1, 5)])
        assert ns.order_links_degree(g) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_degree_order_path_ends_first(self):
        g = ns.gen_chain(4)
        order = ns.order_links_degree(g)
        assert order == [(0, 1), (2, 3), (1, 2)]

    def test_degree_order_ring_is_lexicographic(self):
        g = ns.gen_ring(12)
        assert ns.order_links_degree(g) == sorted(g.links)

    @settings(max_examples=100)
    @given(connected_graphs())
    def test_degree_order_breaks_ties_by_link(self, g):
        deg = g.degrees
        expected = sorted(g.links, key=lambda l: (deg[l[0]] + deg[l[1]], l))
        assert ns.order_links_degree(g) == expected


class TestTreeContract:
    def test_tree_collapses_to_one_supernode(self):
        g = ns.gen_random_tree(15, 3)
        simp = ns.tree_contract(g, ns.order_links_random(g, 9))
        assert simp.skeleton.node_count == 1
        assert simp.skeleton.link_count == 0
        assert len(simp.supernodes[0]) == 15

    def test_ring12_even_split_order(self):
        g = ns.gen_ring(12)
        # contract everything except the three links that separate 4-chains
        keep = {(3, 4), (7, 8), (0, 11)}
        order = [l for l in g.links if l not in keep] + sorted(keep)
        simp = ns.tree_contract(g, order)
        assert simp.skeleton.node_count == 3
        assert simp.skeleton.link_count == 3
        assert sorted(map(len, simp.supernodes)) == [4, 4, 4]

    def test_complete_graph_never_contracts(self):
        g = ns.Graph.from_links(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for order in itertools.permutations(g.links):
            simp = ns.tree_contract(g, list(order))
            assert simp.skeleton.node_count == 4
            assert simp.skeleton.links == g.links

    def test_disconnected_rejected(self):
        g = ns.load_edge_list("a b\nc d")
        with pytest.raises(ConnectivityError):
            ns.tree_contract(g, list(g.links))

    def test_bad_order_rejected(self):
        g = ns.gen_ring(5)
        with pytest.raises(NetskelError, match="permutation"):
            ns.tree_contract(g, list(g.links)[:-1])

    def test_invariants_on_random_corpus(self, karate):
        rng = random.Random(5)
        graphs = [karate] + [
            random_connected_graph(rng.randint(5, 30), 0.25, rng.randrange(1 << 30))
            for _ in range(20)
        ]
        graphs += [hub(d) for d in (7, 8, 9, 10)] + [wheel(12)]
        for g in graphs:
            for trial in range(3):
                simp = ns.tree_contract(g, ns.order_links_random(g, trial))
                check_simplified_invariants(g, simp)

    def test_matches_reference(self, karate):
        for g in contraction_corpus(karate):
            orders = [ns.order_links_random(g, t) for t in range(4)]
            for order in orders + [ns.order_links_degree(g)]:
                simp = ns.tree_contract(g, order)
                membership, supernodes, skeleton_links = reference_tree_contract(g, order)
                assert simp.membership == membership
                assert supernodes_with_links(g, simp) == supernodes
                assert list(simp.skeleton.links) == skeleton_links

    @settings(max_examples=60)
    @given(connected_graphs(), st.integers(0, 2**30))
    def test_matches_reference_on_corpus(self, g, seed):
        """On three random orders and the degree order: membership, super-nodes
        and skeleton links as in the copy-on-merge reference (the links inside
        each super-node, read from the membership, are the ones it accepted, so
        at most one link joins two super-nodes), the skeleton is the quotient
        of the membership and keeps the cyclomatic number, and every super-node
        is a spanning tree of its members (check_simplified_invariants)."""
        orders = [ns.order_links_random(g, derive_seed(seed, t)) for t in range(3)]
        for order in orders + [ns.order_links_degree(g)]:
            simp = ns.tree_contract(g, order)
            membership, supernodes, skeleton_links = reference_tree_contract(g, order)
            assert simp.membership == membership
            assert supernodes_with_links(g, simp) == supernodes
            assert list(simp.skeleton.links) == skeleton_links
            assert simp.skeleton == quotient_graph(g, simp.membership)
            assert ns.cyclomatic_number(simp.skeleton) == ns.cyclomatic_number(g)
            check_simplified_invariants(g, simp)

    def test_degree_skeleton_rejects_disconnected(self):
        g = ns.load_edge_list("a b\nc d")
        with pytest.raises(ConnectivityError):
            ns.tree_contract(g, ns.order_links_degree(g))

    def test_degree_skeleton_holds_little_more_than_its_input(self, large_sparse_text):
        """The merge makes no int per node, and a root keeps its neighbours in a
        tuple until it meets a super-node with more than one neighbour or they
        outgrow contraction.SHORT_NEIGHBOURS: the peak, the input graph
        included, is about 1.3 times that graph (1.7 times with a set for every
        root that changed, 2.2 times with a set for every node)."""
        tracemalloc.start()
        try:
            g = ns.load_edge_list(large_sparse_text)
            graph_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            skeleton = ns.tree_contract(g, ns.order_links_degree(g)).skeleton
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ns.cyclomatic_number(skeleton) == ns.cyclomatic_number(g)
        assert peak <= 1.5 * graph_bytes, f"peak {peak / graph_bytes:.2f} times the graph"

    def test_estimate_path_peaks_at_its_contraction(self, large_sparse_text):
        """estimate's parse and degree-order contraction peak at about 1.35
        times the graph, in the merge: the parse alone stays below that (it
        read 1.57 times with a list of every line and a duplicate set)."""
        tracemalloc.start()
        try:
            g = ns.load_edge_list(large_sparse_text)
            graph_bytes = tracemalloc.get_traced_memory()[0]
            skeleton = ns.tree_contract(g, ns.order_links_degree(g)).skeleton
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ns.cyclomatic_number(skeleton) == ns.cyclomatic_number(g)
        assert peak <= 1.45 * graph_bytes, f"peak {peak / graph_bytes:.2f} times the graph"

    def test_short_supernodes_hold_no_set(self, karate, monkeypatch):
        """_merge builds a set only for a root with more than
        contraction.SHORT_NEIGHBOURS neighbouring roots: two short roots are
        tested and merged as tuples, whether the merge is refused or accepted,
        and the contraction is still the reference one."""
        sizes = []

        class CountingSet(set):
            def __init__(self, entries=()):
                super().__init__(entries)
                sizes.append(len(self))

        monkeypatch.setattr(contraction, "set", CountingSet, raising=False)
        for g in contraction_corpus(karate):
            orders = [ns.order_links_random(g, t) for t in range(4)]
            for order in orders + [ns.order_links_degree(g)]:
                simp = ns.tree_contract(g, order)
                membership, _, skeleton_links = reference_tree_contract(g, order)
                assert simp.membership == membership
                assert list(simp.skeleton.links) == skeleton_links
        assert sizes, "the corpus has hubs, so some root must outgrow a tuple"
        assert min(sizes) > contraction.SHORT_NEIGHBOURS

    def test_random_order_contraction_holds_little_memory(self, large_sparse_text):
        """In a random order most super-nodes of a sparse graph stay short, so
        they keep tuples: the contraction's own peak is about 0.24 times the
        graph (0.38 times when a root tested against a super-node with more
        than one neighbour kept a set). The same contraction runs once before
        the measured one, so CPython's free lists are already full."""
        tracemalloc.start()
        try:
            g = ns.load_edge_list(large_sparse_text)
            graph_bytes = tracemalloc.get_traced_memory()[0]
            order = ns.order_links_random(g, 1)
            ns.tree_contract(g, order)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            skeleton = ns.tree_contract(g, order).skeleton
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert ns.cyclomatic_number(skeleton) == ns.cyclomatic_number(g)
        assert peak <= 0.3 * graph_bytes, f"peak {peak / graph_bytes:.2f} times the graph"

    def test_no_order_is_the_degree_order(self, karate):
        for g in contraction_corpus(karate):
            assert ns.tree_contract(g) == ns.tree_contract(g, ns.order_links_degree(g))

    def test_no_order_frees_the_degree_order_before_the_read_out(self, large_sparse_text):
        """With no order, the merge frees the degree order it built before it
        reads out the membership and the skeleton's links, so the contraction
        peaks no higher than with that order held by the caller (as much as the
        whole order higher when the order lived through the read-out). A
        contraction runs once before the measured ones, so CPython's free
        lists are already full."""
        g = ns.load_edge_list(large_sparse_text)
        tracemalloc.start()
        try:
            order = ns.order_links_degree(g)
            order_bytes = tracemalloc.get_traced_memory()[0]
            ns.tree_contract(g, order)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ns.tree_contract(g, order)
            given_peak = tracemalloc.get_traced_memory()[1] - before
            del order
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ns.tree_contract(g)
            own_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        excess = (own_peak - given_peak) / order_bytes
        assert excess <= 0.2, f"{excess:.2f} times the order's memory above a given order"

    def test_skeleton_is_quotient_graph(self, karate):
        for g in contraction_corpus(karate):
            simp = ns.tree_contract(g, ns.order_links_random(g, 5))
            q = quotient_graph(g, simp.membership)
            assert q == simp.skeleton
            assert q.labels == tuple(f"s{i}" for i in range(len(simp.supernodes)))

    def test_empty_graph_rejected(self):
        with pytest.raises(NetskelError, match="no nodes"):
            ns.tree_contract(ns.Graph.from_links(0, []), [])

    def test_recontraction_is_idempotent(self, karate):
        simp = ns.tree_contract(karate, ns.order_links_random(karate, 2))
        sk = simp.skeleton
        again = ns.tree_contract(sk, ns.order_links_random(sk, 77))
        assert again.skeleton.node_count == sk.node_count
        assert again.skeleton.links == sk.links


class TestSimplifiedSearchInfo:
    def _ring12_split(self, sizes):
        g = ns.gen_ring(12)
        cuts, pos = set(), 0
        for s in sizes:
            pos += s
            cuts.add((pos - 1, pos % 12) if pos - 1 < pos % 12 else (pos % 12, pos - 1))
        order = [l for l in g.links if l not in cuts] + sorted(cuts)
        return ns.tree_contract(g, order)

    def test_ring12_even_split(self):
        info = ns.simplified_search_information(self._ring12_split([4, 4, 4]))
        assert info.h_skeleton == pytest.approx(6.0)
        assert sorted(info.h_supernodes) == pytest.approx([6.0, 6.0, 6.0])
        assert info.h_simp == pytest.approx(24.0)

    def test_ring12_extreme_split(self):
        info = ns.simplified_search_information(self._ring12_split([10, 1, 1]))
        assert info.h_skeleton == pytest.approx(6.0)
        assert sorted(info.h_supernodes) == pytest.approx([0.0, 0.0, 72.0])
        assert info.h_simp == pytest.approx(78.0)

    def test_whole_tree_as_one_supernode(self):
        g = ns.gen_random_tree(20, 8)
        simp = ns.tree_contract(g, ns.order_links_random(g, 1))
        info = ns.simplified_search_information(simp)
        assert info.h_skeleton == 0.0
        assert info.h_simp == pytest.approx(
            ns.total_search_information(g).total_bits
        )

    def test_supernodes_match_dag_dp(self, karate):
        rng = random.Random(3)
        graphs = [karate]
        for _ in range(10):
            n, chords = rng.randint(10, 150), rng.randint(0, 20)
            graphs.append(tree_with_chords(n, chords, rng.randrange(1 << 30)))
        for g in graphs:
            for trial in range(3):
                simp = ns.tree_contract(g, ns.order_links_random(g, trial))
                info = ns.simplified_search_information(simp)
                for members, bits in zip(simp.supernodes, info.h_supernodes):
                    dp = ns.total_search_information(supernode_tree(g, members)).total_bits
                    assert bits == pytest.approx(dp, rel=0, abs=1e-9)

    def test_h_simp_is_sum(self, karate):
        simp = ns.tree_contract(karate, ns.order_links_degree(karate))
        info = ns.simplified_search_information(simp)
        assert info.h_simp == pytest.approx(info.h_skeleton + info.h_supernodes_total)
        assert info.h_supernodes_total == pytest.approx(sum(info.h_supernodes))


def hexes(values) -> list[str]:
    return [float.hex(x) for x in values]


@st.composite
def forest_corpus(draw) -> ns.Graph:
    """connected_graphs (stars among them) and chains."""
    if draw(st.booleans()):
        return ns.gen_chain(draw(st.integers(1, 120)))
    return draw(connected_graphs())


class TestForestPassMatchesReference:
    """Super-node H from one pass over the forest of internal links against
    one standalone tree graph per super-node (``tests/oracle.py``), bit for bit."""

    @settings(max_examples=200)
    @given(forest_corpus(), st.integers(0, 2**30))
    def test_every_supernode_bitwise(self, g, seed):
        simp = ns.tree_contract(g, ns.order_links_random(g, seed))
        info = ns.simplified_search_information(simp)
        assert hexes(info.h_supernodes) == hexes(reference_supernode_bits(simp))
        result = ns.minimize_h_simp(g, 3, seed)
        for net, net_info in ((result.best, result.best_info), (result.worst, result.worst_info)):
            assert hexes(net_info.h_supernodes) == hexes(reference_supernode_bits(net))

    @settings(max_examples=200)
    @given(st.integers(1, 300), st.integers(0, 2**30))
    def test_single_tree_bitwise(self, n, seed):
        tree = ns.gen_random_tree(n, seed)
        (bits,) = searchinfo._forest_total_bits(tree.adjacency)
        assert float.hex(bits) == float.hex(reference_tree_total_bits(tree))


class TestTrialCost:
    def test_trials_build_no_graph_or_network(self, karate, monkeypatch):
        """minimize builds a skeleton graph only for a skeleton it has not
        seen, and a SimplifiedNetwork (with its skeleton) only for the best
        and the worst trial. Every Graph is built by Graph._trusted,
        skeletons and super-node trees included."""
        trials, seed = 500, 42
        distinct = {
            ns.tree_contract(karate, ns.order_links_random(karate, derive_seed(seed, t))).skeleton
            for t in range(trials)
        }
        counts = Counter()
        trusted = ns.Graph._trusted.__func__
        skeleton = contraction._skeleton
        network_new = contraction.SimplifiedNetwork.__new__

        def counting_trusted(cls, *args, **kwargs):
            counts["graph"] += 1
            return trusted(cls, *args, **kwargs)

        def counting_skeleton(*args):
            counts["skeleton"] += 1
            return skeleton(*args)

        def counting_network_new(cls, *args, **kwargs):
            counts["network"] += 1
            return network_new(cls, *args, **kwargs)

        pin_to_one_cpu(monkeypatch)
        monkeypatch.setattr(ns.Graph, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(contraction, "_skeleton", counting_skeleton)
        monkeypatch.setattr(contraction.SimplifiedNetwork, "__new__", counting_network_new)
        ns.minimize_h_simp(karate, trials, seed)
        assert counts["network"] <= 2
        assert counts["skeleton"] <= len(distinct) + 2
        assert counts["graph"] <= len(distinct) + 2


class TestMinimize:
    def test_ring12_extremes(self):
        result = ns.minimize_h_simp(ns.gen_ring(12), 500, 42)
        assert result.best_info.h_simp == pytest.approx(24.0)
        assert result.worst_info.h_simp == pytest.approx(78.0)
        assert len(result.samples) == 500

    def test_triangle_nothing_to_contract(self):
        result = ns.minimize_h_simp(ns.gen_ring(3), 10, 0)
        assert result.best_info.h_simp == result.worst_info.h_simp == pytest.approx(6.0)
        assert result.best.skeleton.node_count == 3

    def test_reproducible(self):
        g = ns.gen_ring(15)
        a = ns.minimize_h_simp(g, 50, 9)
        b = ns.minimize_h_simp(g, 50, 9)
        assert [s.h_simp for s in a.samples] == [s.h_simp for s in b.samples]
        assert a.best_trial == b.best_trial

    def test_skeleton_size_correlates_with_h_skeleton(self, karate):
        # aggregate Fig-2 style behavior: bigger skeletons cost more bits
        from scipy.stats import spearmanr

        samples = ns.minimize_h_simp(karate, 200, 7).samples
        rho, _ = spearmanr(
            [s.skeleton_nodes for s in samples], [s.h_skeleton for s in samples]
        )
        assert rho > 0.9

    def test_rejects_zero_trials(self):
        with pytest.raises(NetskelError):
            ns.minimize_h_simp(ns.gen_ring(5), 0, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            ns.minimize_h_simp(ns.load_edge_list("a b\nb c\nd e"), 5, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(NetskelError, match="no nodes"):
            ns.minimize_h_simp(ns.Graph.from_links(0, []), 5, 1)

    def test_skeletons_are_not_rechecked_for_connectivity(self, karate, monkeypatch):
        calls = []
        check = searchinfo.require_connected
        pin_to_one_cpu(monkeypatch)
        monkeypatch.setattr(searchinfo, "require_connected", lambda g: calls.append(g) or check(g))
        ns.minimize_h_simp(karate, 500, 42)
        assert calls == []


class TestSkeletonMemo:
    """minimize_h_simp computes each distinct skeleton's H once per call;
    every trial must read exactly what an unmemoized trial computes."""

    @staticmethod
    def check_matches_unmemoized(g, trials, seed):
        result = ns.minimize_h_simp(g, trials, seed)
        simps = [
            ns.tree_contract(g, ns.order_links_random(g, derive_seed(seed, t)))
            for t in range(trials)
        ]
        infos = [ns.simplified_search_information(simp) for simp in simps]
        assert result.samples == tuple(
            ns.ContractionSample(
                trial=t,
                skeleton_nodes=simp.skeleton.node_count,
                h_skeleton=info.h_skeleton,
                h_supernodes=info.h_supernodes_total,
                h_simp=info.h_simp,
            )
            for t, (simp, info) in enumerate(zip(simps, infos))
        )
        best = min(range(trials), key=lambda t: infos[t].h_simp)  # first of ties
        worst = max(range(trials), key=lambda t: infos[t].h_simp)
        assert (result.best_trial, result.worst_trial) == (best, worst)
        assert (result.best, result.best_info) == (simps[best], infos[best])
        assert (result.worst, result.worst_info) == (simps[worst], infos[worst])

    @settings(max_examples=150)
    @given(connected_graphs(), st.integers(0, 2**30))
    def test_matches_unmemoized(self, g, seed):
        self.check_matches_unmemoized(g, 8, seed)

    def test_karate_matches_unmemoized(self, karate):
        self.check_matches_unmemoized(karate, 500, 42)

    def test_each_distinct_skeleton_computed_once(self, karate, monkeypatch):
        calls = []
        bits = contraction.skeleton_bits
        pin_to_one_cpu(monkeypatch)
        monkeypatch.setattr(
            contraction, "skeleton_bits", lambda sk: calls.append(sk) or bits(sk)
        )
        ns.minimize_h_simp(karate, 500, 42)
        distinct = set()
        for t in range(500):
            sk = ns.tree_contract(karate, ns.order_links_random(karate, derive_seed(42, t))).skeleton
            distinct.add((sk.node_count, sk.links))
        assert len(distinct) < 50  # skeletons repeat, so a memo that never hits shows
        assert len(calls) == len(distinct)


class TestForkedTrials:
    """minimize_h_simp with its trials shared among forked workers equals the
    serial run bit for bit, and a worker walks its skeletons alone."""

    @settings(max_examples=60)
    @given(connected_graphs(), st.integers(0, 2**30))
    def test_corpus_equals_serial(self, g, seed):
        with forking(cpus=1):
            want = bitwise(ns.minimize_h_simp(g, 7, seed))
        with forking():
            got = bitwise(ns.minimize_h_simp(g, 7, seed))
        assert got == want

    def test_no_nested_fork(self, karate, tmp_path):
        # the children inherit the counting fork and report any call to a file
        parent, forks, fork = os.getpid(), [], os.fork
        nested = tmp_path / "nested"

        def counting_fork():
            if os.getpid() != parent:
                nested.write_text("forked in a worker")
            forks.append(None)
            return fork()

        with forking() as mp:
            mp.setattr(os, "fork", counting_fork)
            ns.minimize_h_simp(karate, 30, 7)
        assert len(forks) == 2
        assert not nested.exists()

    def test_fewer_trials_than_workers_spread_walks(self, karate):
        # 2 trials for 3 processes: the trials run here and every memo
        # miss's skeleton walk forks 2 children
        forks, fork = [], os.fork
        with forking() as mp:
            mp.setattr(os, "fork", lambda: forks.append(None) or fork())
            result = ns.minimize_h_simp(karate, 2, 7)
        distinct = {(s.skeleton_nodes, s.h_skeleton) for s in result.samples}
        assert len(forks) == 2 * len(distinct)


class TestScaling:
    def test_star_contraction_is_near_linear(self):
        """Doubling the star must not double the cost twice over; a ratio of
        the kernel with itself does not depend on the machine's speed. A
        shared machine changes speed over tenths of a second, so the two
        sizes are timed in turn and each keeps its minimum over ten repeats
        (with three, one size alone could land in a fast spell). The cyclic
        garbage collector is off while timing: a full collection costs in
        proportion to every object the test process holds, not to the
        kernel's own work."""
        cases = {}
        for n in (4000, 8000):
            g = star(n)
            cases[n] = (g, ns.order_links_random(g, 1))
        best = dict.fromkeys(cases, float("inf"))
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                for n, (g, order) in cases.items():
                    t0 = time.perf_counter()
                    ns.simplified_search_information(ns.tree_contract(g, order))
                    best[n] = min(best[n], time.perf_counter() - t0)
        finally:
            gc.enable()
        ratio = best[8000] / best[4000]
        assert ratio < 2.5, f"time(8000)/time(4000) = {ratio:.2f}"

    def test_star_hub_drops_each_leaf_with_one_remove(self, monkeypatch):
        """The test above counted in calls rather than seconds: every merge of
        a star absorbs a dangling leaf, so the hub's set takes one remove per
        leaf and no update, discard or add (there is nothing to relabel). An
        update and two removes per leaf made the star contraction 2.3-2.5 times
        as slow."""
        calls = Counter()

        class CountingSet(set):
            def __init__(self, entries=()):
                super().__init__(entries)
                calls["sets"] += 1

            def remove(self, entry):
                calls["remove"] += 1
                super().remove(entry)

            def update(self, *others):
                calls["update"] += 1
                super().update(*others)

            def discard(self, entry):
                calls["discard"] += 1
                super().discard(entry)

            def add(self, entry):
                calls["add"] += 1
                super().add(entry)

        monkeypatch.setattr(contraction, "set", CountingSet, raising=False)
        g = star(8000)
        simp = ns.tree_contract(g, ns.order_links_random(g, 1))
        assert simp.skeleton.node_count == 1
        assert calls == {"sets": 1, "remove": 7999}
