import gc
import hashlib
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netskel as ns
from netskel.errors import ConnectivityError, NetskelError
from conftest import connected_graphs, random_connected_graph, tree_with_chords
from oracle import reference_rewire_degree_preserving


def edge_list_digest(g: ns.Graph) -> str:
    return hashlib.sha256(ns.write_edge_list(g).encode()).hexdigest()


class TestRingAndChain:
    def test_ring3_is_triangle(self):
        g = ns.gen_ring(3)
        assert g.link_count == 3
        assert ns.cyclomatic_number(g) == 1

    def test_ring12(self):
        g = ns.gen_ring(12)
        assert (g.node_count, g.link_count) == (12, 12)
        assert set(g.degrees) == {2}

    def test_chain1(self):
        g = ns.gen_chain(1)
        assert (g.node_count, g.link_count) == (1, 0)

    def test_minimum_sizes(self):
        with pytest.raises(NetskelError):
            ns.gen_ring(2)
        with pytest.raises(NetskelError):
            ns.gen_chain(0)


class TestRandomTree:
    def test_n2_unique(self):
        assert ns.gen_random_tree(2, 77).links == ((0, 1),)

    def test_n3_always_a_path(self):
        for seed in range(30):
            t = ns.gen_random_tree(3, seed)
            assert sorted(t.degrees) == [1, 1, 2]
            assert ns.total_search_information(t).total_bits == pytest.approx(2.0)

    def test_always_tree(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randint(1, 60)
            t = ns.gen_random_tree(n, rng.randrange(1 << 30))
            assert t.link_count == n - 1
            assert ns.is_connected(t)

    def test_deterministic(self):
        assert ns.gen_random_tree(25, 3).links == ns.gen_random_tree(25, 3).links

    def test_leaf_count_matches_uniform_expectation(self):
        # a node is a leaf iff its label is absent from the length-(n-2)
        # code sequence, so E[leaves] = n * (1 - 1/n)^(n-2)
        n, samples = 50, 4000
        total = sum(
            sum(1 for d in ns.gen_random_tree(n, seed).degrees if d == 1)
            for seed in range(samples)
        )
        expected = n * (1 - 1 / n) ** (n - 2)
        assert total / samples == pytest.approx(expected, rel=0.02)

    def test_small_trees_uniformly_distributed(self):
        # 3 labeled trees on 3 nodes, keyed by the degree-2 center
        counts = Counter(
            ns.gen_random_tree(3, seed).degrees.index(2) for seed in range(3000)
        )
        for center in range(3):
            assert counts[center] == pytest.approx(1000, rel=0.15)


class TestRewire:
    def test_triangle_is_fixed_point(self):
        g = ns.gen_ring(3)
        assert ns.rewire_degree_preserving(g, 500, 1).links == g.links

    def test_ring12_stays_degree_two_connected(self):
        g = ns.rewire_degree_preserving(ns.gen_ring(12), 1000, 5)
        assert set(g.degrees) == {2}
        assert ns.is_connected(g)

    def test_karate_properties(self, karate):
        rewired = ns.rewire_degree_preserving(karate, 10 * karate.link_count, 11)
        assert sorted(rewired.degrees) == sorted(karate.degrees)
        assert ns.is_connected(rewired)
        assert rewired.links != karate.links
        assert rewired.labels == karate.labels

    def test_random_corpus_invariants(self):
        rng = random.Random(21)
        for _ in range(15):
            g = random_connected_graph(rng.randint(5, 25), 0.3, rng.randrange(1 << 30))
            out = ns.rewire_degree_preserving(g, 4 * g.link_count, rng.randrange(1 << 30))
            assert sorted(out.degrees) == sorted(g.degrees)
            assert ns.is_connected(out)
            assert sum(out.degrees) == 2 * out.link_count

    def test_disconnected_input_rejected(self):
        g = ns.load_edge_list("a b\nc d")
        with pytest.raises(ConnectivityError):
            ns.rewire_degree_preserving(g, 10, 0)

    def test_swap_check_is_sublinear(self):
        """A swap's connectivity check must not visit all N nodes: with the
        same number of attempts, a graph four times larger may cost only
        the O(N) copy in and out more. Timed like TestScaling in
        test_contraction.py: sizes in turn, the minimum of ten repeats,
        the cyclic garbage collector off."""
        cases = {n: tree_with_chords(n, n // 5, 1) for n in (1000, 4000)}
        best = dict.fromkeys(cases, float("inf"))
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                for n, g in cases.items():
                    t0 = time.perf_counter()
                    ns.rewire_degree_preserving(g, 1000, 1)
                    best[n] = min(best[n], time.perf_counter() - t0)
        finally:
            gc.enable()
        ratio = best[4000] / best[1000]
        assert ratio < 3.5, f"time(4000)/time(1000) = {ratio:.2f}"


class TestRewireMatchesReference:
    """The early-exit check must accept and reject exactly the swaps that a
    full DFS after each swap does (``tests/oracle.py``)."""

    @settings(max_examples=200)
    @given(connected_graphs(), st.integers(0, 2**30))
    def test_corpus_matches_full_dfs(self, g, seed):
        attempts = 10 * g.link_count
        out = ns.rewire_degree_preserving(g, attempts, seed)
        assert out.links == reference_rewire_degree_preserving(g, attempts, seed).links

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_karate_matches_full_dfs(self, karate, seed):
        attempts = 10 * karate.link_count
        out = ns.rewire_degree_preserving(karate, attempts, seed)
        assert out.links == reference_rewire_degree_preserving(karate, attempts, seed).links

    def test_output_pinned(self, karate):
        # digests of the full-DFS rewiring that the early-exit check replaced
        out = ns.rewire_degree_preserving(karate, 10 * karate.link_count, 11)
        assert edge_list_digest(out) == (
            "3b7ccf04994949af00ebf0e9d9e69ecec9f8935b50c8a3b84c62fec13603e6be"
        )
        assert edge_list_digest(ns.rewire_degree_preserving(ns.gen_ring(40), 400, 3)) == (
            "1192cedffbebd13bf44078604ff793f75a834a765492b3f1d27ee2bac8a85a63"
        )


class TestTreeScaling:
    def test_all_threes(self):
        rows, fit = ns.tree_scaling_experiment(3, 3, 1, 100, 9)
        assert len(rows) == 1
        assert rows[0].mean_bits == pytest.approx(2.0)
        assert rows[0].std_bits == 0.0
        assert fit is None

    def test_single_sample_std_zero(self):
        rows, _ = ns.tree_scaling_experiment(5, 15, 5, 1, 13)
        assert all(r.std_bits == 0.0 for r in rows)
        assert all(r.samples == 1 for r in rows)

    def test_deterministic(self):
        a, _ = ns.tree_scaling_experiment(5, 25, 10, 20, 4)
        b, _ = ns.tree_scaling_experiment(5, 25, 10, 20, 4)
        assert [(r.n, r.mean_bits) for r in a] == [(r.n, r.mean_bits) for r in b]

    def test_fit_tracks_growth(self):
        rows, fit = ns.tree_scaling_experiment(10, 60, 10, 50, 17)
        assert fit is not None
        assert fit.exponent > 2.0
        assert fit.r_squared >= 0.99
        assert all(
            a.mean_bits < b.mean_bits for a, b in zip(rows, rows[1:])
        )

    def test_rejects_bad_ranges(self):
        with pytest.raises(NetskelError):
            ns.tree_scaling_experiment(1, 10, 1, 1, 0)
        with pytest.raises(NetskelError):
            ns.tree_scaling_experiment(10, 5, 1, 1, 0)
        with pytest.raises(NetskelError):
            ns.tree_scaling_experiment(5, 10, 0, 1, 0)
        with pytest.raises(NetskelError):
            ns.tree_scaling_experiment(5, 10, 1, 0, 0)
