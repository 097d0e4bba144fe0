import errno
import itertools
import math
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import netskel as ns
from netskel import contraction, searchinfo
from netskel.errors import ConnectivityError, NetskelError, UnreachableError
from conftest import (
    bitwise,
    connected_graphs,
    deep_diamond_chain,
    forking,
    random_connected_graph,
    tree_with_chords,
    underflowing_diamond_chains,
)
import oracle
from oracle import (
    brute_force_pair_bits,
    brute_force_total_bits,
    reference_source_log2_probabilities,
)


def parts_without(g: ns.Graph, cut: int) -> list[list[int]]:
    """The node lists of the connected components of g with the node cut removed."""
    seen = [False] * g.node_count
    seen[cut] = True
    parts = []
    for root in range(g.node_count):
        if not seen[root]:
            seen[root] = True
            part = [root]
            for u in part:
                for v in g.adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        part.append(v)
            parts.append(part)
    return parts


def reference_row(g: ns.Graph, s: int) -> list[float]:
    """The pair bits of the two-pass kernel: -log2 A, with 0.0 for -0.0."""
    return [-x if x != 0.0 else 0.0 for x in reference_source_log2_probabilities(g, s)]


def tree_total(g: ns.Graph) -> float:
    """The forest pass on a single tree."""
    (bits,) = searchinfo._forest_total_bits(g.adjacency)
    return bits


def hexes(row) -> list[str]:
    return [float.hex(x) for x in row]


def assert_rows_match_reference(g: ns.Graph) -> None:
    """Every row bit for bit, and per-source bits equal to the old -fsum(log2 A)."""
    for s, row in enumerate(ns.search_information_rows(g)):
        assert hexes(row) == hexes(reference_row(g, s))
        assert math.fsum(row) == -math.fsum(reference_source_log2_probabilities(g, s))


class TestPairSearchInformation:
    def test_triangle_adjacent(self):
        assert ns.pair_search_information(ns.gen_ring(3), 0, 1) == pytest.approx(1.0)

    def test_four_cycle_opposite_is_free(self):
        # two degenerate paths: 1/2 + 1/2 = 1
        assert ns.pair_search_information(ns.gen_ring(4), 0, 2) == pytest.approx(0.0)

    def test_chain_middle_to_end(self):
        assert ns.pair_search_information(ns.gen_chain(3), 1, 0) == pytest.approx(1.0)

    def test_same_node_is_zero(self):
        assert ns.pair_search_information(ns.gen_ring(5), 2, 2) == 0.0

    @pytest.mark.parametrize("s, d", [(-1, 0), (5, 0), (0, -1), (0, 5)])
    def test_out_of_range_index_raises(self, s, d):
        with pytest.raises(NetskelError, match="invalid"):
            ns.pair_search_information(ns.gen_ring(5), s, d)

    def test_unreachable_raises(self):
        g = ns.Graph.from_links(3, [(0, 1)])
        with pytest.raises(UnreachableError):
            ns.pair_search_information(g, 0, 2)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng.randint(4, 8), 0.4, rng.randrange(1 << 30))
            for s in range(g.node_count):
                for d in range(g.node_count):
                    got = ns.pair_search_information(g, s, d)
                    want = brute_force_pair_bits(g, s, d)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_asymmetry_exists(self):
        # star: center->leaf costs log2(k), leaf->center is free
        g = ns.Graph.from_links(4, [(0, 1), (0, 2), (0, 3)])
        assert ns.pair_search_information(g, 0, 1) > 0
        assert ns.pair_search_information(g, 1, 0) == pytest.approx(0.0)

    def test_extra_shortest_path_never_increases_bits(self):
        # 0-1-2 path vs. 0-1-2 plus disjoint 0-3-2: second route lowers H
        single = ns.gen_chain(3)
        double = ns.gen_ring(4)
        assert ns.pair_search_information(double, 0, 2) <= ns.pair_search_information(
            single, 0, 2
        )

    def test_deep_graph_underflow_stays_finite(self):
        # comb: long path with a pendant leaf on every interior node, so the
        # walker pays one bit per hop; probabilities underflow plain floats
        n = 1200
        links = [(i, i + 1) for i in range(n - 1)]
        links += [(i, n + i - 1) for i in range(1, n - 1)]
        g = ns.Graph.from_links(n + n - 2, links)
        bits = ns.pair_search_information(g, 0, n - 1)
        assert math.isfinite(bits)
        assert bits == pytest.approx(n - 2)

    def test_deep_diamond_chain_underflow_sums_predecessors(self):
        k, p = 400, 6
        g = deep_diamond_chain(k, p)
        want = 1 + (k - 1) * math.log2(3) + k * math.log2(1 + p) - k
        assert ns.pair_search_information(g, 0, k) == pytest.approx(want, abs=1e-9)


class TestTotalSearchInformation:
    def test_chain_of_three(self):
        assert ns.total_search_information(ns.gen_chain(3)).total_bits == pytest.approx(2.0)

    def test_triangle(self):
        assert ns.total_search_information(ns.gen_ring(3)).total_bits == pytest.approx(6.0)

    def test_karate(self, karate):
        report = ns.total_search_information(karate)
        assert report.total_bits == pytest.approx(6061, abs=1)

    def test_report_consistency(self, karate):
        report = ns.total_search_information(karate)
        rows = list(ns.search_information_rows(karate))
        assert len(rows) == 34
        assert report.total_bits == pytest.approx(sum(report.per_source_bits))
        assert report.average_bits == pytest.approx(report.total_bits / 34**2)
        assert all(rows[s][s] == 0.0 for s in range(34))
        assert all(b >= 0 for row in rows for b in row)
        assert all(math.fsum(row) == report.per_source_bits[s] for s, row in enumerate(rows))

    def test_no_negative_zero_bits(self):
        # every path from a chain end costs 0 bits; -fsum of zeros was -0.0
        report = ns.total_search_information(ns.gen_chain(3))
        assert report.per_source_bits == (0.0, 2.0, 0.0)
        assert all(math.copysign(1, b) == 1 for b in report.per_source_bits)
        assert math.copysign(1, report.total_bits) == 1

    def test_rows_mark_unreachable_as_inf(self):
        g = ns.Graph.from_links(3, [(0, 1)])
        assert list(ns.search_information_rows(g)) == [
            [0.0, 0.0, math.inf],
            [0.0, 0.0, math.inf],
            [math.inf, math.inf, 0.0],
        ]

    def test_matches_brute_force(self):
        g = random_connected_graph(7, 0.4, 99)
        assert ns.total_search_information(g).total_bits == pytest.approx(
            brute_force_total_bits(g), abs=1e-9
        )

    def test_disconnected_rejected_naming_nodes(self):
        g = ns.load_edge_list("a b\nc d")
        with pytest.raises(ConnectivityError, match="'a'.*'c'"):
            ns.total_search_information(g)

    def test_single_node(self):
        report = ns.total_search_information(ns.gen_chain(1))
        assert report.total_bits == 0.0
        assert report.average_bits == 0.0


class TestExactIdentities:
    """Identities that hold exactly for every connected graph, checked to
    IDENTITY_BITS with no oracle. Each shortest path from s to d has
    probability (1/k_s) * prod 1/(k_j - 1) over its interior nodes j, so
    reversing it changes only the first factor."""

    IDENTITY_BITS = 1e-12

    @settings(max_examples=150)
    @given(connected_graphs())
    def test_reversal(self, g):
        # H(d->s) - H(s->d) = log2 k_d - log2 k_s for every ordered pair
        rows = list(ns.search_information_rows(g))
        log_k = [math.log2(k) for k in g.degrees]
        worst = max(
            abs(rows[d][s] - rows[s][d] - (log_k[d] - log_k[s]))
            for s in range(g.node_count)
            for d in range(g.node_count)
        )
        assert worst <= self.IDENTITY_BITS

    @settings(max_examples=150)
    @given(connected_graphs())
    def test_reversal_row_sums(self, g):
        # per_source_bits[s] - (N-1) log2 k_s = sum over d != s of H(d->s) - log2 k_d
        n = g.node_count
        per_source = ns.total_search_information(g).per_source_bits
        rows = list(ns.search_information_rows(g))
        log_k = [math.log2(k) for k in g.degrees]
        for s in range(n):
            column = math.fsum(rows[d][s] - log_k[d] for d in range(n) if d != s)
            assert abs(per_source[s] - (n - 1) * log_k[s] - column) <= self.IDENTITY_BITS

    @settings(max_examples=150)
    @given(connected_graphs())
    def test_cut_vertex_identity(self, g):
        # H(s->d) = H(s->a) + H(a->d) - log2 k_a + log2(k_a - 1) wherever
        # removing a separates s from d: every path passes a, and the walker
        # leaves a over one of its k_a - 1 other links, not one of k_a
        rows = list(ns.search_information_rows(g))
        pairs = 0
        for a in range(g.node_count):
            k = g.degrees[a]
            if k < 2:
                continue  # a leaf separates nothing
            shift = math.log2(k - 1) - math.log2(k)
            for sources, dests in itertools.permutations(parts_without(g, a), 2):
                for s, d in itertools.product(sources, dests):
                    assert abs(rows[s][d] - rows[s][a] - rows[a][d] - shift) <= self.IDENTITY_BITS
                    pairs += 1
        if g.link_count == g.node_count - 1 > 1:
            assert pairs > 0  # every node of a tree that is not a leaf is a cut vertex


class TestFusedKernelMatchesReference:
    """The single-pass kernel against the two-pass BFS + DP it replaced
    (``tests/oracle.py``), compared bit for bit."""

    @settings(max_examples=400)
    @given(connected_graphs())
    def test_corpus_rows_bitwise(self, g):
        assert_rows_match_reference(g)

    def test_karate_rows_bitwise(self, karate):
        assert_rows_match_reference(karate)

    @settings(max_examples=200)
    @given(connected_graphs())
    def test_log_row_matches_reference_walk(self, g):
        for s in range(g.node_count):
            want = oracle._walk_log2_probabilities(g, s, *oracle._bfs(g, s))
            assert hexes(searchinfo._log_row(g, s)) == hexes([0.0 - x for x in want])

    @settings(max_examples=100)
    @given(st.lists(connected_graphs(), min_size=2, max_size=3))
    def test_log_row_marks_unreached_nodes_as_reference_walk(self, parts):
        """On a disjoint union of connected graphs, every node of another
        component is inf, and the rest of the row matches bit for bit."""
        links, offset, component = [], 0, []
        for part in parts:
            links += [(u + offset, v + offset) for u, v in part.links]
            component += [offset] * part.node_count
            offset += part.node_count
        g = ns.Graph.from_links(offset, links)
        for s in range(g.node_count):
            want = oracle._walk_log2_probabilities(g, s, *oracle._bfs(g, s))
            row = searchinfo._log_row(g, s)
            assert hexes(row) == hexes([0.0 - x for x in want])
            assert [x == math.inf for x in row] == [c != component[s] for c in component]

    def test_log_space_fallback_bitwise(self, monkeypatch):
        # hub 0 and hub k underflow; from the middle hub every A stays above
        # the threshold, as it does from a pendant leaf next to the middle
        k = 400
        g = deep_diamond_chain(k)
        walked = []
        log_row = searchinfo._log_row

        def counting_log_row(graph, source):
            walked.append(source)
            return log_row(graph, source)

        monkeypatch.setattr(searchinfo, "_log_row", counting_log_row)
        middle_leaf = g.adjacency[g.adjacency[k // 2][-1]][-1]
        sources = [0, k, k // 2, middle_leaf]
        for s in sources:
            assert hexes(searchinfo._source_row(g, s)) == hexes(reference_row(g, s))
        assert walked == [0, k]

    @settings(max_examples=8)
    @given(underflowing_diamond_chains(), st.integers(0, 2**30))
    def test_underflow_switch_bitwise(self, chain, seed):
        """Where the walks from both ends give up, the log-space rows equal the
        two-pass kernel's and the per-source bits their fsum, bit for bit."""
        g, k = chain
        assert searchinfo._walk(g, 0) is None and searchinfo._walk(g, k) is None
        for s in (0, k, seed % g.node_count):
            row = searchinfo._source_row(g, s)
            assert hexes(row) == hexes(reference_row(g, s))
            assert float.hex(searchinfo._source_bits(g, s)) == float.hex(math.fsum(row))


class TestSourceBitsWithoutRows:
    """Per-source totals from the walk's probabilities equal the fsum of the
    row of pair bits, bit for bit."""

    @staticmethod
    def assert_bits_match_rows(g, sources):
        for s in sources:
            want = math.fsum(searchinfo._source_row(g, s))
            assert float.hex(searchinfo._source_bits(g, s)) == float.hex(want)

    @settings(max_examples=300)
    @given(connected_graphs())
    def test_corpus_bitwise(self, g):
        self.assert_bits_match_rows(g, range(g.node_count))

    def test_log_space_fallback_bitwise(self):
        k = 400
        g = deep_diamond_chain(k)
        assert searchinfo._walk(g, 0) is None and searchinfo._walk(g, k) is None
        self.assert_bits_match_rows(g, [0, k, k // 2])

    def test_report_per_source_equals_row_sums(self, karate):
        report = ns.total_search_information(karate)
        rows = ns.search_information_rows(karate)
        assert report.per_source_bits == tuple(map(math.fsum, rows))


def serial_bits(g: ns.Graph) -> list[float]:
    return [searchinfo._source_bits(g, s) for s in range(g.node_count)]


# The two users of searchinfo._spread: every source of a graph, and the
# trials of minimize_h_simp (30 karate trials, shared among 3 processes
# under forking()). Each user's result is compared bitwise with its serial run.
USERS = ("sources", "trials")


def run_user(user: str, g: ns.Graph):
    if user == "sources":
        return hexes(searchinfo._all_source_bits(g))
    return bitwise(contraction.minimize_h_simp(g, 30, 7))


def serial_run(user: str, g: ns.Graph):
    with forking(cpus=1):
        return run_user(user, g)


class TestForkedWorkers:
    """_all_source_bits and minimize_h_simp spread over forked children equal
    their serial results bit for bit, recover every lost share and leave no
    child behind; a _spread inside another's share forks nothing."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @settings(max_examples=100)
    @given(connected_graphs())
    def test_corpus_bitwise(self, g):
        forks = []
        fork = os.fork
        with forking() as mp:
            mp.setattr(os, "fork", lambda: forks.append(None) or fork())
            bits = searchinfo._all_source_bits(g)
        assert len(forks) == 2
        assert hexes(bits) == hexes(serial_bits(g))
        self.assert_no_child_left()

    def test_log_space_redo_in_children_bitwise(self, monkeypatch):
        # a raised threshold makes the walks from both ends of a short chain
        # give up, so every child's share redoes some sources in log space
        monkeypatch.setattr(searchinfo, "UNDERFLOW_THRESHOLD", 2.0**-95)
        g = deep_diamond_chain(31)
        redone = [s for s in range(g.node_count) if searchinfo._walk(g, s) is None]
        assert {s % 3 for s in redone} == {0, 1, 2}
        with forking():
            bits = searchinfo._all_source_bits(g)
        assert hexes(bits) == hexes(serial_bits(g))

    @pytest.mark.parametrize(
        "failure, user",
        [
            pytest.param(failure, user, id=failure if user == "sources" else f"{failure}-{user}")
            for user in USERS
            for failure in ("raises", "sends nothing", "fork fails", "pipe fails")
        ],
    )
    def test_lost_share_is_walked_here(self, failure, user, karate):
        parent = os.getpid()
        source_bits = searchinfo._source_bits

        def raising_in_children(g, s):  # each child's first trial walks a skeleton
            if os.getpid() != parent:
                raise RuntimeError("walker failed")
            return source_bits(g, s)

        def no_fork():
            raise OSError(errno.EAGAIN, "fork refused")

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        want = serial_run(user, karate)
        with forking() as mp:
            if failure == "raises":
                mp.setattr(searchinfo, "_source_bits", raising_in_children)
            elif failure == "sends nothing":
                mp.setattr(searchinfo, "_send_share", lambda item, share, write_end: os._exit(0))
            elif failure == "fork fails":
                mp.setattr(os, "fork", no_fork)
            else:
                mp.setattr(os, "pipe", no_pipe)
            got = run_user(user, karate)
        assert got == want
        self.assert_no_child_left()

    @pytest.mark.parametrize("user", USERS)
    def test_no_fork_beside_another_thread(self, user, karate):
        def refuse():
            raise AssertionError("forked beside a live thread")

        want = serial_run(user, karate)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            with forking() as mp:
                mp.setattr(os, "fork", refuse)
                got = run_user(user, karate)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert got == want

    def test_nested_spread_runs_in_its_share(self, tmp_path):
        # the children inherit the counting fork and report any call to a file
        parent, forks, fork = os.getpid(), [], os.fork
        nested = tmp_path / "nested"

        def counting_fork():
            if os.getpid() != parent:
                nested.write_text("forked in a worker")
            forks.append(None)
            return fork()

        def inner(i):
            return ",".join(searchinfo._spread(4, 100, lambda j: str(4 * i + j)))

        with forking() as mp:
            mp.setattr(os, "fork", counting_fork)
            got = searchinfo._spread(6, 100, inner)
        assert got == [",".join(str(4 * i + j) for j in range(4)) for i in range(6)]
        assert len(forks) == 2
        assert not nested.exists()
        self.assert_no_child_left()

    def test_share_of_a_failed_fork_spreads_when_redone(self, tmp_path):
        # the share of item 1 gets no child, so it is redone after the reap,
        # where its nested _spread may fork; items 0 and 2 nest without forking
        parent, forks, fork = os.getpid(), [], os.fork
        nested = tmp_path / "nested"

        def failing_first_fork():
            if os.getpid() != parent:
                nested.write_text("forked in a worker")
            forks.append(None)
            if len(forks) == 1:
                raise OSError(errno.EAGAIN, "fork refused")
            return fork()

        def inner(i):
            return ",".join(searchinfo._spread(4, 100, lambda j: str(4 * i + j)))

        with forking() as mp:
            mp.setattr(os, "fork", failing_first_fork)
            got = searchinfo._spread(3, 100, inner)
        assert got == [",".join(str(4 * i + j) for j in range(4)) for i in range(3)]
        assert len(forks) == 4
        assert not nested.exists()
        self.assert_no_child_left()

    def test_failed_share_lets_the_next_call_fork(self, karate):
        parent, forks, fork = os.getpid(), [], os.fork
        source_bits = searchinfo._source_bits

        def raising_here(g, s):
            if os.getpid() == parent:
                raise RuntimeError("walker failed")
            return source_bits(g, s)

        with forking() as mp:
            mp.setattr(os, "fork", lambda: forks.append(None) or fork())
            mp.setattr(searchinfo, "_source_bits", raising_here)
            with pytest.raises(RuntimeError, match="walker failed"):
                searchinfo._all_source_bits(karate)
            self.assert_no_child_left()
            mp.setattr(searchinfo, "_source_bits", source_bits)
            bits = searchinfo._all_source_bits(karate)
        assert len(forks) == 4
        assert hexes(bits) == hexes(serial_bits(karate))
        self.assert_no_child_left()

    def test_worker_count_from_cpus_and_work(self, monkeypatch):
        # one worker per CPU, but none with less than the break-even work
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        break_even = searchinfo.FORK_BREAK_EVEN_WORK
        work = [k * break_even for k in range(1, 6)] + [2 * break_even - 1]
        assert [searchinfo._worker_count(w) for w in work] == [1, 2, 3, 4, 4, 1]

    @staticmethod
    def run_forking(script: str, *argv: str) -> list[str]:
        """The words script prints, run in a fresh interpreter where every
        graph with a link forks one walker; it must finish within 60 s."""
        prelude = (
            "import io, os, sys\n"
            "from netskel import cli, gen_chain, searchinfo\n"
            "searchinfo.FORK_BREAK_EVEN_WORK = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
        )
        src = os.path.dirname(os.path.dirname(ns.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", prelude + script, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_forked_cli_loads_no_process_pool(self, tmp_path):
        edges = tmp_path / "er.edges"
        edges.write_text(ns.write_edge_list(random_connected_graph(40, 0.25, 5)), encoding="utf-8")
        script = (
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "code = cli.run(['search-info', sys.argv[1]], io.StringIO(), io.StringIO(), sys.stderr)\n"
            "print(code, len(forks), 'multiprocessing' in sys.modules)\n"
        )
        assert self.run_forking(script, str(edges)) == ["0", "1", "False"]

    def test_forked_minimize_stdout_is_serial(self, tmp_path):
        # each minimize runs on one CPU, then shares its trials with one child
        edges = tmp_path / "chords.edges"
        edges.write_text(ns.write_edge_list(tree_with_chords(120, 20, 3)), encoding="utf-8")
        script = (
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "outs = {}\n"
            "for fmt in ('json', 'csv'):\n"
            "    for cpus in ({0}, {0, 1}):\n"
            "        os.sched_getaffinity = lambda pid: cpus\n"
            "        out = io.StringIO()\n"
            "        argv = ['minimize', sys.argv[1], '--trials', '40', '--format', fmt]\n"
            "        assert cli.run(argv, io.StringIO(), out, sys.stderr) == 0\n"
            "        outs.setdefault(fmt, []).append(out.getvalue())\n"
            "        print(len(forks))\n"
            "print(*(len(set(o)) for o in outs.values()), 'multiprocessing' in sys.modules)\n"
        )
        assert self.run_forking(script, str(edges)) == ["0", "1", "1", "2", "1", "1", "False"]

    def test_parent_failure_reaps_a_child_blocked_on_its_pipe(self):
        # the child's share of 10,000 values overfills its pipe, so it can
        # only leave once the failed parent closes the read end
        script = (
            "parent = os.getpid()\n"
            "def source_bits(g, s):\n"
            "    if os.getpid() == parent:\n"
            "        raise RuntimeError('parent failed')\n"
            "    return 1.0\n"
            "searchinfo._source_bits = source_bits\n"
            "try:\n"
            "    searchinfo._all_source_bits(gen_chain(20000))\n"
            "except RuntimeError as exc:\n"
            "    print(exc.args[0].replace(' ', '-'))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('reaped')\n"
        )
        assert self.run_forking(script) == ["parent-failed", "reaped"]


class TestTreeTotal:
    """The O(N) tree total against the DAG DP and the brute-force oracle."""

    @staticmethod
    def star(n):
        return ns.Graph.from_links(n, [(0, i) for i in range(1, n)])

    def test_random_trees_match_dag_dp(self):
        for seed in (1, 2, 3, 4):
            for n in range(1, 121):
                tree = ns.gen_random_tree(n, seed * 1000 + n)
                want = ns.total_search_information(tree).total_bits
                assert tree_total(tree) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 57, 200])
    def test_stars_match_dag_dp(self, n):
        g = self.star(n)
        want = ns.total_search_information(g).total_bits
        assert tree_total(g) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 99, 300])
    def test_chains_equal_closed_form(self, n):
        g = ns.gen_chain(n)
        assert tree_total(g) == (n - 2) * (n - 1)
        want = ns.total_search_information(g).total_bits
        assert tree_total(g) == pytest.approx(want, abs=1e-9)

    def test_small_trees_match_oracle(self):
        for seed in range(20):
            for n in range(1, 9):
                tree = ns.gen_random_tree(n, seed * 100 + n)
                assert tree_total(tree) == pytest.approx(
                    brute_force_total_bits(tree), abs=1e-9
                )


class TestChainClosedForm:
    @pytest.mark.parametrize("n", [1, 2])
    def test_degenerate_sizes(self, n):
        assert ns.chain_search_information(n) == 0.0

    def test_n4(self):
        assert ns.chain_search_information(4) == 6.0

    def test_n10(self):
        assert ns.chain_search_information(10) == 72.0

    def test_rejects_zero(self):
        with pytest.raises(NetskelError):
            ns.chain_search_information(0)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_matches_direct_computation(self, n):
        direct = ns.total_search_information(ns.gen_chain(n)).total_bits
        assert direct == pytest.approx(ns.chain_search_information(n))


class TestRingMinimum:
    def test_n12(self):
        bits, parts = ns.ring_min_simplified_H(12)
        assert bits == 24.0
        assert parts == (4, 4, 4)

    def test_n3(self):
        bits, parts = ns.ring_min_simplified_H(3)
        assert bits == 6.0
        assert parts == (1, 1, 1)

    def test_n13_matches_exhaustive_search(self):
        best = min(
            6 + sum((p - 2) * (p - 1) for p in (a, b, 13 - a - b))
            for a in range(1, 12)
            for b in range(1, 13 - a)
        )
        bits, parts = ns.ring_min_simplified_H(13)
        assert bits == best == 30.0
        assert sorted(parts, reverse=True) == [5, 4, 4]

    @pytest.mark.parametrize("n", [3, 6, 9, 12, 15, 30, 99])
    def test_divisible_by_three_closed_form(self, n):
        bits, _ = ns.ring_min_simplified_H(n)
        assert bits == pytest.approx(n**2 / 3 - 3 * n + 12)

    def test_rejects_small(self):
        with pytest.raises(NetskelError):
            ns.ring_min_simplified_H(2)
