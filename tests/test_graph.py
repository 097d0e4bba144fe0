import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netskel as ns
from netskel import graph
from netskel.errors import NetskelError, ParseError, ValidationError
from conftest import edge_list_texts
from oracle import quotient_graph, reference_graph


def labelled_links(g):
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.links}


def links_and_labels(n):
    """Links without self-loops or repeats on n nodes, and a label or None (a
    plain label) for each node; the labels may repeat, hold whitespace or
    start with '#'."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    label = st.none() | st.text(st.sampled_from("abcd\u00e9#\t \x1c"), min_size=1, max_size=3)
    return st.tuples(
        st.lists(pair, max_size=8, unique_by=frozenset),
        st.lists(label, min_size=n, max_size=n),
    )


@st.composite
def trusted_inputs(draw):
    """A node count from 0 to 200 and distinct links on it, each in either
    orientation and in any order, with or without labels. Beside random links
    (most nodes isolated) there may be a hub with more than
    graph._TUPLE_BATCH neighbours and runs of consecutive first ends that
    start a little before or after a multiple of graph._TUPLE_BATCH, so
    neighbour lists are turned into tuples on both sides of a run's ends."""
    n = draw(st.integers(0, 200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    batch = graph._TUPLE_BATCH
    links = set()
    if n >= 2:
        links.update((rng.randrange(n), rng.randrange(n)) for _ in range(draw(st.integers(0, 100))))
        if n > batch + 1 and draw(st.booleans()):
            hub = rng.randrange(n)
            links.update((hub, leaf) for leaf in rng.sample(range(n), draw(st.integers(batch + 2, n))))
        near = [k * batch + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2) if k * batch + d < n - 1]
        starts = (st.sampled_from(near) | st.integers(0, n - 2)) if near else st.integers(0, n - 2)
        for start in draw(st.lists(starts, max_size=3)):
            for u in range(start, min(n - 1, start + draw(st.integers(1, batch + 16)))):
                links.update((u, rng.randint(u + 1, n - 1)) for _ in range(rng.randint(1, 3)))
    distinct = list({frozenset(link): link for link in links if link[0] != link[1]}.values())
    rng.shuffle(distinct)
    oriented = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in distinct]
    labels = draw(st.none() | st.just([f"v{i}" for i in range(n)]))
    return n, oriented, labels


# Prints the growth of VmRSS, in KiB, over one build of the graph of the edge
# list on stdin from its parsed links, by Graph._trusted or by the reference.
HOLD_SCRIPT = """
import sys
from netskel import graph
from oracle import reference_graph

def rss_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])

labels, links = graph._parse_edge_list(sys.stdin.read())
build = graph.Graph._trusted if sys.argv[1] == "trusted" else reference_graph
before = rss_kib()
g = build(len(labels), links, labels)
print(rss_kib() - before)
"""


def parsed(text):
    """load_edge_list's graph, or the type and message of its error."""
    try:
        return ns.load_edge_list(text)
    except NetskelError as exc:
        return type(exc), str(exc)


class TestLoadEdgeList:
    def test_path_of_three(self):
        g = ns.load_edge_list("a b\nb c")
        assert g.node_count == 3
        assert g.link_count == 2
        assert g.degrees == (1, 2, 1)
        assert g.labels == ("a", "b", "c")

    def test_karate(self, karate):
        assert karate.node_count == 34
        assert karate.link_count == 78

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ns.load_edge_list("a b\nb a")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            ns.load_edge_list("a a")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            ns.load_edge_list("a b\n# comment\nx y z")

    def test_comments_and_blanks_ignored(self):
        g = ns.load_edge_list("# header\n\na b\n\n# tail\n")
        assert g.link_count == 1

    def test_leading_byte_order_mark_is_skipped(self):
        assert ns.load_edge_list("\ufeffa b\nb c\n").labels == ("a", "b", "c")

    def test_first_appearance_order(self):
        g = ns.load_edge_list("z y\ny x")
        assert g.labels == ("z", "y", "x")

    def test_round_trip(self, karate):
        again = ns.load_edge_list(ns.write_edge_list(karate))
        assert labelled_links(again) == labelled_links(karate)
        assert set(again.labels) == set(karate.labels)

    @settings(max_examples=150)
    @given(edge_list_texts())
    def test_every_accepted_text_round_trips(self, text):
        """Indices follow first appearance, so the written text may number the
        labels differently: compare labels and labelled links."""
        try:
            g = ns.load_edge_list(text)
        except NetskelError:
            return
        again = ns.load_edge_list(ns.write_edge_list(g))
        assert set(again.labels) == set(g.labels)
        assert labelled_links(again) == labelled_links(g)

    def test_degree_sum_is_twice_links(self, karate):
        assert sum(karate.degrees) == 2 * karate.link_count

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("a b\n# c\nx y z", ParseError, "line 3: expected 2 tokens, got 3: 'x y z'"),
            ("a b\n  lone  \n", ParseError, "line 2: expected 2 tokens, got 1: 'lone'"),
            ("a b\nq q\n", ValidationError, "line 2: self-loop on 'q'"),
            ("a b\nb a\n", ValidationError, "line 2: duplicate edge 'b' -- 'a'"),
            ('x "é,1"\n"é,1" x\n', ValidationError, "line 2: duplicate edge '\"é,1\"' -- 'x'"),
            # written back as "x #b" and "#b c", the second line would be a comment
            ("x #b\nc #b\n", ParseError, "line 1: label '#b' starts with '#'"),
        ],
    )
    def test_error_messages(self, text, error, message):
        with pytest.raises(error) as exc:
            ns.load_edge_list(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_first_bad_line_is_reported(self):
        # the duplicate on line 2 comes before the 3-token line 4
        with pytest.raises(ValidationError) as exc:
            ns.load_edge_list("a b\nb a\nc d\nx y z\n")
        assert str(exc.value) == "line 2: duplicate edge 'b' -- 'a'"

    @pytest.mark.parametrize(
        "end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    )
    def test_lines_end_where_str_splitlines_ends_them(self, end):
        text = end.join(["a b", "b c", "# note", "", "c d"]) + end
        g = ns.load_edge_list(text)
        assert g == ns.load_edge_list(text.splitlines())
        assert g.labels == ("a", "b", "c", "d")
        assert g.links == ((0, 1), (1, 2), (2, 3))
        with pytest.raises(ParseError) as exc:
            ns.load_edge_list(end.join(["a b", "", "x y z"]))
        assert str(exc.value) == "line 3: expected 2 tokens, got 3: 'x y z'"

    def test_vertical_tab_ends_a_line_not_a_token(self):
        with pytest.raises(ParseError) as exc:
            ns.load_edge_list("a\x0bb c\n")
        assert str(exc.value) == "line 1: expected 2 tokens, got 1: 'a'"

    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from(
                ["a", "b", " ", "#", "\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"]
            ),
            max_size=40,
        ).map("".join),
        st.integers(1, 8),
    )
    def test_a_str_read_in_pieces_reads_as_its_lines(self, text, chunk):
        with mock.patch.object(graph, "_LINE_CHUNK", chunk):
            assert list(graph._lines(text)) == text.splitlines()
            assert parsed(text) == parsed(text.splitlines())

    def test_parse_holds_little_more_than_its_graph(self, large_sparse_text):
        """The text is split into lines a piece at a time, one dict both keeps
        the links and refuses duplicates, and the label index and that dict are
        freed before the Graph is built, which keeps the parsed link tuples:
        the peak is about 1.15 times the graph kept (1.57 times with a list of
        every line and a duplicate set beside the link list)."""
        tracemalloc.start()
        try:
            g = ns.load_edge_list(large_sparse_text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.node_count, g.link_count) == (20000, 22999)
        assert peak <= 1.3 * kept, f"peak {peak / kept:.2f} times the graph"

    def test_lines_ended_by_cr_parse_in_pieces(self, large_sparse_text):
        """A piece ends at any line boundary str.splitlines knows, so a text
        without a single newline is read in pieces too, within the bound of
        test_parse_holds_little_more_than_its_graph (1.41 times the graph when
        only a newline ended a piece)."""
        text = large_sparse_text.replace("\n", "\r")
        tracemalloc.start()
        try:
            g = ns.load_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.node_count, g.link_count) == (20000, 22999)
        assert peak <= 1.3 * kept, f"peak {peak / kept:.2f} times the graph"


class TestFromLinks:
    def test_builds_sorted_normalized_graph(self):
        g = ns.Graph.from_links(3, [(2, 1), (0, 1)], ["a", "b", "c"])
        assert g.links == ((0, 1), (1, 2))
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.labels == ("a", "b", "c")

    @pytest.mark.parametrize("link", [(0, 3), (-1, 0)])
    def test_unknown_node_rejected(self, link):
        with pytest.raises(ValidationError, match="unknown node"):
            ns.Graph.from_links(3, [link])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop on node 'b'"):
            ns.Graph.from_links(2, [(0, 1), (1, 1)], ["a", "b"])

    @pytest.mark.parametrize("second", [(0, 1), (1, 0)])
    def test_duplicate_link_rejected(self, second):
        with pytest.raises(ValidationError, match="duplicate link '0' -- '1'"):
            ns.Graph.from_links(2, [(0, 1), second])

    def test_wrong_label_count_rejected(self):
        with pytest.raises(ValidationError, match="2 labels for 3 nodes"):
            ns.Graph.from_links(3, [(0, 1)], ["a", "b"])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            ns.Graph.from_links(-1, [])

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["a", "", "c"], "empty label on node 1"),
            (["a b", "c", "d"], "label 'a b' contains whitespace"),
            (["a", "b\n", "c"], "label 'b\\n' contains whitespace"),
            (["x", "#b", "c"], "label '#b' starts with '#'"),
            (["a", "a", "c"], "duplicate label 'a'"),
        ],
    )
    def test_labels_written_back_wrongly_rejected(self, labels, message):
        """Each would be written as text that load_edge_list refuses or reads
        as another graph: a line of one or three tokens, a comment, a
        self-loop."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ns.Graph.from_links(3, [(0, 1), (1, 2)], labels)

    @settings(max_examples=200)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), links_and_labels(n))))
    def test_every_accepted_graph_round_trips(self, case):
        n, (links, drawn) = case
        labels = [f"v{i}" if label is None else label for i, label in enumerate(drawn)]
        try:
            g = ns.Graph.from_links(n, links, labels)
        except ValidationError:
            return
        again = ns.load_edge_list(ns.write_edge_list(g))
        assert labelled_links(again) == labelled_links(g)


class TestTrusted:
    @settings(max_examples=300)
    @given(trusted_inputs())
    def test_equals_the_reference_build(self, case):
        n, links, labels = case
        assert ns.Graph._trusted(n, links, labels) == reference_graph(n, links, labels)

    def test_large_sparse_graph_equals_the_reference_build(self, large_sparse_text):
        labels, links = graph._parse_edge_list(large_sparse_text)
        assert ns.Graph._trusted(len(labels), links, labels) == reference_graph(
            len(labels), links, labels
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_build_holds_less_than_a_list_per_node(self, large_sparse_text):
        """Turning each node's list into its tuple once its links are read lets
        the lists still growing reuse the memory, and each list of the build is
        freed once its tuple exists: the build leaves the process about 0.77 MiB
        smaller than the reference, which builds every list before any tuple
        (0.43 MiB smaller with the sorted links and the neighbour list kept to
        the end). Each build runs in a fresh interpreter."""
        tests = Path(__file__).parent
        path = os.pathsep.join([str(Path(ns.__file__).resolve().parent.parent), str(tests)])
        grown = {}
        for build in ("trusted", "reference"):
            proc = subprocess.run(
                [sys.executable, "-c", HOLD_SCRIPT, build],
                input=large_sparse_text,
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
                check=True,
            )
            grown[build] = int(proc.stdout)
        saved = (grown["reference"] - grown["trusted"]) / 1024
        assert saved >= 0.2, f"{grown} KiB: {saved:.2f} MiB saved"


class TestCyclomaticNumber:
    def test_tree_is_zero(self):
        assert ns.cyclomatic_number(ns.gen_random_tree(17, 5)) == 0

    def test_ring_is_one(self):
        assert ns.cyclomatic_number(ns.gen_ring(9)) == 1

    def test_karate_is_45(self, karate):
        assert ns.cyclomatic_number(karate) == 45

    def test_counts_components(self):
        g = ns.Graph.from_links(4, [(0, 1), (2, 3)])
        assert ns.cyclomatic_number(g) == 2 - 4 + 2 == 0


class TestConnectedComponents:
    def test_path(self):
        count, _ = ns.connected_components(ns.gen_chain(3))
        assert count == 1

    def test_two_disjoint_edges(self):
        count, labels = ns.connected_components(
            ns.Graph.from_links(4, [(0, 1), (2, 3)])
        )
        assert count == 2
        assert labels[0] == labels[1] != labels[2] == labels[3]

    def test_ring(self):
        count, _ = ns.connected_components(ns.gen_ring(12))
        assert count == 1

    def test_empty_graph(self):
        count, labels = ns.connected_components(ns.Graph.from_links(0, []))
        assert count == 0
        assert labels == ()


class TestQuotientGraph:
    """The oracle's quotient, which the library's skeletons are checked against."""

    def test_singleton_partition_is_identity(self, karate):
        q = quotient_graph(karate, tuple(range(karate.node_count)))
        assert q.links == karate.links
        assert q.labels == tuple(f"s{i}" for i in range(karate.node_count))

    def test_ring12_three_blocks_gives_triangle(self):
        g = ns.gen_ring(12)
        q = quotient_graph(g, tuple(i // 4 for i in range(12)))
        assert q.node_count == 3
        assert q.link_count == 3

    def test_karate_external_partition_reduces_cyclomatic(self, karate):
        # 4 groups by index stripes forces many cross-links to collapse
        q = quotient_graph(karate, tuple(i % 4 for i in range(34)))
        # independent dedup of cross-group links
        expected = {
            tuple(sorted((u % 4, v % 4)))
            for u, v in karate.links
            if u % 4 != v % 4
        }
        assert set(q.links) == expected
        assert ns.cyclomatic_number(q) < 45

    def test_size_mismatch_rejected(self):
        g = ns.gen_ring(5)
        with pytest.raises(ValidationError, match="covers 4 nodes"):
            quotient_graph(g, (0, 0, 1, 1))

    def test_negative_group_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            quotient_graph(ns.gen_ring(3), (0, -1, 1))

    def test_degree_sum_after_quotient(self, karate):
        q = quotient_graph(karate, tuple(i % 3 for i in range(34)))
        assert sum(q.degrees) == 2 * q.link_count


class TestToDot:
    def test_triangle(self):
        dot = ns.to_dot(ns.gen_ring(3))
        assert dot.startswith("graph {")
        assert dot.count(" -- ") == 3

    def test_weighted_triangle_equal_sizes(self):
        dot = ns.to_dot(ns.gen_ring(3), [4, 4, 4])
        widths = {
            line.split("width=")[1].split(",")[0]
            for line in dot.splitlines()
            if "width=" in line
        }
        assert len(widths) == 1

    def test_empty_graph(self):
        assert ns.to_dot(ns.Graph.from_links(0, [])) == "graph {\n}\n"

    def test_labels_escape_quote_and_backslash(self):
        dot = ns.to_dot(ns.load_edge_list('a"b c\nc d\\'))
        assert dot.splitlines()[1:4] == [
            '  n0 [label="a\\"b"];',
            '  n1 [label="c"];',
            '  n2 [label="d\\\\"];',
        ]

    def test_bad_weights(self):
        with pytest.raises(ValidationError):
            ns.to_dot(ns.gen_ring(3), [1, 1])
