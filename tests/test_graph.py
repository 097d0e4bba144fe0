import tracemalloc

import pytest
from hypothesis import given, settings

import netskel as ns
from netskel.errors import NetskelError, ParseError, ValidationError
from conftest import edge_list_texts
from oracle import quotient_graph


def labelled_links(g):
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.links}


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

    def test_parse_holds_little_more_than_its_graph(self, large_sparse_text):
        """The line list, the label index and the duplicate set are freed
        before the Graph is built, which keeps the parsed link tuples: the
        peak is about 1.5 times the graph kept, and would be 2.5 times if the
        parse's structures and fresh link tuples lived through the build."""
        tracemalloc.start()
        try:
            g = ns.load_edge_list(large_sparse_text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.node_count, g.link_count) == (20000, 22999)
        assert peak <= 1.8 * kept, f"peak {peak / kept:.2f} times the graph"


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
