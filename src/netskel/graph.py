"""Undirected simple graph representation, I/O and structural metrics."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConnectivityError, ParseError, ValidationError

Link = tuple[int, int]

# Characters per piece in which _lines splits an edge-list string: a piece's
# lines are held at once, never the whole text's.
_LINE_CHUNK = 1 << 16

# A line boundary of any kind str.splitlines knows, with '\r\n' as one.
_LINE_END = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")

# No label starts with these: written first, '#' starts a comment and U+FEFF reads as a mark.
_LABEL_STARTS_REFUSED = ("#", "\ufeff")

# The fewest finished nodes whose neighbour lists Graph._trusted turns into
# tuples at once: a slice per node made the build 1.3-1.5 times as slow, and
# batches of 1 to 256 nodes left the same peak memory.
_TUPLE_BATCH = 64


class Graph(NamedTuple):
    """Immutable undirected simple graph over dense node indices 0..N-1.

    ``links`` holds normalized (min, max) pairs in sorted order, ``labels``
    maps each index back to its external name, ``adjacency`` gives sorted
    neighbor lists for deterministic iteration.
    """

    node_count: int
    links: tuple[Link, ...]
    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @classmethod
    def from_links(
        cls,
        node_count: int,
        links: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from outside input, refusing unknown nodes, self-loops,
        duplicate links in either orientation, a wrong label count and given
        labels that write_edge_list could not write back: empty, split by
        whitespace, starting with '#' or U+FEFF (as the parse refuses), or repeated."""
        if node_count < 0:
            raise ValidationError("node_count must be non-negative")
        if labels is None:
            labels = tuple(str(i) for i in range(node_count))
        else:
            labels = tuple(labels)
            if len(labels) != node_count:
                raise ValidationError(f"got {len(labels)} labels for {node_count} nodes")
            named: set[str] = set()
            for node, label in enumerate(labels):
                # write_edge_list must write it as one token that load_edge_list
                # reads back as this node, not as a comment or another node
                if not label:
                    raise ValidationError(f"empty label on node {node}")
                if label.split() != [label]:
                    raise ValidationError(f"label {label!r} contains whitespace")
                if label.startswith(_LABEL_STARTS_REFUSED):
                    raise ValidationError(f"label {label!r} starts with {label[0]!r}")
                if label in named:
                    raise ValidationError(f"duplicate label {label!r}")
                named.add(label)
        normalized: dict[Link, None] = {}  # the links in input order
        for u, v in links:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValidationError(f"link ({u}, {v}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop on node {labels[u]!r}")
            link = (u, v) if u < v else (v, u)
            if link in normalized:
                raise ValidationError(
                    f"duplicate link {labels[link[0]]!r} -- {labels[link[1]]!r}"
                )
            normalized[link] = None
        return cls._trusted(node_count, normalized, labels)

    @classmethod
    def _trusted(
        cls,
        node_count: int,
        links: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build from links that are valid by construction: in range, no
        self-loop, no duplicate. Only normalizes, sorts and indexes them.

        A link tuple that is already (min, max) is kept as given rather than
        copied, and the links are sorted in place in a list of their own. In
        sorted order no link is left for a node below the current link's first
        end, so the neighbour lists of such nodes are turned into their tuples
        in place while the links are read, _TUPLE_BATCH or more at a time:
        the memory a list frees is reused by the lists still growing. Each
        list of the build is freed as soon as its tuple exists, so the build
        holds little more than the graph it returns."""
        normalized = [link if link[0] < link[1] else (link[1], link[0]) for link in links]
        normalized.sort()
        neighbors: list = [[] for _ in range(node_count)]
        done = 0  # the nodes below done hold their tuples
        for u, v in normalized:  # sorted links give sorted neighbor lists
            if u - done >= _TUPLE_BATCH:
                neighbors[done:u] = map(tuple, neighbors[done:u])
                done = u
            neighbors[u].append(v)
            neighbors[v].append(u)
        neighbors[done:] = map(tuple, neighbors[done:])
        links = tuple(normalized)  # the input is not read again
        del normalized
        adjacency = tuple(neighbors)
        del neighbors
        return cls(
            node_count=node_count,
            links=links,
            labels=tuple(str(i) for i in range(node_count)) if labels is None else tuple(labels),
            adjacency=adjacency,
            degrees=tuple(map(len, adjacency)),
        )

    @property
    def link_count(self) -> int:
        return len(self.links)


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list string: one "LABEL LABEL" pair per line, '#' comments.

    Labels get dense indices in first-appearance order. A leading byte-order
    mark is skipped. Self-loops, duplicate edges and a label that starts with
    '#' or U+FEFF are rejected, by the rule Graph.from_links applies.
    """
    labels, links = _parse_edge_list(text)
    return Graph._trusted(len(labels), links, labels)


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), one piece of about _LINE_CHUNK characters at a time.
    Every piece but the last ends just after the first line boundary at or
    after _LINE_CHUNK characters, '\r\n' whole, so no line spans two pieces."""
    start = 0
    while start < len(text):
        found = _LINE_END.search(text, start + _LINE_CHUNK)
        end = found.end() if found else len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_edge_list(text: str) -> tuple[tuple[str, ...], list[Link]]:
    """The labels and the (min, max) links of an edge list, in input order,
    each label checked by Graph.from_links' start rule. The text is read a
    piece at a time (_lines), so its lines are never all held at once. One
    dict keeps the links in order and refuses a duplicate on the line that
    repeats it. It and the label index live only in this call, so they are
    freed before load_edge_list builds the Graph."""
    text = text.removeprefix("\ufeff")
    mark_left = "\ufeff" in text  # else first tokens need no check: '#' starts a comment
    index: dict[str, int] = {}  # label -> its index, in first-appearance order
    links: dict[Link, None] = {}  # the links in input order
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 2 tokens, got {len(tokens)}: {line!r}"
            )
        if tokens[1][0] in _LABEL_STARTS_REFUSED or mark_left and tokens[0][0] == "\ufeff":
            label = next(t for t in tokens if t[0] in _LABEL_STARTS_REFUSED)
            raise ParseError(f"line {lineno}: label {label!r} starts with {label[0]!r}")
        u = index.setdefault(tokens[0], len(index))
        v = index.setdefault(tokens[1], len(index))
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop on {tokens[0]!r}")
        link = (u, v) if u < v else (v, u)
        if link in links:
            raise ValidationError(
                f"line {lineno}: duplicate edge {tokens[0]!r} -- {tokens[1]!r}"
            )
        links[link] = None
    return tuple(index), list(links)


def write_edge_list(g: Graph) -> str:
    """Inverse of load_edge_list; preserves the link set and the labels of
    linked nodes. A node with no link is not written, so it does not read back."""
    return "".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.links)


def connected_components(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Return (component count, per-node component label) via BFS."""
    labels = [-1] * g.node_count
    count = 0
    for start in range(g.node_count):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = [start]
        for u in queue:  # the list grows as the walk reaches new nodes
            for v in g.adjacency[u]:
                if labels[v] == -1:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return count, tuple(labels)


def is_connected(g: Graph) -> bool:
    count, _ = connected_components(g)
    return count <= 1


def require_connected(g: Graph) -> None:
    """Refuse a graph with no nodes, and raise ConnectivityError naming two
    nodes in different components."""
    if g.node_count == 0:
        raise ValidationError("graph has no nodes")
    count, labels = connected_components(g)
    if count > 1:
        a = labels.index(0)
        b = labels.index(1)
        raise ConnectivityError(
            f"graph is disconnected: no path between {g.labels[a]!r} and {g.labels[b]!r}"
        )


def cyclomatic_number(g: Graph) -> int:
    """Number of independent cycles: L - N + P."""
    count, _ = connected_components(g)
    return g.link_count - g.node_count + count


def to_dot(g: Graph, node_weights: Optional[Sequence[int]] = None) -> str:
    """Render as a Graphviz undirected graph; optional weights scale node size."""
    if node_weights is not None:
        if len(node_weights) != g.node_count:
            raise ValidationError("node_weights length must equal node_count")
        if any(w <= 0 for w in node_weights):
            raise ValidationError("node_weights must be positive")
    out = ["graph {"]
    for i in range(g.node_count):
        label = g.labels[i].replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if node_weights is not None:
            attrs.append(f"width={0.3 * node_weights[i]:.2f}")
            attrs.append("fixedsize=true")
        out.append(f'  n{i} [{", ".join(attrs)}];')
    for u, v in g.links:
        out.append(f"  n{u} -- n{v};")
    out.append("}")
    return "\n".join(out) + "\n"
