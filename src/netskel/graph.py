"""Undirected simple graph representation, I/O and structural metrics."""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConnectivityError, ParseError, ValidationError

Link = tuple[int, int]


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
        duplicate links in either orientation and a wrong label count."""
        if node_count < 0:
            raise ValidationError("node_count must be non-negative")
        labels = tuple(str(i) for i in range(node_count)) if labels is None else tuple(labels)
        if len(labels) != node_count:
            raise ValidationError(f"got {len(labels)} labels for {node_count} nodes")
        normalized: list[Link] = []
        seen: set[Link] = set()
        for u, v in links:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValidationError(f"link ({u}, {v}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop on node {labels[u]!r}")
            link = (u, v) if u < v else (v, u)
            if link in seen:
                raise ValidationError(
                    f"duplicate link {labels[link[0]]!r} -- {labels[link[1]]!r}"
                )
            seen.add(link)
            normalized.append(link)
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
        copied, the links are sorted in place in a list of their own, and
        each neighbour list is turned into its tuple in place, so the build
        holds little more than the graph it returns."""
        normalized = [link if link[0] < link[1] else (link[1], link[0]) for link in links]
        normalized.sort()
        neighbors: list = [[] for _ in range(node_count)]
        for u, v in normalized:  # sorted links give sorted neighbor lists
            neighbors[u].append(v)
            neighbors[v].append(u)
        for i, adj in enumerate(neighbors):
            neighbors[i] = tuple(adj)
        return cls(
            node_count=node_count,
            links=tuple(normalized),
            labels=tuple(str(i) for i in range(node_count)) if labels is None else tuple(labels),
            adjacency=tuple(neighbors),
            degrees=tuple(map(len, neighbors)),
        )

    @property
    def link_count(self) -> int:
        return len(self.links)


def load_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse an edge list: one "LABEL LABEL" pair per line, '#' comments.

    Labels get dense indices in first-appearance order. Self-loops, duplicate
    edges and a second label that starts with '#' are rejected.
    """
    labels, links = _parse_edge_list(text)
    return Graph._trusted(len(labels), links, labels)


def _parse_edge_list(text: str | Iterable[str]) -> tuple[tuple[str, ...], list[Link]]:
    """The labels and the (min, max) links of an edge list, in input order.
    The line list, the label index and the duplicate set live only in this
    call, so they are freed before load_edge_list builds the Graph."""
    lines = text.splitlines() if isinstance(text, str) else text
    index: dict[str, int] = {}  # label -> its index, in first-appearance order
    links: list[Link] = []
    seen: set[Link] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 2 tokens, got {len(tokens)}: {line!r}"
            )
        if tokens[1].startswith("#"):  # written first on a line, it would start a comment
            raise ParseError(f"line {lineno}: label {tokens[1]!r} starts with '#'")
        u = index.setdefault(tokens[0], len(index))
        v = index.setdefault(tokens[1], len(index))
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop on {tokens[0]!r}")
        link = (u, v) if u < v else (v, u)
        if link in seen:
            raise ValidationError(
                f"line {lineno}: duplicate edge {tokens[0]!r} -- {tokens[1]!r}"
            )
        seen.add(link)
        links.append(link)
    return tuple(index), links


def write_edge_list(g: Graph) -> str:
    """Inverse of load_edge_list; preserves the link set and labels."""
    return "".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.links)


def connected_components(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Return (component count, per-node component label) via BFS."""
    labels = [-1] * g.node_count
    count = 0
    for start in range(g.node_count):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            u = queue.popleft()
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
