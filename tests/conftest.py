import contextlib
import math
import os
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

import netskel as ns
from netskel import searchinfo

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run (seeded from the
# test function) and has no deadline; its @settings give only its example count.
settings.register_profile("netskel", derandomize=True, deadline=None)
settings.load_profile("netskel")


@pytest.fixture(scope="session")
def karate() -> ns.Graph:
    text = (resources.files("netskel") / "data/karate.edges").read_text()
    return ns.load_edge_list(text)


def random_connected_graph(n: int, p: float, seed: int) -> ns.Graph:
    """Connected Erdos-Renyi sample; retries until connected."""
    rng = random.Random(seed)
    while True:
        links = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = ns.Graph.from_links(n, links)
        if n > 0 and ns.is_connected(g):
            return g


def tree_with_chords(n: int, chords: int, seed: int) -> ns.Graph:
    """Random tree plus a few extra random edges (keeps it connected)."""
    tree = ns.gen_random_tree(n, seed)
    rng = random.Random(seed + 1)
    links = set(tree.links)
    while len(links) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            links.add((min(u, v), max(u, v)))
    return ns.Graph.from_links(n, sorted(links))


def tree_with_chords_text(n: int, chords: int, seed: int) -> str:
    """Edge-list text of a random recursive tree on nodes 0..n-1 (node i hangs
    off a uniform node below it) plus distinct random chords, in shuffled line
    order and endpoint order, built without netskel."""
    rng = random.Random(seed)
    links = {(rng.randrange(i), i) for i in range(1, n)}
    while len(links) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            links.add((min(u, v), max(u, v)))
    lines = [f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n" for u, v in sorted(links)]
    rng.shuffle(lines)
    return "".join(lines)


@pytest.fixture(scope="session")
def large_sparse_text() -> str:
    """A connected tree with 3,000 chords on 20,000 nodes, the size of the
    benchmark's estimate input."""
    return tree_with_chords_text(20000, 3000, 7)


@st.composite
def connected_graphs(draw) -> ns.Graph:
    """Trees with chords, ER graphs, rings and stars of up to 80 nodes."""
    kind = draw(st.sampled_from(["tree_with_chords", "er", "ring", "star"]))
    seed = draw(st.integers(0, 2**30))
    if kind == "tree_with_chords":
        n = draw(st.integers(4, 80))
        return tree_with_chords(n, draw(st.integers(0, n // 4)), seed)
    if kind == "er":
        return random_connected_graph(draw(st.integers(6, 40)), 0.25, seed)
    if kind == "ring":
        return ns.gen_ring(draw(st.integers(3, 80)))
    n = draw(st.integers(3, 60))
    return ns.Graph.from_links(n, [(0, i) for i in range(1, n)])


# labels with commas, quotes, non-ASCII letters, one that starts a comment and
# one that starts with U+FEFF, which only the first character of a text may do
LABELS = ["a", "b", "c", "d", "e", "f", "x,y", 'q"r', "it's", "é", "日本", "#h", "\ufeffz"]


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list text: a random tree over a few labels, then up to two extra
    lines (a comment, a blank, a chord, a self-loop, a duplicate, a link
    between two new labels, a 1- or 3-token line) at random places, with each
    line ended by \\n, CRLF, a vertical tab or U+2028."""
    names = draw(st.permutations(LABELS))[: draw(st.integers(2, 7))]
    lines = [f"{names[i]} {names[draw(st.integers(0, i - 1))]}" for i in range(1, len(names))]
    for kind in draw(st.lists(st.sampled_from(range(8)), max_size=2)):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        extra = [
            "# a comment, with 'quotes'",
            "",
            f"{a} {b}",
            f"{a} {a}",
            f"{names[0]} {names[1]}",  # the tree's first line reversed
            "p1 p2",
            a,
            f"{a} {b} {a}",
        ][kind]
        lines.insert(draw(st.integers(0, len(lines))), extra)
    line_end = st.sampled_from(["\n", "\r\n", "\x0b", "\u2028"])
    ends = draw(st.lists(line_end, min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


def deep_diamond_chain(k: int = 400, p: int = 6) -> ns.Graph:
    """Hubs 0..k; hub i -> a_i, b_i -> hub i+1; p pendant leaves on every
    a_i/b_i. From hub 0 the 2^k shortest paths to hub k give
    2^(k-1) / (3^(k-1) (1+p)^k), about 2^-1356 at the defaults, so the
    kernel must fall back to log space and sum two predecessors at every hub."""
    links, nxt = [], k + 1
    for i in range(k):
        for mid in (nxt, nxt + 1 + p):
            links += [(i, mid), (mid, i + 1)] + [(mid, mid + 1 + j) for j in range(p)]
        nxt += 2 * (1 + p)
    return ns.Graph.from_links(nxt, links)


@st.composite
def underflowing_diamond_chains(draw) -> tuple[ns.Graph, int]:
    """A deep_diamond_chain and its last hub k, with 4-8 pendants per middle
    node and k a few levels past where the walk probability from hub 0 or
    hub k drops below searchinfo.UNDERFLOW_THRESHOLD (each level divides it
    by 3(1+p)/2), plus up to three chords, each joining a level's two middle
    nodes: they lie at one distance from either end, so no path shortens."""
    p = draw(st.integers(4, 8))
    k = math.ceil(-math.log2(searchinfo.UNDERFLOW_THRESHOLD) / math.log2(3 * (1 + p) / 2))
    k += draw(st.integers(0, 3))
    g = deep_diamond_chain(k, p)
    levels = draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True))
    chords = [(k + 1 + 2 * (1 + p) * i, k + 2 + p + 2 * (1 + p) * i) for i in levels]
    return ns.Graph.from_links(g.node_count, list(g.links) + chords), k


@contextlib.contextmanager
def forking(cpus: int = 3):
    """Within the block every graph with a link is walked by cpus - 1 forked
    children and this process, and so are the trials of every minimize with
    at least cpus trials, whatever the machine. With cpus=1 nothing forks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(searchinfo, "FORK_BREAK_EVEN_WORK", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        yield mp


def bitwise(value):
    """value with every float in it, through nested tuples and records,
    replaced by its float.hex, so that == compares bit for bit."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, tuple):
        return tuple(map(bitwise, value))
    return value
