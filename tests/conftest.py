import contextlib
import os
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

import netskel as ns
from netskel import searchinfo

sys.path.insert(0, str(Path(__file__).parent))


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
