"""Untimed exactness checks that run before any measurement.

They call the library in-process and compare it with the repository's
brute-force oracle (``tests/oracle.py``, which enumerates shortest paths)
and with known closed forms and published karate values.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import workloads

TOL_BITS = 1e-9
KARATE_TOTAL_BITS = 6060.764092168174
KARATE_BEST_H_SIMP = 4232.663398237804  # minimize, 500 trials, seed 42


def _oracle(root: Path):
    spec = importlib.util.spec_from_file_location("netskel_bench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(root: Path, seed: int, karate_text: str) -> list[str]:
    """Return the mismatches found; an empty list means every check passed."""
    import netskel as ns

    oracle = _oracle(root)
    rng = random.Random(f"preflight:{seed}")
    problems = []
    corpus = []
    for _ in range(12):
        n = rng.randint(4, 9)
        corpus.append((n, workloads.er_graph(n, rng.randint(n, n * (n - 1) // 2), rng)))
        n = rng.randint(5, 14)
        corpus.append((n, workloads.tree_with_chords(n, rng.randint(0, 3), rng)))
    for n, links in corpus:
        g = ns.Graph.from_links(n, links)
        got = ns.total_search_information(g).total_bits
        want = oracle.brute_force_total_bits(g)
        if abs(got - want) > TOL_BITS:
            problems.append(f"total on {links} is {got!r}, oracle says {want!r}")
    for n in range(2, 61):
        got = ns.total_search_information(ns.gen_chain(n)).total_bits
        if abs(got - (n - 2) * (n - 1)) > TOL_BITS:
            problems.append(f"chain of {n}: {got!r} != (n-2)(n-1) = {(n - 2) * (n - 1)}")
    karate = ns.load_edge_list(karate_text)
    got = ns.total_search_information(karate).total_bits
    if abs(got - KARATE_TOTAL_BITS) > TOL_BITS:
        problems.append(f"karate total {got!r} != {KARATE_TOTAL_BITS!r}")
    got = ns.minimize_h_simp(karate, 500, 42).best_info.h_simp
    if abs(got - KARATE_BEST_H_SIMP) > TOL_BITS:
        problems.append(f"karate minimize best h_simp {got!r} != {KARATE_BEST_H_SIMP!r}")
    return problems
