"""Seeded benchmark inputs and the CLI commands each workload runs.

Inputs are generated here, independently of netskel's own generators, so
that a change to the library cannot change what the benchmark feeds it.
The same workload seed always writes the same edge-list bytes.
"""

from __future__ import annotations

import heapq
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# Sizes of the generated inputs. The smoke tests shrink them.
SIZES = {
    "er_large": (1000, 3000),  # N, L: mean degree 6
    "er_pairs": (300, 900),
    "karate_trials": 500,
    "chords_small": (300, 60),  # N, extra links on a random tree
    "chords_small_trials": 100,
    "estimate": (20000, 3000),
    "contract": (10000, 1000),
    "star": 4000,
    "randomize": (1000, 200),
    "randomize_attempts": 4000,
}


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload.

    ``kind`` names the per-command metric (``<kind>_s``) the call counts
    towards; ``check`` names the output check in ``checks.py``.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    input: str
    check: str


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    setup_input: str  # largest input: `info` on it measures setup_s


def _rng(seed: int, what: str) -> random.Random:
    # str seeds hash with SHA-512, so this is stable across processes.
    return random.Random(f"{what}:{seed}")


def _connected(n: int, links) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def er_graph(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected G(n, m): m distinct uniform links, redrawn until connected."""
    while True:
        links: set[tuple[int, int]] = set()
        while len(links) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                links.add((u, v) if u < v else (v, u))
        if _connected(n, links):
            return sorted(links)


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree from a Pruefer sequence (O(N log N))."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    links = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        links.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    links.append((u, v))
    return links


def tree_with_chords(n: int, chords: int, rng: random.Random) -> list[tuple[int, int]]:
    links = set(random_tree(n, rng))
    while len(links) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            links.add((u, v) if u < v else (v, u))
    return sorted(links)


def star(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def _write(path: Path, links) -> str:
    path.write_text("".join(f"{u} {v}\n" for u, v in links), encoding="utf-8")
    return str(path)


def build(name: str, seed: int, workdir: Path, karate: Path) -> Workload:
    """Write the workload's input files under ``workdir`` and list its commands."""
    sizes = SIZES
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "allpairs-er":
        big = _write(workdir / "er_large.edges", er_graph(*sizes["er_large"], _rng(seed, "er_large")))
        pairs = _write(workdir / "er_pairs.edges", er_graph(*sizes["er_pairs"], _rng(seed, "er_pairs")))
        cmds = (
            Command("search-info", "search_info", ("search-info", big), big, "search_info"),
            Command(
                "search-info-pairs",
                "search_info_pairs",
                ("search-info", "--pairs", "--format", "csv", pairs),
                pairs,
                "pairs_csv",
            ),
        )
        return Workload(name, cmds, big)
    if name == "minimize-small":
        kar = str(workdir / "karate.edges")
        shutil.copyfile(karate, kar)
        chords = _write(
            workdir / "chords_small.edges",
            tree_with_chords(*sizes["chords_small"], _rng(seed, "chords_small")),
        )
        cmds = (
            Command(
                "minimize-karate",
                "minimize",
                ("minimize", kar, "--trials", str(sizes["karate_trials"])),
                kar,
                "minimize_json",
            ),
            Command(
                "minimize-chords-csv",
                "minimize",
                ("minimize", chords, "--trials", str(sizes["chords_small_trials"]), "--format", "csv"),
                chords,
                "minimize_csv",
            ),
        )
        return Workload(name, cmds, chords)
    if name == "sparse-large":
        est = _write(
            workdir / "estimate.edges", tree_with_chords(*sizes["estimate"], _rng(seed, "estimate"))
        )
        con = _write(
            workdir / "contract.edges", tree_with_chords(*sizes["contract"], _rng(seed, "contract"))
        )
        hub = _write(workdir / "star.edges", star(sizes["star"]))
        rew = _write(
            workdir / "randomize.edges", tree_with_chords(*sizes["randomize"], _rng(seed, "randomize"))
        )
        cmds = (
            Command("estimate", "estimate", ("estimate", est), est, "estimate"),
            Command("contract", "contract", ("contract", con), con, "contract_json"),
            Command("contract-dot", "contract_dot", ("contract", "--format", "dot", hub), hub, "contract_dot"),
            Command(
                "randomize",
                "randomize",
                ("randomize", "--attempts", str(sizes["randomize_attempts"]), rew),
                rew,
                "randomize",
            ),
        )
        return Workload(name, cmds, est)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("allpairs-er", "minimize-small", "sparse-large")
