"""Output checks for every benchmarked command.

Each check gets the command's stdout and the edge-list input it read, and
returns a list of problems (empty when the output is right). The CLI
prints floats with 6 significant digits, so sums of printed values are
compared with a relative tolerance that covers two such roundings.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

REL_TOL = 2e-5

INVERSE_AMPLITUDE = 1.012
INVERSE_EXPONENT = 2.35
RELIABLE_RATIO = 0.3


class EdgeList:
    """An edge-list file as labels and label pairs, parsed independently of netskel."""

    def __init__(self, text: str) -> None:
        self.labels: list[str] = []
        index: dict[str, int] = {}
        self.links: list[tuple[str, str]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            for x in (u, v):
                if x not in index:
                    index[x] = len(self.labels)
                    self.labels.append(x)
            self.links.append((u, v))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def l(self) -> int:
        return len(self.links)

    def degrees(self) -> dict[str, int]:
        deg = dict.fromkeys(self.labels, 0)
        for u, v in self.links:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> int:
        adj: dict[str, list[str]] = {x: [] for x in self.labels}
        for u, v in self.links:
            adj[u].append(v)
            adj[v].append(u)
        seen: set[str] = set()
        count = 0
        for start in self.labels:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def check_info(out: str, g: EdgeList) -> list[str]:
    doc = json.loads(out)
    want = {"n": g.n, "l": g.l, "cyclomatic": g.l - g.n + 1, "components": 1}
    return [f"info {k}={doc.get(k)!r}, want {v}" for k, v in want.items() if doc.get(k) != v]


def check_search_info(out: str, g: EdgeList) -> list[str]:
    doc = json.loads(out)
    per = doc["per_source_bits"]
    problems = []
    if (doc["n"], doc["l"], len(per)) != (g.n, g.l, g.n):
        problems.append(f"search-info sizes n={doc['n']} l={doc['l']} rows={len(per)}")
    if not _close(doc["total_bits"], math.fsum(per)):
        problems.append(f"total_bits {doc['total_bits']} != fsum(per_source_bits) {math.fsum(per)}")
    if not _close(doc["average_bits"], doc["total_bits"] / g.n**2):
        problems.append("average_bits != total_bits / N^2")
    if any(x < 0 for x in per):
        problems.append("negative per-source bits")
    return problems


def check_pairs_csv(out: str, g: EdgeList) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["source_label", "dest_label", "bits"]:
        return ["pairs csv header missing"]
    body = rows[1:]
    problems = []
    if len(body) != g.n * (g.n - 1):
        problems.append(f"pairs csv has {len(body)} rows, want N(N-1)={g.n * (g.n - 1)}")
    labels = set(g.labels)
    pairs = {(s, d) for s, d, _ in body}
    if len(pairs) != len(body) or any(s == d or s not in labels or d not in labels for s, d in pairs):
        problems.append("pairs csv rows are not the distinct ordered pairs of labels")
    if any(float(b) < 0 for _, _, b in body):
        problems.append("negative pair bits")
    return problems


def _check_simplification(doc: dict, g: EdgeList, what: str) -> list[str]:
    members = doc["supernode_members"]
    n_sk = doc["skeleton_nodes"]
    problems = []
    if len(members) != n_sk or len(doc["h_supernodes"]) != n_sk:
        problems.append(f"{what}: {n_sk} skeleton nodes, {len(members)} super-nodes")
    flat = [x for group in members for x in group]
    if len(flat) != g.n or set(flat) != set(g.labels):
        return problems + [f"{what}: super-node members do not partition the labels"]
    group = {x: i for i, ms in enumerate(members) for x in ms}
    cross = {
        (min(group[u], group[v]), max(group[u], group[v]))
        for u, v in g.links
        if group[u] != group[v]
    }
    edges = {tuple(e) for e in doc["skeleton_edges"]}
    if edges != cross or len(edges) != len(doc["skeleton_edges"]):
        problems.append(f"{what}: skeleton edges are not the links between super-nodes")
    if len(edges) - n_sk != g.l - g.n:
        problems.append(f"{what}: cyclomatic number not preserved")
    if not _close(doc["h_simp"], doc["h_skeleton"] + math.fsum(doc["h_supernodes"])):
        problems.append(f"{what}: h_simp != h_skeleton + sum(h_supernodes)")
    return problems


def check_contract_json(out: str, g: EdgeList) -> list[str]:
    return _check_simplification(json.loads(out), g, "contract")


def check_minimize_json(out: str, g: EdgeList) -> list[str]:
    doc = json.loads(out)
    best, worst = doc["best"], doc["worst"]
    problems = _check_simplification(best, g, "best") + _check_simplification(worst, g, "worst")
    if best["h_simp"] > worst["h_simp"]:
        problems.append("best h_simp > worst h_simp")
    for side in (best, worst):
        if not 0 <= side["trial_index"] < doc["trials"]:
            problems.append(f"trial_index {side['trial_index']} outside the trials")
    return problems


def check_minimize_csv(out: str, g: EdgeList, trials: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["trial", "skeleton_nodes", "h_skeleton", "h_supernodes", "h_simp"]:
        return ["minimize csv header missing"]
    body = rows[1:]
    problems = []
    if [int(r[0]) for r in body] != list(range(trials)):
        problems.append(f"minimize csv trials are not 0..{trials - 1}")
    for r in body:
        sk, h_sk, h_sn, h = int(r[1]), float(r[2]), float(r[3]), float(r[4])
        if not 1 <= sk <= g.n or not _close(h, h_sk + h_sn):
            problems.append(f"minimize csv row {r} inconsistent")
            break
    return problems


_DOT_NODE = re.compile(r'^  n(\d+) \[label="[^"]*", width=([0-9.]+), fixedsize=true\];$')
_DOT_LINK = re.compile(r"^  n(\d+) -- n(\d+);$")


def check_contract_dot(out: str, g: EdgeList) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[0] != "graph {" or lines[-1] != "}":
        return ["dot output is not one graph block"]
    weights, links = [], set()
    for line in lines[1:-1]:
        if m := _DOT_NODE.match(line):
            weights.append(round(float(m.group(2)) / 0.3))
        elif m := _DOT_LINK.match(line):
            links.add((int(m.group(1)), int(m.group(2))))
        else:
            return [f"unexpected dot line {line!r}"]
    problems = []
    if sum(weights) != g.n or min(weights, default=0) < 1:
        problems.append(f"dot node weights sum to {sum(weights)}, want N={g.n}")
    if any(not (0 <= u < len(weights) and 0 <= v < len(weights)) or u == v for u, v in links):
        problems.append("dot link references an unknown node")
    if len(links) - len(weights) != g.l - g.n:
        problems.append("dot skeleton does not preserve the cyclomatic number")
    return problems


def check_estimate(out: str, g: EdgeList) -> list[str]:
    doc = json.loads(out)
    problems = []
    if doc["n_original"] != g.n or not 1 <= doc["n_skeleton"] <= g.n:
        problems.append(f"estimate sizes n_original={doc['n_original']} n_skeleton={doc['n_skeleton']}")
        return problems
    ratio = doc["n_skeleton"] / g.n
    if not _close(doc["ratio"], ratio):
        problems.append(f"estimate ratio {doc['ratio']} != {ratio}")
    want = INVERSE_AMPLITUDE * ratio**-INVERSE_EXPONENT * doc["h_skeleton"]
    if not _close(doc["estimate_bits"], want):
        problems.append(f"estimate_bits {doc['estimate_bits']} != 1.012*ratio^-2.35*h_skeleton {want}")
    if doc["low_confidence"] != (ratio < RELIABLE_RATIO):
        problems.append("low_confidence flag disagrees with the ratio")
    return problems


def check_randomize(out: str, g: EdgeList) -> list[str]:
    r = EdgeList(out)
    problems = []
    if r.l != g.l or r.degrees() != g.degrees():
        problems.append("randomize changed the degree sequence or the link count")
    keys = [frozenset(link) for link in r.links]
    if any(len(k) != 2 for k in keys) or len(set(keys)) != len(keys):
        problems.append("randomize output has a self-loop or a duplicate link")
    if r.components() != 1:
        problems.append("randomize output is disconnected")
    return problems


def run_check(name: str, out: str, g: EdgeList, argv) -> list[str]:
    """Dispatch by check name; any parse error in the output is a problem too."""
    try:
        if name == "minimize_csv":
            return check_minimize_csv(out, g, int(argv[argv.index("--trials") + 1]))
        return CHECKS[name](out, g)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]


CHECKS = {
    "info": check_info,
    "search_info": check_search_info,
    "pairs_csv": check_pairs_csv,
    "contract_json": check_contract_json,
    "minimize_json": check_minimize_json,
    "contract_dot": check_contract_dot,
    "estimate": check_estimate,
    "randomize": check_randomize,
}
