"""Outside-in tracing of netskel's layers, installed from the benchmark.

``Tracer.install`` replaces every public function of the layer modules
with a span recorder, in every netskel namespace that holds it (modules
import functions by name), and wraps the ``Graph.from_links`` classmethod.
A span is ``[name, start, end, parent, attrs]``; spans stay in memory and
``write`` dumps them when the run ends. Counts are taken at the same
boundaries and stored in ``attrs``. ``layer_metrics`` turns one pass of
spans into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "searchinfo", "contraction", "estimator", "generators", "cli")
CONNECTIVITY = {"graph.connected_components", "graph.is_connected", "graph.require_connected"}


def _graph_key(g):
    return (g.node_count, g.links)


def _searchinfo_attrs(args, kwargs, result):
    g = args[0]
    return {"n": g.node_count, "l": g.link_count, "key": hash(_graph_key(g))}


def _contract_attrs(args, kwargs, result):
    g = args[0]
    return {
        "n": g.node_count,
        "l": g.link_count,
        "n_sk": result.skeleton.node_count,
        "key": hash(_graph_key(result.skeleton)),
    }


def _rewire_attrs(args, kwargs, result):
    g, attempts = args[0], args[1]
    changed = len(set(result.links) - set(g.links))
    return {"attempts": attempts, "l": g.link_count, "changed": changed}


# Functions whose calls carry counts, by span name.
ATTRS = {
    "searchinfo.total_search_information": _searchinfo_attrs,
    "contraction.tree_contract": _contract_attrs,
    "generators.rewire_degree_preserving": _rewire_attrs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers of the already imported ``netskel`` package."""
        modules = {name: sys.modules[f"netskel.{name}"] for name in LAYERS}
        holders = [m for n, m in sys.modules.items() if n == "netskel" or n.startswith("netskel.")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hname, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, hname, fn))
                            setattr(holder, hname, wrapped)
        graph_cls = modules["graph"].Graph
        original = graph_cls.__dict__["from_links"]
        self._restore.append((graph_cls, "from_links", original))
        graph_cls.from_links = classmethod(self._wrap("graph.from_links", original.__func__))

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, fh
            )


def layer_metrics(spans: list[list], first: int, last: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[first:last]``: one traced pass or command.

    Self time is a span's duration minus that of its direct children.
    Distinct-input fractions count distinct graphs within each top-level
    command, since a cache inside one call could not see other commands.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls = defaultdict(int)
    si_keys: set = set()
    sk_keys: set = set()
    si_distinct = sk_distinct = 0
    tree_calls = 0
    tree_self = sources = edges = pairs = 0.0
    n_minus_sk = contract_links = 0
    attempts = rewire_incl = changed = rewire_links = 0.0
    connectivity_calls = 0
    connectivity_self = 0.0
    for i in range(first, last):
        name, start, end, parent, attrs = spans[i]
        own = end - start - child[i]
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        calls[name] += 1
        if parent < first:  # a new top-level command
            si_distinct += len(si_keys)
            sk_distinct += len(sk_keys)
            si_keys, sk_keys = set(), set()
        if name in CONNECTIVITY:
            connectivity_self += own
            if parent < first or spans[parent][0] not in CONNECTIVITY:
                connectivity_calls += 1
        if attrs is None:
            continue
        if name == "searchinfo.total_search_information":
            n, l = attrs["n"], attrs["l"]
            si_keys.add(attrs["key"])
            sources += n
            edges += 2 * l * n
            pairs += n * (n - 1)
            if l == n - 1:
                tree_calls += 1
                tree_self += own
        elif name == "contraction.tree_contract":
            sk_keys.add(attrs["key"])
            n_minus_sk += attrs["n"] - attrs["n_sk"]
            contract_links += attrs["l"]
        elif name == "generators.rewire_degree_preserving":
            attempts += attrs["attempts"]
            rewire_incl += end - start
            changed += attrs["changed"]
            rewire_links += attrs["l"]
    si_distinct += len(si_keys)
    sk_distinct += len(sk_keys)
    si_calls = calls["searchinfo.total_search_information"]
    tc_calls = calls["contraction.tree_contract"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "searchinfo.self_s": self_by_layer["searchinfo"],
        "searchinfo.calls": si_calls,
        "searchinfo.sources": sources,
        "searchinfo.edges_relaxed": edges,
        "searchinfo.pairs_per_s": ratio(pairs, self_by_layer["searchinfo"]),
        "searchinfo.distinct_frac": ratio(si_distinct, si_calls),
        "searchinfo.tree.calls": tree_calls,
        "searchinfo.tree.self_s": tree_self,
        "contraction.tree_contract.self_s": self_by_name["contraction.tree_contract"],
        "contraction.tree_contract.calls": tc_calls,
        "contraction.merge_accept_frac": ratio(n_minus_sk, contract_links),
        "contraction.simplified.self_s": self_by_name["contraction.simplified_search_information"],
        "contraction.supernode_tree.self_s": self_by_name["contraction.supernode_tree"],
        "contraction.order.self_s": self_by_name["contraction.order_links_random"]
        + self_by_name["contraction.order_links_degree"],
        "contraction.minimize.self_s": self_by_name["contraction.minimize_h_simp"],
        "contraction.distinct_skeleton_frac": ratio(sk_distinct, tc_calls),
        "graph.load_edge_list.self_s": self_by_name["graph.load_edge_list"],
        "graph.from_links.calls": calls["graph.from_links"],
        "graph.from_links.self_s": self_by_name["graph.from_links"],
        "graph.connectivity.calls": connectivity_calls,
        "graph.connectivity.self_s": connectivity_self,
        "generators.rewire.self_s": self_by_name["generators.rewire_degree_preserving"],
        "generators.rewire.attempts_per_s": ratio(attempts, rewire_incl),
        "generators.rewire.links_changed_frac": ratio(changed, rewire_links),
        "cli.self_s": self_by_layer["cli"],
        "cli.output_bytes": output_bytes,
        "estimator.self_s": self_by_layer["estimator"],
        **{f"layer_self_s.{layer}": self_by_layer[layer] for layer in LAYERS},
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
