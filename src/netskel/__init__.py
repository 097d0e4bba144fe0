"""netskel: search information, path-diversity-preserving tree-contraction,
and skeleton-based scaling estimates for undirected simple graphs.

Each public name is imported from its module on first use (PEP 562), so a
program that reads only graphs does not load the search, contraction and
estimation code.
"""

# The public names of each module.
_PUBLIC = {
    "contraction": (
        "ContractionSample",
        "MinimizeResult",
        "SimplifiedNetwork",
        "SimplifiedSearchInfo",
        "SuperNode",
        "minimize_h_simp",
        "order_links_degree",
        "order_links_random",
        "simplified_search_information",
        "tree_contract",
    ),
    "errors": (
        "ConnectivityError",
        "DegenerateFitError",
        "NetskelError",
        "ParseError",
        "UnreachableError",
        "ValidationError",
    ),
    "estimator": (
        "PowerLawFit",
        "ScalingConstants",
        "SkeletonEstimate",
        "approx_h_tree",
        "estimate_h_from_skeleton",
        "fit_power_law",
        "relative_error",
        "skeleton_estimate",
    ),
    "generators": (
        "TreeScalingRow",
        "gen_chain",
        "gen_random_tree",
        "gen_ring",
        "rewire_degree_preserving",
        "tree_scaling_experiment",
    ),
    "graph": (
        "Graph",
        "connected_components",
        "cyclomatic_number",
        "is_connected",
        "load_edge_list",
        "to_dot",
        "write_edge_list",
    ),
    "searchinfo": (
        "SearchInfoReport",
        "chain_search_information",
        "pair_search_information",
        "ring_min_simplified_H",
        "search_information_rows",
        "total_search_information",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
