"""Command-line front end.

Commands compose through files and pipes: edge lists in, edge lists or
JSON/CSV/DOT reports out. Identical inputs, flags and seed produce
byte-identical output (floats are printed with 6 significant digits).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import IO, Optional, Sequence

# Each subcommand imports the other modules it calls, so that a command
# loads only the code it runs.
from . import graph
from .errors import NetskelError, ParseError

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE_ERROR = 2


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def _roundtree(obj):
    if isinstance(obj, float):
        return _round6(obj)
    if isinstance(obj, dict):
        return {k: _roundtree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_roundtree(v) for v in obj]
    return obj


def _emit_json(obj, out: IO[str]) -> None:
    json.dump(_roundtree(obj), out, indent=2)
    out.write("\n")


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, with inner quotes doubled, when it
    holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_csv(rows, out: IO[str]) -> None:
    """NamedTuple rows (at least one) under a header of their field names."""
    out.write(",".join(rows[0]._fields) + "\n")
    for row in rows:
        out.write(
            ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row)
            + "\n"
        )


def _read_graph(path: str, stdin: IO[str]) -> graph.Graph:
    try:
        if path == "-":
            text = stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text (byte {exc.start})") from None
    return graph.load_edge_list(text)


def _parse_constants(pairs: Optional[Sequence[str]]) -> estimator.ScalingConstants:
    from . import estimator

    if not pairs:
        return estimator.ScalingConstants()
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in ("inverse_amplitude", "inverse_exponent"):
            raise NetskelError(f"unknown constant override {pair!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise NetskelError(f"constant {key} needs a number, got {value!r}") from None
    return estimator.ScalingConstants(**overrides)


def _simplification_dict(
    simp: contraction.SimplifiedNetwork,
    info: contraction.SimplifiedSearchInfo,
    trial_index: Optional[int],
) -> dict:
    return {
        "skeleton_nodes": simp.skeleton.node_count,
        "skeleton_edges": [list(l) for l in simp.skeleton.links],
        "supernode_members": [
            [simp.original.labels[m] for m in members] for members in simp.supernodes
        ],
        "h_skeleton": info.h_skeleton,
        "h_supernodes": list(info.h_supernodes),
        "h_simp": info.h_simp,
        "trial_index": trial_index,
    }


def _emit_dot(simp: contraction.SimplifiedNetwork, out: IO[str]) -> None:
    """The skeleton, each super-node sized by its member count."""
    out.write(graph.to_dot(simp.skeleton, list(map(len, simp.supernodes))))


def _cmd_info(args, stdin, stdout) -> int:
    g = _read_graph(args.input, stdin)
    count, _ = graph.connected_components(g)
    _emit_json(
        {
            "n": g.node_count,
            "l": g.link_count,
            "cyclomatic": g.link_count - g.node_count + count,
            "components": count,
        },
        stdout,
    )
    return EXIT_OK


def _cmd_search_info(args, stdin, stdout) -> int:
    if args.format == "csv" and not args.pairs:
        raise NetskelError("csv output for search-info requires --pairs")
    from . import searchinfo

    g = _read_graph(args.input, stdin)
    if not args.pairs:
        report = searchinfo.total_search_information(g)
    else:
        graph.require_connected(g)
        rows = searchinfo.search_information_rows(g)
        if args.format == "csv":  # one source row at a time: the N^2 pairs are never held
            labels = [_csv_field(label) for label in g.labels]
            stdout.write("source_label,dest_label,bits\n")
            for s, row in enumerate(rows):
                cells = (f"{labels[s]},{labels[d]},{b:.6g}\n" for d, b in enumerate(row) if d != s)
                stdout.write("".join(cells))
            return EXIT_OK
        # total_bits precedes the pairs in the document, so the pairs are
        # held, but only once: each row is rounded as the totals consume it
        pairs: list[list[float]] = []

        def row_bits(rows):
            for row in rows:
                pairs.append([_round6(b) for b in row])
                yield math.fsum(row)

        report = searchinfo.SearchInfoReport.from_source_bits(g, row_bits(rows))
    doc = _roundtree(
        {
            "n": report.node_count,
            "l": report.link_count,
            "total_bits": report.total_bits,
            "average_bits": report.average_bits,
            "per_source_bits": report.per_source_bits,
        }
    )
    if args.pairs:
        doc["pairs"] = pairs
    json.dump(doc, stdout, indent=2)
    stdout.write("\n")
    return EXIT_OK


def _cmd_contract(args, stdin, stdout) -> int:
    from . import contraction

    g = _read_graph(args.input, stdin)
    if args.strategy == "degree":
        order = contraction.order_links_degree(g)
    else:
        order = contraction.order_links_random(g, args.seed)
    simp = contraction.tree_contract(g, order)
    if args.format == "dot":
        _emit_dot(simp, stdout)
        return EXIT_OK
    info = contraction.simplified_search_information(simp)
    _emit_json(_simplification_dict(simp, info, None), stdout)
    return EXIT_OK


def _cmd_minimize(args, stdin, stdout) -> int:
    from . import contraction

    g = _read_graph(args.input, stdin)
    result = contraction.minimize_h_simp(g, args.trials, args.seed)
    if args.format == "csv":
        _emit_csv(result.samples, stdout)
        return EXIT_OK
    if args.format == "dot":
        _emit_dot(result.best, stdout)
        return EXIT_OK
    _emit_json(
        {
            "trials": args.trials,
            "best": _simplification_dict(result.best, result.best_info, result.best_trial),
            "worst": _simplification_dict(result.worst, result.worst_info, result.worst_trial),
        },
        stdout,
    )
    return EXIT_OK


def _cmd_estimate(args, stdin, stdout) -> int:
    from . import contraction, estimator

    g = _read_graph(args.input, stdin)
    constants = _parse_constants(args.constants)
    skeleton = contraction.tree_contract(g, contraction.order_links_degree(g)).skeleton
    est = estimator.skeleton_estimate(
        contraction.skeleton_bits(skeleton), skeleton.node_count, g.node_count, constants
    )
    _emit_json(
        {"n_original": g.node_count, "n_skeleton": skeleton.node_count, **est._asdict()},
        stdout,
    )
    return EXIT_OK


def _cmd_randomize(args, stdin, stdout) -> int:
    from . import generators

    g = _read_graph(args.input, stdin)
    attempts = args.attempts if args.attempts is not None else 10 * g.link_count
    rewired = generators.rewire_degree_preserving(g, attempts, args.seed)
    stdout.write(graph.write_edge_list(rewired))
    return EXIT_OK


def _cmd_gen(args, stdin, stdout) -> int:
    from . import generators

    if args.kind == "ring":
        g = generators.gen_ring(args.n)
    elif args.kind == "chain":
        g = generators.gen_chain(args.n)
    else:
        g = generators.gen_random_tree(args.n, args.seed)
    if args.format == "dot":
        stdout.write(graph.to_dot(g))
    else:
        stdout.write(graph.write_edge_list(g))
    return EXIT_OK


def _cmd_tree_scaling(args, stdin, stdout) -> int:
    from . import generators

    rows, fit = generators.tree_scaling_experiment(
        args.min, args.max, args.step, args.samples, args.seed
    )
    if args.format == "csv":
        _emit_csv(rows, stdout)
        return EXIT_OK
    doc = {
        "rows": [r._asdict() for r in rows],
        "fit": None if fit is None else {**fit._asdict(), "n_points": len(rows)},
    }
    _emit_json(doc, stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netskel",
        description="Search information, tree-contraction and scaling estimation "
        "for undirected simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="edge-list file, or '-' for stdin")

    def add_format(p, choices=("json", "csv", "dot")):
        p.add_argument("--format", choices=choices, default="json")

    p = sub.add_parser("info", help="node/link counts, cyclomatic number, components")
    add_input(p)
    add_format(p, choices=("json",))
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("search-info", help="total/average search information")
    add_input(p)
    p.add_argument("--pairs", action="store_true", help="emit the full pair matrix")
    add_format(p, choices=("json", "csv"))
    p.set_defaults(func=_cmd_search_info)

    p = sub.add_parser("contract", help="one tree-contraction pass")
    add_input(p)
    p.add_argument("--strategy", choices=("random", "degree"), default="degree")
    p.add_argument("--seed", type=int, default=42)
    add_format(p, choices=("json", "dot"))
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("minimize", help="search orderings for extremal h_simp")
    add_input(p)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    add_format(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("estimate", help="skeleton-based estimate of total H")
    add_input(p)
    p.add_argument(
        "--constants",
        action="append",
        metavar="KEY=VALUE",
        help="override inverse_amplitude or inverse_exponent (repeatable)",
    )
    add_format(p, choices=("json",))
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("randomize", help="degree-preserving connected rewiring")
    add_input(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--attempts", type=int, default=None, help="default 10*L")
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("gen", help="generate ring/chain/tree edge lists")
    p.add_argument("kind", choices=("ring", "chain", "tree"))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=42)
    add_format(p, choices=("edges", "dot"))
    p.set_defaults(func=_cmd_gen, format="edges")

    p = sub.add_parser("tree-scaling", help="random-tree scaling experiment")
    p.add_argument("--min", type=int, default=10)
    p.add_argument("--max", type=int, default=100)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    add_format(p, choices=("json", "csv"))
    p.set_defaults(func=_cmd_tree_scaling)

    return parser


def run(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
    stderr: Optional[IO[str]] = None,
) -> int:
    if stdin is None:
        stdin = sys.stdin
        if isinstance(stdin, io.TextIOWrapper):  # C locales decode with surrogateescape
            stdin.reconfigure(encoding="utf-8", errors="strict")
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, stdin, stdout)
    except (NetskelError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
