"""Command-line front end.

Commands compose through files and pipes: edge lists in, edge lists or
JSON/CSV/DOT reports out. Identical inputs, flags and seed produce
byte-identical output (floats are printed with 6 significant digits).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from itertools import chain, islice
from typing import IO, Optional, Sequence

# Each subcommand imports the other modules it calls, so that a command
# loads only the code it runs.
from . import graph
from .errors import NetskelError, ParseError

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE_ERROR = 2


def _roundtree(obj):
    """obj with every float in it, in its dicts and in its lists rounded to 6
    significant digits. Lists are rounded in place; tuples are written as
    they are."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _roundtree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        obj[:] = map(_roundtree, obj)
    return obj


def _emit_json(obj, out: IO[str]) -> None:
    """obj, rounded (its lists in place: each document is built for this one
    write), as indented JSON and a newline, 64 x 64 tokens a write: tokens are
    joined 64 at a time, so a write holds its text, not 4,096 token objects."""
    tokens = chain(json.JSONEncoder(indent=2).iterencode(_roundtree(obj)), ("\n",))
    pieces = iter(lambda: "".join(islice(tokens, 64)), "")
    while batch := "".join(islice(pieces, 64)):
        out.write(batch)


class _RoundedRows(tuple):
    """(rows,) for rows that are not empty, which JSONEncoder(indent=2) writes as
    the list of the rows, each rounded as it is produced: a tuple, so _roundtree
    writes it as it is, and never empty, so the encoder iterates it."""

    def __iter__(self):
        return map(_roundtree, self[0])


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, with inner quotes doubled, when it
    holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_csv(rows, out: IO[str]) -> None:
    """NamedTuple rows (at least one) under a header of their field names."""
    lines = [",".join(rows[0]._fields)]
    for row in rows:
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    out.write("\n".join(lines) + "\n")


def _read_graph(path: str, stdin: Optional[IO[str]]) -> graph.Graph:
    try:
        if path == "-":
            if stdin is None:
                raise NetskelError("stdin is closed")
            text = stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text (byte {exc.start})") from None
    # the byte offset above counts a leading byte-order mark; the parse skips it
    return graph.load_edge_list(text)


def _parse_constants(pairs: Optional[Sequence[str]]) -> estimator.ScalingConstants:
    from . import estimator

    overrides = {}
    for pair in pairs or ():
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
    # _roundtree writes tuples as they are: links and labels are not copied
    return {
        "skeleton_nodes": simp.skeleton.node_count,
        "skeleton_edges": simp.skeleton.links,
        "supernode_members": [
            tuple(simp.original.labels[m] for m in members) for members in simp.supernodes
        ],
        "h_skeleton": info.h_skeleton,
        "h_supernodes": list(info.h_supernodes),
        "h_simp": info.h_simp,
        "trial_index": trial_index,
    }


def _emit_dot(simp: contraction.SimplifiedNetwork, out: IO[str]) -> None:
    """The skeleton, each super-node sized by its member count."""
    out.write(graph.to_dot(simp.skeleton, list(map(len, simp.supernodes))))


def _cmd_info(args, stdin, stdout) -> None:
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


def _cmd_search_info(args, stdin, stdout) -> None:
    if args.format == "csv" and not args.pairs:
        raise NetskelError("csv output for search-info requires --pairs")
    from . import searchinfo

    g = _read_graph(args.input, stdin)
    if args.format == "csv":  # one source row at a time: the N^2 pairs are never held
        graph.require_connected(g)
        labels = [_csv_field(label) for label in g.labels]
        stdout.write("source_label,dest_label,bits\n")
        for s, row in enumerate(searchinfo.search_information_rows(g)):
            cells = (f"{labels[s]},{labels[d]},{b:.6g}\n" for d, b in enumerate(row) if d != s)
            stdout.write("".join(cells))
        return
    report = searchinfo.total_search_information(g)
    doc = {
        "n": report.node_count,
        "l": report.link_count,
        "total_bits": report.total_bits,
        "average_bits": report.average_bits,
        "per_source_bits": list(report.per_source_bits),
    }
    if args.pairs:  # after a totals pass, one rounded row at a time
        doc["pairs"] = _RoundedRows((searchinfo.search_information_rows(g),))
    _emit_json(doc, stdout)


def _cmd_contract(args, stdin, stdout) -> None:
    from . import contraction

    g = _read_graph(args.input, stdin)
    order = None if args.strategy == "degree" else contraction.order_links_random(g, args.seed)
    simp = contraction.tree_contract(g, order)
    if args.format == "dot":
        _emit_dot(simp, stdout)
    else:
        info = contraction.simplified_search_information(simp)
        _emit_json(_simplification_dict(simp, info, None), stdout)


def _cmd_minimize(args, stdin, stdout) -> None:
    from . import contraction

    g = _read_graph(args.input, stdin)
    result = contraction.minimize_h_simp(g, args.trials, args.seed)
    if args.format == "csv":
        _emit_csv(result.samples, stdout)
    elif args.format == "dot":
        _emit_dot(result.best, stdout)
    else:
        best = _simplification_dict(result.best, result.best_info, result.best_trial)
        worst = _simplification_dict(result.worst, result.worst_info, result.worst_trial)
        _emit_json({"trials": args.trials, "best": best, "worst": worst}, stdout)


def _cmd_estimate(args, stdin, stdout) -> None:
    g = _read_graph(args.input, stdin)
    # imported after the parse, so that the parse's peak memory does not sit
    # on top of their code
    from . import contraction, estimator

    constants = _parse_constants(args.constants)
    skeleton = contraction.tree_contract(g).skeleton
    est = estimator.skeleton_estimate(
        contraction.skeleton_bits(skeleton), skeleton.node_count, g.node_count, constants
    )
    _emit_json(
        {"n_original": g.node_count, "n_skeleton": skeleton.node_count, **est._asdict()},
        stdout,
    )


def _cmd_randomize(args, stdin, stdout) -> None:
    from . import generators

    g = _read_graph(args.input, stdin)
    attempts = args.attempts if args.attempts is not None else 10 * g.link_count
    rewired = generators.rewire_degree_preserving(g, attempts, args.seed)
    stdout.write(graph.write_edge_list(rewired))


def _cmd_gen(args, stdin, stdout) -> None:
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


def _cmd_tree_scaling(args, stdin, stdout) -> None:
    from . import generators

    rows, fit = generators.tree_scaling_experiment(
        args.min, args.max, args.step, args.samples, args.seed
    )
    if args.format == "csv":
        _emit_csv(rows, stdout)
    else:
        fit_doc = None if fit is None else {**fit._asdict(), "n_points": len(rows)}
        _emit_json({"rows": [r._asdict() for r in rows], "fit": fit_doc}, stdout)


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
        p.add_argument("--format", choices=choices, default=choices[0])

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
    p.set_defaults(func=_cmd_gen)

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
    argv: Sequence[str],
    stdin: Optional[IO[str]],
    stdout: Optional[IO[str]],
    stderr: Optional[IO[str]],
) -> int:
    """Run one command on the given streams (None: a closed stream) and return
    its exit status; argparse's usage and help go to sys.stderr and sys.stdout."""
    parser = build_parser()
    options = argv[: argv.index("--")] if "--" in argv else argv
    try:
        # argparse reads "--name=--" as a list of no values before Python 3.13
        # and as the value "--" from 3.13 on, so it is refused here on every one
        if any(arg.startswith("--") and arg.partition("=")[2] == "--" for arg in options):
            parser.error("expected one argument")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if stdout is None:
            raise NetskelError("stdout is closed")
        args.func(args, stdin, stdout)
    except (NetskelError, OSError) as exc:
        if stderr is not None:  # print(file=None) would write to sys.stdout
            print(f"error: {exc}", file=stderr)
        return EXIT_DOMAIN_ERROR
    return EXIT_OK


def main() -> None:
    """run on the process's own streams (None where a descriptor was closed)."""
    if hasattr(signal, "SIGPIPE"):  # a reader that leaves ends netskel as it ends any filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    if sys.stdin is not None:  # C locales decode with surrogateescape
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    if sys.stdout is not None:  # C locales encode as ASCII
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(run(sys.argv[1:], sys.stdin, sys.stdout, sys.stderr))


if __name__ == "__main__":
    main()
