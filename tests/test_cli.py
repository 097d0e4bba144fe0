import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netskel as ns
from netskel import cli
from netskel.cli import run
from conftest import edge_list_texts


def invoke(argv, stdin_text=""):
    stdin, stdout, stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def invoke_process(argv, stdin_bytes=b"", first_on_path=None, redirect=None, **env):
    """Run the CLI in a fresh interpreter with the environment's stdin encoding
    settings removed; first_on_path goes ahead of netskel on PYTHONPATH, and
    a shell redirect such as '<&-' (stdin closed) is applied when given."""
    path = [str(Path(ns.__file__).resolve().parent.parent)]
    if first_on_path is not None:
        path.insert(0, str(first_on_path))
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    command = [sys.executable, "-m", "netskel.cli", *argv]
    if redirect is not None:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.run(
        command,
        input=stdin_bytes,
        capture_output=True,
        env={**base, **env, "PYTHONPATH": os.pathsep.join(path)},
    )


def connected_gnm_text(n, m, seed):
    """Edge list of a connected G(n, m) sample; retries until connected."""
    rng = random.Random(seed)
    while True:
        links = set()
        while len(links) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                links.add((min(u, v), max(u, v)))
        g = ns.Graph.from_links(n, sorted(links))
        if ns.is_connected(g):
            return ns.write_edge_list(g)


KARATE_TEXT = (resources.files("netskel") / "data/karate.edges").read_text()
PATH4 = "0 1\n1 2\n2 3\n"
# a 6-ring with a 3-link path between the opposite nodes 0 and 3
RING6_PATH = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 6\n6 7\n7 3\n"


def reject_constant(name):
    raise ValueError(f"JSON holds {name}")


def rounded_float(text):
    """A JSON number with a fraction or exponent, which the CLI writes rounded
    to 6 significant digits."""
    x = float(text)
    assert x == float(f"{x:.6g}"), f"JSON holds {text}, not rounded to 6 digits"
    return x


GRAPH_COMMANDS = ("info", "contract", "minimize", "estimate", "randomize", "search-info")


# finite values at the ends of the float range, zero and negatives
EDGE_FLOATS = [1e308, -1e308, 1e-308, -1e-308, 0.0, -0.0, -1.0, 5e-324]


@st.composite
def graph_commands(draw, command) -> list[str]:
    """Arguments of a subcommand that reads a graph from stdin, with a seed
    from +-2^63, trial and attempt counts from 1-5, and up to two --constants
    pairs of any finite value for estimate."""
    seed = f"--seed={draw(st.integers(-(2**63), 2**63))}"
    count = draw(st.integers(1, 5))
    value = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    name = st.sampled_from(["inverse_amplitude", "inverse_exponent"])
    constants = [
        f"--constants={key}={number!r}"
        for key, number in draw(st.lists(st.tuples(name, value), max_size=2))
    ]
    options = {
        "info": [[]],
        "contract": [[], ["--format=dot"], ["--strategy=random", seed]],
        "minimize": [[f"--trials={count}", seed, f"--format={f}"] for f in ("json", "csv", "dot")],
        "estimate": [constants],
        "randomize": [[f"--attempts={count}", seed]],
        "search-info": [[], ["--pairs", "--format=csv"]],
    }[command]
    return [command, "-", *draw(st.sampled_from(options))]


@st.composite
def generator_commands(draw, command) -> list[str]:
    """Arguments of gen (every kind, n from -2 to 60) or of tree-scaling
    (small ranges, steps and sample counts, valid or not), with a seed from
    +-2^63 and every format."""
    seed = f"--seed={draw(st.integers(-(2**63), 2**63))}"
    if command == "gen":
        kind = draw(st.sampled_from(["ring", "chain", "tree"]))
        fmt = draw(st.sampled_from([[], ["--format=edges"], ["--format=dot"]]))
        return ["gen", kind, str(draw(st.integers(-2, 60))), seed, *fmt]
    bounds = [f"--{name}={draw(st.integers(-1, hi))}" for name, hi in
              (("min", 25), ("max", 25), ("step", 10), ("samples", 4))]
    fmt = draw(st.sampled_from([[], ["--format=json"], ["--format=csv"]]))
    return ["tree-scaling", *bounds, seed, *fmt]


def assert_cli_contract(argv, code, out, err, text=""):
    """One call keeps the CLI contract: exit 0 with output that parses (an
    edge list from gen with the kind's node and link counts, JSON with every
    float rounded to 6 significant digits) and nothing on stderr, or exit 1
    with one error line and nothing on stdout. text is the edge list the call
    read."""
    if code != 0:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    if argv[0] == "randomize":
        g, again = ns.load_edge_list(text), ns.load_edge_list(out)
        assert (set(again.labels), again.link_count) == (set(g.labels), g.link_count)
    elif "--format=dot" in argv:
        assert out.startswith("graph {\n") and out.endswith("}\n")
    elif argv[0] == "gen":
        n = int(argv[2])
        links = n if argv[1] == "ring" else n - 1
        g = ns.load_edge_list(out)
        assert (g.node_count, g.link_count) == ((n if links else 0), links)
    elif "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
    else:
        json.loads(out, parse_float=rounded_float, parse_constant=reject_constant)


class Discard(io.TextIOBase):
    """A stdout that keeps nothing and counts the calls to its write."""

    writes = 0

    def write(self, s):
        self.writes += 1
        return len(s)


def stdout_writes(argv, text):
    """Exit code and stdout write calls of the CLI in process on stdin text."""
    stdout = Discard()
    code = run(argv, stdin=io.StringIO(text), stdout=stdout, stderr=io.StringIO())
    return code, stdout.writes


def pairs_peak_bytes(extra_argv):
    """Exit code and tracemalloc peak of search-info --pairs in process on a
    connected G(n, m) with N=600, L=1800, output discarded."""
    text = connected_gnm_text(600, 1800, 7)
    tracemalloc.start()
    try:
        code = run(
            ["search-info", "-", "--pairs", *extra_argv],
            stdin=io.StringIO(text),
            stdout=Discard(),
            stderr=io.StringIO(),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.fixture
def karate_path(karate, tmp_path):
    path = tmp_path / "karate.edges"
    path.write_text(ns.write_edge_list(karate))
    return str(path)


class TestInfo:
    def test_karate(self, karate_path):
        code, out, _ = invoke(["info", karate_path])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 34, "l": 78, "cyclomatic": 45, "components": 1}

    def test_stdin(self):
        code, out, _ = invoke(["info", "-"], "a b\nb c\n")
        assert code == 0
        assert json.loads(out)["n"] == 3


class TestSearchInfo:
    def test_karate_total(self, karate_path):
        code, out, _ = invoke(["search-info", karate_path])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["total_bits"] - 6061) <= 1
        assert doc["average_bits"] == pytest.approx(doc["total_bits"] / 34**2, rel=1e-4)
        assert len(doc["per_source_bits"]) == 34

    def test_pair_csv(self):
        code, out, _ = invoke(
            ["search-info", "-", "--pairs", "--format", "csv"], "a b\nb c\n"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "source_label,dest_label,bits"
        assert len(lines) == 1 + 3 * 2

    def test_csv_without_pairs_is_domain_error(self):
        # refused before the graph is read, so disconnected input gets the same error
        for text in ("a b\n", "a b\nc d\n"):
            code, out, err = invoke(["search-info", "-", "--format", "csv"], text)
            assert code == 1
            assert out == ""
            assert err.startswith("error:")
            assert "--pairs" in err

    def test_no_negative_zero(self):
        code, out, _ = invoke(["search-info", "-"], "a b\nb c\n")
        assert code == 0
        assert json.loads(out)["per_source_bits"] == [0.0, 2.0, 0.0]
        assert "-0.0" not in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pair_csv_disconnected_is_domain_error(self, fmt):
        # refused before the first byte, so no document is started
        code, out, err = invoke(["search-info", "-", "--pairs", "--format", fmt], "a b\nc d\n")
        assert code == 1
        assert out == ""
        assert "disconnected" in err

    def test_pair_json_matches_csv(self, karate_path):
        _, doc, _ = invoke(["search-info", karate_path, "--pairs"])
        _, csv, _ = invoke(["search-info", karate_path, "--pairs", "--format", "csv"])
        doc = json.loads(doc)
        assert abs(doc["total_bits"] - 6061) <= 1
        cells = [line.split(",") for line in csv.splitlines()[1:]]
        assert len(cells) == 34 * 33
        labels = ns.load_edge_list(Path(karate_path).read_text()).labels
        index = {label: i for i, label in enumerate(labels)}
        for src, dst, bits in cells:
            assert float(bits) == doc["pairs"][index[src]][index[dst]]

    def test_pair_csv_streams_in_bounded_memory(self):
        # the N^2 pair matrix alone would take several MiB; streamed rows
        # keep the peak near O(N)
        code, peak = pairs_peak_bytes(["--format", "csv"])
        assert code == 0
        assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MiB"

    def test_pair_json_streams_in_bounded_memory(self):
        # the totals come from a pass of their own, so the rows are written
        # one at a time as in the CSV: about 0.4 MiB here
        code, peak = pairs_peak_bytes([])
        assert code == 0
        assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MiB"

    def test_pair_json_takes_few_writes(self):
        # the N^2 pairs go out in batches of tokens, not one write per token
        text = connected_gnm_text(60, 180, 3)
        code, writes = stdout_writes(["search-info", "-", "--pairs"], text)
        assert code == 0
        assert writes <= 5

    def test_pair_csv_quotes_labels(self):
        # RFC 4180: a label holding a comma or a quote is one quoted field
        labels = ["a,b", 'say"hi"', "plain", ",", '"']
        text = "".join(f"{labels[i]} {labels[i + 1]}\n" for i in range(len(labels) - 1))
        code, out, _ = invoke(["search-info", "-", "--pairs", "--format", "csv"], text)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["source_label", "dest_label", "bits"]
        n = len(labels)
        assert len(rows) == 1 + n * (n - 1)
        assert all(len(row) == 3 for row in rows)
        assert {(s, d) for s, d, _ in rows[1:]} == {
            (s, d) for s in labels for d in labels if s != d
        }
        assert any(line.startswith("plain,") for line in out.splitlines())  # unquoted

    def test_disconnected_is_domain_error(self):
        code, _, err = invoke(["search-info", "-"], "a b\nc d\n")
        assert code == 1
        assert "disconnected" in err


class TestPipelines:
    def test_gen_ring_pipe_minimize(self):
        _, edges, _ = invoke(["gen", "ring", "12"])
        code, out, _ = invoke(
            ["minimize", "-", "--trials", "500", "--seed", "1"], edges
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best"]["h_simp"] == 24
        assert doc["worst"]["h_simp"] == 78

    def test_gen_chain(self):
        code, out, _ = invoke(["gen", "chain", "4"])
        assert code == 0
        assert out.splitlines() == ["0 1", "1 2", "2 3"]

    def test_gen_tree_deterministic(self):
        _, a, _ = invoke(["gen", "tree", "20", "--seed", "5"])
        _, b, _ = invoke(["gen", "tree", "20", "--seed", "5"])
        assert a == b

    def test_gen_dot(self):
        code, out, _ = invoke(["gen", "ring", "3", "--format", "dot"])
        assert code == 0
        assert out.count(" -- ") == 3

    def test_contract_json(self, karate_path):
        code, out, _ = invoke(["contract", karate_path, "--strategy", "degree"])
        assert code == 0
        doc = json.loads(out)
        assert doc["skeleton_nodes"] == 29
        assert doc["h_simp"] == pytest.approx(
            doc["h_skeleton"] + sum(doc["h_supernodes"]), rel=1e-5
        )

    def test_contract_json_takes_few_writes(self, large_sparse_text):
        # on an unbuffered stdout every write is a system call
        code, writes = stdout_writes(["contract", "-"], large_sparse_text)
        assert code == 0
        assert writes <= 20

    def test_contract_dot(self, karate_path):
        code, out, _ = invoke(["contract", karate_path, "--format", "dot"])
        assert code == 0
        assert out.startswith("graph {")

    def test_minimize_csv_samples(self):
        _, edges, _ = invoke(["gen", "ring", "9"])
        code, out, _ = invoke(
            ["minimize", "-", "--trials", "20", "--format", "csv"], edges
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,skeleton_nodes,h_skeleton,h_supernodes,h_simp"
        assert len(lines) == 21

    def test_estimate_karate(self, karate_path):
        code, out, _ = invoke(["estimate", karate_path])
        assert code == 0
        doc = json.loads(out)
        assert doc["n_original"] == 34
        assert doc["ratio"] >= 0.3
        assert doc["low_confidence"] is False
        assert abs(doc["estimate_bits"] - 6061) / 6061 < 0.5

    def test_estimate_constants_override(self, karate_path):
        code, out, _ = invoke(
            ["estimate", karate_path, "--constants", "inverse_exponent=0",
             "--constants", "inverse_amplitude=1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate_bits"] == pytest.approx(doc["h_skeleton"], rel=1e-5)

    def test_estimate_bad_constant(self, karate_path):
        code, _, err = invoke(["estimate", karate_path, "--constants", "bogus=1"])
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("pair", ["tree_amplitude=2", "skeleton_exponent=9"])
    def test_estimate_refuses_constants_it_does_not_read(self, karate_path, pair):
        code, out, err = invoke(["estimate", karate_path, "--constants", pair])
        assert (code, out) == (1, "")
        assert "unknown constant override" in err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_estimate_non_numeric_constant(self, karate_path, value):
        code, out, err = invoke(
            ["estimate", karate_path, "--constants", f"inverse_exponent={value}"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "inverse_exponent" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text,constants",
        [
            (PATH4, ["inverse_exponent=1e308"]),
            (PATH4, ["inverse_exponent=100", "inverse_amplitude=1e300"]),
            (RING6_PATH, ["inverse_exponent=1000", "inverse_amplitude=1e300"]),
        ],
        ids=["overflow", "nan", "infinity"],
    )
    def test_estimate_refuses_non_finite_estimate(self, text, constants):
        argv = ["estimate", "-"] + [f"--constants={pair}" for pair in constants]
        code, out, err = invoke(argv, text)
        assert (code, out) == (1, "")
        assert err.startswith("error: estimate is not finite")
        assert len(err.splitlines()) == 1

    @settings(max_examples=150)
    @given(
        graph_name=st.sampled_from(["karate", "path4", "ring6_path"]),
        amplitude=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        exponent=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_estimate_constants_keep_the_cli_contract(self, graph_name, amplitude, exponent):
        """Any finite constants give parseable JSON without NaN or Infinity,
        or one error line with exit 1."""
        text = {"karate": KARATE_TEXT, "path4": PATH4, "ring6_path": RING6_PATH}[graph_name]
        argv = [
            "estimate", "-",
            f"--constants=inverse_amplitude={amplitude!r}",
            f"--constants=inverse_exponent={exponent!r}",
        ]
        code, out, err = invoke(argv, text)
        if code == 0:
            json.loads(out, parse_constant=reject_constant)
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_randomize_round_trip(self, karate, karate_path):
        code, out, _ = invoke(["randomize", karate_path, "--seed", "3"])
        assert code == 0
        rewired = ns.load_edge_list(out)
        assert sorted(rewired.degrees) == sorted(karate.degrees)
        assert ns.is_connected(rewired)

    def test_tree_scaling_csv(self):
        code, out, _ = invoke(
            ["tree-scaling", "--min", "5", "--max", "15", "--step", "5",
             "--samples", "10", "--seed", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,mean_bits,std_bits,samples"
        assert len(lines) == 4

    def test_tree_scaling_json_fit(self):
        code, out, _ = invoke(
            ["tree-scaling", "--min", "10", "--max", "40", "--step", "10",
             "--samples", "20", "--seed", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 4
        assert doc["fit"]["exponent"] > 2.0


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, karate_path):
        _, a, _ = invoke(["minimize", karate_path, "--trials", "10", "--seed", "4"])
        _, b, _ = invoke(["minimize", karate_path, "--trials", "10", "--seed", "4"])
        assert a == b

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["gen", "tree", "8"], "8509dcac02570dddfb9bd6db45f47b300b3a755cc62c9daaa1c439258b38703a"),
            (
                ["contract", "-", "--strategy", "random"],
                "7245c6dbdeb3ce8f318b6a5410a879f433f52a921f6960da6150855066d71273",
            ),
            (
                ["randomize", "-", "--attempts", "50"],
                "dcc174f81442fb6b1c896ea96c9401beab8c52cd0b420f296c98b989df74d317",
            ),
        ],
        ids=["gen", "contract", "randomize"],
    )
    def test_negative_seed_has_its_own_stream(self, argv, digest):
        # random.Random seeds with abs(seed); seed 5 keeps its pinned output
        _, five, _ = invoke([*argv, "--seed", "5"], KARATE_TEXT)
        _, minus_five, _ = invoke([*argv, "--seed", "-5"], KARATE_TEXT)
        assert hashlib.sha256(five.encode()).hexdigest() == digest
        assert minus_five != five

    def test_usage_error_exit_2(self):
        code, _, _ = invoke(["no-such-command"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "tree", "5", "--seed=--"],
            ["minimize", "-", "--trials=--"],
            ["estimate", "-", "--constants=inverse_exponent=2.4", "--constants=--"],
            ["contract", "-", "--format=--"],
        ],
    )
    def test_option_given_as_double_dash_exit_2(self, argv):
        """argparse before Python 3.13 reads "--name=--" as a list of no
        values, which reached the commands and raised a traceback."""
        usage = io.StringIO()
        with contextlib.redirect_stderr(usage):
            assert invoke(argv, "a b\n") == (2, "", "")
        assert usage.getvalue().endswith("netskel: error: expected one argument\n")

    def test_missing_file_exit_1(self):
        code, _, err = invoke(["info", "/no/such/file.edges"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command", ["contract", "minimize", "estimate", "search-info", "randomize"]
    )
    def test_empty_input_exit_1(self, command):
        code, out, err = invoke([command, "-"], "")
        assert (code, out, err) == (1, "", "error: graph has no nodes\n")

    @pytest.mark.parametrize("command", ["info", "contract", "estimate"])
    def test_non_utf8_file_exit_1(self, command, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"a b\n\xff\xfe c\n")
        code, out, err = invoke([command, str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not UTF-8 text (byte 4)\n"

    def test_non_utf8_stdin_exit_1(self):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe a\n"), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        assert run(["info", "-"], stdin=stdin, stdout=stdout, stderr=stderr) == 1
        assert stderr.getvalue() == "error: stdin is not UTF-8 text (byte 0)\n"

    def test_non_utf8_real_stdin_under_c_locale_exit_1(self):
        # a C locale decodes sys.stdin with surrogateescape unless main() asks for strict
        proc = invoke_process(["info", "-"], b"a b\n\xff\xfe c\n", LC_ALL="C")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: stdin is not UTF-8 text (byte 4)\n"

    @pytest.mark.parametrize(
        "argv", [["randomize", "-"], ["search-info", "-", "--pairs", "--format=csv"]]
    )
    def test_labels_written_as_utf8_under_c_locale(self, argv):
        # sys.stdout writes ASCII in a C locale unless main() asks for UTF-8
        text = "é b\nb c\nc é\n"
        proc = invoke_process(
            argv, text.encode(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        out = proc.stdout.decode("utf-8")
        if argv[0] == "randomize":  # a triangle has no swap to make
            assert ns.load_edge_list(out) == ns.load_edge_list(text)
        else:
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert {(s, d) for s, d, _ in rows} == {
                (s, d) for s in ("é", "b", "c") for d in ("é", "b", "c") if s != d
            }

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor with sh")
    @pytest.mark.parametrize(
        "argv, redirect, message",
        [
            (["info", "-"], "<&-", b"error: stdin is closed\n"),
            (["info", str(Path(ns.__file__).parent / "data/karate.edges")], ">&-",
             b"error: stdout is closed\n"),
            (["info", "-"], "<&- 2>&-", b""),
        ],
    )
    def test_closed_standard_stream_exit_1(self, argv, redirect, message):
        # Python sets sys.stdin, sys.stdout or sys.stderr to None for a closed
        # descriptor; with stderr closed the error goes nowhere, not to stdout
        proc = invoke_process(argv, redirect=redirect)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", message)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    @pytest.mark.parametrize(
        "fmt, first_line",
        [(["--format=csv"], b"source_label,dest_label,bits\n"), ([], b"{\n")],
        ids=["csv", "json"],
    )
    def test_reader_that_leaves_ends_the_command_as_sigpipe_does(self, tmp_path, fmt, first_line):
        # the 300 x 299 pairs (831,249 bytes of CSV, 997,024 of JSON)
        # overfill the pipe, so the command is still writing when the reader
        # closes it
        ring = tmp_path / "ring.edges"
        ring.write_text(ns.write_edge_list(ns.gen_ring(300)), encoding="utf-8")
        argv = ["search-info", str(ring), "--pairs", *fmt]
        with subprocess.Popen(
            [sys.executable, "-m", "netskel.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(ns.__file__).resolve().parent.parent)},
        ) as proc:
            assert proc.stdout.readline() == first_line
            proc.stdout.close()
            assert proc.wait(timeout=60) == -signal.SIGPIPE
            assert proc.stderr.read() == b""

    def test_byte_order_mark_on_stdin_is_not_a_label(self):
        # with the mark kept, "\ufeffa" and "a" were two labels and "b a" no duplicate
        proc = invoke_process(["info", "-"], b"\xef\xbb\xbfa b\nb a\n")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: line 2: duplicate edge 'b' -- 'a'\n"

    def test_byte_order_mark_in_file_is_skipped(self, karate, tmp_path):
        plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
        plain.write_text(ns.write_edge_list(karate), encoding="utf-8")
        marked.write_text(ns.write_edge_list(karate), encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert invoke(["info", str(marked)]) == invoke(["info", str(plain)])

    def test_parse_error_exit_1(self):
        code, _, err = invoke(["info", "-"], "a b c\n")
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("command", ["info", "randomize"])
    def test_label_that_would_start_a_comment_exit_1(self, command):
        code, out, err = invoke([command, "-"], "x #b\nc #b\n")
        assert (code, out, err) == (1, "", "error: line 1: label '#b' starts with '#'\n")

    def test_edge_list_text_keeps_the_cli_contract(self):
        """Every subcommand that reads a graph, on any edge-list text, exits 0
        with output that parses and nothing on stderr, or exits 1 with one
        error line and nothing on stdout; each subcommand does both."""
        codes = Counter()

        def check(text, argv):
            code, out, err = invoke(argv, text)
            codes[argv[0], code] += 1
            assert_cli_contract(argv, code, out, err, text)

        for command in GRAPH_COMMANDS:
            settings(max_examples=40)(given(edge_list_texts(), graph_commands(command))(check))()
        assert set(codes) == {(command, code) for command in GRAPH_COMMANDS for code in (0, 1)}

    def test_generators_keep_the_cli_contract(self):
        """gen and tree-scaling, on any size, range and seed, keep the contract
        of test_edge_list_text_keeps_the_cli_contract; each exits both 0 and 1."""
        codes = Counter()

        def check(argv):
            code, out, err = invoke(argv)
            codes[argv[0], code] += 1
            assert_cli_contract(argv, code, out, err)

        for command in ("gen", "tree-scaling"):
            settings(max_examples=40)(given(generator_commands(command))(check))()
        assert set(codes) == {(command, code) for command in ("gen", "tree-scaling") for code in (0, 1)}

    @settings(max_examples=60)
    @given(
        st.sampled_from(GRAPH_COMMANDS + ("gen", "tree-scaling")).flatmap(
            lambda command: generator_commands(command)
            if command in ("gen", "tree-scaling")
            else graph_commands(command)
        ),
        st.data(),
    )
    def test_bad_flags_and_integers_exit_2_with_usage(self, argv, data):
        """A flag no subcommand has, a choice it does not offer or an integer
        that does not parse exits 2 with argparse's usage message on stderr and
        nothing on stdout, before any input is read."""
        mutants = [[*argv, "--no-such-flag"], [*argv, "--format=xml"], [*argv, "--format=--"]]
        for i, arg in enumerate(argv):
            flag, eq, value = arg.rpartition("=")
            if value.lstrip("-").isdigit():
                for bad in ("x", "1.5", "", "1e3", "0x10", "nan", "--"):
                    mutants.append([*argv[:i], flag + eq + bad, *argv[i + 1 :]])
        argv = data.draw(st.sampled_from(mutants))
        usage = io.StringIO()
        with contextlib.redirect_stderr(usage):
            code, out, err = invoke(argv, "a b\n")
        assert (code, out, err) == (2, "", "")
        lines = usage.getvalue().splitlines()
        assert lines[0].startswith("usage: netskel ")
        assert lines[-1].startswith("netskel") and ": error: " in lines[-1]
        assert "Traceback" not in usage.getvalue()


class TestStandardLibraryOnly:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search-info", "KARATE"],
            ["minimize", "KARATE", "--trials", "20"],
            ["estimate", "KARATE"],
            ["tree-scaling", "--min", "10", "--max", "40", "--samples", "5"],
        ],
    )
    def test_runs_without_numpy(self, argv, karate_path, tmp_path):
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("raise ImportError('numpy is blocked')\n")
        argv = [karate_path if a == "KARATE" else a for a in argv]
        proc = invoke_process(argv, first_on_path=stub.parent)
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)


def module_attributes(source: str, namespace: dict) -> list[str]:
    """Every `name.attr` in source whose name is bound to a netskel module,
    in namespace or by a `from . import name` anywhere in source (a function
    that imports a module on first use), as "module.attr"."""
    tree = ast.parse(source)
    modules = {
        name
        for name, value in namespace.items()
        if isinstance(value, types.ModuleType) and value.__name__.startswith("netskel.")
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            modules.update(alias.asname or alias.name for alias in node.names)
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


class TestLayering:
    def test_cli_names_no_private_attribute_of_another_module(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        used = module_attributes(source, vars(cli))
        assert "contraction.tree_contract" in used  # the scan sees module attributes
        assert [name for name in used if name.split(".", 1)[1].startswith("_")] == []

    def test_private_access_is_seen(self):
        source = "def f(g):\n    from . import contraction\n    return contraction._merge(g, graph.links)\n"
        used = sorted(module_attributes(source, vars(cli)))
        assert used == ["contraction._merge", "graph.links"]


class TestLoadOnFirstUse:
    """A command loads only the modules it runs, and the package resolves its
    public names on first use."""

    LAYERS = ("searchinfo", "contraction", "estimator", "generators")

    @staticmethod
    def fresh(script: str, *argv: str) -> list[str]:
        """The words script prints, run in a fresh interpreter that loads no
        site packages (-S), so only netskel and the standard library import."""
        src = str(Path(ns.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def loaded_by(self, *argv: str) -> set[str]:
        script = (
            "import io, sys\n"
            "from netskel import cli\n"
            "code = cli.run(sys.argv[1:], io.StringIO(), io.StringIO(), sys.stderr)\n"
            "print(code, *sys.modules)\n"
        )
        code, *modules = self.fresh(script, *argv)
        assert code == "0"
        return set(modules)

    def test_info_loads_only_graph(self, karate_path):
        loaded = self.loaded_by("info", karate_path)
        assert "netskel.graph" in loaded
        assert loaded & {"dataclasses", *(f"netskel.{m}" for m in self.LAYERS)} == set()

    def test_search_info_loads_no_contraction(self, karate_path):
        loaded = self.loaded_by("search-info", karate_path)
        assert "netskel.searchinfo" in loaded
        assert loaded & {f"netskel.{m}" for m in ("contraction", "estimator", "generators")} == set()

    def test_randomize_loads_no_search_information(self, karate_path):
        loaded = self.loaded_by("randomize", karate_path, "--attempts", "50")
        assert "netskel.generators" in loaded
        assert "netskel.searchinfo" not in loaded

    def test_public_names_resolve_on_first_use(self):
        script = (
            "import sys, netskel\n"
            "print(*sorted(m for m in sys.modules if m.startswith('netskel.')) or ['none'])\n"
            "defined = all(\n"
            "    getattr(netskel, n) is getattr(sys.modules[getattr(netskel, n).__module__], n)\n"
            "    and getattr(netskel, n).__module__.startswith('netskel.')\n"
            "    for n in netskel.__all__\n"
            ")\n"
            "star = {}\n"
            "exec('from netskel import *', star)\n"
            "bound = all(star.get(n) is getattr(netskel, n) for n in netskel.__all__)\n"
            "try:\n"
            "    netskel.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError:\n"
            "    unknown = 'AttributeError'\n"
            "print(len(netskel.__all__), defined, bound, unknown)\n"
        )
        words = self.fresh(script)
        assert words[0] == "none"  # importing the package loads no module
        assert words[1:] == [str(len(ns.__all__)), "True", "True", "AttributeError"]
