"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench
"""

import io
import json

import pytest

import checks
import run
import workloads

TINY = {
    "er_large": (30, 60),
    "er_pairs": (12, 24),
    "karate_trials": 5,
    "chords_small": (20, 3),
    "chords_small_trials": 5,
    "estimate": (60, 8),
    "contract": (50, 5),
    "star": 10,
    "randomize": (30, 4),
    "randomize_attempts": 40,
}
SEED = 7  # not the pinned seed: tiny inputs have no pinned digests


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.setattr(run, "WORK", run.ROOT / ".bench_work" / "smoke")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_inputs_emit_every_declared_metric(tiny, capsys, workload, trace):
    code, doc = _run(capsys, workload, trace)
    declared = run.DECLARED["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def _tampering(monkeypatch, command, tamper):
    real = run.Launcher.cli

    def tampered(self, argv, out_path):
        wall, rss, code, out = real(self, argv, out_path)
        return wall, rss, code, tamper(out) if argv[0] == command else out

    monkeypatch.setattr(run.Launcher, "cli", tampered)


def test_tampered_stdout_fails(tiny, capsys, monkeypatch):
    _tampering(monkeypatch, "search-info", lambda out: out.replace('"total_bits": ', '"total_bits": 1', 1))
    code, doc = _run(capsys, "allpairs-er", 0)
    assert code != 0
    assert doc["correct"] is False and doc["failed"] / doc["attempted"] > 0


def test_broken_degree_sequence_fails(tiny, capsys, monkeypatch):
    def move_endpoint(out):
        lines = out.splitlines(keepends=True)
        u, v = lines[0].split()
        w = next(x for line in lines for x in line.split() if x not in (u, v))
        return f"{u} {w}\n" + "".join(lines[1:])

    _tampering(monkeypatch, "randomize", move_endpoint)
    code, doc = _run(capsys, "sparse-large", 0)
    assert code != 0
    assert doc["correct"] is False and doc["failed"] / doc["attempted"] > 0


def test_pinned_digest_catches_what_invariants_allow(monkeypatch):
    """Karate's minimize output is pinned at the default seed; reformatting it must fail."""
    monkeypatch.syspath_prepend(str(run.SRC))
    from netskel import cli

    wl = workloads.build("minimize-small", workloads.DEFAULT_SEED, run.ROOT / ".bench_work" / "smoke", run.KARATE)
    cmd = next(c for c in wl.commands if c.name == "minimize-karate")
    out = io.StringIO()
    assert cli.run(list(cmd.argv), io.StringIO(""), out, io.StringIO()) == 0
    graph = checks.EdgeList(run.KARATE.read_text(encoding="utf-8"))
    pinned = run._pinned("minimize-small", workloads.DEFAULT_SEED)[cmd.name]
    assert run.verify(cmd.check, cmd.argv, out.getvalue(), 0, graph, pinned) == []
    reformatted = out.getvalue().replace("{\n  ", "{\n   ", 1)
    assert checks.run_check(cmd.check, reformatted, graph, cmd.argv) == []
    assert run.verify(cmd.check, cmd.argv, reformatted, 0, graph, pinned) != []
