"""Seed-1 benchmark stdout against ``bench/pinned_digests.json``.

The benchmark checks these digests only when it runs. Here the same
inputs are generated with ``bench/workloads.py`` (loaded from its file,
so ``bench/`` is neither edited nor put on ``sys.path``) and every
pinned command, ``info`` on each workload's setup input included, runs
in-process through ``cli.run``. The N=1000 ``search-info`` and the
``estimate`` skeleton are large enough for the forked search-information
workers, and both ``minimize`` commands share their trials among forked
workers on a machine with two or more CPUs; ``contract-dot`` contracts a
4000-node star into its hub.
"""

import hashlib
import importlib.util
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from netskel import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
PINNED = json.loads((BENCH / "pinned_digests.json").read_text(encoding="utf-8"))
COMMANDS = {
    "allpairs-er": ("info", "search-info", "search-info-pairs"),
    "minimize-small": ("info", "minimize-karate", "minimize-chords-csv"),
    "sparse-large": ("info", "estimate", "contract", "contract-dot"),
}


def load_workloads(monkeypatch):
    """bench/workloads.py as a module; dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_seed1_stdout_matches_pinned_digest(workload, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert PINNED["seed"] == workloads.DEFAULT_SEED == 1
    assert PINNED["sizes"] == json.loads(json.dumps(workloads.SIZES))
    with resources.as_file(resources.files("netskel") / "data/karate.edges") as karate:
        built = workloads.build(workload, PINNED["seed"], tmp_path, Path(karate))
    argvs = {c.name: c.argv for c in built.commands}
    argvs["info"] = ("info", built.setup_input)  # as the benchmark runs it for setup_s
    for name in COMMANDS[workload]:
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(list(argvs[name]), io.StringIO(""), out, err) == 0, err.getvalue()
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == PINNED["stdout_sha256"][workload][name], name
