"""Seed-1 benchmark stdout against ``bench/pinned_digests.json``, and
every subcommand and output format on small inputs against ``SMALL``.

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

# Small inputs, fed on stdin: an 8-node ring with a 3-link chord path
# between opposite nodes, and a 4-node path.
RING8_CHORD = "".join(f"{i} {(i + 1) % 8}\n" for i in range(8)) + "0 8\n8 9\n9 4\n"
PATH4 = "0 1\n1 2\n2 3\n"
GRAPHS = {
    "karate": (resources.files("netskel") / "data/karate.edges").read_text(),
    "ring8": RING8_CHORD,
    "path4": PATH4,
}
# argv, where "-" reads the GRAPHS entry named after it -> stdout sha256
SMALL = {
    "info - karate":
        "42d671579f692ac598d245b83f7a7ac82b8338fc75a946552323a59fbf6fb7ed",
    "search-info - karate":
        "aff011504fe587f242ca3401ff4eaf6e6a1c7e46dd1b2f48035b6099d6818764",
    "search-info - ring8 --pairs":
        "7965b7ec754351e9a17ea99ad9dccade520b21d489990a12eac143be11daa611",
    "search-info - ring8 --pairs --format csv":
        "3477217cd0828083270ddc4fd8ae28a0fc1143730620267ebc0d54c7a0e5f886",
    "contract - karate":
        "c9b570103500bd5a23f5aadcf65179279c7b29ae49ce6dfb43d99e5699decc87",
    "contract - karate --format dot":
        "e8cf78c875ca8fa11070347f1eaf4c7610944bcade279dc09bc14022fc2b8619",
    "contract - ring8 --strategy random --seed 3":
        "f4e456ca5e3dc5863c2c897a340b51b9989e51d85affaf9d8155dc099da8f5c3",
    "minimize - karate --trials 50 --seed 1":
        "049fcdec8ba488ecb68016fafb9128214ed03184cdbc374d45f964e701997d8c",
    "minimize - karate --trials 50 --seed 1 --format csv":
        "5160df8515eb644b2a8098aa4347f6c503392ff6f4e4385a3457824f3c965fdd",
    "minimize - karate --trials 50 --seed 1 --format dot":
        "dc65e99ec44f8c9c0d3fec36b1fd78a8e6cdd96654a717eabc52ca3be6944515",
    "minimize - ring8 --trials 20 --seed 2":
        "ff6578653bf5083e0b63ecff4e17e6d4129252c75448db69931e12292a3d9e96",
    "estimate - karate":
        "5346334f8715854e4ed5f705ae53cef7683f34e4afdb2592a1b9ffe92eb25f1d",
    "estimate - karate --constants inverse_exponent=2.4":
        "9700fc167e627ba5bc34a377142f2a4c4113043455e296b1e109cd2f44a7dd02",
    "estimate - path4":
        "a61a5dfeef0b40fa466aac7ef92a2c5ee2a30859c61a58163bf69fd5e187356d",
    "randomize - karate --seed 7":
        "ec4c729dc1ab8139e023b2d03272c0aaeb4e4ad7bbefb2c5578b58057b84bed5",
    "gen tree 12 --seed 5":
        "63271966de8714b7c2910ba2d61bf127102fb39bf8b9b605421b9a74591ffc62",
    "gen ring 6":
        "2157abbf760ca33432dfb5903da71929d95f3f3587f8a45d3e65889c7cc538b2",
    "gen chain 5":
        "723eee12f244bc1bd1e4648685d613233d8b31a2ee280f5d2837c79c28ca6842",
    "gen tree 12 --seed 5 --format dot":
        "9d31bc4354aca8442d6492251cd3b49b1fe6480eb30e3f5294e2928c1322c156",
    "gen ring 6 --format dot":
        "445092a16e6925b4ce193696953850e7f42962a6015000e275a0f454180e25c2",
    "gen chain 5 --format dot":
        "613a42857b4fbb75a27a669b52cc6ff20dc455be4845dd331fec4d3c781aa0d5",
    "tree-scaling --min 5 --max 20 --step 5 --samples 10 --seed 2":
        "b4106eac7746ae8a2906e036801107e6549e81a5190cf13ac57a464ec4bd1a8f",
    "tree-scaling --min 5 --max 20 --step 5 --samples 10 --seed 2 --format csv":
        "4e59147a55738d3ae593cd05a16897a5f9f8145ef24d872294bc8c19ff47f7e2",
    "tree-scaling --min 5 --max 10 --step 5 --samples 3":
        "4b3e75de1b4d24221d8f015b550528145d0f98b496a7a2afa69e77f059b1e6f8",
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


@pytest.mark.parametrize("command", sorted(SMALL))
def test_small_stdout_matches_pinned_digest(command):
    argv = command.split()
    stdin = GRAPHS[argv.pop(argv.index("-") + 1)] if "-" in argv else ""
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, io.StringIO(stdin), out, err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == SMALL[command]
