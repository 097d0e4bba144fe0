"""netskel benchmark: run one workload through the real CLI and report metrics.

    python3 bench/run.py --workload allpairs-er --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the repository root. It generates the workload's edge lists
from ``--seed`` under ``.bench_work/``, runs an untimed exactness
pre-flight, then repeats passes over the workload's commands until
``--seconds`` have gone by. Each command runs as ``python -m netskel.cli``
with ``PYTHONPATH=src``, one child at a time (a closed loop with one
client), and every output is checked.

``--trace 0`` reports the end-to-end metrics as medians over passes.
``--trace 1`` runs the same commands in-process through ``cli.run``,
alternating untraced and traced passes, and reports per-layer metrics.
The last line of stdout is one JSON object; the exit code is 0 only when
every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import preflight
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
KARATE = SRC / "netskel" / "data" / "karate.edges"
WORK = ROOT / ".bench_work"
PINNED = BENCH / "pinned_digests.json"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0


class Launcher:
    """The ``launcher.py`` child that spawns every timed command."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, out_path: Path) -> tuple[float, int, int, str]:
        """Run ``argv``; return (wall s, peak RSS KiB, exit code, stdout)."""
        request = {
            "argv": [str(a) for a in argv],
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "cwd": str(ROOT),
            "stdout": str(out_path),
            "stderr": str(out_path.with_suffix(".err")),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["maxrss_kib"], reply["exit"], out_path.read_text(encoding="utf-8", errors="replace")

    def cli(self, argv, out_path: Path) -> tuple[float, int, int, str]:
        return self.run([sys.executable, "-m", "netskel.cli", *argv], out_path)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Result:
    """Attempted and failed command counts, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])
        return not problems


@dataclass
class Context:
    workload: workloads.Workload
    graphs: dict[str, checks.EdgeList]
    pinned: dict[str, str]
    outdir: Path
    launcher: Launcher
    result: Result

    def check(self, name: str, check: str, argv, out: str, code: int, input_path: str) -> bool:
        problems = verify(check, argv, out, code, self.graphs[input_path], self.pinned.get(name))
        return self.result.record(name, problems)


def verify(check: str, argv, out: str, code: int, graph: checks.EdgeList, pinned) -> list[str]:
    problems = [f"exit code {code}"] if code != 0 else checks.run_check(check, out, graph, argv)
    if pinned is not None:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if digest != pinned:
            problems.append(f"stdout sha256 {digest} != pinned {pinned}")
    return problems


def _pinned(name: str, seed: int) -> dict[str, str]:
    """Pinned stdout digests, which hold for the seed and input sizes they were taken at."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if seed != pinned["seed"] or json.loads(json.dumps(workloads.SIZES)) != pinned["sizes"]:
        return {}
    return pinned["stdout_sha256"].get(name, {})


def measure_end_to_end(ctx: Context, seconds: float):
    wl = ctx.workload
    info_argv = ("info", wl.setup_input)
    setup = []
    for i in range(SETUP_REPEATS + 1):  # the first call warms the file cache
        wall, _, code, out = ctx.launcher.cli(info_argv, ctx.outdir / "info.out")
        if ctx.check("info", "info", info_argv, out, code, wl.setup_input) and i:
            setup.append(wall)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        sample = {"wall_s": 0.0, "peak_rss_mb": 0.0}
        sample.update({f"{c.kind}_s": 0.0 for c in wl.commands})
        for cmd in wl.commands:
            wall, rss_kib, code, out = ctx.launcher.cli(cmd.argv, ctx.outdir / f"{cmd.name}.out")
            sample["wall_s"] += wall
            sample[f"{cmd.kind}_s"] += wall
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss_kib / 1024)
            ctx.check(cmd.name, cmd.check, cmd.argv, out, code, cmd.input)
        passes.append(sample)
    med = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    med["setup_s"] = statistics.median(setup) if setup else float("nan")
    lines = [f"  {k:<40} {med[k]:.6g} s" for k in list(passes[0])[2:]]
    walls = sorted(p["wall_s"] for p in passes)
    lines.append(f"  {'wall_s min/max over passes':<40} {walls[0]:.6g} / {walls[-1]:.6g} s")
    lines.append(f"  {'failed_frac':<40} {ctx.result.failed / ctx.result.attempted:.6g} frac")
    return med, f"medians of {len(passes)} passes and {len(setup)} info calls", lines


def _run_in_process(ctx: Context) -> tuple[float, int, list[tuple[str, float]]]:
    from netskel import cli

    total = 0.0
    output_bytes = 0
    walls = []
    for cmd in ctx.workload.commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            code = cli.run(list(cmd.argv), io.StringIO(""), out, io.StringIO())
        except Exception:  # a crash is a failed command, not the end of the run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        total += wall
        walls.append((cmd.name, wall))
        text = out.getvalue()
        output_bytes += len(text.encode("utf-8"))
        ctx.check(cmd.name, cmd.check, cmd.argv, text, code, cmd.input)
    return total, output_bytes, walls


def _by_layer(metrics: dict) -> str:
    return " ".join(f"{layer}={metrics[f'layer_self_s.{layer}']:.3f}s" for layer in tracer.LAYERS)


def measure_layers(ctx: Context, seconds: float):
    imports = []
    for _ in range(IMPORT_REPEATS):
        wall, _, code, _ = ctx.launcher.run([sys.executable, "-c", "import netskel"], ctx.outdir / "import.out")
        imports.append(wall)
        ctx.result.record("import", [] if code == 0 else [f"exit code {code}"])
    tr = tracer.Tracer()
    plain, traced, layers = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        plain.append(_run_in_process(ctx)[0])
        first = tr.mark()
        tr.install()
        try:
            wall, output_bytes, walls = _run_in_process(ctx)
        finally:
            tr.uninstall()
        traced.append(wall)
        layers.append(tracer.layer_metrics(tr.spans, first, tr.mark(), output_bytes))
    tops = [i for i in range(first, tr.mark()) if tr.spans[i][3] < first] + [tr.mark()]
    per_command = [(name, w, tracer.layer_metrics(tr.spans, a, b, 0)) for (name, w), a, b in zip(walls, tops, tops[1:])]
    tr.write(ctx.outdir / "spans.json")
    metrics = tracer.median_metrics(layers)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    lines = [f"  self time by layer, median pass: {_by_layer(metrics)}", "  per command, last traced pass:"]
    for name, wall, m in per_command:
        lines.append(
            f"    {name:<20} wall={wall:.3f}s {_by_layer(m)} searchinfo: calls={m['searchinfo.calls']}"
            f" distinct_frac={m['searchinfo.distinct_frac']:.4f} tree.self_s={m['searchinfo.tree.self_s']:.3f}"
        )
    samples = f"medians of {len(traced)} traced and {len(plain)} untraced in-process passes"
    return metrics, samples, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> tuple[dict, Result]:
    outdir = WORK / name
    wl = workloads.build(name, seed, outdir, KARATE)
    graphs = {
        path: checks.EdgeList(Path(path).read_text(encoding="utf-8"))
        for path in {c.input for c in wl.commands} | {wl.setup_input}
    }
    ctx = Context(wl, graphs, _pinned(name, seed), outdir, launcher, Result())
    values, samples, lines = (measure_layers if trace else measure_end_to_end)(ctx, seconds)
    units = PER_LAYER if trace else END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(f"{name} (seed {seed}, {'traced in-process' if trace else 'end to end'}; {samples})")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    for problem in ctx.result.problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    return metrics, ctx.result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netskel" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: no netskel source tree under {ROOT}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    problems = preflight.run(ROOT, args.seed, KARATE.read_text(encoding="utf-8"))
    if problems:
        for problem in problems[:10]:
            print(f"preflight: {problem}", file=sys.stderr)
        return 1

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    launcher = Launcher()
    try:
        for name in names:
            values, result = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            attempted += result.attempted
            failed += result.failed
            for key, value in values.items():
                metrics[key if len(names) == 1 else f"{name}/{key}"] = value
    finally:
        launcher.close()
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
