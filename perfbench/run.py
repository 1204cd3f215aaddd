"""The runpoly benchmark: real CLI commands timed end to end, or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify|families|tables \
        --seed N --seconds S --trace 0|1

Every command of a workload runs as its own process, `python -m runpoly.cli
...` with `src` on PYTHONPATH, one after another from this process (a closed
loop with one client).  Each process starts with empty lru_caches, as a
user's run does; only byte-compilation and the page cache are warmed first.

--trace 0 repeats passes through the workload's commands for about S seconds
and reports the end-to-end metrics of BENCHMARK.json:

  wall_norm, cpu_norm  median over passes of the pass's wall (child CPU) time
                       divided by the mean of calibrate.py, a fixed reference
                       computation timed twice just before and twice just
                       after the pass (unit `ref`); this cancels the drift of
                       a shared CPU
  peak_rss_mb          the largest max-RSS of any command in the run
  setup_s              median wall time of the smallest invocation,
                       `table --n-max 2`: interpreter start, import, argparse

The raw medians (wall_s, cpu_s, per command) and failed_share are printed
above the result.  --trace 1 alternates untraced and traced passes (see
tracer.py) and reports the per-layer metrics.  Every command's stdout is
checked (checks.py) before it counts; the last line of stdout is one JSON
object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHUNK = 1 << 20
CLI = [sys.executable, "-m", "runpoly.cli"]
CALIBRATION = [sys.executable, "-S", str(HERE / "calibrate.py")]
# A single run of calibrate.py varies by ~17% with the machine's momentary
# speed; averaging four around each pass keeps that from dominating the ratio.
CALIBRATIONS_PER_GAP = 2

CALL_COUNTS = {
    "closedform.p_closed_form": "closedform.p_closed_form.calls",
    "closedform.p_value": "closedform.p_value.calls",
    "closedform.b_value": "closedform.b_value.calls",
    "genfun.phi_s_poly": "genfun.phi_s_poly.calls",
    "genfun.B_poly": "genfun.B_poly.calls",
    "poly.Polynomial.mul": "poly.Polynomial.mul.calls",
    "poly.BivariatePolynomial.mul": "poly.BivariatePolynomial.mul.calls",
    "poly.BivariatePolynomial.substitute_linear": "poly.substitute_linear.calls",
    "poly.series_reciprocal": "poly.series_reciprocal.calls",
}
CACHES = {
    "closedform": ("closedform.a_poly", "closedform.b_poly", "closedform.p_poly"),
    "genfun": (
        "genfun.phi_s_poly",
        "genfun.delta_poly",
        "genfun.atilde_poly",
        "genfun.atilde_taylor_coeffs",
    ),
}


@dataclass
class Command:
    name: str
    argv: list[str]


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int


@dataclass
class CommandRun:
    command: Command
    usage: Usage
    sha256: str
    stdout_bytes: int
    span_file: Path | None


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as f:
        return json.load(f)


def make_commands(spec: dict, bands: dict, seed: int, workload: str) -> list[Command]:
    """Fill the argument templates; seed 0 takes the first value of each band."""
    rng = random.Random(f"{workload}:{seed}")
    values = {k: (v[0] if seed == 0 else rng.choice(v)) for k, v in sorted(bands.items())}
    return [
        Command(c["name"], [a.format(**values) for a in c["args"]]) for c in spec["commands"]
    ]


class Runner:
    """Runs commands one at a time and keeps each distinct stdout for the checks.

    Stdout is read from a pipe in chunks and hashed; nothing is written to
    disk while commands are timed.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.outputs: dict[str, tuple[Command, bytes]] = {}  # first copy of each stdout
        self.runs: list[CommandRun] = []

    def launch(self, argv: list[str], sink) -> Usage:
        """Run argv through launch.py, passing each stdout chunk to sink."""
        report_r, report_w = os.pipe()
        with open(self.workdir / "stderr", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(report_w)] + argv,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=ROOT,
                pass_fds=(report_w,),
                start_new_session=True,
            )
        os.close(report_w)
        try:
            with proc.stdout:
                fd = proc.stdout.fileno()
                while chunk := os.read(fd, CHUNK):
                    sink(chunk)
            with os.fdopen(report_r, "rb") as report:
                fields = report.read().split()
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
            proc.wait()
            raise
        if proc.returncode != 0 or len(fields) != 5:
            raise RuntimeError(f"launch.py failed (exit {proc.returncode}) for {argv}")
        wall, user, system, max_rss_kib, exit_code = fields
        return Usage(float(wall), float(user) + float(system), int(max_rss_kib) / 1024, int(exit_code))

    def run(self, command: Command, traced: bool = False) -> CommandRun:
        index = len(self.runs)
        span_file = self.workdir / f"spans{index}" if traced else None
        prefix = [sys.executable, str(HERE / "tracer.py"), str(span_file), str(index), "--"] if traced else CLI
        digest = hashlib.sha256()
        chunks: list[bytes] = []

        def sink(chunk):
            digest.update(chunk)
            chunks.append(chunk)

        usage = self.launch(prefix + command.argv, sink)
        sha = digest.hexdigest()
        if sha not in self.outputs:
            self.outputs[sha] = (command, b"".join(chunks))
        run = CommandRun(command, usage, sha, sum(map(len, chunks)), span_file)
        self.runs.append(run)
        return run

    def run_pass(self, commands: list[Command], traced: bool = False) -> list[CommandRun]:
        return [self.run(c, traced) for c in commands]

    def calibrate_gap(self) -> list[Usage]:
        """Time calibrate.py CALIBRATIONS_PER_GAP times in a row."""
        gap = [self.launch(CALIBRATION, lambda chunk: None) for _ in range(CALIBRATIONS_PER_GAP)]
        if any(usage.exit_code != 0 for usage in gap):
            raise RuntimeError("calibrate.py failed")
        return gap

    def check_all(self) -> dict[str, str]:
        """Check each distinct stdout once; return the failure message per sha256."""
        sys.path.insert(0, str(SRC))  # the checks decode with runpoly.serialize
        from checks import ReferenceTriangle, check_output

        ref = ReferenceTriangle()
        failures = {}
        for sha, (command, stdout) in self.outputs.items():
            problem = check_output(command.argv, stdout, ref)
            if problem:
                failures[sha] = f"{command.name} {' '.join(command.argv)}: {problem}"
        return failures


def high_percentile(n: int) -> float | None:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    return next((p for p in (99.9, 99, 95, 90, 75, 50) if n * (1 - p / 100) >= 10), None)


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"{name:24} median {statistics.median(values):.6g} {unit}  (n={len(values)}"
    p = high_percentile(len(values))
    if p is not None:
        cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
        text += f", p{p:g} {cut:.6g} {unit}"
    return text + ")"


def pass_wall(runs: list[CommandRun]) -> float:
    return sum(r.usage.wall_s for r in runs)


def pass_cpu(runs: list[CommandRun]) -> float:
    return sum(r.usage.cpu_s for r in runs)


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass of average length still ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def read_spans(path: Path):
    """Header, span names, inclusive and self seconds of one traced command."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = [array("I"), array("i"), array("d"), array("d")]
        for arr in arrays:
            arr.fromfile(f, header["spans"])
    names, parents, starts, ends = arrays
    durations = [e - s for s, e in zip(starts, ends)]
    self_s = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_s[parent] -= durations[i]
    return header, names, durations, self_s


def layer_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """Per-layer numbers for one traced pass, summed over its commands."""
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({metric: 0 for metric in CALL_COUNTS.values()})
    out.update({"poly.coeff_products": 0, "bruteforce.perms": 0, "triangle.cells": 0})
    out.update({"cli.render_s": 0.0, "cli.import_s": 0.0})
    cache = {layer: [0, 0] for layer in CACHES}
    for run in runs:
        header, names, durations, self_s = read_spans(run.span_file)
        labels = header["names"]
        for i, nid in enumerate(names):
            label = labels[nid]
            layer = label.partition(".")[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += self_s[i]
            if label in CALL_COUNTS:
                out[CALL_COUNTS[label]] += 1
            elif label == "cli.OutputDocument.render":
                out["cli.render_s"] += durations[i]
        for key, amount in header["counters"].items():
            out[key] += amount
        for layer, cached in CACHES.items():
            for name in cached:
                hits, misses = header["cache_info"].get(name, (0, 0))
                cache[layer][0] += hits
                cache[layer][1] += misses
        out["cli.import_s"] += header["import_s"] / len(runs)  # per command
    for layer, (hits, misses) in cache.items():
        out[f"{layer}.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cli.stdout_bytes"] = sum(r.stdout_bytes for r in runs)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def measure_plain(commands, setup, runner, seconds):
    """Timed passes with CALIBRATIONS_PER_GAP calibrations before and after each."""
    setups = [runner.run(setup) for _ in range(4)]
    gaps = [runner.calibrate_gap()]
    passes = []
    start = time.perf_counter()
    while not passes or fits_another(start, len(passes), seconds):
        setups += [runner.run(setup), runner.run(setup)]
        passes.append(runner.run_pass(commands))
        gaps.append(runner.calibrate_gap())
    around = [before + after for before, after in zip(gaps, gaps[1:])]
    wall_norm = [pass_wall(p) / statistics.fmean(c.wall_s for c in cal) for p, cal in zip(passes, around)]
    cpu_norm = [pass_cpu(p) / statistics.fmean(c.cpu_s for c in cal) for p, cal in zip(passes, around)]
    metrics = {
        "wall_norm": (statistics.median(wall_norm), "ref"),
        "cpu_norm": (statistics.median(cpu_norm), "ref"),
        "peak_rss_mb": (max(r.usage.max_rss_mb for r in runner.runs), "MB"),
        "setup_s": (statistics.median(r.usage.wall_s for r in setups), "s"),
    }
    samples = {
        "wall_s": ([pass_wall(p) for p in passes], "s"),
        "cpu_s": ([pass_cpu(p) for p in passes], "s"),
        "calibration_s": ([c.wall_s for gap in gaps for c in gap], "s"),
        "setup_s": ([r.usage.wall_s for r in setups], "s"),
        "wall_norm.passes": (wall_norm, "ref"),
    }
    return metrics, samples, passes


def measure_traced(commands, runner, seconds):
    """Untraced and traced passes in turn; per-layer metrics from the traced ones."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or fits_another(start, len(traced), seconds):
        plain.append(runner.run_pass(commands))
        traced.append(runner.run_pass(commands, traced=True))
    layers = [layer_metrics(p) for p in traced]
    metrics = {}
    for key in layers[0]:
        unit = layer_unit(key)
        # counts repeat exactly from pass to pass; median_low keeps them whole numbers
        middle = statistics.median if unit in ("s", "ratio") else statistics.median_low
        metrics[key] = (middle(m[key] for m in layers), unit)
    overhead = statistics.median(map(pass_wall, traced)) - statistics.median(map(pass_wall, plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {
        "wall_s": ([pass_wall(p) for p in plain], "s"),
        "traced_wall_s": ([pass_wall(p) for p in traced], "s"),
    }
    return metrics, samples, plain


def report(workload, seed, trace, commands, runner, metrics, samples, passes, failures, failed):
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for c in commands:
        print(f"  command {c.name:14} runpoly {' '.join(c.argv)}")
    for name, (values, unit) in samples.items():
        print("  " + describe(name, values, unit))
    for c in commands:
        walls = [r.usage.wall_s for p in passes for r in p if r.command.name == c.name]
        print("  " + describe(f"cmd.{c.name}_s", walls, "s"))
    print(f"  {'failed_share':24} {len(failed) / len(runner.runs)!r} share")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24} {value!r} {unit}")
    baseline = json.loads((HERE / "baseline.json").read_text()).get("sha256", {}).get(workload, {})
    for c in commands:
        sha = next(r.sha256 for r in runner.runs if r.command.name == c.name)
        note = ""
        if seed == 0 and c.name in baseline:
            note = "  same as baseline" if baseline[c.name] == sha else "  DIFFERS from baseline"
        print(f"  sha256 {c.name:14} {sha}{note}")
    for message in sorted(set(failures.values())):
        print(f"  WRONG OUTPUT {message}")
    for r in failed:
        if r.usage.exit_code:
            print(f"  EXIT {r.usage.exit_code} runpoly {' '.join(r.command.argv)}")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; print the summary and return the result object, or None."""
    if not (SRC / "runpoly" / "cli.py").is_file():
        print(f"error: no runpoly sources under {SRC}", file=sys.stderr)
        return None
    config = load_workloads()
    if workload not in config["workloads"]:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return None
    spec = config["workloads"][workload]
    bands = config["smoke_bands"][workload] if smoke else spec["bands"]
    commands = make_commands(spec, bands, seed, workload)
    setup = Command("setup", config["setup"])

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "runpoly")],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        runner = Runner(workdir)
        runner.run(setup)  # warms the page cache; checked like every other run
        if trace:
            metrics, samples, passes = measure_traced(commands, runner, seconds)
        else:
            metrics, samples, passes = measure_plain(commands, setup, runner, seconds)
        failures = runner.check_all()
        failed = [r for r in runner.runs if r.usage.exit_code != 0 or r.sha256 in failures]
        report(workload, seed, trace, commands, runner, metrics, samples, passes, failures, failed)
        if failed:
            sys.stdout.write((workdir / "stderr").read_text()[-2000:])
        return {
            "correct": not failed,
            "attempted": len(runner.runs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
