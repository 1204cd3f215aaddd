"""Self-test of the benchmark: a smoke run of every workload and a mutation check.

Usage, from the root of the repository:  python3 perfbench/selftest.py

1. Smoke: runs all three workloads at tiny sizes (`smoke_bands` in
   workloads.json), untraced and traced, and requires correct outputs and
   exactly the metric names and units listed in BENCHMARK.json.
2. Mutation: runs one command of each kind, adds one to a single count in its
   stored output (or moves one between two cells of a row, which keeps the
   row sum), and requires the output check to count it as failed.
3. Missing program: the benchmark run in a directory that holds only
   BENCHMARK.json and perfbench/ must exit non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run


def _bump(text: str) -> str:
    return str(Fraction(text) + 1)


def _bump_tsv_last(data: str) -> str:
    lines = data.splitlines()
    fields = lines[-1].split("\t")
    fields[-1] = _bump(fields[-1])
    return "\n".join(lines[:-1] + ["\t".join(fields)]) + "\n"


def _bump_json(path):
    def tamper(data: str) -> str:
        doc = json.loads(data)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _bump(node[path[-1]])
        return json.dumps(doc)

    return tamper


def _move_one(data: str) -> str:
    """Move one permutation between two cells of a row: the row sum still holds."""
    doc = json.loads(data)
    counts = doc["rows"][-1]["counts"]
    counts[1], counts[2] = _bump(counts[1]), str(int(counts[2]) - 1)
    return json.dumps(doc)


def _fail_first_check(data: str) -> str:
    doc = json.loads(data)
    doc["checks"][0]["passed"] = False
    return json.dumps(doc)


MUTATIONS = [
    (["table", "--n-max", "9", "--format", "tsv"], _bump_tsv_last),
    (["table", "--n-max", "9"], _bump_json(["rows", 3, "counts", 1])),
    (["table", "--method", "closed", "--n-max", "9"], _bump_json(["rows", 5, "counts", 2])),
    (["table", "--method", "closed", "--n-max", "9"], _move_one),
    (["table", "--method", "series", "--n-max", "9", "--format", "tsv"], _bump_tsv_last),
    (["phi", "--s", "5"], _bump_json(["numerator", "coefficients", -1])),
    (["psi", "--i-max", "6", "--format", "tsv"], _bump_tsv_last),
    (["series", "--s", "3", "--order", "12"], _bump_json(["coefficients", 7])),
    (["verify", "--n-max", "6", "--s-max", "3", "--i-max", "3", "--k-max", "3"], _fail_first_check),
]


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in run.load_workloads()["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()) as log:
                result = run.run_benchmark(workload, 0, 0.1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()} if result else {}
            label = f"smoke {workload} trace {int(trace)}"
            if not result or not result["correct"] or result["failed"]:
                problems.append(f"{label}: wrong outputs\n{log.getvalue()}")
            elif got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            else:
                print(f"ok   {label}: {result['attempted']} commands, {len(got)} metrics")
    return problems


def mutation() -> list[str]:
    problems = []
    workdir = run.ROOT / ".perfbench_work" / "selftest-mutation"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(workdir)
        for argv, tamper in MUTATIONS:
            runner.outputs.clear()
            cmd = run.Command(argv[0], argv)
            runner.run(cmd)
            label = f"mutation runpoly {' '.join(argv)}"
            if runner.check_all():
                problems.append(f"{label}: untampered output already fails")
                continue
            (sha, (_, stdout)), = runner.outputs.items()
            runner.outputs[sha] = (cmd, tamper(stdout.decode()).encode())
            failures = runner.check_all()
            if not failures:
                problems.append(f"{label}: tampered output passed the check")
            else:
                print(f"ok   {label}: {next(iter(failures.values())).split(': ', 1)[1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def missing_program() -> list[str]:
    bare = run.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    label = "missing program"
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"{label}: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"ok   {label}: exit {proc.returncode}, {proc.stderr.strip()}")
    return []


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    problems = smoke(spec) + mutation() + missing_program()
    try:
        (run.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
