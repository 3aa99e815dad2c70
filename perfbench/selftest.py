#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json has the shape the benchmark promises and agrees
with the workload and metric tables in run.py, runs every
workload at toy sizes with tracing off and on, checks that every named metric
is present, finite and carries its unit, checks that the answer oracle turns
an injected wrong answer into a failing run, and checks that a directory
holding only the benchmark's own files fails fast without printing a result.
Exits 0 only if every check passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the promised keys")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "every name is used once")
    check(all(NAME.match(n) for n in names), "every name is well formed")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "every unit is well formed")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "every bound is in (0, 0.25]")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every why is one line of at most 200 characters")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in seconds, lower-better and has the largest bound")
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workloads match run.py")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END,
          "end-to-end metrics match run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(n, u, b) for n, u, b, _ in bench.PER_LAYER], "per-layer metrics match run.py")


def run_bench(workload, trace, *extra, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_result(workload, trace, spec):
    code, result, stderr = run_bench(workload, trace)
    label = f"{workload} trace={trace}"
    check(code == 0, f"{label}: exits 0" + ("" if code == 0 else f"\n{stderr[-2000:]}"))
    if result is None:
        check(False, f"{label}: last line is a JSON result")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: every answer correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted >= 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted}, f"{label}: exactly the named metrics")
    for m in wanted:
        entry = metrics.get(m["name"], {})
        value = entry.get("value")
        good = (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and entry.get("unit") == m["unit"])
        if not good:
            check(False, f"{label}: {m['name']} is finite with unit {m['unit']} (got {entry})")
    if not trace:
        check(all(metrics[m["name"]]["value"] > 0 for m in wanted), f"{label}: end-to-end metrics are non-zero")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, spec)
        code, result, _ = run_bench(workload, 0, "--inject-wrong-answer")
        check(code != 0 and result is not None and result["correct"] is False and result["failed"] >= 1,
              f"{workload}: the oracle rejects an injected wrong answer")

    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "target"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = run_bench("tri-3m", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None, "without the repository it fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
