"""Smoke self-test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs one tiny untraced and one tiny traced pass and checks that the outputs
passed their checks and that every metric BENCHMARK.json names is printed,
with its unit, in the last line.  It also checks that the benchmark refuses
to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "bench/run.py"]


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_workload(spec: dict, workload: str) -> list:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "0",
                                     "--trace", str(trace), "--tiny"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        where = f"{workload} --trace {trace}"
        result = _last_json(proc.stdout)
        if proc.returncode != 0 or result is None:
            problems.append(f"{where}: exit {proc.returncode}, no result: {proc.stderr.strip()[-500:]}")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append(f"{where}: outputs failed their checks:\n{proc.stdout[-2000:]}")
        metrics = result.get("metrics", {})
        expected = {m["name"]: m["unit"] for m in spec[key]}
        if set(metrics) != set(expected):
            problems.append(f"{where}: metrics differ from BENCHMARK.json {key}: "
                            f"missing {sorted(set(expected) - set(metrics))}, "
                            f"extra {sorted(set(metrics) - set(expected))}")
        for name, unit in expected.items():
            got = metrics.get(name, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{where}: metric {name} printed as {got}, expected a number in {unit}")
    return problems


def check_bare_directory(spec: dict) -> list:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory(spec)
    for workload in spec["workloads"]:
        found = check_workload(spec, workload["name"])
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
