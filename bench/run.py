"""whipchain benchmark: runs one workload through the CLI entry point and
prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a whipchain checkout; the program is imported from
``src/`` there.  Each pass runs ``whipchain.cli.main(["run", <config>,
"--output-dir", ...])`` in a fresh interpreter, so every pass pays for the
imports and the cold caches a CLI user pays for.  Passes repeat, one at a
time, for about S seconds.  Each pass's outputs are checked; a pass that
fails a check counts as failed.

With ``--trace 0`` the end-to-end metrics are printed, each the median over
the passes: set-up time (interpreter start, imports, writing the config),
wall time of the CLI call, work done per second of it, and peak resident
memory.  Times are scaled to the reference host speed measured by
``hostspeed.py`` during the same phase of the same pass; the raw medians are
printed alongside.  With ``--trace 1`` untraced and traced passes alternate;
the traced ones time the calls into each layer from outside (``tracer.py``)
and the per-layer metrics are printed.  A traced pass must write the same
bytes as the untraced pass before it.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record with the environment, the per-pass figures and the sha256 of every
output file is written to ``.bench_work/record_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PASS_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: exact counts derived from the traced spans: (name, numerator span, denominator span, unit)
RATIOS = (
    ("tension.stage_solve.per_step", "tension.stage_solve", "dynamics.advance", "count/step"),
    ("tension.compute_alpha_beta.per_snapshot", "tension.compute_alpha_beta", "dynamics.snapshot_report",
     "count/snapshot"),
    ("core.rising_weight.per_snapshot", "core.rising_weight", "dynamics.snapshot_report", "count/snapshot"),
    ("core.chain_state.per_step", "core.chain_state", "dynamics.advance", "count/step"),
)
SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_tail", "us"))


def per_layer_metrics(span_names) -> list:
    """(name, unit) of every per-layer metric, in print order."""
    out = [(f"{span}.{stat}", unit) for span in span_names for stat, unit in SPAN_STATS]
    out += [(name, unit) for name, _, _, unit in RATIOS]
    out += [("spectral.basis_q_table.builds", "count"),
            ("harness.emit_series.csv.bytes", "bytes"),
            ("harness.emit_series.jsonl.bytes", "bytes"),
            ("trace_overhead_s", "s")]
    return out


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one pass


def output_hashes(out: Path) -> dict:
    """sha256 of every output file; the manifest is hashed without its
    ``started`` and ``finished`` wall-clock stamps."""
    hashes = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("started", None)
            manifest.pop("finished", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


def _log_tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_pass(workload, params: dict, trace: bool, index: int) -> dict:
    """Run one pass in a fresh interpreter and check its outputs."""
    from tracer import read_spans, summarize
    from workloads import CheckFailed, config_text

    pdir = WORK / f"pass{index}"
    shutil.rmtree(pdir, ignore_errors=True)
    pdir.mkdir(parents=True)
    out = pdir / "out"
    spec = {
        "src": str(SRC),
        "config": config_text(params),
        "config_path": str(pdir / "experiment.cfg"),
        "out_dir": str(out),
        "result_path": str(pdir / "result.json"),
        "spans_path": str(pdir / "spans.tsv"),
        "trace": trace,
    }
    (pdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    log = pdir / "pass.log"
    rec: dict = {"trace": trace, "error": None}
    with open(log, "w", encoding="utf-8") as fh:
        spawned = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, str(BENCH / "passrun.py"), str(pdir / "spec.json")],
                                  stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=PASS_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
    try:
        if code != 0:
            raise CheckFailed(f"pass process exited with {code}: {_log_tail(log)}")
        result = json.loads((pdir / "result.json").read_text(encoding="utf-8"))
        rec.update(
            raw_setup_s=result["ready"] - spawned,
            raw_wall_s=result["wall_s"],
            call_scale=result["call_scale"],
            setup_s=(result["ready"] - spawned) * result["setup_scale"],
            wall_s=result["wall_s"] * result["call_scale"],
            peak_rss_mib=result["peak_rss_mib"],
        )
        if result["exit_code"] != 0:
            raise CheckFailed(f"cli.main returned {result['exit_code']}: {_log_tail(log)}")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        if manifest["status"] != "complete":
            raise CheckFailed(f"manifest status {manifest['status']!r}")
        if manifest["violations"] != 0:
            raise CheckFailed(f"manifest reports {manifest['violations']} violations")
        for name in manifest["files"]:
            if not (out / name).is_file():
                raise CheckFailed(f"manifest lists {name}, which was not written")
        rec["work"] = workload.check(out, manifest, params)
        rec["work_per_s"] = rec["work"] / rec["wall_s"]
        rec["hashes"] = output_hashes(out)
        if trace:
            rec["spans"] = summarize(read_spans(pdir / "spans.tsv"))
            rec.update({key: result[key] for key in ("absent", "emitted_bytes", "basis_builds")})
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(pdir, ignore_errors=True)
    return rec


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list) -> tuple:
    """The p99 when at least 10 samples lie beyond it, else the highest
    percentile that has 10 samples beyond it, else (when that would not be
    above the median) the maximum.  Returns (value, percentile label)."""
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    if index <= n // 2:
        return ordered[-1], "max"
    return ordered[index], f"p{100.0 * (index + 1) / n:.4g}"


def per_layer_values(traced: list, untraced: list, span_names) -> dict:
    """Per-layer metric values from the traced passes.  Span times are
    scaled by their pass's host-speed scale; calls and counts are exact and
    taken from the first traced pass."""
    values: dict = {}
    first = traced[0]
    for span in span_names:
        runs = [(p["spans"][span], p["call_scale"]) for p in traced if span in p["spans"]]
        if not runs:
            values.update({f"{span}.{stat}": 0 for stat, _ in SPAN_STATS})
            continue
        pooled = [us * scale for r, scale in runs for us in r["us"]]
        values[f"{span}.calls"] = runs[0][0]["calls"]
        values[f"{span}.self_s"] = statistics.median(r["self_s"] * scale for r, scale in runs)
        values[f"{span}.us_p50"] = statistics.median(pooled)
        values[f"{span}.us_tail"] = tail_percentile(pooled)[0]
    for name, num, den, _ in RATIOS:
        calls = values[f"{den}.calls"]
        values[name] = values[f"{num}.calls"] / calls if calls else 0
    values["spectral.basis_q_table.builds"] = first["basis_builds"] or 0
    for fmt in ("csv", "jsonl"):
        values[f"harness.emit_series.{fmt}.bytes"] = first["emitted_bytes"].get(f"harness.emit_series.{fmt}", 0)
    values["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return values


def print_layers(traced: list, values: dict) -> None:
    spans = traced[0]["spans"]
    for span in sorted(spans, key=lambda s: -values[f"{s}.self_s"]):
        pooled = [us for p in traced for us in p["spans"][span]["us"]]
        label = tail_percentile(pooled)[1]
        print(f"  {span:34s} calls {values[span + '.calls']:>7}  self {values[span + '.self_s']:8.4f} s"
              f"  p50 {values[span + '.us_p50']:10.1f} us  {label} {values[span + '.us_tail']:10.1f} us"
              f"  (n={len(pooled)})")


# ---------------------------------------------------------------------------
# main


def _build() -> None:
    """Byte-compile the sources and import them once, so the first measured
    pass pays for neither."""
    compileall.compile_dir(str(SRC), quiet=1)
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import whipchain.cli"],
                   cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)


def measure(workload, params: dict, trace: bool, seconds: float) -> list:
    """Run passes (untraced/traced pairs when tracing) until the next one
    would end after ``seconds``; at least one."""
    started = time.perf_counter()
    passes: list = []
    kinds = (False, True) if trace else (False,)
    while True:
        group = [run_pass(workload, params, traced, len(passes) + i) for i, traced in enumerate(kinds)]
        if trace and not any(p["error"] for p in group) and group[0]["hashes"] != group[1]["hashes"]:
            group[1]["error"] = "traced outputs differ from the untraced pass"
        for rec in group:
            passes.append(rec)
            wall = f"{rec['wall_s']:.3f} s (raw {rec['raw_wall_s']:.3f} s)" if "wall_s" in rec else "-"
            status = "ok" if rec["error"] is None else f"FAILED {rec['error']}"
            print(f"pass {len(passes)}{' traced' if rec['trace'] else ''}: wall {wall} {status}", flush=True)
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + len(kinds)) / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke self-test")
    args = parser.parse_args(argv)

    if not (SRC / "whipchain" / "__init__.py").is_file():
        print(f"error: no whipchain sources at {SRC / 'whipchain'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import span_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed, args.tiny)
    WORK.mkdir(exist_ok=True)
    _build()
    env = environment(args.seed)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    passes = measure(workload, params, bool(args.trace), args.seconds)
    failed = sum(p["error"] is not None for p in passes)
    ok = [p for p in passes if p["error"] is None]
    print(f"{args.workload}: {len(passes)} passes, {failed} failed, fail_ratio {failed / len(passes):.4g}")
    record = {
        "workload": args.workload,
        "config": params,
        "environment": env,
        "fail_ratio": failed / len(passes),
        "deterministic": len({json.dumps(p["hashes"], sort_keys=True) for p in ok}) <= 1,
        "output_sha256": ok[0]["hashes"] if ok else None,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }

    if args.trace:
        traced = [p for p in ok if p["trace"]]
        untraced = [p for p in ok if not p["trace"]]
        if not traced or not untraced:
            print("error: no traced and untraced pass both succeeded", file=sys.stderr)
            return 1
        names = span_names()
        values = per_layer_values(traced, untraced, names)
        absent = sorted(set(traced[0]["absent"]))
        idle = [s for s in names if s not in traced[0]["spans"] and s not in absent]
        print(f"absent spans: {', '.join(absent) or 'none'}")
        print(f"spans never called: {', '.join(idle) or 'none'}")
        print_layers(traced, values)
        for name, _, _, unit in RATIOS:
            print(f"  {name} = {values[name]:.6g} {unit}")
        print(f"  trace_overhead_s = {values['trace_overhead_s']:.4g} s")
        units = per_layer_metrics(names)
        record["absent"] = absent
    else:
        if not ok:
            print("error: every pass failed", file=sys.stderr)
            return 1
        values = {name: statistics.median(p[name] for p in ok) for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            raw = f"  (raw {statistics.median(p['raw_' + name] for p in ok):.6g} {unit})" \
                if f"raw_{name}" in ok[0] else ""
            print(f"  {name} = {values[name]:.6g} {unit}{raw}")
        print(f"  {workload.rate_name} = {values['work_per_s']:.6g} 1/s;"
              f" host speed scale {statistics.median(p['call_scale'] for p in ok):.3f}")
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    record["metrics"] = metrics
    tag = f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (WORK / tag).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
