"""The benchmark's workloads: the config each pass runs, the work a pass
counts, and the checks every pass's outputs must pass.

Each workload is a closed loop with one client running one CLI pass at a
time.  ``workers`` is left unset, so the program's default serial path is
what is measured.  Sizes are chosen so that one pass takes a few seconds on a
2-core host: a run then holds several passes and reports their median.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from whipchain.dynamics import TERMINATIONS
from whipchain.harness import snapshot_state_from_json

#: every series row must stay this close to the constraint manifold
DRIFT_TOL = 1e-12
V0_TOL = 1e-12
#: smallest accepted error ratio between consecutive resolutions
MIN_CONVERGENCE_RATIO = 1.8
#: a stride no run reaches, so only the first and last states are reported
NO_REPORTS = 10**9


class CheckFailed(Exception):
    """An output of a pass is missing or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what one unit of work is, as the name of its rate
    rate_name: str
    #: (benchmark seed, tiny) -> config keys and values
    params: Callable[[int, bool], dict]
    #: (output dir, manifest, params) -> units of work done; raises CheckFailed
    check: Callable[[Path, dict, dict], float]


def config_text(params: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in params.items())


def _ints(raw: str) -> list:
    return [int(tok) for tok in str(raw).split(",")]


# ---------------------------------------------------------------------------
# shared checks


def _read_series(path: Path) -> list:
    _require(path.is_file(), f"missing series file {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) > 0, f"{path.name} has no rows")
    return rows


def _check_rows(rows: list, n: int, name: str) -> None:
    v0_exact = 0.5 + 0.5 / n
    for i, row in enumerate(rows):
        drift = float(row["constraint_drift"])
        v0 = float(row["v0"])
        _require(drift <= DRIFT_TOL, f"{name} row {i}: constraint_drift {drift:.3e} > {DRIFT_TOL:g}")
        _require(abs(v0 - v0_exact) <= V0_TOL,
                 f"{name} row {i}: |v0 - (1/2 + 1/2n)| = {abs(v0 - v0_exact):.3e} > {V0_TOL:g}")


def _reached(t: float, t_end: float) -> bool:
    # the stepping loop stops within 1e-14 max(t_end, 1) of t_end
    return abs(t - t_end) <= 1e-14 * max(t_end, 1.0)


def _termination(rows: list, t_end: float) -> str:
    """The termination a series' last row shows: t_end reached, or a halt on
    a nonpositive tension.  Any other early stop is unexplained."""
    last = rows[-1]
    if _reached(float(last["t"]), t_end):
        return "t_end_reached"
    if float(last["min_sigma"]) <= 0.0:
        return "negative_tension"
    return "unexplained"


def _check_manifest_termination(manifest: dict) -> None:
    term = manifest.get("termination")
    _require(term is None or term in TERMINATIONS, f"unknown termination {term!r}")


# ---------------------------------------------------------------------------
# ensemble_n64


def _ensemble_params(seed: int, tiny: bool) -> dict:
    count = 2 if tiny else 16
    chain_seeds = random.Random(seed).sample(range(1, 2**31), count)
    return {
        "kind": "run",
        "initial.generator": "random",
        "initial.n": 16 if tiny else 64,
        "integrator.t_end": 0.02 if tiny else 0.25,
        "integrator.report_stride": NO_REPORTS,
        "seeds": ",".join(map(str, chain_seeds)),
        "output.formats": "csv",
    }


def _ensemble_check(out: Path, manifest: dict, params: dict) -> float:
    _check_manifest_termination(manifest)
    n, t_end = int(params["initial.n"]), float(params["integrator.t_end"])
    sim_time = 0.0
    for seed in _ints(params["seeds"]):
        name = f"series_seed{seed}.csv"
        rows = _read_series(out / name)
        _check_rows(rows, n, name)
        term = _termination(rows, t_end)
        _require(term in TERMINATIONS, f"{name}: run stopped at t={rows[-1]['t']} for no known reason")
        sim_time += float(rows[-1]["t"])
    return sim_time


# ---------------------------------------------------------------------------
# reports_n1024


def _reports_params(seed: int, tiny: bool) -> dict:
    return {
        "kind": "run",
        "initial.generator": "theta_power",
        "initial.vel_amp": 1,
        "initial.n": 32 if tiny else 1024,
        "integrator.t_end": 0.01 if tiny else 0.1,
        "integrator.report_stride": 1,
        "seeds": 0,
        "output.formats": "csv,jsonl",
    }


def _reports_check(out: Path, manifest: dict, params: dict) -> float:
    _check_manifest_termination(manifest)
    n, t_end = int(params["initial.n"]), float(params["integrator.t_end"])
    rows = _read_series(out / "series.csv")
    _check_rows(rows, n, "series.csv")
    _require(_reached(float(rows[-1]["t"]), t_end),
             f"series.csv: last t = {rows[-1]['t']} is not t_end = {t_end}")
    path = out / "series.jsonl"
    _require(path.is_file(), "missing series file series.jsonl")
    count = 0
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            _require(i < len(rows), "series.jsonl has more records than series.csv has rows")
            try:
                state = snapshot_state_from_json(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckFailed(f"series.jsonl line {i}: no state rebuilt ({exc})") from exc
            _require(state.n == n, f"series.jsonl line {i}: n = {state.n}, expected {n}")
            _require(state.time == float(rows[i]["t"]),
                     f"series.jsonl line {i}: t = {state.time!r} differs from the CSV row")
            count += 1
    _require(count == len(rows), f"series.jsonl has {count} records, series.csv {len(rows)} rows")
    return float(len(rows))


# ---------------------------------------------------------------------------
# certify_sweep


def _certify_params(seed: int, tiny: bool) -> dict:
    return {
        "kind": "green_certify",
        "suite.n_values": "8,16" if tiny else "64,256",
        "suite.samples": 20 if tiny else 300,
        "seeds": seed,
    }


def _certify_check(out: Path, manifest: dict, params: dict) -> float:
    path = out / "green_certify.json"
    _require(path.is_file(), "missing green_certify.json")
    stats = json.loads(path.read_text(encoding="utf-8"))
    samples = int(params["suite.samples"])
    _require(stats.get("count") == samples, f"count {stats.get('count')} != samples {samples}")
    _require(manifest.get("summary", {}).get("count") == samples, "manifest count differs from samples")
    _require(manifest["violations"] == 0, f"{manifest['violations']} bound violations")
    return float(samples)


# ---------------------------------------------------------------------------
# convergence_ladder


def _convergence_params(seed: int, tiny: bool) -> dict:
    return {
        "kind": "convergence",
        "initial.generator": "rigid_rotation",
        "initial.n": "8,16,32" if tiny else "32,64,128,256",
        "integrator.t_end": 0.02 if tiny else 0.1,
        "integrator.report_stride": NO_REPORTS,
    }


def _convergence_check(out: Path, manifest: dict, params: dict) -> float:
    path = out / "convergence.csv"
    _require(path.is_file(), "missing convergence.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_list = sorted(_ints(params["initial.n"]))
    _require([int(r["n"]) for r in rows] == n_list, "convergence.csv does not list every resolution")
    _require(manifest.get("summary", {}).get("monotone_decreasing") is True, "errors not monotone decreasing")
    for row in rows[1:]:
        ratio = float(row["ratio_to_previous"])
        _require(ratio >= MIN_CONVERGENCE_RATIO,
                 f"n={row['n']}: error ratio {ratio:.3f} < {MIN_CONVERGENCE_RATIO}")
    # simulated time integrated, summed over the resolutions
    return len(n_list) * float(params["integrator.t_end"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble_n64",
            "many short n=64 chains: per-call overhead of the stage tension solve and stepping loop dominates",
            "sim_time_per_s", _ensemble_params, _ensemble_check,
        ),
        Workload(
            "reports_n1024",
            "one n=1024 chain with a snapshot every step: diagnostics and CSV/JSONL emission dominate",
            "snapshots_per_s", _reports_params, _reports_check,
        ),
        Workload(
            "certify_sweep",
            "Green-function bound certificates with no integration: Green matrix build and bound checks dominate",
            "certs_per_s", _certify_params, _certify_check,
        ),
        Workload(
            "convergence_ladder",
            "rigid rotation at n=32..256 against its closed form: the cold Hahn basis build dominates",
            "sim_time_per_s", _convergence_params, _convergence_check,
        ),
    )
}
