"""Experiment harness: config parsing, the five experiment kinds, series
emission, and run manifests.

Config files are flat ``key = value`` text with dotted section prefixes;
unknown keys are rejected.  Example::

    kind = run
    initial.generator = rigid_rotation
    initial.n = 64
    initial.omega = 1.0
    integrator.t_end = 1.0
    integrator.cfl = 0.5
    seeds = 0
    output.formats = csv,jsonl

Floating-point output is written at 17 significant digits so every value
round-trips bitwise through either format.  The JSON-lines series is encoded
on every available core: the snapshots are cut into contiguous parts, forked
children encode all but the first, and the file is byte-identical to a
serial write.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time as _time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .core import ChainState, rising_weight, weighted_seminorm_sq, weighted_supnorm_sq
from .dynamics import IntegratorConfig, Trajectory, detect_blowup, run, run_batch
from .errors import ConfigError, FitRejected
from .initial_data import GENERATORS, _random_angles, make_initial, rigid_rotation_exact
from .spectral import angle_coefficients, continuize_Gn, discretize_Fn, eta_to_theta, theta_positions, theta_to_eta
from .tension import certify_stack

FORMATS = ("csv", "jsonl")

_FLOAT = "%.17g"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The field defaults are the defaults of the config
    keys; every range check lives in ``__post_init__``, so a config changed
    with ``dataclasses.replace`` is checked again."""

    kind: str
    generator: str | None = None
    n_list: tuple = ()
    generator_params: dict = field(default_factory=dict)
    integrator: IntegratorConfig = IntegratorConfig(t_end=1.0)
    seeds: tuple = (0,)
    output_dir: Path = Path("out")
    formats: tuple = FORMATS
    suite_samples: int = 10000
    suite_n_values: tuple = (4, 16, 64)
    suite_r_values: tuple = (0.5, 1.0, 1.5, 2.0)
    config_bytes: bytes = b""

    def __post_init__(self):
        chain_kind = self.kind in _GENERATOR_KINDS
        d = self.generator_params.get("d", 2)
        for ok, key, rule, value in (
            (self.kind in _KIND_RUNNERS, "kind", f"one of {', '.join(_KIND_RUNNERS)}", self.kind),
            (self.generator in (None, *GENERATORS), "initial.generator",
             f"one of {', '.join(sorted(GENERATORS))}", self.generator),
            (self.generator or not chain_kind, "initial.generator", f"set for kind {self.kind!r}", None),
            (self.n_list or not chain_kind, "initial.n", f"set for kind {self.kind!r}", None),
            (all(nv >= 2 for nv in self.n_list), "initial.n", "integers >= 2", self.n_list),
            (len(self.n_list) >= 2 or self.kind != "convergence", "initial.n",
             "two resolutions or more for convergence", self.n_list),
            (d >= 2, "initial.d", "an integer >= 2", d),
            (d == 2 or self.kind != "convergence", "initial.d", "2 for convergence (the angle maps are planar)", d),
            (all(seed >= 0 for seed in self.seeds), "seeds", "integers >= 0", self.seeds),
            (set(self.formats) <= set(FORMATS), "output.formats", "csv and/or jsonl", self.formats),
            (self.suite_samples >= 0, "suite.samples", "an integer >= 0", self.suite_samples),
            (all(nv >= 2 for nv in self.suite_n_values), "suite.n_values", "integers >= 2", self.suite_n_values),
            (all(r > 0 for r in self.suite_r_values), "suite.r_values", "numbers > 0", self.suite_r_values),
        ):
            if not ok:
                raise ConfigError(f"key {key!r} must be {rule}, got {value!r}")

    @property
    def n(self) -> int:
        return self.n_list[0]


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ValueError("not a boolean")


def _ints(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.split(","))


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(","))


def _names(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(","))


#: config key -> (ExperimentConfig field, parser of the raw text)
_SCHEMA = {
    "kind": ("kind", str),
    "initial.generator": ("generator", str),
    "initial.n": ("n_list", _ints),
    "seeds": ("seeds", _ints),
    "output.dir": ("output_dir", Path),
    "output.formats": ("formats", _names),
    "suite.samples": ("suite_samples", int),
    "suite.n_values": ("suite_n_values", _ints),
    "suite.r_values": ("suite_r_values", _floats),
}

#: parsers of the annotated types ``initial.*`` and ``integrator.*`` keys may have
_TYPE_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}


def _parse(parser, raw: str, key: str):
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}: {exc}") from exc


def _section(pairs: dict, prefix: str, types: dict) -> dict:
    """Pop every ``prefix<name>`` key of ``pairs``, parsed by the type of
    ``name`` in ``types``; a name without a parseable type is unknown."""
    values = {}
    for key in [k for k in pairs if k.startswith(prefix)]:
        name = key[len(prefix):]
        if types.get(name) not in _TYPE_PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        values[name] = _parse(_TYPE_PARSERS[types[name]], pairs.pop(key), key)
    return values


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file.

    Raises ConfigError with a message naming the offending key for any
    schema violation, unknown key, or unknown generator.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8") from exc

    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return build_config(pairs, config_bytes=data)


def build_config(pairs: dict, config_bytes: bytes = b"") -> ExperimentConfig:
    """Build a config from raw ``key -> value`` text pairs.  An absent key
    keeps its ExperimentConfig default; ``initial.<param>`` keys take the
    generator's type hints and ``integrator.*`` keys IntegratorConfig's."""
    pairs = dict(pairs)
    values = {}
    for key, (name, parser) in _SCHEMA.items():
        if key in pairs:
            values[name] = _parse(parser, pairs.pop(key), key)
    cfg = ExperimentConfig(kind=values.pop("kind", None), config_bytes=config_bytes, **values)

    gen_types = get_type_hints(GENERATORS[cfg.generator]) if cfg.generator else {}
    gen_params = _section(pairs, "initial.", gen_types)
    integ_kwargs = _section(pairs, "integrator.", get_type_hints(IntegratorConfig))
    if pairs:
        raise ConfigError(f"unknown key {sorted(pairs)[0]!r}")
    try:
        integrator = replace(cfg.integrator, **integ_kwargs)
    except ValueError as exc:
        raise ConfigError(f"integrator settings invalid: {exc}") from exc
    return replace(cfg, generator_params=gen_params, integrator=integrator)


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    started: str
    finished: str = ""
    status: str = "incomplete"
    termination: str | None = None
    violations: int = 0
    files: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write(self, output_dir: Path) -> Path:
        path = output_dir / "manifest.json"
        payload = asdict(self)
        payload["files"].sort()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


def _now() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%S", _time.gmtime())


# ---------------------------------------------------------------------------
# series emission


def _series_table(traj: Trajectory) -> tuple[list, list]:
    cols = traj.series()
    header = list(cols)
    # monitored-only ratio columns (never asserted): a/e2, c/(e2^{3/2} e3^{1/2}),
    # d_m/e3 powers, and the discrete Gronwall quotient for e~_3
    e2, e3 = cols["e2"], cols["e3"]
    et3, t = cols["et3"], cols["t"]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {
            "ratio_a_e2": cols["a"] / e2,
            "ratio_c_e2e3": cols["c"] / (e2**1.5 * np.sqrt(e3)),
            "ratio_d1_e3p4": cols["d1"] / e3**4,
            "ratio_d2_e3p4": cols["d2"] / e3**4,
            "ratio_d3_e3p6": cols["d3"] / e3**6,
        }
        gron = np.full(len(t), np.nan)
        if len(t) > 1:
            gron[1:] = np.diff(et3) / (np.diff(t) * e3[:-1] ** 7)
        ratios["gronwall_et3_e3p7"] = gron
    cols.update(ratios)
    header += list(ratios)
    rows = [[cols[h][i] for h in header] for i in range(len(t))]
    return header, rows


def emit_series(traj: Trajectory, fmt: str, path) -> Path:
    """Write the trajectory to ``path``: CSV scalar series, or JSON-lines
    snapshots including the full eta, eta_dot, sigma arrays.  Refuses empty
    trajectories without creating a file."""
    if not traj.snapshots:
        raise ValueError("cannot emit an empty trajectory")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        header, rows = _series_table(traj)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_FLOAT % v for v in row])
    elif fmt == "jsonl":
        _write_jsonl(traj.snapshots, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


#: Fewest floats a JSONL part must hold to be encoded by a forked child.  A
#: fork-context child plus its join and temp file costs about 9.5 ms (median
#: of 20, 2-core Linux host, parent holding a 101-snapshot n = 1024 run) and
#: json.dumps about 1.4-2 us per float, so a part pays for its child from
#: about 7k floats; this asks for twice that.
_MIN_PART_FLOATS = 16_000


def _cpu_count() -> int:
    """Cores this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _jsonl_parts(snaps: list) -> int:
    """How many contiguous parts to encode ``snaps`` in: one per core, none
    smaller than ``_MIN_PART_FLOATS``, and one without the ``fork`` start
    method."""
    st = snaps[0].state
    floats = len(snaps) * (2 * st.eta.size + st.n + 20)   # eta, eta_dot, sigma, scalars
    parts = min(_cpu_count(), len(snaps), floats // _MIN_PART_FLOATS)
    if parts <= 1:
        return 1
    import multiprocessing

    return parts if "fork" in multiprocessing.get_all_start_methods() else 1


def _write_jsonl_lines(fh, snaps) -> None:
    for snap in snaps:
        fh.write(json.dumps(snapshot_to_json(snap)) + "\n")


def _encode_part(snaps, tmp) -> None:
    """Child body: encode ``snaps`` into the inherited temp file."""
    with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as fh:
        _write_jsonl_lines(fh, snaps)


def _write_jsonl(snaps: list, path: Path) -> None:
    """One JSON line per snapshot, the snapshots cut into contiguous parts.
    The parent encodes the first part while forked children (which inherit
    the snapshots, so nothing is pickled) encode the others into unnamed
    temp files; the parent then appends those in order.  The file is
    byte-identical to a serial write, and only one line is held at a time.

    ``fork``, not ``spawn``: a spawned child would have to unpickle every
    snapshot.  The children call no BLAS routine, so the parent's OpenBLAS
    threads cannot leave them blocked on a lock, and they leave through
    ``os._exit``, so inherited buffered files are never flushed twice."""
    parts = _jsonl_parts(snaps)
    with open(path, "w", encoding="utf-8") as fh:
        if parts == 1:
            _write_jsonl_lines(fh, snaps)
            return
        import multiprocessing
        import shutil
        import tempfile

        cuts = [len(snaps) * i // parts for i in range(parts + 1)]
        ctx = multiprocessing.get_context("fork")
        temps, children = [], []
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                temps.append(tempfile.TemporaryFile(dir=path.parent))
                children.append(ctx.Process(target=_encode_part, args=(snaps[lo:hi], temps[-1])))
                children[-1].start()
            _write_jsonl_lines(fh, snaps[: cuts[1]])
            fh.flush()
            for child, tmp in zip(children, temps):
                child.join()
                if child.exitcode != 0:
                    raise OSError(f"writing {path}: encoder process exited with code {child.exitcode}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh.buffer)
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
                    child.join()
            for tmp in temps:
                tmp.close()


def snapshot_to_json(snap) -> dict:
    st, sol, rep = snap.state, snap.tension, snap.report
    return {
        "t": st.time,
        "n": st.n,
        "d": st.d,
        "eta": st.eta.tolist(),
        "eta_dot": st.eta_dot.tolist(),
        "sigma": sol.sigma.tolist(),
        "min_sigma": sol.min_sigma,
        "positivity": sol.positivity,
        "e": rep.e.tolist(),
        "e_tilde": rep.e_tilde.tolist(),
        "u0": rep.u0,
        "v0": rep.v0,
        "a": rep.a,
        "b": rep.b,
        "c": rep.c,
        "d_norms": rep.d.tolist(),
        "constraint_drift": rep.constraint_drift,
    }


def snapshot_state_from_json(obj: dict) -> ChainState:
    """Rebuild the chain state from one JSON-lines record (bitwise, since
    json round-trips Python floats exactly)."""
    return ChainState(obj["n"], obj["d"], np.array(obj["eta"]), np.array(obj["eta_dot"]), obj["t"])


# ---------------------------------------------------------------------------
# experiment kinds


def _initial(cfg: ExperimentConfig, n: int, seed: int) -> ChainState:
    """The configured generator's state at n links; ``random`` draws from
    ``seed``.  A parameter outside the generator's domain is a ConfigError."""
    seeding = {"rng": seed} if cfg.generator == "random" else {}
    try:
        return make_initial(cfg.generator, n, **cfg.generator_params, **seeding)
    except ValueError as exc:
        raise ConfigError(f"generator {cfg.generator!r}: {exc}") from exc


def _emit_all(cfg: ExperimentConfig, traj: Trajectory, tag: str) -> list:
    """Write ``traj`` as ``<tag>.<fmt>`` in every configured format; returns
    the file names."""
    files = []
    for fmt in cfg.formats:
        path = cfg.output_dir / f"{tag}.{fmt}"
        emit_series(traj, fmt, path)
        files.append(path.name)
    return files


def _kind_run(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    """One trajectory per seed, every seed stepped in one batch
    (``run_batch``), each writing its own series files.  The summary keeps
    each seed's termination and step count; ``manifest.termination`` is the
    last seed's."""
    multi = len(cfg.seeds) > 1
    trajs = run_batch([_initial(cfg, cfg.n, seed) for seed in cfg.seeds], cfg.integrator)
    for seed, traj in zip(cfg.seeds, trajs):
        manifest.files += _emit_all(cfg, traj, f"series_seed{seed}" if multi else "series")
    manifest.termination = trajs[-1].termination
    manifest.summary["seeds"] = list(cfg.seeds)
    manifest.summary["terminations"] = {str(seed): traj.termination for seed, traj in zip(cfg.seeds, trajs)}
    manifest.summary["steps"] = {str(seed): traj.n_steps for seed, traj in zip(cfg.seeds, trajs)}


def _kind_convergence(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    """One continuum initial datum, discretized at every resolution through
    the spectral maps, integrated to t_end.

    The datum is the generator state at a reference resolution 2 max(n),
    continuized; each chain is its n-mode discretization.  For
    rigid_rotation the per-n error is max_k |eta_k - ((n+1-k)/n) u(t_end)|:
    particle k against the rotating whip at its arclength (k-1)/n from the
    free end, which is ``rigid_rotation_exact``.  Other generators are
    compared pairwise between consecutive resolutions through the isometric
    coefficient representation.
    """
    n_list = sorted(cfg.n_list)
    n_ref = 2 * n_list[-1]
    ref = _initial(cfg, n_ref, cfg.seeds[0])
    coeff_pos, coeff_vel = continuize_Gn(eta_to_theta(ref))
    finals = {}
    for nv in n_list:
        chain = theta_to_eta(discretize_Fn(coeff_pos, nv, coeff_vel))
        traj = run(chain, cfg.integrator)
        finals[nv] = traj.snapshots[-1].state

    rows = []
    t_end = cfg.integrator.t_end
    if cfg.generator == "rigid_rotation":
        for nv in n_list:
            exact = rigid_rotation_exact(nv, t_end, **cfg.generator_params).eta
            err = float(np.max(np.linalg.norm(finals[nv].eta - exact, axis=1)))
            rows.append((nv, err))
    else:
        coeffs = {
            nv: angle_coefficients(eta_to_theta(finals[nv]).theta, nv) for nv in n_list
        }
        for nv, nv_next in zip(n_list[:-1], n_list[1:]):
            a = np.zeros(nv_next)
            a[: nv] = coeffs[nv]
            err = float(np.linalg.norm(a - coeffs[nv_next]))
            rows.append((nv, err))

    path = cfg.output_dir / "convergence.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "error", "ratio_to_previous"])
        prev = None
        for nv, err in rows:
            ratio = "" if prev in (None, 0.0) else _FLOAT % (prev / err)
            writer.writerow([nv, _FLOAT % err, ratio])
            prev = err
    manifest.files.append(path.name)
    manifest.summary["errors"] = {str(nv): err for nv, err in rows}
    decreasing = all(a > b for (_, a), (_, b) in zip(rows[:-1], rows[1:]))
    manifest.summary["monotone_decreasing"] = decreasing


def _basic_inequality_violations(n: int, r: float, batch: np.ndarray, slack: float = 1e-12):
    """Count violations of the three explicit weighted inequalities on a
    (B, n) batch of sequences."""
    B = batch.shape[0]
    ks = np.arange(1, n + 1)
    w_r = rising_weight(ks, r, n)
    w_rm1 = rising_weight(ks, r - 1.0, n)
    w_rp1 = rising_weight(np.arange(1, n), r + 1.0, n)

    fsq = batch * batch
    diff = n * (batch[:, 1:] - batch[:, :-1])
    norm_rp1_1 = np.sum(w_rp1 * diff * diff, axis=1) / n
    norm_rm1_0 = np.sum(w_rm1 * fsq, axis=1) / n
    norm_r_0 = np.sum(w_r * fsq, axis=1) / n
    end_r = w_r[-1] * fsq[:, -1]

    scale = np.maximum(np.max(np.abs(fsq), axis=1), 1.0)
    # (i): s_i^{(r)} |f_i|^2 <= s_n^{(r)} |f_n|^2 + (1/r) ||f||^2_{r+1,1} for every i
    lhs_i = w_r * fsq
    rhs_i = (end_r + norm_rp1_1 / r)[:, None]
    v1 = int(np.sum(np.any(lhs_i > rhs_i + slack * scale[:, None], axis=1)))
    # (ii): ||f||^2_{r-1,0} <= (4/r^2) ||f||^2_{r+1,1} + (2/r) s_n^{(r)} |f_n|^2
    v2 = int(np.sum(norm_rm1_0 > 4.0 / r**2 * norm_rp1_1 + 2.0 / r * end_r + slack * scale))
    # (iii): s_n^{(r)} |f_n|^2 <= (2r^2+4r+1)/(r(r+1)) ||f||^2_{r+1,1} + 4(r+1) ||f||^2_{r,0}
    cr = (2 * r**2 + 4 * r + 1) / (r * (r + 1))
    v3 = int(np.sum(end_r > cr * norm_rp1_1 + 4 * (r + 1) * norm_r_0 + slack * scale))
    return v1, v2, v3


def _weight_bound_violations(rng: np.random.Generator, trials: int = 2000, slack: float = 1e-12) -> int:
    """Spot-check the weight-ratio and shift bounds on random (p, q, j, k, n)."""
    from math import exp, lgamma

    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(1, n + 1))
        p = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(0.05, 4.0))
        j = int(rng.integers(0, n - k + 1))
        skp = rising_weight(k, p, n)
        ratio = rising_weight(k, p + q, n) / rising_weight(k, q, n)
        cpq = exp(lgamma(p + q + 1) - lgamma(p + 1) - lgamma(q + 1))
        if not (skp * (1 - slack) <= ratio <= cpq * skp * (1 + slack)):
            bad += 1
        skj = rising_weight(k + j, p, n)
        cj = exp(lgamma(j + p + 1) - lgamma(j + 1) - lgamma(p + 1))
        if not (skp * (1 - slack) <= skj <= cj * skp * (1 + slack)):
            bad += 1
    return bad


def _product_bound_violations(rng: np.random.Generator, trials: int = 500, slack: float = 1e-12) -> int:
    """||fg||^2_{p+q,0} <= [Gamma(p+q+1)/(Gamma(p+1)Gamma(q+1))] [f]^2_{p,0} ||g||^2_{q,0}."""
    from math import gamma

    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 128))
        p = float(rng.uniform(0.0, 3.0))
        q = float(rng.uniform(0.0, 3.0))
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = weighted_seminorm_sq(f * g, p + q, 0, n)
        rhs = gamma(p + q + 1) / (gamma(p + 1) * gamma(q + 1)) * weighted_supnorm_sq(
            f, p, 0, n
        ) * weighted_seminorm_sq(g, q, 0, n)
        if lhs > rhs * (1 + slack) + slack:
            bad += 1
    return bad


def _kind_inequality_suite(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    rng = np.random.default_rng(cfg.seeds[0])
    per_cell = {}
    total = 0
    for nv in cfg.suite_n_values:
        batch = rng.normal(size=(cfg.suite_samples, nv))
        for r in cfg.suite_r_values:
            v = _basic_inequality_violations(nv, r, batch)
            per_cell[f"n={nv},r={r}"] = list(v)
            total += sum(v)
    wviol = _weight_bound_violations(rng)
    pviol = _product_bound_violations(rng)
    total += wviol + pviol
    manifest.violations = total
    manifest.summary.update(
        {
            "samples": cfg.suite_samples,
            "basic_inequalities": per_cell,
            "weight_bound_violations": wviol,
            "product_bound_violations": pviol,
        }
    )
    path = cfg.output_dir / "inequality_suite.json"
    path.write_text(json.dumps(manifest.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.files.append(path.name)


def _kind_green_certify(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    """Random admissible configurations (exact constraint by construction in
    angle space) swept through the full bound certificate.

    Alternates generic bounded-turn states (all alpha > 0, exercising the
    upper bounds and the corner minimum) with small-turn states whose
    per-link angles scale like n^{-3/4} so the curvature hypothesis of the
    lower bound is actually met.
    """
    stats = dict.fromkeys(("count", "applicable_upper", "upper_failures", "admissible_lower",
                           "lower_failures", "corner_failures", "minmax_failures"), 0)
    for theta in _certify_angle_stacks(cfg):
        cert = certify_stack(theta_positions(theta))
        nonneg, admissible = cert["all_alpha_nonneg"], cert["upsilon_admissible"]
        stats["count"] += nonneg.size
        for key, hits in (
            ("minmax_failures", ~cert["minmax_bound_ok"]),
            ("applicable_upper", nonneg),
            ("upper_failures", nonneg & ~(cert["diff_bound_ok"] & cert["ratio_bound_ok"])),
            ("corner_failures", nonneg & ~cert["corner_ok"]),
            ("admissible_lower", admissible),
            ("lower_failures", admissible & ~cert["lower_bound_ok"]),
        ):
            stats[key] += int(np.count_nonzero(hits))
    manifest.violations = (
        stats["upper_failures"] + stats["lower_failures"]
        + stats["corner_failures"] + stats["minmax_failures"]
    )
    manifest.summary.update(stats)
    path = cfg.output_dir / "green_certify.json"
    path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.files.append(path.name)


#: link angles in one certified stack.  A stack's certificate holds a few dozen
#: work arrays of this many floats (64 KiB each), so a sweep's peak memory
#: stays within about 2 MiB of a per-sample loop's whatever suite.samples is,
#: while each numpy call still covers dozens of chains.
_CERTIFY_CHUNK_FLOATS = 1 << 13


def _certify_angle_stacks(cfg: ExperimentConfig):
    """The green_certify samples' link angles, as (B, n) stacks of one n each.

    Sample i has n = suite.n_values[i mod len] and is drawn exactly as
    ``random_chain`` draws it, in sample order from one generator, so each
    chain is bitwise the one a per-sample loop builds.  The angular
    velocities are drawn to keep that order and then dropped: no bound
    reads them.  A stack is yielded once the pending samples would exceed
    ``_CERTIFY_CHUNK_FLOATS`` angles.
    """
    rng = np.random.default_rng(cfg.seeds[0])
    pending: dict = {}
    held = 0
    for i in range(cfg.suite_samples):
        nv = cfg.suite_n_values[i % len(cfg.suite_n_values)]
        if held + nv > _CERTIFY_CHUNK_FLOATS:
            yield from map(np.array, pending.values())
            pending, held = {}, 0
        turn = 1.45 if i % 2 == 0 else 0.6 * nv**-0.75
        pending.setdefault(nv, []).append(_random_angles(nv, rng, turn, 2.0)[0])
        held += nv
    yield from map(np.array, pending.values())


def _kind_blowup_hunt(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    traj = run(_initial(cfg, cfg.n, cfg.seeds[0]), cfg.integrator)
    manifest.files += _emit_all(cfg, traj, "blowup_series")
    manifest.termination = traj.termination
    cols = traj.series()
    series = np.column_stack([cols["t"], cols["max_ang_vel"], cols["max_curvature"]])
    try:
        fit = detect_blowup(series)
        result = {
            "fit_rejected": False,
            "T_est": fit.T_est,
            "p_angular": fit.p_angular,
            "p_curvature": fit.p_curvature,
            "residual_angular": fit.residuals[0],
            "residual_curvature": fit.residuals[1],
        }
    except FitRejected as exc:
        result = {"fit_rejected": True, "reason": str(exc)}
    result["termination"] = traj.termination
    path = cfg.output_dir / "blowup.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.files.append(path.name)
    manifest.summary.update(result)


_KIND_RUNNERS = {
    "run": _kind_run,
    "convergence": _kind_convergence,
    "inequality_suite": _kind_inequality_suite,
    "green_certify": _kind_green_certify,
    "blowup_hunt": _kind_blowup_hunt,
}
#: the kinds that integrate a chain, so need initial.generator and initial.n
_GENERATOR_KINDS = ("run", "convergence", "blowup_hunt")


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment; writes outputs plus manifest.json into
    cfg.output_dir and returns the manifest.  Partial outputs are flushed
    with the manifest marked incomplete when a kind raises."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=hashlib.sha256(cfg.config_bytes).hexdigest(),
        code_version=__version__,
        started=_now(),
    )
    try:
        _KIND_RUNNERS[cfg.kind](cfg, manifest)
        manifest.status = "complete"
    finally:
        manifest.finished = _now()
        manifest.files.append("manifest.json")
        manifest.write(cfg.output_dir)
    return manifest
