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
round-trips bitwise through either format.  A CSV row is read from its
snapshot's report.  ``run`` and ``blowup_hunt`` stream their JSON-lines
series (``_run_series``): each snapshot is stored, as ``run_batch`` makes
it, as one fixed-size row of a store file, the writer's only copy; a forked
child, fed the rows through a semaphore, encodes on the second core while
the parent steps.  At the end the parent encodes the rows the child has not
reached (every row, without a child); each file is the child's part
followed by the parent's lines, byte-identical to a serial write (see
``_JsonlWriter``).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import shutil
import tempfile
import time as _time
from dataclasses import asdict, dataclass, field, replace
from math import lgamma
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .core import ChainState, _links, _rising_table, rising_weight
from .dynamics import IntegratorConfig, Trajectory, detect_blowup, run, run_batch
from .errors import ConfigError, FitRejected
from .initial_data import GENERATORS, _random_angles, make_initial, rigid_rotation_exact
from .spectral import (
    AngleState,
    angle_coefficients,
    continuize_Gn,
    discretize_Fn,
    eta_to_theta,
    theta_positions,
    theta_to_eta,
)
from .tension import _HYPOTHESES, certify_stack

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
            (len(self.n_list) <= 1 or self.kind not in ("run", "blowup_hunt"), "initial.n",
             f"one value for kind {self.kind!r}", self.n_list),
            (len(set(self.n_list)) == len(self.n_list), "initial.n", "distinct", self.n_list),
            (d >= 2, "initial.d", "an integer >= 2", d),
            (d == 2 or self.kind != "convergence", "initial.d", "2 for convergence (the angle maps are planar)", d),
            (all(seed >= 0 for seed in self.seeds), "seeds", "integers >= 0", self.seeds),
            (len(set(self.seeds)) == len(self.seeds), "seeds", "distinct", self.seeds),
            (set(self.formats) <= set(FORMATS), "output.formats", "csv and/or jsonl", self.formats),
            (len(set(self.formats)) == len(self.formats), "output.formats", "distinct", self.formats),
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
        payload = asdict(self)
        payload["files"].sort()
        return _write_json(output_dir / "manifest.json", payload)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _now() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%S", _time.gmtime())


# ---------------------------------------------------------------------------
# series emission


def _series_table(traj: Trajectory) -> tuple[list, np.ndarray]:
    """The CSV header and rows: the series columns, then the ratios."""
    cols = traj.series()
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
    return [*cols, *ratios], np.column_stack([*cols.values(), *ratios.values()])


def emit_series(traj: Trajectory, fmt: str, path, jsonl_writer=None) -> Path:
    """Write the trajectory to ``path``: CSV scalar series, or JSON-lines
    snapshots including the full eta, eta_dot, sigma arrays.  Refuses empty
    trajectories without creating a file.

    A JSON-lines file is written by putting every snapshot that
    ``jsonl_writer`` (a run's :class:`_JsonlWriter`, which ``run_batch`` fed
    as it stepped) has not stored yet, then finishing the file; without a
    writer, one is made for ``path`` alone."""
    if not traj.snapshots:
        raise ValueError("cannot emit an empty trajectory")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        header, rows = _series_table(traj)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows.tolist():
                writer.writerow([_FLOAT % v for v in row])
    elif fmt == "jsonl":
        writer = jsonl_writer or _JsonlWriter([path])
        try:
            writer.put(path, traj.snapshots[writer.count(path):])
            writer.finish(path)
        finally:
            if jsonl_writer is None:
                writer.close()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


#: Fewest floats the records put to a JSON-lines writer must hold before it
#: forks an encoder child.  A fork-context child plus its join and temp files
#: costs about 9.5 ms (median of 20, 2-core Linux host, parent holding a
#: 101-snapshot n = 1024 run) and encoding about 1.1-2 us per float, so a
#: child pays for itself from about 7k floats; this asks for twice that.
_MIN_CHILD_FLOATS = 16_000


def _cpu_count() -> int:
    """Cores this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _jsonl_encoders(records: int, floats: int) -> int:
    """How many processes encode ``records`` JSON-lines records holding
    ``floats`` floats in all: two (the parent and one forked child) from two
    records and ``_MIN_CHILD_FLOATS`` floats on, given a second core and the
    ``fork`` start method; else one."""
    if records < 2 or floats < _MIN_CHILD_FLOATS or _cpu_count() < 2:
        return 1
    import multiprocessing

    return 2 if "fork" in multiprocessing.get_all_start_methods() else 1


class _JsonlWriter:
    """The JSON-lines writer of one or more series files.

    ``put`` takes each file's snapshots in order and appends each, from the
    first, to an unnamed store file as one float64 row (``_jsonl_row``), the
    writer's only copy of it.  The records of one writer share n and d, so
    row i sits at offset i times one row size.  Once the rows hold enough
    floats (``_jsonl_encoders``), one forked child starts encoding them, in
    put order, into an unnamed temp part per file; its semaphore starts at
    the rows stored, and the parent flushes each later row and releases it
    once, so it never waits on the child.

    ``finish`` lands one file, once every record is put.  The first call
    caps the child's claims halfway through the rows it has not claimed
    (at 0 without a child), under the lock of the shared (claimed, limit)
    array, releases the semaphore once more to wake a child that has caught
    up, encodes the rows past the cap itself and joins the child.  Both
    sides encode rows read back from the store (``_row_line``).  Each file
    is the child's part followed by the parent's lines, a serial write.

    ``fork``, not ``spawn``: the child inherits the temp files and the
    semaphore.  It calls no BLAS routine, so the parent's OpenBLAS threads
    cannot leave it blocked on a lock, and it leaves through ``os._exit``,
    so inherited buffered files are never flushed twice.
    """

    def __init__(self, paths):
        self._files = {Path(p): i for i, p in enumerate(paths)}
        self._counts = [0] * len(self._files)
        self._rows = None   # the store file, from the first put
        self._size = 0      # bytes per row
        self._parts = []
        self._child = None
        self._tails = None  # the parent's lines per file, once split

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def count(self, path) -> int:
        """How many snapshots of ``path`` have been put."""
        return self._counts[self._files[Path(path)]]

    def put(self, path, snaps) -> None:
        idx = self._files[Path(path)]
        for snap in snaps:
            row = _jsonl_row(idx, snap)
            if self._rows is None:
                self._rows = tempfile.TemporaryFile(dir=next(iter(self._files)).parent)
                self._size = row.nbytes
            self._rows.write(row)
            self._counts[idx] += 1
            if self._child is not None:
                self._rows.flush()   # before the release: the child reads the row from the file
                self._ready.release()
        stored = sum(self._counts)
        # a record's floats are its row less the five entries before t
        if self._child is None and _jsonl_encoders(stored, stored * (self._size // 8 - 5)) > 1:
            self._start()

    def _start(self) -> None:
        import multiprocessing

        self._rows.flush()
        self._parts = [tempfile.TemporaryFile(dir=path.parent) for path in self._files]
        ctx = multiprocessing.get_context("fork")
        self._claims = ctx.Array("q", [0, 2**62])        # claimed, limit
        self._ready = ctx.Semaphore(sum(self._counts))   # released once per stored row
        self._child = ctx.Process(
            target=_encode_records, args=(self._rows, self._parts, self._claims, self._ready, self._size)
        )
        self._child.start()

    def _split(self, path) -> None:
        """Cap the child's claims halfway through the rows it has not claimed
        (at 0 without a child), wake it should it wait for a row, encode the
        rows past the cap, and join the child."""
        stored, limit = sum(self._counts), 0
        if self._child is not None:
            lock, claims = self._claims.get_lock(), self._claims.get_obj()
            locked = False
            while self._child.is_alive() and not locked:   # a dead child's claims are final
                locked = lock.acquire(timeout=0.05)
            try:
                limit = claims[0] + (stored - claims[0]) // 2
                claims[1] = limit
            finally:
                if locked:
                    lock.release()
            self._ready.release()
        self._rows.flush()
        self._tails = [[] for _ in self._files]
        for i in range(limit, stored):
            idx, line = _row_line(self._rows.fileno(), i, self._size)
            self._tails[idx].append(line)
        if self._child is not None:
            self._child.join()
            if self._child.exitcode != 0:
                raise OSError(f"writing {path}: encoder process exited with code {self._child.exitcode}")

    def finish(self, path) -> None:
        """Write ``path``: every record put for it, one JSON line each."""
        idx = self._files[Path(path)]
        with open(path, "w", encoding="utf-8") as fh:
            if self._tails is None:
                self._split(path)
            if self._parts:
                self._parts[idx].seek(0)
                shutil.copyfileobj(self._parts[idx], fh.buffer)
            fh.writelines(self._tails[idx])

    def close(self) -> None:
        """Stop the child if it still runs and drop the temp files."""
        if self._child is not None and self._child.is_alive():
            self._child.terminate()
            self._child.join()
        for tmp in (self._rows, *self._parts):
            if tmp is not None:
                tmp.close()


def _encode_records(rows, parts, claims, ready, size) -> None:
    """Encoder child body.  For each row of ``rows`` in order: wait for its
    release of ``ready``, claim it under the lock of ``claims`` (stopping at
    the claim limit), and encode it into its file's part."""
    lock, counts = claims.get_lock(), claims.get_obj()
    outs = [open(part.fileno(), "w", encoding="utf-8", closefd=False) for part in parts]
    for i in itertools.count():
        ready.acquire()
        with lock:
            if i >= counts[1]:
                break
            counts[0] = i + 1
        idx, line = _row_line(rows.fileno(), i, size)
        outs[idx].write(line)
    for out in outs:
        out.flush()


def _row_line(fd: int, i: int, size: int) -> tuple[int, str]:
    """Row ``i`` of the store file ``fd``, whose rows hold ``size`` bytes:
    its file index and its JSON line."""
    row = np.frombuffer(os.pread(fd, size, i * size))
    return int(row[0]), _jsonl_line(row)


#: how json spells the floats that have no repr it accepts
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _jsonl_row(idx: int, snap) -> np.ndarray:
    """The store row of ``snap`` in file ``idx``: one float64 array of the
    file index, positivity, n, d and the length of e, then t, eta, eta_dot,
    sigma, min_sigma, e, e_tilde, u0, v0, a, b, c, d_norms and
    constraint_drift, in the order of ``snapshot_to_json``."""
    st, sol, rep = snap.state, snap.tension, snap.report
    return np.concatenate((
        [idx, sol.positivity, st.n, st.d, rep.e.size, st.time], st.eta.ravel(), st.eta_dot.ravel(), sol.sigma,
        [sol.min_sigma], rep.e, rep.e_tilde, [rep.u0, rep.v0, rep.a, rep.b, rep.c], rep.d, [rep.constraint_drift],
    ))


def _jsonl_line(row) -> str:
    """``json.dumps(snapshot_to_json(snap)) + "\\n"`` from the ``_jsonl_row``
    of ``snap``, byte for byte, in one ``float.__repr__`` pass over its
    floats: json writes a float as its repr (NaN, Infinity and -Infinity
    where it is not finite) and separates items with ", " and keys with
    ": "."""
    n, d, ne = map(int, row[2:5].tolist())
    text = list(map(float.__repr__, row[5:].tolist()))
    if not np.isfinite(row).all():
        text = [_JSON_NONFINITE.get(v, v) for v in text]
    k, m = n + 1, (n + 1) * d
    rows = list(map(", ".join, zip(*[iter(text[1 : 1 + 2 * m])] * d)))
    sigma, rest = text[1 + 2 * m : 1 + 2 * m + k], text[1 + 2 * m + k :]
    min_sigma, e, e_tilde = rest[0], rest[1 : 1 + ne], rest[1 + ne : 1 + 2 * ne]
    u0, v0, a, b, c = rest[1 + 2 * ne : 6 + 2 * ne]
    d_norms, drift = rest[6 + 2 * ne : -1], rest[-1]
    return (
        f'{{"t": {text[0]}, "n": {n}, "d": {d}, "eta": [[{"], [".join(rows[:k])}]], '
        f'"eta_dot": [[{"], [".join(rows[k:])}]], "sigma": [{", ".join(sigma)}], '
        f'"min_sigma": {min_sigma}, "positivity": {"true" if row[1] else "false"}, '
        f'"e": [{", ".join(e)}], "e_tilde": [{", ".join(e_tilde)}], '
        f'"u0": {u0}, "v0": {v0}, "a": {a}, "b": {b}, "c": {c}, '
        f'"d_norms": [{", ".join(d_norms)}], "constraint_drift": {drift}}}\n'
    )


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
    """Rebuild the chain state from one JSON-lines record (bitwise, since json
    round-trips Python floats exactly); refuse one whose n or d is not its arrays'."""
    state = ChainState(np.array(obj["eta"]), np.array(obj["eta_dot"]), obj["t"])
    if (obj["n"], obj["d"]) != (state.n, state.d):
        raise ValueError(f"record gives n={obj['n']}, d={obj['d']} but its arrays have n={state.n}, d={state.d}")
    return state


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


def _run_series(cfg: ExperimentConfig, manifest: RunManifest, seeds, tags) -> list[Trajectory]:
    """Step the configured chain of each seed, all in one batch
    (``run_batch``), and write seed i's series as ``<tags[i]>.<fmt>`` in
    every configured format.  Each snapshot is put to the JSON-lines writer
    as it is made, so a forked child can encode while the batch steps.
    ``manifest.termination`` is the last seed's."""
    jsonl = [cfg.output_dir / f"{tag}.jsonl" for tag in tags]
    with _JsonlWriter(jsonl) as writer:
        hook = (lambda i, snap: writer.put(jsonl[i], (snap,))) if "jsonl" in cfg.formats else None
        trajs = run_batch([_initial(cfg, cfg.n, seed) for seed in seeds], cfg.integrator, hook)
        for tag, traj in zip(tags, trajs):
            for fmt in cfg.formats:
                path = cfg.output_dir / f"{tag}.{fmt}"
                emit_series(traj, fmt, path, jsonl_writer=writer)
                manifest.files.append(path.name)
    manifest.termination = trajs[-1].termination
    return trajs


def _report_json(cfg: ExperimentConfig, manifest: RunManifest, name: str, result: dict) -> None:
    """Put a kind's ``result`` into ``manifest.summary`` and write it as ``<name>.json``."""
    manifest.summary.update(result)
    manifest.files.append(_write_json(cfg.output_dir / f"{name}.json", result).name)


def _kind_run(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    """One trajectory per seed (``_run_series``).  The summary keeps each
    seed's termination, step count, and largest and 99th-percentile
    projection displacement (0.0 for a seed that took no step)."""
    tags = [f"series_seed{seed}" if len(cfg.seeds) > 1 else "series" for seed in cfg.seeds]
    trajs = _run_series(cfg, manifest, cfg.seeds, tags)
    manifest.summary["seeds"] = list(cfg.seeds)
    manifest.summary["terminations"] = {str(seed): traj.termination for seed, traj in zip(cfg.seeds, trajs)}
    manifest.summary["steps"] = {str(seed): traj.n_steps for seed, traj in zip(cfg.seeds, trajs)}
    manifest.summary["projection_max"] = {str(seed): float(traj.projection_log.max(initial=0.0))
                                          for seed, traj in zip(cfg.seeds, trajs)}
    manifest.summary["projection_p99"] = {str(seed): _p99(traj.projection_log) if traj.n_steps else 0.0
                                          for seed, traj in zip(cfg.seeds, trajs)}


def _p99(values: np.ndarray) -> float:
    """np.percentile(values, 99) of a nonempty array of finite values,
    bitwise, by numpy's default linear rule: on the sorted values, the
    virtual index v = (N-1) 0.99 and the weight g = v - floor(v), then
    numpy's interpolation b - (b-a)(1-g) for g >= 0.5, else a + (b-a) g.
    np.percentile itself imports numpy.ma on its first call."""
    x = np.sort(values)
    v = (len(x) - 1) * 0.99
    lo = int(v)
    g = v - lo
    a, b = x[lo], x[min(lo + 1, len(x) - 1)]
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


def _kind_convergence(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    """One continuum initial datum, discretized at every resolution through
    the spectral maps, integrated to t_end.

    The datum is the generator state at a reference resolution 2 max(n),
    continuized to the max(n) modes the chains read, so only those rows of
    the reference basis are built; each chain is its n-mode discretization.
    For rigid_rotation the per-n error is max_k |eta_k - ((n+1-k)/n) u(t_end)|:
    particle k against the rotating whip at its arclength (k-1)/n from the
    free end, which is ``rigid_rotation_exact``.  Other generators are
    compared pairwise between consecutive resolutions through the isometric
    coefficient representation.  ``error_t0`` is the same distance on the
    transferred chains before they step (against the rotation at t = 0), so
    the transfer's own share of ``error`` can be read off.  For
    rigid_rotation ``dynamics_error`` measures the integrator alone: the
    distance max_k |eta_k - exact_k| from the rigid rotation of the
    transferred chain's own angles, exact theta_k(t) = theta_k(0) +
    theta_dot_k(0) t; other generators leave it empty.
    """
    n_list = sorted(cfg.n_list)
    n_ref = 2 * n_list[-1]
    ref = _initial(cfg, n_ref, cfg.seeds[0])
    coeff_pos, coeff_vel = continuize_Gn(eta_to_theta(ref), n_list[-1])
    starts, finals = {}, {}
    for nv in n_list:
        starts[nv] = theta_to_eta(discretize_Fn(coeff_pos, nv, coeff_vel))
        finals[nv] = run(starts[nv], cfg.integrator).snapshots[-1].state

    def distances(states, time):
        if cfg.generator == "rigid_rotation":
            exact = {nv: rigid_rotation_exact(nv, time, **cfg.generator_params).eta for nv in n_list}
            return [float(np.max(np.linalg.norm(states[nv].eta - exact[nv], axis=1))) for nv in n_list]
        coeffs = {nv: angle_coefficients(eta_to_theta(states[nv]).theta, nv) for nv in n_list}
        out = []
        for nv, nv_next in zip(n_list[:-1], n_list[1:]):
            a = np.zeros(nv_next)
            a[: nv] = coeffs[nv]
            out.append(float(np.linalg.norm(a - coeffs[nv_next])))
        return out

    errors, errors_t0 = distances(finals, cfg.integrator.t_end), distances(starts, 0.0)
    dynamics = {}
    if cfg.generator == "rigid_rotation":
        for nv in n_list:
            start, final = eta_to_theta(starts[nv]), finals[nv]
            exact = theta_to_eta(AngleState(start.theta + start.theta_dot * final.time, start.theta_dot))
            dynamics[nv] = float(np.max(np.linalg.norm(final.eta - exact.eta, axis=1)))
    rows = list(zip(n_list, errors, errors_t0))
    path = cfg.output_dir / "convergence.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "error", "ratio_to_previous", "error_t0", "dynamics_error"])
        prev = None
        for nv, err, err_t0 in rows:
            ratio = "" if prev in (None, 0.0) else _FLOAT % (prev / err)
            dyn = _FLOAT % dynamics[nv] if nv in dynamics else ""
            writer.writerow([nv, _FLOAT % err, ratio, _FLOAT % err_t0, dyn])
            prev = err
    manifest.files.append(path.name)
    manifest.summary["errors"] = {str(nv): err for nv, err, _ in rows}
    manifest.summary["errors_t0"] = {str(nv): err_t0 for nv, _, err_t0 in rows}
    if dynamics:
        manifest.summary["dynamics_errors"] = {str(nv): err for nv, err in dynamics.items()}
    manifest.summary["monotone_decreasing"] = all(a > b for a, b in zip(errors[:-1], errors[1:]))


def _basic_inequality_violations(n: int, r: float, batch: np.ndarray, slack: float = 1e-12):
    """Count violations of the three explicit weighted inequalities on a
    (B, n) batch of sequences."""
    B = batch.shape[0]
    ks = np.arange(1, n + 1)
    w_r = rising_weight(ks, r, n)
    w_rm1 = rising_weight(ks, r - 1.0, n)
    w_rp1 = rising_weight(np.arange(1, n), r + 1.0, n)

    fsq = batch * batch
    diff = _links(batch, n)
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
    """Spot-check the weight-ratio and shift bounds on random (p, q, j, k, n).
    The draws are made trial by trial, in the order a scalar loop makes
    them; the weights and bounds are then evaluated for all trials at once."""
    draws = []
    for _ in range(trials):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(1, n + 1))
        p = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(0.05, 4.0))
        j = int(rng.integers(0, n - k + 1))
        draws.append((n, k, p, q, j))
    n, k, p, q, j = map(np.array, zip(*draws))
    ks = np.concatenate([k, k, k, k + j])
    table = _rising_table(np.concatenate([p, p + q, q, p]), np.tile(n, 4), ks.max() + 1)
    skp, spq, sq, skj = table[np.arange(4 * trials), ks].reshape(4, trials)
    ratio = spq / sq
    cpq, cj = _binomial(p, q), _binomial(j, p)
    ok_ratio = (skp * (1 - slack) <= ratio) & (ratio <= cpq * skp * (1 + slack))
    ok_shift = (skp * (1 - slack) <= skj) & (skj <= cj * skp * (1 + slack))
    return int(np.count_nonzero(~ok_ratio) + np.count_nonzero(~ok_shift))


def _binomial(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The generalized binomial coefficient Gamma(a+b+1) / (Gamma(a+1) Gamma(b+1)), elementwise."""
    top, fa, fb = (np.fromiter(map(lgamma, x.tolist()), float, len(x)) for x in (a + b + 1, a + 1.0, b + 1.0))
    return np.exp(top - fa - fb)


def _product_bound_violations(rng: np.random.Generator, trials: int = 500, slack: float = 1e-12) -> int:
    """||fg||^2_{p+q,0} <= [Gamma(p+q+1)/(Gamma(p+1)Gamma(q+1))] [f]^2_{p,0} ||g||^2_{q,0}
    on random (n, p, q, f, g), drawn trial by trial in the order a scalar
    loop draws them, then evaluated at once with f and g zero-padded."""
    top = 128   # n < top
    n, p, q = np.empty(trials, dtype=int), np.empty(trials), np.empty(trials)
    f, g = np.zeros((2, trials, top - 1))
    for i in range(trials):
        n[i], p[i], q[i] = rng.integers(2, top), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        f[i, : n[i]], g[i, : n[i]] = rng.normal(size=n[i]), rng.normal(size=n[i])
    table = _rising_table(np.concatenate([p + q, p, q]), np.tile(n, 3), top)
    s_pq, s_p, s_q = table[:, 1:].reshape(3, trials, -1)
    lhs = np.sum(s_pq * (f * g) ** 2, axis=1) / n
    rhs = _binomial(p, q) * np.max(s_p * (f * f), axis=1) * (np.sum(s_q * (g * g), axis=1) / n)
    return int(np.count_nonzero(lhs > rhs * (1 + slack) + slack))


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
    _report_json(cfg, manifest, "inequality_suite", {
        "samples": cfg.suite_samples,
        "basic_inequalities": per_cell,
        "weight_bound_violations": wviol,
        "product_bound_violations": pviol,
    })


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
        # a bound fails where its hypothesis holds and its test does not
        failed = {key: cert[hypothesis] & ~cert[key] for key, hypothesis in _HYPOTHESES.items()}
        stats["count"] += theta.shape[0]
        for key, hits in (
            ("minmax_failures", ~cert["minmax_bound_ok"]),
            ("applicable_upper", cert[_HYPOTHESES["diff_bound_ok"]]),
            ("upper_failures", failed["diff_bound_ok"] | failed["ratio_bound_ok"]),
            ("corner_failures", failed["corner_ok"]),
            ("admissible_lower", cert[_HYPOTHESES["lower_bound_ok"]]),
            ("lower_failures", failed["lower_bound_ok"]),
        ):
            stats[key] += int(np.count_nonzero(hits))
    manifest.violations = (
        stats["upper_failures"] + stats["lower_failures"]
        + stats["corner_failures"] + stats["minmax_failures"]
    )
    _report_json(cfg, manifest, "green_certify", stats)


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
    """The first seed's series (``_run_series``), then a power-law blowup
    fit of its maxima (``detect_blowup``)."""
    (traj,) = _run_series(cfg, manifest, cfg.seeds[:1], ["blowup_series"])
    cols = traj.series()
    try:
        fit = detect_blowup(np.column_stack([cols["t"], cols["max_ang_vel"], cols["max_curvature"]]))
        result = {"fit_rejected": False, "T_est": fit.T_est, "p_angular": fit.p_angular,
                  "p_curvature": fit.p_curvature, "residual_angular": fit.residuals[0],
                  "residual_curvature": fit.residuals[1], "at_bracket_edge": fit.at_bracket_edge}
    except FitRejected as exc:
        result = {"fit_rejected": True, "reason": str(exc)}
    result["termination"] = traj.termination
    _report_json(cfg, manifest, "blowup", result)


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
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'output.dir': cannot create {str(cfg.output_dir)!r}: {exc.strerror or exc}") from exc
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
