"""Time integration of the chain ODE with constraint projection, per-step
diagnostics, and finite-time blowup detection.

The flow is eta_ddot = D-(sigma D+ eta) with the tension re-solved at every
stage.  The continuous problem fixes no integrator; classical RK4 with a
CFL step based on the tension wave speed sqrt(sigma) is used, and an
optional projection restores |D+ eta| = 1 and <D+ eta, D+ eta_dot> = 0 to
round-off after each full step.

There is one stepping loop, :func:`run_batch`.  It integrates B chains of
one n and d as one flat component-major (d, B n) stack of links
t_k = D+ eta_k and one of their velocities (the layout of
:mod:`whipchain.core`), which is all the tension system reads; the pinned
end holds by construction (eta_k = -(1/n) sum_{j>=k} t_j, formed for
snapshots only), and the acceleration and the projection act link by link.
Each RK stage solves the B tension systems as one block-diagonal
tridiagonal solve.  So does each iteration's start, and the stop tests, dt,
the first stage and the snapshots all read that solve.  The chains an
iteration snapshots are reported in one stacked pass
(:func:`_snapshot_pass`): it holds their tensions to the solve contract and
runs each diagnostic kernel once over their (d, R, n+1) stack, and each
row is bitwise the report of its chain alone (:func:`snapshot_report` is
the stack of one).  The pass hands out finished Snapshots, whose time is
their state's; a Trajectory's step count is the length of its projection
log.  Every chain keeps its own time, step, stride and termination, so
each trajectory is bitwise the one the chain gives alone; :func:`run` is
the batch of one.  The public :func:`acceleration`, :func:`project` and
:func:`step` take and return row-major positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ChainState,
    _acceleration_arrays,
    _anchored,
    _chain_links,
    _energies,
    _energy_sums,
    _dot,
    _frozen_array,
    _lengths,
    _links,
    _s_weight,
    _sigma_weight,
    _sq,
    _squared_differences,
    _tension_array,
)
from .errors import FitRejected, NumericError
from .tension import (
    TensionSolution,
    _abc,
    _contract_breach,
    _sigma_dot,
    _sigma_sobolev,
    _solve_sigma_arrays,
)

TERMINATIONS = ("t_end_reached", "negative_tension", "blowup_suspected", "dt_underflow")
_NO_ROWS = np.empty(0, dtype=int)


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper settings.  cfl in (0, 1]; dt clamped to [dt_min, dt_max]; t_end,
    dt_max and blowup_threshold positive, all four finite; report_stride an integer >= 1."""

    t_end: float
    cfl: float = 0.5
    dt_max: float = 1e-3
    dt_min: float = 1e-12
    project: bool = True
    halt_on_negative_tension: bool = True
    report_stride: int = 1
    blowup_threshold: float = 1e8

    def __post_init__(self):
        for name in ("t_end", "dt_min", "dt_max", "blowup_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("t_end", "dt_max", "blowup_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min={self.dt_min} exceeds dt_max={self.dt_max}")
        if not isinstance(self.report_stride, (int, np.integer)) or self.report_stride < 1:
            raise ValueError(f"report_stride must be an integer >= 1, got {self.report_stride!r}")


# ---------------------------------------------------------------------------
# right-hand side


def acceleration(chain: ChainState, sigma) -> np.ndarray:
    """eta_ddot_k = n^2 [sigma_k (eta_{k+1} - eta_k) - sigma_{k-1} (eta_k - eta_{k-1})]
    for k = 1..n, with sigma_0 = 0; the fixed-end row is zero.

    Returns shape (n+1, d): the positions of the link acceleration.
    """
    n = chain.n
    return _anchored(_acceleration_arrays(_chain_links(chain)[0], _tension_array(sigma, n)[1:], n)).T


def adaptive_dt(chain: ChainState, sigma, cfg: IntegratorConfig) -> float:
    """CFL step dt = clamp(cfl / (n sqrt(max sigma) + eps), dt_min, dt_max)."""
    return float(_clamp_dt(_raw_dt(chain.n, _tension_array(sigma, chain.n), cfg), cfg))


def _raw_dt(n: int, sigma: np.ndarray, cfg: IntegratorConfig):
    """The unclamped CFL step cfl / (n sqrt(max sigma) + eps), one per chain
    of a (..., n+1) or interior (..., n) tension array (sigma_0 = 0 does not
    move the clamped maximum)."""
    top = np.maximum(sigma.max(axis=-1), 0.0)
    return cfg.cfl / (n * np.sqrt(top) + 1e-12)


def _clamp_dt(dt, cfg: IntegratorConfig):
    return np.minimum(np.maximum(dt, cfg.dt_min), cfg.dt_max)


# ---------------------------------------------------------------------------
# projection


def _project_arrays(t: np.ndarray, t_dot: np.ndarray):
    """Renormalize each of the (d, ..., K) links, t <- t / |t|, then take each
    link velocity's component along it away, t_dot <- t_dot - <t_dot, t> t."""
    unit = t / _lengths(t)
    return unit, t_dot - _dot(t_dot, unit) * unit


def project(chain: ChainState) -> ChainState:
    """Return the chain projected back onto the constraint manifold."""
    t, t_dot = _project_arrays(*_chain_links(chain))
    return ChainState(_anchored(t).T, _anchored(t_dot).T, chain.time)


# ---------------------------------------------------------------------------
# stepping


def _stage_rhs(t: np.ndarray, t_dot: np.ndarray, n: int):
    return t_dot, _acceleration_arrays(t, _solve_sigma_arrays(t, t_dot, n)[0], n)


def _advance(t, t_dot, sigma, n, dt):
    """One RK4 step of the free ODE (no projection) on (d, K) links and
    link velocities, blocks of n; ``sigma`` is the interior tension of
    (t, t_dot), so the first stage solves nothing.  ``dt`` is a number or
    one step per link, shaped (K,)."""
    k1x, k1v = t_dot, _acceleration_arrays(t, sigma, n)
    half = 0.5 * dt
    k2x, k2v = _stage_rhs(t + half * k1x, t_dot + half * k1v, n)
    k3x, k3v = _stage_rhs(t + half * k2x, t_dot + half * k2v, n)
    k4x, k4v = _stage_rhs(t + dt * k3x, t_dot + dt * k3v, n)
    sixth = dt / 6.0
    return _rk4_sum(t, sixth, k1x, k2x, k3x, k4x), _rk4_sum(t_dot, sixth, k1v, k2v, k3v, k4v)


def _rk4_sum(y, sixth, k1, k2, k3, k4):
    """y + sixth (2 (k2 + k3) + k1 + k4), in place in one temporary."""
    out = k2 + k3
    out *= 2.0
    out += k1
    out += k4
    out *= sixth
    out += y
    return out


def _step_arrays(t, t_dot, sigma, n, time, dt, cfg: IntegratorConfig):
    """One full step of every chain in a flat (d, B n) stack of links and
    link velocities with interior tensions ``sigma`` (B n,): advance, reject
    non-finite state, project.  ``time`` holds each chain's time, shaped
    (B,), and ``dt`` its step repeated over its links, shaped (B n,), or the
    one number every chain steps by.

    Returns the new links and link velocities and, per chain, the largest
    particle displacement the projection made, summed from its link
    corrections (0.0 when cfg.project is off).  The displacements are the
    positions of the corrections (:func:`_anchored`) without the pinned
    row's zero and the sign, neither of which moves the largest |.|^2.
    """
    new_t, new_dot = _advance(t, t_dot, sigma, n, dt)
    if not (np.isfinite(new_t).all() and np.isfinite(new_dot).all()):
        finite = _blocks(np.isfinite(new_t) & np.isfinite(new_dot), n).all(axis=(0, 2))
        row = _first_failing(t, t_dot, n, dt, finite)
        raise NumericError(f"non-finite state after step at t={time[row]:.6g}", chain=row)
    if not cfg.project:
        return new_t, new_dot, np.zeros(len(time))
    unit, unit_dot = _project_arrays(new_t, new_dot)
    moved = np.cumsum(_blocks((unit - new_t) / n, n)[..., ::-1], axis=-1)
    return unit, unit_dot, np.sqrt(_sq(moved).max(axis=-1))


def _blocks(x: np.ndarray, n: int) -> np.ndarray:
    """The (d, B, n) view of a flat (d, B n) stack, one row per chain."""
    return x.reshape(x.shape[0], -1, n)


def _first_failing(t, t_dot, n, dt, finite) -> int:
    """The first chain of a batch whose step fails when it is taken alone,
    from its own tension.

    A NaN spreads through the zero couplings of the stacked tension solve
    into the other chains' stages, so the non-finite rows of a batch step
    can include chains that are sound on their own.
    """
    rows = np.flatnonzero(~finite)
    for row in rows:
        part = slice(row * n, (row + 1) * n)
        try:
            sigma = _solve_sigma_arrays(t[:, part], t_dot[:, part], n)[0]
            x, v = _advance(t[:, part], t_dot[:, part], sigma, n, np.broadcast_to(dt, t.shape[-1])[part])
        except NumericError:
            return int(row)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            return int(row)
    return int(rows[0])


def step(chain: ChainState, cfg: IntegratorConfig, dt: float | None = None) -> ChainState:
    """Advance one step.  dt defaults to the adaptive CFL value; the result is
    projected when cfg.project is set.  Raises NumericError on NaN state."""
    n = chain.n
    t, t_dot = _chain_links(chain)
    sigma = _solve_sigma_arrays(t, t_dot, n)[0]
    if dt is None:
        dt = float(_clamp_dt(_raw_dt(n, sigma, cfg), cfg))
    t, t_dot, _ = _step_arrays(t, t_dot, sigma, n, [chain.time], np.full(n, dt), cfg)
    return ChainState(_anchored(t).T, _anchored(t_dot).T, chain.time + dt)


# ---------------------------------------------------------------------------
# full trajectory with reports


@dataclass(frozen=True)
class EnergyReport:
    """Full diagnostic record at one time instant.

    e[m] and e_tilde[m] are the s- and sigma-weighted energies for m = 0..3;
    d[m-1] is the tension Sobolev norm d_m for m = 1..3.  Entries whose
    differences exceed the grid are NaN: e_2 and e_3 at n = 1, d_m at
    n <= 4.  b is inf when some tension is nonpositive.  max_ang_vel is
    max_k |D+ eta_dot_k|, max_curvature max_{k<n} |D+^2 eta_k| (0 at n = 1).

    d_3 (fourth differences of sigma at weight n^4) is good to about five
    significant digits at n = 1024: one ulp in the positions of
    ``theta_power(1024, vel_amp=1)`` moves it by 1.1e-5 relative, d_2 by
    7.6e-11.  Its 17 written digits are there for the bitwise round trip.
    """

    e: np.ndarray
    e_tilde: np.ndarray
    u0: float
    v0: float
    a: float
    b: float
    c: float
    d: np.ndarray
    max_ang_vel: float
    max_curvature: float
    constraint_drift: float

    def __post_init__(self):
        object.__setattr__(self, "e", _frozen_array(self.e))
        object.__setattr__(self, "e_tilde", _frozen_array(self.e_tilde))
        object.__setattr__(self, "d", _frozen_array(self.d))


@dataclass(frozen=True)
class Snapshot:
    state: ChainState
    tension: TensionSolution
    report: EnergyReport


@dataclass(frozen=True)
class Trajectory:
    snapshots: list
    termination: str
    projection_log: np.ndarray   # per-step max position displacement from projection
    n_steps: int = field(init=False)   # one per projection_log entry

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        object.__setattr__(self, "projection_log", _frozen_array(self.projection_log))
        object.__setattr__(self, "n_steps", len(self.projection_log))

    def series(self) -> dict:
        """Column arrays of the scalar time series: one stacked array, one row per snapshot."""
        table = np.array([_series_row(snap) for snap in self.snapshots]).reshape(-1, len(_SERIES_FIELDS))
        return dict(zip(_SERIES_FIELDS, table.T))


def snapshot_report(chain: ChainState, sol: TensionSolution) -> EnergyReport:
    """Assemble the full energy/diagnostic record for one state: the stack
    of one of :func:`_report_stack`."""
    return _report_stack(chain.eta.T[:, None], chain.eta_dot.T[:, None], _tension_array(sol, chain.n)[None])[0]


def _report_stack(eta: np.ndarray, eta_dot: np.ndarray, sigma: np.ndarray) -> list:
    """The EnergyReport of each chain of (d, R, n+1) positions and
    velocities under its tensions sigma_0..sigma_n, shaped (R, n+1).

    The links and link velocities are formed once.  They feed the sigma_dot
    solve and one list of squared differences, which feeds both energy
    weightings, u0/v0 (the l = 0 sums), the constraint drift
    (|D+ eta_k|^2, row l = 0) and the maxima (row l = 1, whose curvature at
    k = n reaches through the fixed end and is dropped).  sqrt is monotone,
    so the root of the largest square is the largest length.  Each kernel
    runs once for the stack, elementwise or along the last axis, so row i is
    bitwise the report of chain i alone; a NumericError from the a/c checks
    names the first row that fails one.
    """
    n = eta.shape[-1] - 1
    t, t_dot = _links(eta), _links(eta_dot)
    m_max = 3 if n > 1 else 1   # one link has no second difference
    sq = _squared_differences(eta_dot, t, t_dot, m_max)
    (_, links_sq), (ang_sq, curv_sq) = sq[:2]
    sums = _energy_sums(sq, _s_weight(n))
    a, b, c = _abc(sigma, _sigma_dot(t, t_dot, sigma[:, 1:]))
    pad = np.full((len(sigma), 3 - m_max), np.nan)
    e = np.concatenate([_energies(sums, n), pad], axis=-1)
    e_tilde = np.concatenate([_energies(_energy_sums(sq, _sigma_weight(sigma, m_max)), n), pad], axis=-1)
    d = _sigma_sobolev(sigma, 3)
    scalars = zip(*(sums[:, 0] / n).T.tolist(), a.tolist(), b.tolist(), c.tolist(),
                  np.sqrt(ang_sq.max(axis=-1)).tolist(),
                  np.sqrt(curv_sq[:, : n - 1].max(axis=-1, initial=0.0)).tolist(),
                  np.abs(np.sqrt(links_sq) - 1.0).max(axis=-1).tolist())
    return [
        EnergyReport(e=e[i], e_tilde=e_tilde[i], u0=u0, v0=v0, a=ai, b=bi, c=ci, d=d[i], max_ang_vel=ang,
                     max_curvature=curv, constraint_drift=drift)
        for i, (u0, v0, ai, bi, ci, ang, curv, drift) in enumerate(scalars)
    ]


def _snapshot_pass(eta: np.ndarray, eta_dot: np.ndarray, sigma: np.ndarray, alpha: np.ndarray, w: np.ndarray,
                   time: np.ndarray, rows: np.ndarray) -> list:
    """The Snapshot of each working row in ``rows`` of the (d, B, n+1)
    positions and velocities, at its ``time``, from the interior tensions
    ``sigma`` (B, n) of the stacked system it solved: the flat cosines
    ``alpha`` (B n - 1,) and sources ``w`` (B, n).  Each tension is held to
    the solve contract, and every kernel makes one pass over the rows.  A
    NumericError names the first row that fails the contract or a check of
    its report; the rows past the first contract failure are not
    reported."""
    n = sigma.shape[-1]
    alpha = np.append(alpha, 0.0).reshape(-1, n)[rows, :-1]   # cut the couplings between blocks
    breach = _contract_breach(alpha, sigma[rows], w[rows])
    ok = rows[: len(rows) if breach is None else breach.chain]
    full = np.zeros((ok.size, n + 1))
    full[:, 1:] = sigma[ok]
    try:
        reports = _report_stack(eta[:, ok], eta_dot[:, ok], full)
        if breach is not None:
            raise breach
    except NumericError as exc:   # name the working row
        exc.chain = int(rows[exc.chain])
        raise
    return [Snapshot(ChainState(eta[:, row].T, eta_dot[:, row].T, time[row]), TensionSolution(s), rep)
            for row, s, rep in zip(ok, full, reports)]


_SERIES_FIELDS = (
    ["t"]
    + [f"e{m}" for m in range(4)]
    + [f"et{m}" for m in range(4)]
    + ["u0", "v0", "a", "b", "c", "d1", "d2", "d3",
       "min_sigma", "max_ang_vel", "max_curvature", "constraint_drift"]
)


def _series_row(snap: Snapshot) -> list:
    """The snapshot's values in the order of ``_SERIES_FIELDS``."""
    rep = snap.report
    return [snap.state.time, *rep.e, *rep.e_tilde, rep.u0, rep.v0, rep.a, rep.b, rep.c, *rep.d,
            snap.tension.min_sigma, rep.max_ang_vel, rep.max_curvature, rep.constraint_drift]


def run(initial: ChainState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from ``initial`` until t_end or a termination condition.

    Snapshots (state, tension, full report) are taken at t = 0, every
    ``report_stride`` steps, and at termination.
    """
    return run_batch([initial], cfg)[0]


def run_batch(initials, cfg: IntegratorConfig, on_snapshot=None) -> list[Trajectory]:
    """Integrate every chain of ``initials`` (all of one n and d) as one
    batch; returns one Trajectory per chain, in order.  ``on_snapshot(i,
    snap)``, when given, is called with each snapshot of chain ``i`` as it is
    made, in the order the snapshots are made.

    Each iteration starts with one stacked tension solve of the running
    chains' links, which the stop tests, dt, the step and the snapshots
    read: a chain is snapshotted there when its step count is a multiple of
    ``report_stride`` or it stops.  The iteration's snapshots are reported
    in one pass before the first is handed out, so a NumericError in that
    pass hands out none of them.  Each RK stage is one such solve too.  On
    a stride the chains go on from the links of the snapshots' positions, so
    a snapshot is a bitwise restart point (:func:`step` of it gives the next
    one) and the t = 0 snapshot holds the initial arrays.  Each chain has
    its own t, dt, step count and termination, and leaves the working arrays
    when it stops, so its trajectory is bitwise the one it gives alone.  A
    NumericError names the failing chain's index, also for an initial state
    off the constraint manifold (``ChainState.validate``).
    """
    if len({(c.n, c.d) for c in initials}) != 1:
        raise ValueError(f"a batch needs chains of one n and d, got {sorted({(c.n, c.d) for c in initials})}")
    n, d = initials[0].n, initials[0].d
    for i, c in enumerate(initials):
        try:
            c.validate()
        except ValueError as exc:
            raise NumericError(f"chain {i}: initial state {exc}", chain=i) from exc
    live = np.arange(len(initials))   # the chain in each working block
    eta = np.stack([c.eta.T for c in initials], axis=1)   # (d, B, n+1)
    eta_dot = np.stack([c.eta_dot.T for c in initials], axis=1)
    t = np.array([c.time for c in initials], dtype=float)
    snapshots: list = [[] for _ in initials]
    logs: list = [[] for _ in initials]
    done: list = [None] * len(initials)
    steps = 0
    tiny = 1e-14 * max(cfg.t_end, 1.0)
    thr = cfg.blowup_threshold

    try:
        while live.size:
            every = steps % cfg.report_stride == 0
            if every:
                if steps:
                    eta, eta_dot = _anchored(_blocks(links, n)), _anchored(_blocks(links_dot, n))
                # a snapshot is a restart point: step on from its positions' links
                links, links_dot = _links(eta).reshape(d, -1), _links(eta_dot).reshape(d, -1)
            sigma, alpha, w = _solve_sigma_arrays(links, links_dot, n)
            chain_sigma, chain_w = sigma.reshape(-1, n), w.reshape(-1, n)   # (B, n) views
            raw = _raw_dt(n, chain_sigma, cfg)
            curv_sq = _sq(_links(_blocks(links, n), n)).max(axis=-1, initial=0.0)
            # whole-stack extremes (NaN-ignoring) rule out a stop on most steps:
            # any chain's stop below breaks one of them
            quiet = (t.max() < cfg.t_end - tiny and np.fmin.reduce(raw) >= cfg.dt_min
                     and not (cfg.halt_on_negative_tension and np.fmin.reduce(sigma) < 0.0)
                     and np.sqrt(np.fmax(np.fmax.reduce(w), np.fmax.reduce(curv_sq))) <= thr)
            if quiet:
                ending = _NO_ROWS
            else:
                # one row per stop condition, in the order of TERMINATIONS, which is their precedence
                hits = np.array([
                    t >= cfg.t_end - tiny,
                    (chain_sigma.min(axis=1) < 0.0) & cfg.halt_on_negative_tension,
                    (np.sqrt(chain_w.max(axis=-1)) > thr) | (np.sqrt(curv_sq) > thr),
                    raw < cfg.dt_min,
                ])
                going = ~hits.any(axis=0)
                ending = np.flatnonzero(~going)
            if ending.size and not every:
                eta, eta_dot = _anchored(_blocks(links, n)), _anchored(_blocks(links_dot, n))
            shot = np.arange(live.size) if every else ending
            made = _snapshot_pass(eta, eta_dot, chain_sigma, alpha, chain_w, t, shot) if shot.size else ()
            for row, snap in zip(shot.tolist(), made):
                snapshots[live[row]].append(snap)
                if on_snapshot is not None:
                    on_snapshot(int(live[row]), snap)
            for row in ending:
                i = live[row]
                termination = TERMINATIONS[hits[:, row].argmax()]
                done[i] = Trajectory(snapshots[i], termination, np.array(logs[i]))
            if ending.size:
                live, t, raw = live[going], t[going], raw[going]
                if not live.size:
                    break
                links, links_dot = (_blocks(a, n)[:, going].reshape(d, -1) for a in (links, links_dot))
                sigma = chain_sigma[going].ravel()
            dt = np.minimum(_clamp_dt(raw, cfg), cfg.t_end - t)
            # a step every chain shares is a number, else one per link
            step_dt = dt[0] if (dt == dt[0]).all() else np.repeat(dt, n)
            links, links_dot, moved = _step_arrays(links, links_dot, sigma, n, t, step_dt, cfg)
            for i, m in zip(live, moved.tolist()):
                logs[i].append(m)
            t = t + dt
            steps += 1
    except NumericError as exc:   # every failure inside names its working row
        i = int(live[exc.chain])
        raise NumericError(f"chain {i}: {exc}", chain=i) from exc
    return done


# ---------------------------------------------------------------------------
# blowup detection


@dataclass(frozen=True)
class BlowupFit:
    """Power-law fit y ~ (T - t)^{-p} of the trailing window of the maxima
    series; T_est is shared between the two quantities, and ``at_bracket_edge``
    marks a T_est set by the search bracket, not by the data."""

    T_est: float
    p_angular: float
    p_curvature: float
    residuals: tuple
    at_bracket_edge: bool = False

    def __post_init__(self):
        if not np.isfinite(self.T_est):
            raise ValueError("T_est must be finite")


def _loglog_fit(x: np.ndarray, logy: np.ndarray):
    """Least squares logy = const + p * x; returns (p, const, sse)."""
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    resid = logy - A @ coef
    return coef[0], coef[1], float(resid @ resid)


_FIT_MIN_POINTS = 8       # the fewest samples a blowup fit reads
_FIT_WINDOW_FRAC = 0.25   # the trailing share of the series it fits


def detect_blowup(series) -> BlowupFit:
    """Fit log y = const - p log(T - t) jointly over (T, p) on the trailing
    window of a maxima series.

    ``series`` is an (N, 3) array-like of rows (t, max |D+ eta_dot|,
    max |D+^2 eta|).  The window is the trailing quarter of the samples,
    at least 8 of them.  T - t_last is searched for between 1e-9 and 1e4
    window spans; ``at_bracket_edge`` is set when the minimizer lies within
    1e-6 of either end in log(T - t_last), or an end fits no worse than it.
    Raises FitRejected when there are too few samples or the tail maxima
    are not strictly increasing.
    """
    from scipy.optimize import minimize_scalar   # here, not at import: only blowup_hunt fits

    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("series must be (N, 3): columns t, max|D+ eta_dot|, max|D+^2 eta|")
    N = arr.shape[0]
    if N < _FIT_MIN_POINTS:
        raise FitRejected(f"need at least {_FIT_MIN_POINTS} samples, got {N}")
    w = max(_FIT_MIN_POINTS, int(np.ceil(_FIT_WINDOW_FRAC * N)))
    tail = arr[-w:]
    t, ang, curv = tail[:, 0], tail[:, 1], tail[:, 2]
    if np.any(np.diff(t) <= 0):
        raise FitRejected("sample times must be strictly increasing")
    for name, y in (("angular-velocity", ang), ("curvature", curv)):
        if np.any(np.diff(y) <= 0) or np.any(y <= 0):
            raise FitRejected(f"{name} maxima are not strictly increasing on the tail")

    t_last = t[-1]
    span = t[-1] - t[0]
    la, lc = np.log(ang), np.log(curv)

    def sse(tau):
        T = t_last + np.exp(tau)
        x = -np.log(T - t)
        return _loglog_fit(x, la)[2] + _loglog_fit(x, lc)[2]

    bounds = (np.log(span * 1e-9), np.log(span * 1e4))
    res = minimize_scalar(
        sse,
        bounds=bounds,
        method="bounded",
        options={"xatol": 1e-14, "maxiter": 500},
    )
    T = t_last + float(np.exp(res.x))
    x = -np.log(T - t)
    p_ang, _, sse_a = _loglog_fit(x, la)
    p_curv, _, sse_c = _loglog_fit(x, lc)
    return BlowupFit(
        T_est=T,
        p_angular=float(p_ang),
        p_curvature=float(p_curv),
        residuals=(float(np.sqrt(sse_a / w)), float(np.sqrt(sse_c / w))),
        at_bracket_edge=bool(min(res.x - bounds[0], bounds[1] - res.x) <= 1e-6 or min(map(sse, bounds)) <= res.fun),
    )
