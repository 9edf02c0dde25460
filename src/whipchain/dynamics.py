"""Time integration of the chain ODE with constraint projection, per-step
diagnostics, and finite-time blowup detection.

The flow is eta_ddot = D-(sigma D+ eta) with the tension re-solved at every
stage.  The continuous problem fixes no integrator; classical RK4 (or Heun)
with a CFL step based on the tension wave speed sqrt(sigma) is used, and an
optional projection restores |D+ eta| = 1 and <D+ eta, D+ eta_dot> = 0 to
round-off after each full step.

There is one stepping loop, :func:`run_batch`.  It integrates B chains of
one n and d as (B, n+1, d) arrays, and each RK stage solves the B tension
systems as one stacked tridiagonal solve.  So does each iteration's start,
and the stop tests, dt, the first stage and the snapshots all read that
solve; a snapshot holds it to the solve contract.  Every chain keeps its own
time, step, stride and termination, so each trajectory is bitwise the one
the chain gives alone; :func:`run` is the batch of one.  The array kernels
work on any leading shape, so a single (n+1, d) chain goes through them too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChainState,
    _energies,
    _energy_sums,
    _dot,
    _frozen_array,
    _lengths,
    _links,
    _s_weight,
    _sigma_weight,
    _squared_differences,
    odd_extend,
)
from .errors import FitRejected, NumericError
from .tension import (
    TensionSolution,
    _checked_solution,
    _sigma_dot_extended,
    _solve_sigma_arrays,
    diagnostics_abc,
    sigma_sobolev,
)

TERMINATIONS = ("t_end_reached", "negative_tension", "blowup_suspected", "dt_underflow")


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper settings.  cfl in (0, 1]; dt clamped to [dt_min, dt_max];
    t_end, dt_max and blowup_threshold positive, and all four finite."""

    t_end: float
    scheme: str = "rk4"
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
        if self.scheme not in ("rk4", "heun"):
            raise ValueError(f"unknown scheme {self.scheme!r}; use 'rk4' or 'heun'")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min={self.dt_min} exceeds dt_max={self.dt_max}")
        if self.report_stride < 1:
            raise ValueError(f"report_stride must be >= 1, got {self.report_stride}")


# ---------------------------------------------------------------------------
# right-hand side


def acceleration(chain: ChainState, sigma) -> np.ndarray:
    """eta_ddot_k = n^2 [sigma_k (eta_{k+1} - eta_k) - sigma_{k-1} (eta_k - eta_{k-1})]
    for k = 1..n, with sigma_0 = 0; the fixed-end row is zero.

    Returns shape (n+1, d).
    """
    n = chain.n
    sig = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sig.shape != (n + 1,):
        raise ValueError(f"sigma must have shape ({n + 1},), got {sig.shape}")
    return _acceleration_arrays(chain.eta, sig, n)


def _acceleration_arrays(eta: np.ndarray, sigma: np.ndarray, n: int) -> np.ndarray:
    # sigma_k (eta_{k+1} - eta_k), k = 1..n
    flux = sigma[..., 1:, None] * (eta[..., 1:, :] - eta[..., :-1, :])
    acc = np.zeros_like(eta)
    acc[..., :-1, :] = flux
    acc[..., 1:-1, :] -= flux[..., :-1, :]     # sigma_0 = 0 kills the k=1 lower term
    acc *= n * n
    return acc


def adaptive_dt(chain: ChainState, sigma, cfg: IntegratorConfig) -> float:
    """CFL step dt = clamp(cfl / (n sqrt(max sigma) + eps), dt_min, dt_max)."""
    return float(_clamp_dt(_raw_dt(chain.n, sigma, cfg), cfg))


def _raw_dt(n: int, sigma, cfg: IntegratorConfig):
    """The unclamped CFL step cfl / (n sqrt(max sigma) + eps), one per chain
    of a (..., n+1) tension array."""
    sig = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    top = np.maximum(sig.max(axis=-1), 0.0)
    return cfg.cfl / (n * np.sqrt(top) + 1e-12)


def _clamp_dt(dt, cfg: IntegratorConfig):
    return np.minimum(np.maximum(dt, cfg.dt_min), cfg.dt_max)


# ---------------------------------------------------------------------------
# projection


def _project_arrays(eta: np.ndarray, eta_dot: np.ndarray, n: int):
    """Renormalize link lengths, then orthogonalize velocity differences.

    Links are walked outward from the fixed end and positions/velocities are
    rebuilt as cumulative sums anchored at eta_{n+1} = 0, eta_dot_{n+1} = 0.
    """
    seg = eta[..., :-1, :] - eta[..., 1:, :]              # eta_k - eta_{k+1}, outward
    unit = seg / (n * _lengths(seg)[..., None])
    new_eta = np.zeros_like(eta)
    # eta_k = sum_{j>=k} unit_j
    new_eta[..., :-1, :] = np.cumsum(unit[..., ::-1, :], axis=-2)[..., ::-1, :]

    t = -n * unit                                         # D+ eta_k, exactly unit
    vdiff = _links(eta_dot)                               # D+ eta_dot_k
    vdiff = vdiff - _dot(vdiff, t)[..., None] * t
    new_dot = np.zeros_like(eta_dot)
    new_dot[..., :-1, :] = -np.cumsum((vdiff / n)[..., ::-1, :], axis=-2)[..., ::-1, :]
    return new_eta, new_dot


def project(chain: ChainState) -> ChainState:
    """Return the chain projected back onto the constraint manifold."""
    eta, eta_dot = _project_arrays(chain.eta, chain.eta_dot, chain.n)
    return ChainState(chain.n, chain.d, eta, eta_dot, chain.time)


# ---------------------------------------------------------------------------
# stepping


def _stage_rhs(eta: np.ndarray, eta_dot: np.ndarray, n: int):
    sigma = _solve_sigma_arrays(eta, eta_dot, n)
    return eta_dot, _acceleration_arrays(eta, sigma, n)


def _advance(eta, eta_dot, sigma, n, dt, scheme):
    """One explicit step of the free ODE (no projection); ``sigma`` is the
    tension of (eta, eta_dot), so the first stage solves nothing.  For a
    (B, n+1, d) batch ``dt`` has shape (B, 1, 1)."""
    k1x, k1v = eta_dot, _acceleration_arrays(eta, sigma, n)
    if scheme == "heun":
        k2x, k2v = _stage_rhs(eta + dt * k1x, eta_dot + dt * k1v, n)
        new_eta = eta + dt * (k1x + k2x) / 2.0
        new_dot = eta_dot + dt * (k1v + k2v) / 2.0
    else:
        half = 0.5 * dt
        k2x, k2v = _stage_rhs(eta + half * k1x, eta_dot + half * k1v, n)
        k3x, k3v = _stage_rhs(eta + half * k2x, eta_dot + half * k2v, n)
        k4x, k4v = _stage_rhs(eta + dt * k3x, eta_dot + dt * k3v, n)
        new_eta = eta + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        new_dot = eta_dot + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    return new_eta, new_dot


def _step_arrays(eta, eta_dot, sigma, n, t, dt, cfg: IntegratorConfig):
    """One full step of every chain in a (B, n+1, d) batch from states with
    tensions ``sigma``: advance, reject non-finite state, project.  ``t`` and
    ``dt`` hold each chain's time and step, shaped (B,) and (B, 1, 1).

    Returns the new (eta, eta_dot) and, per chain, the largest particle
    displacement the projection made (0.0 when cfg.project is off).
    """
    new_eta, new_dot = _advance(eta, eta_dot, sigma, n, dt, cfg.scheme)
    if not (np.isfinite(new_eta).all() and np.isfinite(new_dot).all()):
        finite = np.isfinite(new_eta).all(axis=(-2, -1)) & np.isfinite(new_dot).all(axis=(-2, -1))
        row = _first_failing(eta, eta_dot, n, dt, cfg.scheme, finite)
        raise NumericError(f"non-finite state after step at t={t[row]:.6g}", chain=row)
    if not cfg.project:
        return new_eta, new_dot, np.zeros(len(eta))
    peta, pdot = _project_arrays(new_eta, new_dot, n)
    return peta, pdot, _lengths(peta - new_eta).max(axis=-1)


def _first_failing(eta, eta_dot, n, dt, scheme, finite) -> int:
    """The first chain of a batch whose step fails when it is taken alone,
    from its own tension.

    A NaN spreads through the zero couplings of the stacked tension solve
    into the other chains' stages, so the non-finite rows of a batch step
    can include chains that are sound on their own.
    """
    rows = np.flatnonzero(~finite)
    for row in rows:
        part = slice(row, row + 1)
        try:
            sigma = _solve_sigma_arrays(eta[part], eta_dot[part], n)
            e, v = _advance(eta[part], eta_dot[part], sigma, n, dt[part], scheme)
        except NumericError:
            return int(row)
        if not (np.isfinite(e).all() and np.isfinite(v).all()):
            return int(row)
    return int(rows[0])


def step(chain: ChainState, cfg: IntegratorConfig, dt: float | None = None) -> ChainState:
    """Advance one step.  dt defaults to the adaptive CFL value; the result is
    projected when cfg.project is set.  Raises NumericError on NaN state."""
    eta, eta_dot = chain.eta[None], chain.eta_dot[None]
    sigma = _solve_sigma_arrays(eta, eta_dot, chain.n)
    if dt is None:
        dt = adaptive_dt(chain, sigma[0], cfg)
    eta, eta_dot, _ = _step_arrays(eta, eta_dot, sigma, chain.n, [chain.time], np.full((1, 1, 1), dt), cfg)
    return ChainState(chain.n, chain.d, eta[0], eta_dot[0], chain.time + dt)


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
    time: float

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
    n_steps: int
    projection_log: np.ndarray   # per-step max position displacement from projection

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        object.__setattr__(self, "projection_log", _frozen_array(self.projection_log))

    def series(self) -> dict:
        """Column arrays of the scalar time series: one stacked array, one row per snapshot."""
        table = np.array([_series_row(snap) for snap in self.snapshots]).reshape(-1, len(_SERIES_FIELDS))
        return dict(zip(_SERIES_FIELDS, table.T))


def snapshot_report(chain: ChainState, sol: TensionSolution) -> EnergyReport:
    """Assemble the full energy/diagnostic record for one state.

    One odd/even extension and one list of squared differences feed both
    energy weightings, u0/v0 (the l = 0 sums), the sigma_dot solve, the
    constraint drift (|D+ eta_k|^2, row l = 0) and the maxima (row l = 1,
    whose curvature at k = n reaches through the fixed end and is dropped).
    sqrt is monotone, so the root of the largest square is the largest length.
    """
    n = chain.n
    ext = odd_extend(chain, sol)
    m_max = 3 if n > 1 else 1   # one link has no second difference
    sq = _squared_differences(ext, n, m_max)
    (_, links_sq), (ang_sq, curv_sq) = sq[:2]
    sums = _energy_sums(sq, _s_weight(n))
    u0, v0 = sums[0] / n
    a, b, c = diagnostics_abc(chain, sol, _sigma_dot_extended(ext, n))
    pad = np.full(3 - m_max, np.nan)
    return EnergyReport(
        e=np.concatenate([_energies(sums, n), pad]),
        e_tilde=np.concatenate([_energies(_energy_sums(sq, _sigma_weight(ext.sigma_ext)), n), pad]),
        u0=float(u0), v0=float(v0), a=a, b=b, c=c, d=sigma_sobolev(sol, n),
        max_ang_vel=float(np.sqrt(ang_sq.max())), max_curvature=float(np.sqrt(curv_sq[: n - 1].max(initial=0.0))),
        constraint_drift=float(np.max(np.abs(np.sqrt(links_sq) - 1.0))), time=chain.time,
    )


def _make_snapshot(chain: ChainState, sigma: np.ndarray, alpha: np.ndarray, w: np.ndarray, row: int) -> Snapshot:
    """The snapshot of ``chain`` and its tension ``sigma``, held to the solve
    contract on the system (``alpha``, ``w``) it solved; a NumericError it
    raises names ``row``."""
    try:
        sol = _checked_solution(sigma, alpha, w)
        return Snapshot(chain, sol, snapshot_report(chain, sol))
    except NumericError as exc:
        exc.chain = row
        raise


_SERIES_FIELDS = (
    ["t"]
    + [f"e{m}" for m in range(4)]
    + [f"et{m}" for m in range(4)]
    + ["u0", "v0", "a", "b", "c", "d1", "d2", "d3",
       "min_sigma", "max_ang_vel", "max_curvature", "constraint_drift"]
)


def _maxima(eta: np.ndarray, eta_dot: np.ndarray, n: int):
    """max_k |D+ eta_dot_k| (angular velocity) and max_k |D+^2 eta_k|
    (curvature, 0 for a single link), one pair per chain of a
    (..., n+1, d) array, for the stop tests (a report holds its own)."""
    ang = _lengths(_links(eta_dot)).max(axis=-1)
    return ang, _lengths(_links(_links(eta), n)).max(axis=-1, initial=0.0)


def _series_row(snap: Snapshot) -> list:
    """The snapshot's values in the order of ``_SERIES_FIELDS``."""
    rep = snap.report
    return [rep.time, *rep.e, *rep.e_tilde, rep.u0, rep.v0, rep.a, rep.b, rep.c, *rep.d,
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
    chains, which the stop tests, dt, the step and the snapshots read: a
    chain is snapshotted there when its step count is a multiple of
    ``report_stride`` or it stops.  Each RK stage is one such solve too.
    Each chain has its own t, dt, step count and termination, and leaves the
    working arrays when it stops, so its trajectory is bitwise the one it
    gives alone.  A NumericError names the failing chain's index, also for
    an initial state off the constraint manifold (``ChainState.validate``).
    """
    if len({(c.n, c.d) for c in initials}) != 1:
        raise ValueError(f"a batch needs chains of one n and d, got {sorted({(c.n, c.d) for c in initials})}")
    n, d = initials[0].n, initials[0].d
    for i, c in enumerate(initials):
        try:
            c.validate()
        except ValueError as exc:
            raise NumericError(f"chain {i}: initial state {exc}", chain=i) from exc
    live = np.arange(len(initials))   # the chain in each working row
    eta = np.stack([c.eta for c in initials])
    eta_dot = np.stack([c.eta_dot for c in initials])
    t = np.array([c.time for c in initials], dtype=float)
    snapshots: list = [[] for _ in initials]
    logs: list = [[] for _ in initials]
    done: list = [None] * len(initials)
    steps = 0
    tiny = 1e-14 * max(cfg.t_end, 1.0)
    thr = cfg.blowup_threshold

    try:
        while live.size:
            sigma, alpha, w = _solve_sigma_arrays(eta, eta_dot, n, with_system=True)
            ang, curv = _maxima(eta, eta_dot, n)
            raw = _raw_dt(n, sigma, cfg)
            # one row per stop condition, in the order of TERMINATIONS, which is their precedence
            hits = np.array([
                t >= cfg.t_end - tiny,
                (sigma[:, 1:].min(axis=1) < 0.0) & cfg.halt_on_negative_tension,
                (ang > thr) | (curv > thr),
                raw < cfg.dt_min,
            ])
            going = ~hits.any(axis=0)
            ending = np.flatnonzero(~going)
            for row in range(live.size) if steps % cfg.report_stride == 0 else ending:
                state = ChainState(n, d, eta[row], eta_dot[row], t[row])
                snap = _make_snapshot(state, sigma[row], alpha[row], w[row], row)
                snapshots[live[row]].append(snap)
                if on_snapshot is not None:
                    on_snapshot(int(live[row]), snap)
            for row in ending:
                i = live[row]
                termination = TERMINATIONS[hits[:, row].argmax()]
                done[i] = Trajectory(snapshots[i], termination, len(logs[i]), np.array(logs[i]))
            if ending.size:
                live, eta, eta_dot, t, sigma, raw = (a[going] for a in (live, eta, eta_dot, t, sigma, raw))
                if not live.size:
                    break
            dt = np.minimum(_clamp_dt(raw, cfg), cfg.t_end - t)
            eta, eta_dot, moved = _step_arrays(eta, eta_dot, sigma, n, t, dt[:, None, None], cfg)
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
    series; T_est is shared between the two quantities."""

    T_est: float
    p_angular: float
    p_curvature: float
    residuals: tuple

    def __post_init__(self):
        if not np.isfinite(self.T_est):
            raise ValueError("T_est must be finite")


def _loglog_fit(x: np.ndarray, logy: np.ndarray):
    """Least squares logy = const + p * x; returns (p, const, sse)."""
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    resid = logy - A @ coef
    return coef[0], coef[1], float(resid @ resid)


def detect_blowup(series, min_points: int = 8, window_frac: float = 0.25) -> BlowupFit:
    """Fit log y = const - p log(T - t) jointly over (T, p) on the trailing
    window of a maxima series.

    ``series`` is an (N, 3) array-like of rows (t, max |D+ eta_dot|,
    max |D+^2 eta|).  The window is the trailing ``window_frac`` fraction of
    samples, at least ``min_points``.  Raises FitRejected when there are too
    few samples or the tail maxima are not strictly increasing.
    """
    from scipy.optimize import minimize_scalar   # here, not at import: only blowup_hunt fits

    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("series must be (N, 3): columns t, max|D+ eta_dot|, max|D+^2 eta|")
    N = arr.shape[0]
    if N < min_points:
        raise FitRejected(f"need at least {min_points} samples, got {N}")
    w = max(min_points, int(np.ceil(window_frac * N)))
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

    res = minimize_scalar(
        sse,
        bounds=(np.log(span * 1e-9), np.log(span * 1e4)),
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
    )
