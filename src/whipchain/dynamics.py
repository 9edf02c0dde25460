"""Time integration of the chain ODE with constraint projection, per-step
diagnostics, and finite-time blowup detection.

The flow is eta_ddot = D-(sigma D+ eta) with the tension re-solved at every
stage.  The continuous problem fixes no integrator; classical RK4 (or Heun)
with a CFL step based on the tension wave speed sqrt(sigma) is used, and an
optional projection restores |D+ eta| = 1 and <D+ eta, D+ eta_dot> = 0 to
round-off after each full step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    ChainState,
    _energies,
    _energy_sums,
    _frozen_array,
    _s_weight,
    _sigma_weight,
    _squared_differences,
    odd_extend,
)
from .errors import FitRejected, NumericError
from .tension import (
    TensionSolution,
    _sigma_dot_extended,
    _solve_sigma_arrays,
    diagnostics_abc,
    sigma_sobolev,
    solve_tension,
)

TERMINATIONS = ("t_end_reached", "negative_tension", "blowup_suspected", "dt_underflow")


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper settings.  cfl in (0, 1]; dt clamped to [dt_min, dt_max]."""

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
        if self.scheme not in ("rk4", "heun"):
            raise ValueError(f"unknown scheme {self.scheme!r}; use 'rk4' or 'heun'")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min={self.dt_min} exceeds dt_max={self.dt_max}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
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
    seg = eta[1:] - eta[:-1]                   # eta_{k+1} - eta_k, k = 1..n
    flux = sigma[1:, None] * seg               # sigma_k (eta_{k+1} - eta_k)
    acc = np.zeros_like(eta)
    acc[0] = n * n * flux[0]                   # sigma_0 = 0 kills the k=1 lower term
    acc[1:-1] = n * n * (flux[1:] - flux[:-1])
    return acc


def adaptive_dt(chain: ChainState, sigma, cfg: IntegratorConfig) -> float:
    """CFL step dt = clamp(cfl / (n sqrt(max sigma) + eps), dt_min, dt_max)."""
    return _clamp_dt(_raw_dt(chain.n, sigma, cfg), cfg)


def _raw_dt(n: int, sigma, cfg: IntegratorConfig) -> float:
    """The unclamped CFL step cfl / (n sqrt(max sigma) + eps)."""
    sig = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    top = max(float(np.max(sig)), 0.0)
    return cfg.cfl / (n * np.sqrt(top) + 1e-12)


def _clamp_dt(dt: float, cfg: IntegratorConfig) -> float:
    return min(max(dt, cfg.dt_min), cfg.dt_max)


# ---------------------------------------------------------------------------
# projection


def _project_arrays(eta: np.ndarray, eta_dot: np.ndarray, n: int):
    """Renormalize link lengths, then orthogonalize velocity differences.

    Links are walked outward from the fixed end and positions/velocities are
    rebuilt as cumulative sums anchored at eta_{n+1} = 0, eta_dot_{n+1} = 0.
    """
    seg = eta[:-1] - eta[1:]                              # eta_k - eta_{k+1}, outward
    unit = seg / (n * np.linalg.norm(seg, axis=1)[:, None])
    new_eta = np.zeros_like(eta)
    new_eta[:-1] = np.cumsum(unit[::-1], axis=0)[::-1]    # eta_k = sum_{j>=k} unit_j

    t = -n * unit                                         # D+ eta_k, exactly unit
    vdiff = n * (eta_dot[1:] - eta_dot[:-1])              # D+ eta_dot_k
    vdiff = vdiff - np.einsum("kd,kd->k", vdiff, t)[:, None] * t
    new_dot = np.zeros_like(eta_dot)
    new_dot[:-1] = -np.cumsum((vdiff / n)[::-1], axis=0)[::-1]
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
    tension of (eta, eta_dot), so the first stage solves nothing."""
    k1x, k1v = eta_dot, _acceleration_arrays(eta, sigma, n)
    if scheme == "heun":
        k2x, k2v = _stage_rhs(eta + dt * k1x, eta_dot + dt * k1v, n)
        new_eta = eta + dt * (k1x + k2x) / 2.0
        new_dot = eta_dot + dt * (k1v + k2v) / 2.0
    else:
        k2x, k2v = _stage_rhs(eta + 0.5 * dt * k1x, eta_dot + 0.5 * dt * k1v, n)
        k3x, k3v = _stage_rhs(eta + 0.5 * dt * k2x, eta_dot + 0.5 * dt * k2v, n)
        k4x, k4v = _stage_rhs(eta + dt * k3x, eta_dot + dt * k3v, n)
        new_eta = eta + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        new_dot = eta_dot + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    return new_eta, new_dot


def _step_arrays(eta, eta_dot, sigma, n, t, dt, cfg: IntegratorConfig):
    """One full step on raw arrays from a state with tension ``sigma``:
    advance, reject non-finite state, project.

    Returns the new (eta, eta_dot) and the largest particle displacement the
    projection made (0.0 when cfg.project is off).
    """
    eta, eta_dot = _advance(eta, eta_dot, sigma, n, dt, cfg.scheme)
    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(eta_dot))):
        raise NumericError(f"non-finite state after step at t={t:.6g}")
    if not cfg.project:
        return eta, eta_dot, 0.0
    peta, pdot = _project_arrays(eta, eta_dot, n)
    return peta, pdot, float(np.max(np.linalg.norm(peta - eta, axis=1)))


def step(chain: ChainState, cfg: IntegratorConfig, dt: float | None = None) -> ChainState:
    """Advance one step.  dt defaults to the adaptive CFL value; the result is
    projected when cfg.project is set.  Raises NumericError on NaN state."""
    sigma = _solve_sigma_arrays(chain.eta, chain.eta_dot, chain.n)
    if dt is None:
        dt = adaptive_dt(chain, sigma, cfg)
    eta, eta_dot, _ = _step_arrays(chain.eta, chain.eta_dot, sigma, chain.n, chain.time, dt, cfg)
    return ChainState(chain.n, chain.d, eta, eta_dot, chain.time + dt)


# ---------------------------------------------------------------------------
# full trajectory with reports


@dataclass(frozen=True)
class EnergyReport:
    """Full diagnostic record at one time instant.

    e[m] and e_tilde[m] are the s- and sigma-weighted energies for m = 0..3;
    d[m-1] is the tension Sobolev norm d_m for m = 1..3 (NaN where n is too
    small for the required differences); b is inf when some tension is
    nonpositive.
    """

    e: np.ndarray
    e_tilde: np.ndarray
    u0: float
    v0: float
    a: float
    b: float
    c: float
    d: np.ndarray
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
        """Column arrays of the scalar time series (one entry per snapshot)."""
        cols: dict[str, list] = {k: [] for k in _SERIES_FIELDS}
        for snap in self.snapshots:
            row = _series_row(snap)
            for k in _SERIES_FIELDS:
                cols[k].append(row[k])
        return {k: np.array(v) for k, v in cols.items()}


def snapshot_report(chain: ChainState, sol: TensionSolution) -> EnergyReport:
    """Assemble the full energy/diagnostic record for one state.

    One odd/even extension and one list of squared differences feed both
    energy weightings, u0/v0 (the l = 0 sums) and the sigma_dot solve.
    """
    n = chain.n
    ext = odd_extend(chain, sol)
    sq = _squared_differences(ext, n, 3)
    sums = _energy_sums(sq, _s_weight(n))
    u0, v0 = sums[0] / n
    a, b, c = diagnostics_abc(chain, sol, _sigma_dot_extended(ext, n))
    return EnergyReport(
        e=_energies(sums, n), e_tilde=_energies(_energy_sums(sq, _sigma_weight(ext.sigma_ext)), n),
        u0=float(u0), v0=float(v0), a=a, b=b, c=c, d=sigma_sobolev(sol, n),
        constraint_drift=chain.constraint_drift(), time=chain.time,
    )


def _make_snapshot(chain: ChainState) -> Snapshot:
    sol = solve_tension(chain)
    return Snapshot(chain, sol, snapshot_report(chain, sol))


_SERIES_FIELDS = (
    ["t"]
    + [f"e{m}" for m in range(4)]
    + [f"et{m}" for m in range(4)]
    + ["u0", "v0", "a", "b", "c", "d1", "d2", "d3",
       "min_sigma", "max_ang_vel", "max_curvature", "constraint_drift"]
)


def _maxima(eta: np.ndarray, eta_dot: np.ndarray, n: int) -> tuple[float, float]:
    """max_k |D+ eta_dot_k| (angular velocity) and max_k |D+^2 eta_k|
    (curvature, 0 for a single link)."""
    ang = float(np.max(np.linalg.norm(n * (eta_dot[1:] - eta_dot[:-1]), axis=1)))
    if n < 2:
        return ang, 0.0
    curv_vecs = np.diff(n * (eta[1:] - eta[:-1]), axis=0) * n
    return ang, float(np.max(np.linalg.norm(curv_vecs, axis=1)))


def _series_row(snap: Snapshot) -> dict:
    st, sol, rep = snap.state, snap.tension, snap.report
    ang, curv = _maxima(st.eta, st.eta_dot, st.n)
    row = {"t": st.time, "u0": rep.u0, "v0": rep.v0, "a": rep.a, "b": rep.b, "c": rep.c,
           "min_sigma": sol.min_sigma, "max_ang_vel": ang, "max_curvature": curv,
           "constraint_drift": rep.constraint_drift}
    for m in range(4):
        row[f"e{m}"] = rep.e[m]
        row[f"et{m}"] = rep.e_tilde[m]
    for m in (1, 2, 3):
        row[f"d{m}"] = rep.d[m - 1]
    return row


def run(initial: ChainState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from ``initial`` until t_end or a termination condition.

    Snapshots (state, tension, full report) are taken at t = 0, every
    ``report_stride`` steps, and at termination.
    """
    initial.validate()
    n, d = initial.n, initial.d
    eta, eta_dot, t = initial.eta, initial.eta_dot, initial.time
    snapshots = [_make_snapshot(initial)]
    snapped = True   # the current state is snapshots[-1]'s, tension included
    proj_log: list[float] = []
    termination = "t_end_reached"
    tiny = 1e-14 * max(cfg.t_end, 1.0)

    while t < cfg.t_end - tiny:
        sigma = snapshots[-1].tension.sigma if snapped else _solve_sigma_arrays(eta, eta_dot, n)
        if cfg.halt_on_negative_tension and float(np.min(sigma[1:])) < 0.0:
            termination = "negative_tension"
            break
        if max(_maxima(eta, eta_dot, n)) > cfg.blowup_threshold:
            termination = "blowup_suspected"
            break
        raw = _raw_dt(n, sigma, cfg)
        if raw < cfg.dt_min:
            termination = "dt_underflow"
            break
        dt = min(_clamp_dt(raw, cfg), cfg.t_end - t)

        eta, eta_dot, moved = _step_arrays(eta, eta_dot, sigma, n, t, dt, cfg)
        proj_log.append(moved)
        t = t + dt
        snapped = len(proj_log) % cfg.report_stride == 0
        if snapped:
            snapshots.append(_make_snapshot(ChainState(n, d, eta, eta_dot, t)))

    if not snapped:
        snapshots.append(_make_snapshot(ChainState(n, d, eta, eta_dot, t)))
    return Trajectory(snapshots, termination, len(proj_log), np.array(proj_log))


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
