"""Time integration of the chain ODE with constraint projection, per-step
diagnostics, and finite-time blowup detection.

The flow is eta_ddot = D-(sigma D+ eta) with the tension re-solved at every
stage.  The continuous problem fixes no integrator; classical RK4 with a
CFL step based on the tension wave speed sqrt(sigma) is used, and an
optional projection restores |D+ eta| = 1 and <D+ eta, D+ eta_dot> = 0 to
round-off after each full step.

There is one stepping loop, :func:`run_batch`.  It integrates chains of
one d and any n as one flat component-major (d, sum n) stack of links
t_k = D+ eta_k and one of their velocities (the layout of
:mod:`whipchain.core`), which is all the tension system reads; the pinned
end holds by construction (eta_k = -(1/n) sum_{j>=k} t_j, formed for
snapshots only), and the acceleration and the projection act link by link.
One ``core._Blocks`` per set of running chains describes the block edges
every kernel cuts and the per-chain reductions read.  Each RK stage solves
the chains' tension systems as one block-diagonal tridiagonal solve.  So
does each iteration's start, and the stop tests, dt, the first stage and
the snapshots all read that solve.  An iteration's snapshots are made in
one pass (:func:`_snapshot_pass`): the solve contract on the flat system,
then each diagnostic kernel once per run of one n over its (d, R, n+1)
stack, each row bitwise the report of its chain alone
(:func:`snapshot_report` is the stack of one).  The pass hands out
finished Snapshots, whose time is their state's; a Trajectory's
step count is the length of its projection log.  Every chain keeps its own
time, step, stride and termination, so each trajectory is bitwise the one
the chain gives alone; :func:`run` is the batch of one.  The public
:func:`acceleration`, :func:`project` and :func:`step` take and return
row-major positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from .core import (
    ChainState,
    _Blocks,
    _acceleration_arrays,
    _anchored,
    _chain_links,
    _energies,
    _energy_sums,
    _dot,
    _equal_blocks,
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
    _backward_error,
    _check_contract,
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
    return _anchored(_acceleration_arrays(_chain_links(chain)[0], _tension_array(sigma, n)[1:], _equal_blocks(n, 1))).T


def adaptive_dt(chain: ChainState, sigma, cfg: IntegratorConfig) -> float:
    """CFL step dt = clamp(cfl / (n sqrt(max sigma) + eps), dt_min, dt_max)."""
    n = chain.n
    return float(_clamp_dt(_chain_dt(_tension_array(sigma, n)[1:], _equal_blocks(n, 1), cfg), cfg)[0])


def _cfl_dt(n, top, cfg: IntegratorConfig):
    """cfl / (n sqrt(max(top, 0)) + eps) of each chain's largest tension ``top``
    and its n."""
    return cfg.cfl / (n * np.sqrt(np.maximum(top, 0.0)) + 1e-12)


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


def _stage_rhs(t: np.ndarray, t_dot: np.ndarray, blocks: _Blocks):
    return t_dot, _acceleration_arrays(t, _solve_sigma_arrays(t, t_dot, blocks)[0], blocks)


def _advance(t, t_dot, sigma, blocks: _Blocks, dt):
    """One RK4 step of the free ODE (no projection) on (d, K) links and
    link velocities laid out by ``blocks``; ``sigma`` is the interior
    tension of (t, t_dot), so the first stage solves nothing.  ``dt`` is a
    number or one step per link, shaped (K,)."""
    k1x, k1v = t_dot, _acceleration_arrays(t, sigma, blocks)
    half = 0.5 * dt
    k2x, k2v = _stage_rhs(t + half * k1x, t_dot + half * k1v, blocks)
    k3x, k3v = _stage_rhs(t + half * k2x, t_dot + half * k2v, blocks)
    k4x, k4v = _stage_rhs(t + dt * k3x, t_dot + dt * k3v, blocks)
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


def _step_arrays(t, t_dot, sigma, blocks: _Blocks, time, dt, cfg: IntegratorConfig):
    """One full step of every chain in a flat (d, K) stack of links and
    link velocities with interior tensions ``sigma`` (K,), laid out by
    ``blocks``: advance, reject non-finite state, project.  ``time``
    holds each chain's time, shaped (B,), and ``dt`` its step repeated over
    its links, shaped (K,), or the one number every chain steps by.

    Returns the new links and link velocities and, per chain, the largest
    particle displacement the projection made, summed from its link
    corrections (0.0 when cfg.project is off).  The displacements are the
    positions of the corrections (:func:`_anchored`) without the pinned
    row's zero and the sign, neither of which moves the largest |.|^2.

    Finiteness is screened by one sum per array, which a NaN or inf
    reaches; only when a sum is not finite (also when finite entries
    overflow it) does the elementwise check run and name the failing chain.
    """
    new_t, new_dot = _advance(t, t_dot, sigma, blocks, dt)
    if not (_finite_sum(new_t) and _finite_sum(new_dot)):
        finite = np.logical_and.reduceat((np.isfinite(new_t) & np.isfinite(new_dot)).all(axis=0), blocks.starts)
        if not finite.all():
            row = _first_failing(t, t_dot, blocks, dt, finite)
            raise NumericError(f"non-finite state after step at t={time[row]:.6g}", chain=row)
    if not cfg.project:
        return new_t, new_dot, np.zeros(len(time))
    unit, unit_dot = _project_arrays(new_t, new_dot)
    corr = (unit - new_t) / blocks.n
    moved = np.empty(len(time))
    for m, b0, b1, a, b in blocks.runs:
        moved[b0:b1] = _sq(np.cumsum(corr[:, a:b].reshape(len(corr), -1, m)[..., ::-1], axis=-1)).max(axis=-1)
    return unit, unit_dot, np.sqrt(moved)


def _finite_sum(x: np.ndarray) -> bool:
    """Whether the sum of every entry of x is finite: False whenever an entry
    is NaN or infinite, and also when finite entries overflow it."""
    return math.isfinite(np.add.reduce(x, axis=None))


def _first_failing(t, t_dot, blocks, dt, finite) -> int:
    """The first chain of a batch whose step fails when it is taken alone,
    from its own tension.

    A NaN spreads through the zero couplings of the stacked tension solve
    into the other chains' stages, so the non-finite rows of a batch step
    can include chains that are sound on their own.
    """
    rows = np.flatnonzero(~finite)
    for row in rows:
        part, alone = blocks.part(row), _equal_blocks(int(blocks.sizes[row]), 1)
        try:
            sigma = _solve_sigma_arrays(t[:, part], t_dot[:, part], alone)[0]
            x, v = _advance(t[:, part], t_dot[:, part], sigma, alone, np.broadcast_to(dt, t.shape[-1])[part])
        except NumericError:
            return int(row)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            return int(row)
    return int(rows[0])


def step(chain: ChainState, cfg: IntegratorConfig, dt: float | None = None) -> ChainState:
    """Advance one step.  dt defaults to the adaptive CFL value; the result is
    projected when cfg.project is set.  Raises NumericError on NaN state."""
    blocks = _equal_blocks(chain.n, 1)
    t, t_dot = _chain_links(chain)
    sigma = _solve_sigma_arrays(t, t_dot, blocks)[0]
    if dt is None:
        dt = float(_clamp_dt(_chain_dt(sigma, blocks, cfg), cfg)[0])
    t, t_dot, _ = _step_arrays(t, t_dot, sigma, blocks, [chain.time], dt, cfg)
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
class _Field:
    """One written field of a Snapshot.  ``name`` is its JSON-lines key and
    ``source`` the dotted path from the snapshot to its value, an array or a
    scalar, whose shape the value itself carries; ``kind`` the type JSON
    writes a scalar as; ``csv`` an array's CSV column names (a scalar's is
    its name)."""

    name: str
    source: str
    kind: type = float
    csv: tuple = ()

    @cached_property
    def value(self):   # snapshot -> the field's value, one getter per field
        return attrgetter(self.source)


#: every field the CSV or the JSON lines write, by name
_FIELDS = {f.name: f for f in (
    _Field("t", "state.time"),
    _Field("n", "state.n", kind=int),
    _Field("d", "state.d", kind=int),
    _Field("eta", "state.eta"),
    _Field("eta_dot", "state.eta_dot"),
    _Field("sigma", "tension.sigma"),
    _Field("min_sigma", "tension.min_sigma"),
    _Field("positivity", "tension.positivity", kind=bool),
    _Field("e", "report.e", csv=("e0", "e1", "e2", "e3")),
    _Field("e_tilde", "report.e_tilde", csv=("et0", "et1", "et2", "et3")),
    _Field("u0", "report.u0"),
    _Field("v0", "report.v0"),
    _Field("a", "report.a"),
    _Field("b", "report.b"),
    _Field("c", "report.c"),
    _Field("d_norms", "report.d", csv=("d1", "d2", "d3")),
    _Field("max_ang_vel", "report.max_ang_vel"),
    _Field("max_curvature", "report.max_curvature"),
    _Field("constraint_drift", "report.constraint_drift"),
)}
#: each format's fields in its order; the shared ones differ only in where min_sigma sits
_CSV_FIELDS = ("t", "e", "e_tilde", "u0", "v0", "a", "b", "c", "d_norms", "min_sigma",
               "max_ang_vel", "max_curvature", "constraint_drift")
_JSONL_FIELDS = ("t", "n", "d", "eta", "eta_dot", "sigma", "min_sigma", "positivity", "e", "e_tilde",
                 "u0", "v0", "a", "b", "c", "d_norms", "constraint_drift")


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
        """Column arrays of the scalar time series, the CSV's columns before
        its ratios: one entry per snapshot."""
        cols = {}
        for f in map(_FIELDS.get, _CSV_FIELDS):
            block = np.array([f.value(snap) for snap in self.snapshots], dtype=float)
            cols.update(zip(f.csv or (f.name,), block.reshape(len(self.snapshots), -1).T))
        return cols


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
    bitwise the report of chain i alone; a NumericError from the sigma_dot
    solve names the first row whose system fails.
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


def _snapshot_pass(pos: list, blocks: _Blocks, sigma: np.ndarray, alpha: np.ndarray, w: np.ndarray,
                   time: np.ndarray, rows: np.ndarray) -> list:
    """The Snapshot of each working row in ``rows`` (ascending), at its
    ``time``, from the flat stacked system (``sigma``, ``alpha``, ``w``) laid
    out by ``blocks``, and from ``pos``, the positions and velocities per run
    of one n.  First :func:`~whipchain.tension._check_contract` holds every
    row's backward error on the flat system to the solve contract, and
    raises for the first row that breaks it, a NaN included, naming its
    working row; then the reports run per run of one n, and a NumericError
    from one names its working row."""
    err = np.zeros(len(time))
    err[rows] = _backward_error(alpha, sigma, w, blocks)[rows]
    _check_contract(err)   # names its working row
    made = []
    for (n, b0, b1, a, b), (eta, eta_dot) in zip(blocks.runs, pos):
        mine = rows[(rows >= b0) & (rows < b1)] - b0   # the run's rows, counted from its first
        if not mine.size:
            continue
        full = np.zeros((mine.size, n + 1))
        full[:, 1:] = sigma[a:b].reshape(-1, n)[mine]
        try:
            reports = _report_stack(eta[:, mine], eta_dot[:, mine], full)
        except NumericError as exc:   # name the working row
            exc.chain = int(b0 + mine[exc.chain])
            raise
        made += [Snapshot(ChainState(eta[:, i].T, eta_dot[:, i].T, time[b0 + i]), TensionSolution(s), rep)
                 for i, s, rep in zip(mine, full, reports)]
    return made


def run(initial: ChainState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from ``initial`` until t_end or a termination condition.

    Snapshots (state, tension, full report) are taken at t = 0, every
    ``report_stride`` steps, and at termination.
    """
    return run_batch([initial], cfg)[0]


def _stops(t, sigma_min, top_sq, raw, cfg: IntegratorConfig, tiny: float) -> tuple:
    """The stop tests in the order of TERMINATIONS, which is their precedence,
    on each chain's values or on whole-stack extremes; ``top_sq`` is the
    larger of max w and the squared curvature (max w alone where
    :func:`_curvature_capped` holds).  The halt reads ``sigma_min`` of the
    step-start solve, never an RK stage's: a stage tension can go negative
    one step earlier, and the halting snapshot then reads min_sigma < 0."""
    return (t >= cfg.t_end - tiny, (sigma_min < 0.0) & cfg.halt_on_negative_tension,
            np.sqrt(top_sq) > cfg.blowup_threshold, raw < cfg.dt_min)


#: With projection on, every link at a step's start is unit to within this:
#: an initial link to ChainState.validate's 1e-10; a projected one, t/|t|, to
#: a few ulp; one summed back to positions at a stride and differenced again
#: to n sqrt(d) eps (each cumulative sum of at most unit size rounds by eps,
#: and the difference scales that by n), under 1e-6 for any n d below 10^9.
_LINK_SLACK = 1e-6


def _curvature_capped(n: int, cfg: IntegratorConfig) -> bool:
    """Whether the curvature of chains of at most n links cannot pass
    blowup_threshold: with projection on, |D+^2 eta_k| = n |t_{k+1} - t_k|
    <= 2 n (1 + _LINK_SLACK), the rounding of the curvature included."""
    return cfg.project and 2.0 * n * (1.0 + _LINK_SLACK) <= cfg.blowup_threshold


def _shares_dt_max(low: float, t_top: float, cfg: IntegratorConfig) -> bool:
    """Whether every chain of a stack steps by dt_max, from the least CFL
    step ``low`` any chain can have and the latest chain time ``t_top``:
    every clamped CFL step is then dt_max, and t_end cuts none of them
    (t_end - t rounds down as t grows).  False for a NaN ``low``."""
    return low >= cfg.dt_max and cfg.t_end - t_top >= cfg.dt_max


def _chain_dt(sigma: np.ndarray, blocks: _Blocks, cfg: IntegratorConfig) -> np.ndarray:
    """Each chain's unclamped CFL step, from the largest of its interior
    tensions in a flat stack (NaN when one is)."""
    return _cfl_dt(blocks.sizes, np.maximum.reduceat(sigma, blocks.starts), cfg)


def run_batch(initials, cfg: IntegratorConfig, on_snapshot=None) -> list[Trajectory]:
    """Integrate every chain of ``initials`` (all of one d, of any n) as one
    batch; returns one Trajectory per chain, in order.  ``on_snapshot(i,
    snap)``, when given, is called with each snapshot of chain ``i`` as it is
    made: iteration by iteration, and within one by chain index.

    The chains are stacked in the order given, as one flat (d, sum n) stack
    of blocks whose edges one :class:`~whipchain.core._Blocks` describes per
    set of running chains; consecutive chains of one n form one run of the
    per-n kernels.  Each iteration starts with one stacked tension
    solve of the running chains' links, which the stop tests, dt, the step
    and the snapshots read: a chain is snapshotted there when its step
    count is a multiple of ``report_stride`` or it stops.  The iteration's
    snapshots are made in one pass before the first is handed out, so a
    NumericError in the pass hands out none of them.  Each RK stage
    is one such solve too.  On a stride the chains go on from the links of
    the snapshots' positions, so a snapshot is a bitwise restart point
    (:func:`step` of it gives the next one) and the t = 0 snapshot holds the
    initial arrays.  Each chain has its own t, dt, step count and
    termination, and leaves the working arrays when it stops, so its
    trajectory is bitwise the one it gives alone.  A NumericError names the
    failing chain's index, also for an initial state off the constraint
    manifold (``ChainState.validate``); its ``__cause__`` is the same
    failure without the ``chain <i>: `` label.

    The per-step bookkeeping is decided from whole-stack bounds; the
    per-chain code runs only where a bound cannot decide, so every
    trajectory is bitwise what it gives.  The stop tests read whole-stack
    extremes, and form per-chain rows only when an extreme could stop a
    chain.  The curvature is formed only when projection is off or its
    ceiling passes ``blowup_threshold`` (:func:`_curvature_capped`).  Every
    chain steps by the one number dt_max unless some chain may be
    CFL-bound or within dt_max of t_end (:func:`_shares_dt_max`); then each
    gets its own step.  Finiteness is screened by sums
    (:func:`_step_arrays`).  Each step's projection displacements are one
    array, split into the chains' logs when a chain stops.
    """
    if len({c.d for c in initials}) != 1:
        raise ValueError(f"a batch needs chains of one d, got {sorted({c.d for c in initials})}")
    d = initials[0].d
    live = np.arange(len(initials))   # the chain in each working row
    try:
        for i, c in enumerate(initials):
            try:
                c.validate()
            except ValueError as exc:
                raise NumericError(f"initial state {exc}", chain=i) from exc
        blocks = _Blocks([c.n for c in initials])
        pos = [(np.stack([c.eta.T for c in initials[b0:b1]], axis=1),   # per run of one n: (d, B_n, n+1)
                np.stack([c.eta_dot.T for c in initials[b0:b1]], axis=1)) for _, b0, b1, _, _ in blocks.runs]
        t = np.array([c.time for c in initials], dtype=float)
        snapshots: list = [[] for _ in initials]
        logs: list = [[np.empty(0)] for _ in initials]   # per chain, its projection log in pieces
        moved: list = []   # each step's projection displacements since the running chains last changed
        done: list = [None] * len(initials)
        steps = 0
        tiny = 1e-14 * max(cfg.t_end, 1.0)
        while live.size:
            every = steps % cfg.report_stride == 0
            if every:
                if steps:
                    pos = _positions(links, links_dot, blocks)
                # a snapshot is a restart point: step on from its positions' links
                links, links_dot = (np.concatenate([_links(p[k]).reshape(d, -1) for p in pos], axis=1)
                                    for k in (0, 1))
            sigma, alpha, w = _solve_sigma_arrays(links, links_dot, blocks)
            starts, n_top = blocks.starts, blocks.n_top
            capped = _curvature_capped(n_top, cfg)
            # no chain's CFL step is below `low`, the step of the stack's largest n and tension:
            # each rounding in _cfl_dt is monotone.  A NaN tension makes it NaN, which leaves
            # the dt screen and the stop screen's dt test undecided
            t_top, low = float(t.max()), float(_cfl_dt(n_top, sigma.max(), cfg))
            peak_sq = np.fmax.reduce(w)
            if not capped:   # else the curvature cannot stop a chain, and the blowup test reads w alone
                bend = np.zeros(sigma.size)   # |D+^2 eta|^2 at each link; none at a block's fixed end
                bend[:-1] = _sq(_links(links, blocks.joint_n))
                bend[blocks.fixed] = 0.0
                curv_sq = np.maximum.reduceat(bend, starts)
                peak_sq = np.fmax.reduce(curv_sq, initial=peak_sq)
            # the stop tests on whole-stack extremes (NaN-ignoring; as Python floats, which
            # compare faster) rule out a stop on most steps: any chain's stop stops the extremes
            extremes = (t_top, float(np.fmin.reduce(sigma)), float(peak_sq), low if low == low else -np.inf)
            if not any(_stops(*extremes, cfg, tiny)):
                ending = _NO_ROWS
            else:
                # one row per stop test, per chain; fmax: a NaN w hides no curvature, nor the reverse
                top_sq = np.maximum.reduceat(w, starts)
                if not capped:
                    top_sq = np.fmax(top_sq, curv_sq)
                hits = np.array(_stops(t, np.minimum.reduceat(sigma, starts), top_sq, _chain_dt(sigma, blocks, cfg),
                                       cfg, tiny))
                going = ~hits.any(axis=0)
                ending = np.flatnonzero(~going)
            if ending.size and not every:
                pos = _positions(links, links_dot, blocks)
            shot = np.arange(live.size) if every else ending
            made = _snapshot_pass(pos, blocks, sigma, alpha, w, t, shot) if shot.size else ()
            for row, snap in zip(shot.tolist(), made):
                snapshots[live[row]].append(snap)
                if on_snapshot is not None:
                    on_snapshot(int(live[row]), snap)
            if ending.size:
                for i, piece in zip(live, np.array(moved).reshape(-1, live.size).T):
                    logs[i].append(piece)
                moved = []
                for row in ending:
                    i = live[row]
                    termination = TERMINATIONS[hits[:, row].argmax()]
                    done[i] = Trajectory(snapshots[i], termination, np.concatenate(logs[i]))
                live, t = live[going], t[going]
                if not live.size:
                    break
                kept = np.repeat(going, blocks.sizes)
                links, links_dot, sigma = links[:, kept], links_dot[:, kept], sigma[kept]
                blocks = _Blocks(blocks.sizes[going].tolist())
            if _shares_dt_max(low, t_top, cfg):
                dt = step_dt = cfg.dt_max
            else:
                dt = np.minimum(_clamp_dt(_chain_dt(sigma, blocks, cfg), cfg), cfg.t_end - t)
                # a step every chain shares is a number, else one per link
                step_dt = dt[0] if (dt == dt[0]).all() else np.repeat(dt, blocks.sizes)
            links, links_dot, shifts = _step_arrays(links, links_dot, sigma, blocks, t, step_dt, cfg)
            moved.append(shifts)
            t = t + dt
            steps += 1
    except NumericError as exc:   # every failure inside names its working row
        i = int(live[exc.chain])
        raise NumericError(f"chain {i}: {exc}", chain=i) from exc
    return done


def _positions(links: np.ndarray, links_dot: np.ndarray, blocks: _Blocks) -> list:
    """The positions and velocities of the chains of a flat (d, K) stack,
    per run of one n: (d, B_n, n+1) arrays summed back from the links."""
    d = len(links)
    return [(_anchored(links[:, a:b].reshape(d, -1, n)), _anchored(links_dot[:, a:b].reshape(d, -1, n)))
            for n, _, _, a, b in blocks.runs]


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
