"""Tension solve for the constrained chain: the tridiagonal system, its
explicit discrete Green function, bound certificates, and the a/b/c and d_m
diagnostics.

The constraint system is A sigma = w with w_k = |D+ eta_dot_k|^2 and A the
symmetric tridiagonal matrix

    row k (1 <= k < n):  n^2 [ -alpha_{k-1} sigma_{k-1} + 2 sigma_k - alpha_k sigma_{k+1} ]
    row n:               n^2 [ -alpha_{n-1} sigma_{n-1} + sigma_n ]

where alpha_i = <D+ eta_{i+1}, D+ eta_i>.  Dividing the raw second-difference
form by n^2 gives the 2 / -alpha stencil above; the n^2 reappears as an
overall scale so that w keeps the |D+ eta_dot|^2 normalization and the Green
function satisfies sigma_k = (1/n) sum_j G_kj w_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .core import (
    ChainState,
    ExtendedChain,
    _frozen_array,
    _sq,
    forward_diff,
    forward_diff_m,
    odd_extend,
    weighted_seminorm_sq,
)
from .errors import NumericError

#: residual contract for the tridiagonal solve, relative to |w|
SOLVE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# alpha / beta


@dataclass(frozen=True)
class AlphaBeta:
    """Link-angle cosines alpha_1..alpha_{n-1} and the elimination recursion
    beta_n = 1, beta_i = 2 - alpha_i^2/beta_{i+1} (so 1 <= beta_i <= 2).

    alpha[i-1] = alpha_i and beta[i-1] = beta_i.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha))
        object.__setattr__(self, "beta", _frozen_array(self.beta))
        if self.beta.shape[0] != self.alpha.shape[0] + 1:
            raise ValueError("beta must be one longer than alpha")

    @property
    def n(self) -> int:
        return self.beta.shape[0]


def beta_recursion(alpha: np.ndarray) -> np.ndarray:
    """beta_n = 1, beta_i = 2 - alpha_i^2 / beta_{i+1}; well-defined for |alpha| <= 1."""
    n = alpha.shape[0] + 1
    beta = np.ones(n)
    for i in range(n - 2, -1, -1):
        beta[i] = 2.0 - alpha[i] ** 2 / beta[i + 1]
    return beta


def alpha_beta_from_alpha(alpha) -> AlphaBeta:
    """Assemble an AlphaBeta from given cosines (e.g. the exact straight chain)."""
    alpha = np.asarray(alpha, dtype=float)
    return AlphaBeta(alpha, beta_recursion(alpha))


def compute_alpha_beta(chain: ChainState) -> AlphaBeta:
    """alpha_i = <D+ eta_{i+1}, D+ eta_i> for i = 1..n-1, plus the beta recursion."""
    alpha, _ = _alpha_w(chain.eta, chain.eta_dot, chain.n)
    return AlphaBeta(alpha, beta_recursion(alpha))


def _alpha_w(eta: np.ndarray, eta_dot: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tension system's data on raw arrays: the cosines alpha_1..alpha_{n-1}
    and the source w_k = |D+ eta_dot_k|^2 for k = 1..n."""
    t = n * (eta[1:] - eta[:-1])
    td = n * (eta_dot[1:] - eta_dot[:-1])
    return np.einsum("kd,kd->k", t[1:], t[:-1]), np.sum(td * td, axis=-1)


# ---------------------------------------------------------------------------
# the discrete Green function


@dataclass(frozen=True)
class GreenMatrix:
    """Explicit inverse of the tension operator: G[k-1, j-1] = G_kj.

    Always symmetric with |G_kj| <= min(j,k)/n.  When every alpha_i > 0 all
    entries are positive and the sharp upper bounds hold; ``alpha_beta`` is
    the data G was built from.
    """

    G: np.ndarray
    alpha_beta: AlphaBeta

    def __post_init__(self):
        object.__setattr__(self, "G", _frozen_array(self.G))

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def all_alpha_positive(self) -> bool:
        return bool(np.all(self.alpha_beta.alpha > 0))


def green_matrix(ab: AlphaBeta) -> GreenMatrix:
    """Build G_kj = (1/n) sum_{i=1}^{min(j,k)} p_ij p_ik / beta_i with
    p_ij = prod_{m=i}^{j-1} alpha_m / beta_{m+1} (empty product = 1).

    Writing M[i, j] = p_ij / sqrt(beta_i) on the upper triangle gives
    G = M^T M / n, manifestly symmetric.
    """
    n = ab.n
    c = ab.alpha / ab.beta[1:]
    M = np.zeros((n, n))
    for i in range(n):
        row = np.empty(n - i)
        row[0] = 1.0
        np.cumprod(c[i:], out=row[1:])
        M[i, i:] = row
    M /= np.sqrt(ab.beta)[:, None]
    G = (M.T @ M) / n
    return GreenMatrix(G, ab)


def upsilon_threehalves(chain: ChainState) -> float:
    """Smallest upsilon with (k/n)^{3/2} |D+^2 eta_k|^2 <= upsilon, k = 1..n-1."""
    if chain.n < 2:
        return 0.0
    # second differences at k = 1..n-1 need eta up to k+2 <= n+1: no extension
    curv = forward_diff_m(chain.eta, chain.n, 2)[: chain.n - 1]
    ks = np.arange(1, chain.n)
    return float(np.max((ks / chain.n) ** 1.5 * _sq(curv)))


def green_matrix_for_chain(chain: ChainState) -> GreenMatrix:
    """Green matrix of a chain."""
    return green_matrix(compute_alpha_beta(chain))


# ---------------------------------------------------------------------------
# tension solves


@dataclass(frozen=True)
class TensionSolution:
    """Lagrange multipliers sigma_0..sigma_n (sigma[k] = sigma_k, sigma_0 = 0)."""

    sigma: np.ndarray
    min_sigma: float
    positivity: bool

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frozen_array(self.sigma))

    @property
    def n(self) -> int:
        return self.sigma.shape[0] - 1


def _solve_tridiagonal(alpha: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Solve A sigma = w for the interior tensions sigma_1..sigma_n.

    A is symmetric positive definite whenever |alpha| <= 1 (diagonally
    dominant with pivots n^2 beta_i >= n^2), so LAPACK's tridiagonal LDL^T
    solve ``dptsv`` applies; losing definiteness means the state left the
    constraint manifold badly and is reported as a numeric failure.  The
    n^2 scale multiplies the entries as ``x * n * n``: ``x * (n * n)`` rounds
    differently when n is not a power of two.
    """
    diag = np.full(n, 2.0)
    diag[-1] = 1.0
    _, _, sigma, info = dptsv(diag * n * n, -alpha * n * n, w)
    if info > 0:
        raise NumericError(
            f"tension system not positive definite (max |alpha| = {np.max(np.abs(alpha)):.3f}); "
            "the state has left the constraint manifold"
        )
    return sigma


def _solve_sigma_arrays(eta: np.ndarray, eta_dot: np.ndarray, n: int) -> np.ndarray:
    """Direct tension solve on raw arrays; returns sigma_0..sigma_n.

    Internal fast path for integrator stages (skips state construction).
    """
    alpha, w = _alpha_w(eta, eta_dot, n)
    sigma = np.empty(n + 1)
    sigma[0] = 0.0
    sigma[1:] = _solve_tridiagonal(alpha, w, n)
    return sigma


def solve_tension(chain: ChainState, method: str = "direct") -> TensionSolution:
    """Solve the tridiagonal constraint system A sigma = w.

    ``direct`` runs the O(n) LAPACK tridiagonal solve; ``green`` assembles
    the explicit Green function and applies sigma_k = (1/n) sum_j G_kj w_j.
    Both satisfy the residual contract |A sigma - w| <= 1e-10 |w| and agree
    with each other to the same relative tolerance.
    """
    n = chain.n
    alpha, w = _alpha_w(chain.eta, chain.eta_dot, n)
    if method == "direct":
        interior = _solve_tridiagonal(alpha, w, n)
    elif method == "green":
        interior = green_matrix_for_chain(chain).G @ w / n
    else:
        raise ValueError(f"unknown tension method {method!r}; use 'direct' or 'green'")

    resid = _tridiagonal_residual(alpha, interior, w, n)
    wnorm = float(np.linalg.norm(w))
    if not np.isfinite(resid) or resid > SOLVE_RTOL * max(wnorm, 1e-300):
        raise NumericError(
            f"tension solve residual {resid:.3e} exceeds {SOLVE_RTOL:.0e} * |w| = {SOLVE_RTOL * wnorm:.3e}"
        )

    sigma = np.concatenate([[0.0], interior])
    min_sigma = float(np.min(interior))
    return TensionSolution(sigma, min_sigma, min_sigma > 0.0)


def _tridiagonal_residual(alpha: np.ndarray, sigma_int: np.ndarray, w: np.ndarray, n: int) -> float:
    padded = np.concatenate([[0.0], sigma_int, [0.0]])
    diag = np.full(n, 2.0)
    diag[-1] = 1.0
    a_ext = np.concatenate([[0.0], alpha, [0.0]])
    r = n * n * (diag * sigma_int - a_ext[:-1] * padded[:-2] - a_ext[1:] * padded[2:])
    # row n has no superdiagonal: the trailing zero in a_ext kills it
    return float(np.max(np.abs(r - w)))


def _flux_second_difference(sig: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """D-D+ (sigma f)_k for k = 1..n from sigma_0..sigma_{n+1} and f_1..f_{n+1},
    with (sigma f)_0 = 0."""
    flux = np.concatenate([np.zeros((1, f.shape[1])), sig[1:, None] * f])  # j = 0..n+1
    return n * n * (flux[2:] - 2.0 * flux[1:-1] + flux[:-2])


def tension_residual(chain: ChainState, sigma) -> float:
    """max_k | <D+ eta_k, D-D+ (sigma D+ eta)_k> + |D+ eta_dot_k|^2 |.

    The constraint equation in flux form, evaluated with the odd/even
    extensions; an independent restatement of the tridiagonal residual.
    """
    n = chain.n
    ext = odd_extend(chain, sigma)
    t_ext = forward_diff(ext.eta_ext[: n + 2], n)  # D+ eta_j for j = 1..n+1
    second = _flux_second_difference(ext.sigma_ext[: n + 2], t_ext, n)
    lhs = np.einsum("kd,kd->k", t_ext[:-1], second)
    return float(np.max(np.abs(lhs + _alpha_w(chain.eta, chain.eta_dot, n)[1])))


# ---------------------------------------------------------------------------
# sigma_dot


def solve_sigma_dot(chain: ChainState, sigma) -> np.ndarray:
    """Time derivative of the tension: solves the same tridiagonal operator
    with right-hand side
    3 <D+ eta_dot, D-D+ (sigma D+ eta)> + <D+ eta, D-D+ (sigma D+ eta_dot)>.

    Returns sigma_dot_0..sigma_dot_n with sigma_dot_0 = 0.
    """
    return _sigma_dot_extended(odd_extend(chain, sigma), chain.n)


def _sigma_dot_extended(ext: ExtendedChain, n: int) -> np.ndarray:
    """:func:`solve_sigma_dot` on an extension that carries sigma; alpha comes
    from the extension's D+ eta."""
    sig = ext.sigma_ext[: n + 2]  # sigma_0..sigma_{n+1} (even: sigma_{n+1} = sigma_n)
    t_ext = forward_diff(ext.eta_ext[: n + 2], n)  # D+ eta_j, j = 1..n+1
    td_ext = forward_diff(ext.eta_dot_ext[: n + 2], n)  # D+ eta_dot_j, j = 1..n+1
    rhs = 3.0 * np.einsum("kd,kd->k", td_ext[:-1], _flux_second_difference(sig, t_ext, n)) + np.einsum(
        "kd,kd->k", t_ext[:-1], _flux_second_difference(sig, td_ext, n)
    )
    alpha = np.einsum("kd,kd->k", t_ext[1:n], t_ext[: n - 1])
    sd = np.empty(n + 1)
    sd[0] = 0.0
    sd[1:] = _solve_tridiagonal(alpha, rhs, n)
    return sd


# ---------------------------------------------------------------------------
# diagnostics


def diagnostics_abc(chain: ChainState, sol: TensionSolution, sigma_dot: np.ndarray) -> tuple[float, float, float]:
    """a = max |D- sigma|, b = max s_k/sigma_k (inf when some sigma_k <= 0),
    c = max |D- sigma_dot|.

    Verifies the cumulative-sum consequences max sigma_k/s_k <= a and
    max |sigma_dot_k|/s_k <= c before returning.
    """
    n = chain.n
    sigma = np.asarray(getattr(sol, "sigma", sol), dtype=float)
    a = float(np.max(np.abs(forward_diff(sigma, n))))
    c = float(np.max(np.abs(forward_diff(np.asarray(sigma_dot), n))))
    s = np.arange(1, n + 1) / n
    interior = sigma[1:]
    if np.any(interior <= 0.0):
        b = float("inf")
    else:
        b = float(np.max(s / interior))
    slack = 1e-8
    if np.max(interior / s) > a * (1 + slack) + slack:
        raise NumericError("sigma_k/s_k exceeded max |D- sigma|; inconsistent solve")
    if np.max(np.abs(np.asarray(sigma_dot)[1:]) / s) > c * (1 + slack) + slack:
        raise NumericError("sigma_dot_k/s_k exceeded max |D- sigma_dot|; inconsistent solve")
    return a, b, c


def sigma_sobolev(sigma, n: int, m_max: int = 3) -> np.ndarray:
    """Weighted Sobolev norms of the tension,
    d_m = sum_{l=0}^{m-1} |sigma|^2_{l+3/2, l+2} for m = 1..m_max.

    The sums start at k = 0 (sigma_0 = 0 carries endpoint information).
    Entries whose difference order exceeds the grid are NaN (only n <= 4).
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    pieces = np.empty(m_max)
    for ell in range(m_max):
        try:
            pieces[ell] = weighted_seminorm_sq(sigma, ell + 1.5, ell + 2, n, first_index=0)
        except ValueError:
            pieces[ell] = np.nan
    return np.cumsum(pieces)


# ---------------------------------------------------------------------------
# bound certificates


@dataclass(frozen=True)
class GreenCertificate:
    """Measured extremes of the Green-function ratios and pass/fail of each
    bound.  Checks that need sign or curvature hypotheses report None when
    the hypothesis fails.
    """

    n: int
    all_alpha_nonneg: bool
    all_alpha_positive: bool
    max_abs_green_diff: float      # max |n (G_kj - G_{k-1,j})|, G_0j = 0
    max_upper_ratio: float         # max n G_kj / k
    min_lower_ratio: float         # min n^2 G_kj / (j k)
    upsilon: float                 # max_k (k/n)^{3/2} |D+^2 eta_k|^2
    upsilon_admissible: bool       # upsilon <= 2 sqrt(n) / 5
    minmax_bound_ok: bool          # |G_kj| <= min(j,k)/n, unconditional
    diff_bound_ok: bool | None     # |D-G| <= 1          (needs alpha >= 0)
    ratio_bound_ok: bool | None    # n G_kj / k <= 1     (needs alpha >= 0)
    lower_bound_ok: bool | None    # min ratio >= e^{-2 upsilon} (needs admissible upsilon)
    corner_ok: bool | None         # min F = F_{1n}      (needs alpha >= 0)
    corner_gap: float              # min F - F_{1n}
    corner_product_gap: float      # F_{1n} - (1/beta_1) prod alpha_m/beta_{m+1}

    def all_applicable_pass(self) -> bool:
        checks = [self.minmax_bound_ok, self.diff_bound_ok, self.ratio_bound_ok,
                  self.lower_bound_ok, self.corner_ok]
        return all(c for c in checks if c is not None)


_BOUND_SLACK = 1e-12


def certify_bounds(gm: GreenMatrix, chain: ChainState) -> GreenCertificate:
    """Evaluate every Green-function bound for a matrix built from ``chain``.

    Failures are reported in the certificate, never raised.
    """
    n = gm.n
    G = gm.G
    ab = gm.alpha_beta
    all_nonneg = bool(np.all(ab.alpha >= 0))

    kk = np.arange(1, n + 1)[:, None]
    jj = np.arange(1, n + 1)[None, :]

    G0 = np.vstack([np.zeros((1, n)), G])  # G_0j = 0 convention
    diffG = n * (G0[1:] - G0[:-1])
    max_abs_diff = float(np.max(np.abs(diffG)))
    max_upper = float(np.max(n * G / kk))
    F = n * n * G / (jj * kk)
    min_lower = float(np.min(F))

    ups = upsilon_threehalves(chain)
    admissible = ups <= 2.0 * np.sqrt(n) / 5.0

    minmax_ok = bool(np.all(np.abs(G) <= np.minimum(jj, kk) / n + _BOUND_SLACK))
    diff_ok = bool(max_abs_diff <= 1.0 + _BOUND_SLACK) if all_nonneg else None
    ratio_ok = bool(max_upper <= 1.0 + _BOUND_SLACK) if all_nonneg else None
    lower_ok = bool(min_lower >= np.exp(-2.0 * ups) - _BOUND_SLACK) if admissible else None

    F1n = float(F[0, -1])
    corner_gap = min_lower - F1n
    prod_formula = float(np.prod(ab.alpha / ab.beta[1:]) / ab.beta[0])
    corner_ok = None
    if all_nonneg:
        corner_ok = bool(abs(corner_gap) <= 1e-12 * max(1.0, abs(F1n)))
    return GreenCertificate(
        n=n,
        all_alpha_nonneg=all_nonneg,
        all_alpha_positive=gm.all_alpha_positive,
        max_abs_green_diff=max_abs_diff,
        max_upper_ratio=max_upper,
        min_lower_ratio=min_lower,
        upsilon=ups,
        upsilon_admissible=admissible,
        minmax_bound_ok=minmax_ok,
        diff_bound_ok=diff_ok,
        ratio_bound_ok=ratio_ok,
        lower_bound_ok=lower_ok,
        corner_ok=corner_ok,
        corner_gap=corner_gap,
        corner_product_gap=F1n - prod_formula,
    )
