"""Tension solve for the constrained chain: the tridiagonal system, its
discrete Green function, bound certificates, and the a/b/c and d_m
diagnostics.

The constraint system is A sigma = w with w_k = |D+ eta_dot_k|^2 and A the
symmetric tridiagonal matrix

    row k (1 <= k < n):  n^2 [ -alpha_{k-1} sigma_{k-1} + 2 sigma_k - alpha_k sigma_{k+1} ]
    row n:               n^2 [ -alpha_{n-1} sigma_{n-1} + sigma_n ]

where alpha_i = <D+ eta_{i+1}, D+ eta_i>.  Dividing the raw second-difference
form by n^2 gives the 2 / -alpha stencil above; the n^2 reappears as an
overall scale so that w keeps the |D+ eta_dot|^2 normalization and the Green
function satisfies sigma_k = (1/n) sum_j G_kj w_j.

The Green function is the inverse of a symmetric tridiagonal matrix, so it
is semiseparable: with c_m = alpha_m / beta_{m+1} and
p_kj = prod_{m=k}^{j-1} c_m, G_kj = G_kk p_kj for j >= k, and G is
symmetric.  ``GreenMatrix`` holds only these O(n) generators, the diagonal
G_kk and the ratios c_m.  The bound certificates and the ``green`` solve
route work on them in O(n) time and memory; the dense n x n G is built only
when ``GreenMatrix.G`` is read.

The beta_i are the pivots of the LDL^T factorization of the operator with
its rows and columns reversed, so LAPACK's ``dpttrf`` gives them in compiled
code, and G_kk comes from one banded ``dtbtrs`` sweep.  The records derive
what follows from their data: AlphaBeta its beta, TensionSolution its
minimum and positivity.  Both act on a stack
of chains as one block-diagonal system with zero couplings between the
blocks, and the certificate's clauses run along the last axis, so
``certify_stack`` certifies a (d, B, n+1) stack at once, each row bitwise
the chain's own certificate; the per-chain functions are the stack of one.
The snapshot diagnostics (the solve contract, sigma_dot, a/b/c and d_m) are
stacked the same way.  Link data is component-major, as in
:mod:`whipchain.core`.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .core import (
    ChainState,
    _acceleration_arrays,
    _chain_links,
    _dot,
    _frozen_array,
    _links,
    _sq,
    _tension_array,
    _weighted_terms,
)
from .errors import NumericError


def _load_lapack():
    """LAPACK's ``dptsv``, ``dpttrf`` and ``dtbtrs`` from scipy's compiled
    ``scipy.linalg._flapack`` module, loaded from its file.

    Importing ``scipy.linalg.lapack`` first runs the ``scipy`` and
    ``scipy.linalg`` package imports (about 0.3 s on a 2-core host), and the
    routines need only the extension.  It is loaded under its real name, so
    a later ``import scipy.linalg`` is handed the same module.  When the
    file cannot be found or loaded, the routines come from
    ``scipy.linalg.lapack``.
    """
    name = "scipy.linalg._flapack"
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        folder = Path(spec.submodule_search_locations[0]) / "linalg"
        for suffix in EXTENSION_SUFFIXES:
            path = folder / f"_flapack{suffix}"
            if path.is_file():
                loader = ExtensionFileLoader(name, str(path))
                try:
                    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                    loader.exec_module(module)
                    return module.dptsv, module.dpttrf, module.dtbtrs
                except ImportError:
                    break
    from scipy.linalg.lapack import dpttrf, dptsv, dtbtrs
    return dptsv, dpttrf, dtbtrs


dptsv, dpttrf, dtbtrs = _load_lapack()

#: bound on the normwise backward error of a tension solve (see _checked_solution)
SOLVE_RTOL = 16 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# alpha / beta


@dataclass(frozen=True)
class AlphaBeta:
    """Link-angle cosines alpha_1..alpha_{n-1} and the elimination recursion
    beta_n = 1, beta_i = 2 - alpha_i^2/beta_{i+1} (so 1 <= beta_i <= 2).

    alpha[i-1] = alpha_i and beta[i-1] = beta_i; beta is derived from alpha
    by :func:`beta_recursion`.
    """

    alpha: np.ndarray
    beta: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha))
        object.__setattr__(self, "beta", _frozen_array(beta_recursion(self.alpha)))

    @property
    def n(self) -> int:
        return self.beta.shape[0]


def beta_recursion(alpha) -> np.ndarray:
    """beta_n = 1, beta_i = 2 - alpha_i^2 / beta_{i+1} along the last axis of
    a (..., n-1) stack of cosines.

    The beta_i are the pivots of the LDL^T factorization of the operator
    (diagonal 2, ..., 2, 1; off-diagonal -alpha) with its rows and columns
    reversed, so one LAPACK ``dpttrf`` call factors the reversed stack.  The
    blocks are uncoupled (zero off-diagonal between them), so each block's
    first pivot is 1 - 0 * 0 and every block keeps its own pivots bitwise.
    ``dpttrf`` forms (alpha / beta) alpha, within 2 ulp of alpha^2 / beta.
    |alpha| <= 1 keeps every beta in [1, 2]; a pivot <= 0 means the cosines
    are off the constraint manifold and raises NumericError, whose ``chain``
    is the index of the failing sample.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[-1] + 1
    off = np.zeros(alpha.shape[:-1] + (n,))
    if alpha.size == 0:  # n = 1 (beta_1 = 1) or no samples: dpttrf's wrapper refuses an empty off-diagonal
        return off + 1.0
    off[..., :-1] = alpha[..., ::-1]  # the sign of the off-diagonal does not reach the pivots
    diag = np.full(off.shape, 2.0)   # the unscaled diagonal, reversed: (1, 2, ..., 2)
    diag[..., 0] = 1.0
    pivots, _, info = dpttrf(diag.ravel(), off.ravel()[:-1])
    if info > 0:
        sample = (info - 1) // n
        worst = np.max(np.abs(alpha.reshape(-1, n - 1)[sample]))
        raise NumericError(
            f"beta pivot {pivots[info - 1]:.3g} of sample {sample} is not positive (max |alpha| = {worst:.3f}); "
            "the cosines are off the constraint manifold", chain=sample,
        )
    return np.ascontiguousarray(pivots.reshape(off.shape)[..., ::-1])


def alpha_beta_from_alpha(alpha) -> AlphaBeta:
    """Assemble an AlphaBeta from given cosines (e.g. the exact straight chain)."""
    return AlphaBeta(alpha)


def compute_alpha_beta(chain: ChainState) -> AlphaBeta:
    """alpha_i = <D+ eta_{i+1}, D+ eta_i> for i = 1..n-1, plus the beta recursion."""
    return AlphaBeta(_alpha(_links(chain.eta.T)))


def _alpha(t: np.ndarray) -> np.ndarray:
    """The cosines <t_{k+1}, t_k> along the last axis of (d, ..., K) link
    vectors: alpha_1..alpha_{n-1} of a chain.  On a flat stack of chains the
    entries at the block edges pair the links of two chains; the tension
    solve cuts them."""
    return _dot(t[..., 1:], t[..., :-1])


# ---------------------------------------------------------------------------
# the discrete Green function


@dataclass(frozen=True)
class GreenMatrix:
    """Inverse of the tension operator held by its semiseparable generators.

    The inverse of the symmetric tridiagonal operator is semiseparable:
    G_kj = G_kk p_kj for j >= k, with p_kj = prod_{m=k}^{j-1} c_m and
    c_m = alpha_m / beta_{m+1}.  ``diag[k-1] = G_kk`` and ``ratios[m-1] = c_m``
    are the O(n) generators; the dense ``G[k-1, j-1] = G_kj`` is built from
    them on first access only.  Since beta >= 1, |c_m| <= 1 whenever
    |alpha_m| <= 1, so |G_kj| <= G_kk <= min(j,k)/n.  When every alpha_i > 0
    all entries are positive and the sharp upper bounds hold; ``alpha_beta``
    is the data G was built from.
    """

    alpha_beta: AlphaBeta
    ratios: np.ndarray = field(init=False)
    diag: np.ndarray = field(init=False)

    def __post_init__(self):
        c, diag = _green_generators(self.alpha_beta.alpha, self.alpha_beta.beta)
        object.__setattr__(self, "ratios", _frozen_array(c))
        object.__setattr__(self, "diag", _frozen_array(diag))

    @property
    def n(self) -> int:
        return self.alpha_beta.n

    @cached_property
    def G(self) -> np.ndarray:
        """The dense n x n matrix, G_kj = G_kk p_kj for j >= k and symmetric."""
        S, neg, zero = _ratio_logs(self.ratios)
        block = np.concatenate([[0], np.cumsum(zero)])
        upper = np.triu(np.ones((self.n, self.n), dtype=bool)) & (block[:, None] == block[None, :])
        logp = np.where(upper, S[None, :] - S[:, None], -np.inf)
        U = self.diag[:, None] * np.where(neg[:, None] ^ neg[None, :], -1.0, 1.0) * np.exp(logp)
        return _frozen_array(U + np.triu(U, 1).T)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """(1/n) G w in O(n) by two bidiagonal sweeps over the generators:
        R_k = w_k + c_k R_{k+1} (R_n = w_n), L_1 = 0, L_{k+1} = c_k (L_k + G_kk w_k),
        and (G w)_k = L_k + G_kk R_k."""
        c, D = self.ratios, self.diag
        R = _unit_bidiagonal_solve(c, w, lower=False)
        L = _unit_bidiagonal_solve(c, np.concatenate([[0.0], c * D[:-1] * w[:-1]]), lower=True)
        return (L + D * R) / self.n


def _green_generators(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ratios c_m = alpha_m / beta_{m+1} and the diagonal G_kk along the
    last axis of a stack: G_kk = (1/n) sum_{i<=k} p_ik^2 / beta_i, so
    G_11 = 1/(n beta_1) and G_kk = c_{k-1}^2 G_{k-1,k-1} + 1/(n beta_k)."""
    c = alpha / beta[..., 1:]
    return c, _unit_bidiagonal_solve(c * c, 1.0 / (beta.shape[-1] * beta), lower=True)


def _unit_bidiagonal_solve(off: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
    """Solve x_k = rhs_k + off_{k-1} x_{k-1} (``lower``) or
    x_k = rhs_k + off_k x_{k+1} (upper) along the last axis with LAPACK's
    banded triangular solve; off has one entry fewer than rhs.  A stack
    solves as one system whose couplings between blocks are zero, so each
    block's sweep adds 0 * x across its boundary and is bitwise its own."""
    coupling = np.zeros(rhs.shape)
    coupling[..., :-1] = -off
    band = np.zeros((2, rhs.size))
    if lower:
        band[1, :-1] = coupling.ravel()[:-1]
    else:
        band[0, 1:] = coupling.ravel()[:-1]
    x, _ = dtbtrs(band, rhs.ravel(), uplo="L" if lower else "U", diag="U")
    return x.reshape(rhs.shape)


def _ratio_logs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefix products P_j = prod_{m<j} c_m along the last axis, in the
    log domain, which long chains with |c| < 1 would underflow:
    S_j = log |P_j| and the sign bit ``neg_j``, both skipping every exact
    zero c_m = 0 (flagged in ``zero``), which splits the chain into
    independent blocks.  Within a block p_kj = P_j / P_k; across blocks
    p_kj = 0."""
    zero = c == 0.0
    shape = c.shape[:-1] + (c.shape[-1] + 1,)
    S = np.zeros(shape)
    S[..., 1:] = np.cumsum(np.log(np.where(zero, 1.0, np.abs(c))), axis=-1)
    neg = np.zeros(shape, dtype=bool)
    neg[..., 1:] = np.logical_xor.accumulate(c < 0.0, axis=-1)
    return S, neg, zero


def green_matrix(ab: AlphaBeta) -> GreenMatrix:
    """The Green function G_kj = (1/n) sum_{i=1}^{min(j,k)} p_ij p_ik / beta_i
    with p_ij = prod_{m=i}^{j-1} alpha_m / beta_{m+1} (empty product = 1),
    held by its O(n) generators."""
    return GreenMatrix(ab)


def upsilon_threehalves(chain: ChainState) -> float:
    """Smallest upsilon with (k/n)^{3/2} |D+^2 eta_k|^2 <= upsilon, k = 1..n-1."""
    return float(_upsilon(_links(chain.eta.T)))


def _upsilon(t: np.ndarray) -> np.ndarray:
    """:func:`upsilon_threehalves` of each chain of (d, ..., n) link vectors;
    0 for a single link."""
    n = t.shape[-1]
    if n < 2:
        return np.zeros(t.shape[1:-1])
    # second differences at k = 1..n-1 need eta up to k+2 <= n+1: no extension
    curv = _links(t, n)
    return np.max((np.arange(1, n) / n) ** 1.5 * _sq(curv), axis=-1)


def green_matrix_for_chain(chain: ChainState) -> GreenMatrix:
    """Green matrix of a chain."""
    return green_matrix(compute_alpha_beta(chain))


# ---------------------------------------------------------------------------
# tension solves


@dataclass(frozen=True)
class TensionSolution:
    """Lagrange multipliers sigma_0..sigma_n (sigma[k] = sigma_k, sigma_0 = 0),
    their minimum over k >= 1 (NaN when one is NaN) and whether it is > 0."""

    sigma: np.ndarray
    min_sigma: float = field(init=False)
    positivity: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frozen_array(self.sigma))
        object.__setattr__(self, "min_sigma", float(self.sigma[1:].min()))
        object.__setattr__(self, "positivity", self.min_sigma > 0.0)

    @property
    def n(self) -> int:
        return self.sigma.shape[0] - 1


@lru_cache(maxsize=16)
def _operator_diagonal(n: int, size: int) -> np.ndarray:
    """The diagonal n^2 (2, ..., 2, 1) of ``size // n`` stacked tension
    systems, built once per key and read-only."""
    diag = np.full((size // n, n), 2.0)
    diag[:, -1] = 1.0
    out = (diag * n * n).ravel()
    out.setflags(write=False)
    return out


def _solve_tridiagonal(alpha: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Solve A sigma = w for the interior tensions sigma_1..sigma_n.

    A is symmetric positive definite whenever |alpha| <= 1 (diagonally
    dominant with pivots n^2 beta_i >= n^2), so LAPACK's tridiagonal LDL^T
    solve ``dptsv`` applies; losing definiteness means the state left the
    constraint manifold badly and is reported as a numeric failure, whose
    ``chain`` is the index of the failing system.  The n^2 scale multiplies
    the entries as ``x * n * n``: ``x * (n * n)`` rounds differently when n
    is not a power of two.

    A flat stack of B systems, alpha of length B n - 1 (:func:`_alpha` of
    the stacked links) and w of length B n, solves as one block-diagonal
    system of size B n: the couplings between blocks are set to zero.  Each
    block's first pivot is then d - 0 * 0 and the substitutions add 0 * x
    across block boundaries, so every block's solution is bitwise the one
    its own solve gives.
    """
    diag = _operator_diagonal(n, w.size)
    if w.size <= 1:  # one link, or no system: dptsv's wrapper refuses both
        return w / diag
    off = alpha * -n   # -alpha * n * n, bitwise
    off *= n
    off[n - 1 :: n] = 0.0
    _, _, sigma, info = dptsv(diag, off, w, overwrite_e=1)
    if info > 0:
        chain = (info - 1) // n
        worst = np.max(np.abs(alpha[chain * n : chain * n + n - 1]), initial=0.0)
        raise NumericError(
            f"tension system not positive definite (max |alpha| = {worst:.3f}); "
            "the state has left the constraint manifold", chain=chain,
        )
    return sigma


def _solve_sigma_arrays(t: np.ndarray, t_dot: np.ndarray, n: int):
    """Direct tension solve on (d, K) links t = D+ eta and link velocities
    t_dot = D+ eta_dot, blocks of n links: one solve for a flat stack of
    chains.  Returns the interior tensions sigma_1..sigma_n of each block
    (K,) and the system's alpha (K - 1,) and w (K,), which the solve
    contract (:func:`_checked_solution`) reads block by block."""
    alpha, w = _alpha(t), _sq(t_dot)
    return _solve_tridiagonal(alpha, w, n), alpha, w


def solve_tension(chain: ChainState, method: str = "direct") -> TensionSolution:
    """Solve the tridiagonal constraint system A sigma = w of the chain's links.

    ``direct`` runs the O(n) LAPACK tridiagonal solve; ``green`` applies
    sigma_k = (1/n) sum_j G_kj w_j through the Green function's generators,
    also in O(n).  Either result is checked by :func:`_checked_solution`.
    """
    t, t_dot = _chain_links(chain)
    if method == "direct":
        interior, alpha, w = _solve_sigma_arrays(t, t_dot, chain.n)
    elif method == "green":
        alpha, w = _alpha(t), _sq(t_dot)
        interior = green_matrix(AlphaBeta(alpha)).apply(w)
    else:
        raise ValueError(f"unknown tension method {method!r}; use 'direct' or 'green'")
    return _checked_solution(interior, alpha, w)


def _checked_solution(interior: np.ndarray, alpha: np.ndarray, w: np.ndarray) -> TensionSolution:
    """The solve contract: the interior tensions sigma_1..sigma_n, with
    sigma_0 = 0 prepended, as the TensionSolution of the chain whose system
    A sigma = w has cosines ``alpha`` and source ``w``, once it passes
    :func:`_contract_breach`; its NumericError otherwise.
    """
    breach = _contract_breach(alpha, interior, w)
    if breach is not None:
        raise breach
    return TensionSolution(np.concatenate([[0.0], interior]))


def _contract_breach(alpha: np.ndarray, interior: np.ndarray, w: np.ndarray) -> NumericError | None:
    """The solve contract on a (..., n) stack of systems (alpha (..., n-1)):
    each solution's normwise backward error |A sigma - w| / (|A| |sigma| + |w|)
    (infinity norms) must be at most ``SOLVE_RTOL``, a small multiple of the
    unit roundoff that holds at every n and conditioning for a
    backward-stable solve.  Returns the NumericError of the first row that
    breaks it, naming that row, or None."""
    err = np.atleast_1d(_backward_error(alpha, interior, w))
    broken = np.flatnonzero(~np.isfinite(err) | (err > SOLVE_RTOL))
    if not broken.size:
        return None
    row = int(broken[0])
    return NumericError(f"tension solve residual: backward error {err[row]:.3e} exceeds {SOLVE_RTOL:.1e}", chain=row)


def _backward_error(alpha: np.ndarray, sigma_int: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normwise backward error |A sigma - w| / (|A| |sigma| + |w|) in the
    infinity norm (Rigal and Gaches), with |A| = n^2 times the largest
    absolute row sum, of each system along the last axis."""
    n = sigma_int.shape[-1]
    lead = sigma_int.shape[:-1]
    padded = np.zeros(lead + (n + 2,))
    padded[..., 1:-1] = sigma_int
    diag = np.full(n, 2.0)
    diag[-1] = 1.0
    # row n has no superdiagonal: the trailing zero in a_ext kills it
    a_ext = np.zeros(lead + (n + 1,))
    a_ext[..., 1:-1] = alpha
    r = n * n * (diag * sigma_int - a_ext[..., :-1] * padded[..., :-2] - a_ext[..., 1:] * padded[..., 2:])
    a_abs = np.abs(a_ext)
    a_norm = n * n * (diag + a_abs[..., :-1] + a_abs[..., 1:]).max(axis=-1)
    scale = a_norm * np.abs(sigma_int).max(axis=-1) + np.abs(w).max(axis=-1)
    return np.abs(r - w).max(axis=-1) / np.maximum(scale, np.finfo(float).tiny)


def tension_residual(chain: ChainState, sigma) -> float:
    """max_k | <D+ eta_k, D-D+ (sigma D+ eta)_k> + |D+ eta_dot_k|^2 |.

    The constraint equation in flux form, through the stepper's flux
    operator :func:`~whipchain.core._acceleration_arrays`; an independent
    restatement of the tridiagonal residual.
    """
    n = chain.n
    t, t_dot = _chain_links(chain)
    lhs = _dot(t, _acceleration_arrays(t, _tension_array(sigma, n)[1:], n))
    return float(np.max(np.abs(lhs + _sq(t_dot))))


# ---------------------------------------------------------------------------
# sigma_dot


def solve_sigma_dot(chain: ChainState, sigma) -> np.ndarray:
    """Time derivative of the tension: solves the same tridiagonal operator
    with right-hand side
    3 <D+ eta_dot, D-D+ (sigma D+ eta)> + <D+ eta, D-D+ (sigma D+ eta_dot)>,
    read from the chain's links and link velocities through the stepper's
    flux operator.

    Returns sigma_dot_0..sigma_dot_n with sigma_dot_0 = 0.
    """
    return _sigma_dot(*_chain_links(chain), _tension_array(sigma, chain.n)[1:])


def _sigma_dot(t: np.ndarray, t_dot: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """:func:`solve_sigma_dot` of each chain of (d, ..., n) links t and link
    velocities t_dot under its interior tensions sigma_1..sigma_n, shaped
    (..., n): one flux pass over the flat stack and one stacked solve, each
    chain bitwise its own (see :func:`_acceleration_arrays` and
    :func:`_solve_tridiagonal`).  Returns (..., n+1)."""
    n, d = t.shape[-1], t.shape[0]
    t, t_dot, flat = t.reshape(d, -1), t_dot.reshape(d, -1), sigma.ravel()
    rhs = 3.0 * _dot(t_dot, _acceleration_arrays(t, flat, n)) + _dot(t, _acceleration_arrays(t_dot, flat, n))
    sd = np.zeros(sigma.shape[:-1] + (n + 1,))
    sd[..., 1:] = _solve_tridiagonal(_alpha(t), rhs, n).reshape(sigma.shape)
    return sd


# ---------------------------------------------------------------------------
# diagnostics


def diagnostics_abc(chain: ChainState, sol: TensionSolution, sigma_dot: np.ndarray) -> tuple[float, float, float]:
    """a = max |D- sigma|, b = max s_k/sigma_k (inf when some sigma_k <= 0),
    c = max |D- sigma_dot|.

    Verifies the cumulative-sum consequences max sigma_k/s_k <= a and
    max |sigma_dot_k|/s_k <= c before returning.  The stack of one of
    :func:`_abc`.
    """
    a, b, c = _abc(_tension_array(sol, chain.n), np.asarray(sigma_dot, dtype=float))
    return float(a), float(b), float(c)


def _abc(sigma: np.ndarray, sigma_dot: np.ndarray):
    """:func:`diagnostics_abc` of each chain of (..., n+1) stacks of sigma
    and sigma_dot, one entry of a, b and c per chain; the NumericError of a
    failed check names the first chain that fails one."""
    n = sigma.shape[-1] - 1
    a = np.abs(_links(sigma, n)).max(axis=-1)
    c = np.abs(_links(sigma_dot, n)).max(axis=-1)
    s = np.arange(1, n + 1) / n
    interior = sigma[..., 1:]
    with np.errstate(divide="ignore"):
        b = np.where((interior <= 0.0).any(axis=-1), np.inf, (s / interior).max(axis=-1))
    slack = 1e-8
    over_a, over_c = np.atleast_1d(
        (interior / s).max(axis=-1) > a * (1 + slack) + slack,
        (np.abs(sigma_dot[..., 1:]) / s).max(axis=-1) > c * (1 + slack) + slack,
    )
    failed = np.flatnonzero(over_a | over_c)
    if failed.size:
        row = int(failed[0])
        quantity = "sigma" if over_a[row] else "sigma_dot"
        raise NumericError(f"{quantity}_k/s_k exceeded max |D- {quantity}|; inconsistent solve", chain=row)
    return a, b, c


def sigma_sobolev(sigma, n: int, m_max: int = 3) -> np.ndarray:
    """Weighted Sobolev norms of the tension,
    d_m = sum_{l=0}^{m-1} |sigma|^2_{l+3/2, l+2} for m = 1..m_max.

    The sums start at k = 0 (sigma_0 = 0 carries endpoint information).
    Entries whose difference order exceeds the grid are NaN (only n <= 4).
    The stack of one of :func:`_sigma_sobolev`.
    """
    return _sigma_sobolev(_tension_array(sigma, n), m_max)


def _sigma_sobolev(sigma: np.ndarray, m_max: int) -> np.ndarray:
    """:func:`sigma_sobolev` of each chain of a (..., n+1) stack of tensions,
    shaped (..., m_max): the seminorms of
    :func:`~whipchain.core.weighted_seminorm_sq`, summed along the last axis."""
    n = sigma.shape[-1] - 1
    pieces = np.full(sigma.shape[:-1] + (m_max,), np.nan)
    diff = _links(sigma, n)
    for ell in range(m_max):
        diff = _links(diff, n)
        if not diff.shape[-1]:
            break
        pieces[..., ell] = np.add.reduce(_weighted_terms(diff * diff, ell + 1.5, n, 0), axis=-1) / n
    return np.cumsum(pieces, axis=-1)


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

#: the flags that need a hypothesis, and that hypothesis; a certificate
#: reports None for a flag whose hypothesis fails
_HYPOTHESES = {
    "diff_bound_ok": "all_alpha_nonneg",
    "ratio_bound_ok": "all_alpha_nonneg",
    "corner_ok": "all_alpha_nonneg",
    "lower_bound_ok": "upsilon_admissible",
}


def certify_bounds(gm: GreenMatrix, chain: ChainState) -> GreenCertificate:
    """Evaluate every Green-function bound for the generators built from
    ``chain``, in O(n) and without forming G: the stack of one of
    :func:`certify_stack`.  Failures are reported in the certificate, never
    raised."""
    ab = gm.alpha_beta
    t = _links(chain.eta.T[:, None])
    fields = _certificate_arrays(ab.alpha[None], ab.beta[None], gm.ratios[None], gm.diag[None], t)
    out = {key: value[0].item() for key, value in fields.items()}
    for key, hypothesis in _HYPOTHESES.items():
        if not out[hypothesis]:
            out[key] = None
    return GreenCertificate(n=gm.n, **out)


def certify_stack(eta: np.ndarray) -> dict[str, np.ndarray]:
    """The certificates of a component-major (d, B, n+1) stack of chain
    positions: for each
    GreenCertificate field but n, an array of B entries.  A flag holds its
    test even where the hypothesis in ``_HYPOTHESES`` fails (where a
    certificate reports None).  Row b is bitwise the certificate of chain b
    alone: alpha, the dpttrf pivots and the dtbtrs sweeps all act per block
    of the stack, and the clauses along its last axis."""
    t = _links(eta)
    alpha = _alpha(t)
    beta = beta_recursion(alpha)
    return _certificate_arrays(alpha, beta, *_green_generators(alpha, beta), t)


def _certificate_arrays(alpha, beta, c, D, t) -> dict[str, np.ndarray]:
    """Every bound of a (B, n) stack of generators and (d, B, n) link vectors
    t, one entry per row, in O(n) per row.

    With |c_m| <= 1 each row's largest |G_kj| is G_kk on the diagonal, so the
    min(j,k)/n bound and the upper ratio read the diagonal alone.  Below the
    diagonal G_kj - G_{k-1,j} = (c_{k-1} - 1) G_jj p_{j,k-1}, whose largest
    size over j < k is |1 - c_{k-1}| R_{k-1} with R_k = max_{j<=k} G_jj |p_jk|;
    on and above it the difference is (G_kk - c_{k-1} G_{k-1,k-1}) p_kj.  The
    lower ratio is min_k (n^2 G_kk/k) min_{j>=k} p_kj/j, from suffix extremes
    of the signed P_j/j in the log domain, block by block; entries across a
    block boundary are exactly 0.
    """
    n = beta.shape[-1]
    k = np.arange(1, n + 1)
    S, neg, zero = _ratio_logs(c)
    split = zero.any(axis=-1)

    def suffix(ufunc, x):
        return _blockwise(ufunc, x, zero, reverse=True)

    lead = _blockwise(np.maximum, np.log(D) - S, zero)  # max_{j<=k} log G_jj / |P_j| within k's block
    lm = S - np.log(k)  # log |P_j| / j
    # the j >= k in k's block minimizing p_kj / j: the largest |P_j|/j of sign
    # opposite to P_k when there is one, else the smallest of its own sign
    opposite = np.where(neg, suffix(np.maximum, np.where(neg, -np.inf, lm)),
                        suffix(np.maximum, np.where(neg, lm, -np.inf)))
    same = np.where(neg, suffix(np.minimum, np.where(neg, lm, np.inf)),
                    suffix(np.minimum, np.where(neg, np.inf, lm)))
    flip = opposite > -np.inf  # that minimum is negative
    tail = np.where(flip, opposite, same)

    upper = n * D / k
    lower = n * upper * np.where(flip, -1.0, 1.0) * np.exp(tail - S)
    R = np.exp(S + lead)  # max_{j<=k} G_jj |p_jk|
    # G_kk - c_{k-1} G_{k-1,k-1} = 1/(n beta_k) - c_{k-1} (1 - c_{k-1}) G_{k-1,k-1}, G_0j = 0
    step = np.zeros(D.shape)
    step[..., 1:] = c * (1.0 - c) * D[..., :-1]
    on_diag = np.abs(1.0 / (n * beta) - step)
    below = np.abs(1.0 - c) * R[..., :-1]
    max_abs_diff = n * np.maximum(on_diag.max(axis=-1), below.max(axis=-1, initial=0.0))
    max_upper = upper.max(axis=-1)
    min_lower = lower.min(axis=-1)
    min_lower = np.where(split & (min_lower > 0.0), 0.0, min_lower)
    ups = _upsilon(t)

    p1n = np.where(split, 0.0, np.where(neg[..., -1], -1.0, 1.0) * np.exp(S[..., -1]))
    F1n = n * D[..., 0] * p1n
    corner_gap = min_lower - F1n
    return {
        "all_alpha_nonneg": (alpha >= 0).all(axis=-1),
        "max_abs_green_diff": max_abs_diff,
        "max_upper_ratio": max_upper,
        "min_lower_ratio": min_lower,
        "upsilon": ups,
        "upsilon_admissible": ups <= 2.0 * np.sqrt(n) / 5.0,
        "minmax_bound_ok": (D <= k / n + _BOUND_SLACK).all(axis=-1),
        "diff_bound_ok": max_abs_diff <= 1.0 + _BOUND_SLACK,
        "ratio_bound_ok": max_upper <= 1.0 + _BOUND_SLACK,
        "lower_bound_ok": min_lower >= np.exp(-2.0 * ups) - _BOUND_SLACK,
        "corner_ok": np.abs(corner_gap) <= 1e-12 * np.maximum(1.0, np.abs(F1n)),
        "corner_gap": corner_gap,
        "corner_product_gap": F1n - np.prod(c, axis=-1) / beta[..., 0],
    }


def _blockwise(ufunc: np.ufunc, x: np.ndarray, zero: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``ufunc`` accumulated along the last axis of a (B, n) stack, from the
    right when ``reverse``, restarted after every exact zero ratio c_m = 0
    (``zero``, (B, n-1)), where the chain splits into independent blocks.
    The whole stack accumulates in one call; only the rows that split are
    walked again, block by block."""
    step = -1 if reverse else 1
    out = ufunc.accumulate(x[..., ::step], axis=-1)[..., ::step]
    for b in np.flatnonzero(zero.any(axis=-1)):
        cuts = np.flatnonzero(zero[b]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, x.shape[-1]]):
            out[b, lo:hi] = ufunc.accumulate(x[b, lo:hi][::step])[::step]
    return out
