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
when ``GreenMatrix.G`` is read, by one sweep of them over the unit vectors.

The beta_i are the pivots of the LDL^T factorization of the operator with
its rows and columns reversed, so LAPACK's ``dpttrf`` gives them in compiled
code, and G_kk comes from one banded ``dtbtrs`` sweep.  The records derive
what follows from their data: AlphaBeta its beta, TensionSolution its
minimum and positivity.  Both act on a stack
of chains as one block-diagonal system with zero couplings between the
blocks, and the certificate's clauses run along the last axis, so
``certify_stack`` certifies a (d, B, n+1) stack at once, each row bitwise
the chain's own certificate; the per-chain functions are the stack of one.
A is formed once (:func:`_operator`): the direct solve and its contract
read one diagonal and off-diagonal of a flat stack of chains of any n.  The
snapshot diagnostics (sigma_dot, a/b/c and d_m) are stacked too.  Link
data is component-major, as in :mod:`whipchain.core`.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .core import (
    ChainState,
    _Blocks,
    _acceleration_arrays,
    _chain_links,
    _dot,
    _equal_blocks,
    _frozen_array,
    _links,
    _sq,
    _tension_array,
    _weight_row,
    _weighted_terms,
)
from .errors import NumericError


#: the variables OpenBLAS reads for its thread count; a caller who set any keeps it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _load_lapack():
    """LAPACK's ``dptsv``, ``dpttrf`` and ``dtbtrs`` from scipy's compiled
    ``scipy.linalg._flapack`` module, loaded from its file, with scipy's
    OpenBLAS pinned to one thread.

    Importing ``scipy.linalg.lapack`` first runs the ``scipy`` and
    ``scipy.linalg`` package imports (about 0.3 s on a 2-core host), and the
    routines need only the extension.  It is loaded under its real name, so
    a later ``import scipy.linalg`` is handed the same module.  When the
    file cannot be found or loaded, the routines come from
    ``scipy.linalg.lapack``.

    The three routines are sequential recurrences that hand no work to a
    BLAS thread, yet OpenBLAS starts its default pool when the library
    loads, and the pool's worker spins through its timeout beside the main
    thread (tens of ms of CPU on a 2-core host).  So the load runs with
    ``OPENBLAS_NUM_THREADS=1``, which is removed again after it, and scipy's
    OpenBLAS starts no worker.  A caller who set any of
    :data:`_BLAS_THREAD_VARIABLES` keeps its setting, and a library that is
    already loaded (``scipy.linalg`` imported first) keeps its pool, since
    OpenBLAS reads the variable only when it loads.  numpy's OpenBLAS is
    loaded before this module and is left alone.
    """
    pin = not any(variable in os.environ for variable in _BLAS_THREAD_VARIABLES)
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
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
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]


dptsv, dpttrf, dtbtrs = _load_lapack()

#: bound on a checked tension solve's normwise backward error; _check_contract refuses NaN too
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

    The Green function is G_kj = (1/n) sum_{i=1}^{min(j,k)} p_ij p_ik / beta_i
    with p_ij = prod_{m=i}^{j-1} c_m (empty product = 1) and
    c_m = alpha_m / beta_{m+1}.  It is semiseparable, G_kj = G_kk p_kj for
    j >= k, so ``diag[k-1] = G_kk`` and ``ratios[m-1] = c_m`` are its O(n)
    generators; the dense ``G[k-1, j-1] = G_kj`` is built from them on first
    access only.  Since beta >= 1, |c_m| <= 1 whenever |alpha_m| <= 1, so
    |G_kj| <= G_kk <= min(j,k)/n.  When every alpha_i > 0 all entries are
    positive and the sharp upper bounds hold; ``alpha_beta`` is the data G
    was built from.
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
        """The dense n x n matrix, G_kj = G_kk p_kj for j >= k and exactly
        symmetric.  One upper sweep of the generators, as in :meth:`apply`,
        over the unit vectors: the sweep of e_j holds p_kj at k <= j."""
        U = (self.diag * _unit_bidiagonal_solve(self.ratios, np.eye(self.n), lower=False)).T
        return _frozen_array(U + np.triu(U, 1).T)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """(1/n) G w in O(n) by two bidiagonal sweeps over the generators:
        R_k = w_k + c_k R_{k+1} (R_n = w_n), L_1 = 0, L_{k+1} = c_k (L_k + G_kk w_k),
        and (G w)_k = L_k + G_kk R_k."""
        c, D = self.ratios, self.diag
        R = _unit_bidiagonal_solve(c, w, lower=False)
        L = _unit_bidiagonal_solve(c, np.concatenate([[0.0], c * D[:-1] * w[:-1]]), lower=True)
        return (L + D * R) / self.n


alpha_beta_from_alpha, green_matrix = AlphaBeta, GreenMatrix   # the names the acceptance suite imports


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


def upsilon_threehalves(chain: ChainState) -> float:
    """Smallest upsilon with (k/n)^{3/2} |D+^2 eta_k|^2 <= upsilon, k = 1..n-1."""
    return float(_upsilon(_links(chain.eta.T)))


def _upsilon(t: np.ndarray) -> np.ndarray:
    """:func:`upsilon_threehalves` of each chain of (d, ..., n) link vectors;
    0 for a single link, the maximum's initial value (every term is >= 0 or NaN)."""
    n = t.shape[-1]
    # second differences at k = 1..n-1 need eta up to k+2 <= n+1: no extension
    curv = _links(t, n)
    return np.max((np.arange(1, n) / n) ** 1.5 * _sq(curv), axis=-1, initial=0.0)


def green_matrix_for_chain(chain: ChainState) -> GreenMatrix:
    """Green matrix of a chain."""
    return GreenMatrix(compute_alpha_beta(chain))


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


def _operator(alpha: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """A's diagonal n^2 (2, ..., 2, 1) and off-diagonal -alpha n^2 per block
    of a flat stack laid out by ``blocks``, the couplings between blocks
    zero; the off-diagonal is a fresh array.  n^2 scales as ``x * n * n``:
    ``x * (n * n)`` rounds differently when n is not a power of two."""
    off = alpha * -blocks.joint_n   # -alpha * n * n, bitwise
    off *= blocks.joint_n
    off[blocks.cuts] = 0.0
    return blocks.diag, off


def _solve_tridiagonal(alpha: np.ndarray, w: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """Solve A sigma = w for the interior tensions sigma_1..sigma_n.

    A is symmetric positive definite whenever |alpha| <= 1 (diagonally
    dominant with pivots n^2 beta_i >= n^2), so LAPACK's tridiagonal LDL^T
    solve ``dptsv`` applies; losing definiteness means the state left the
    constraint manifold badly and is reported as a numeric failure, whose
    ``chain`` is the index of the failing system.

    A flat stack of systems, alpha of length K - 1 (:func:`_alpha` of the
    stacked links) and w of length K, solves as one block-diagonal system of
    size K laid out by ``blocks``, whose blocks may differ in n: the
    couplings between blocks are set to zero.  Each block's first pivot is
    then d - 0 * 0 and the substitutions add 0 * x across block boundaries,
    so every block's solution is bitwise the one its own solve gives.  The
    LDL^T solve of such a matrix has a componentwise backward error of a
    small multiple of the unit roundoff at any n and conditioning (Higham,
    SIAM J. Matrix Anal. Appl. 11, 1990), which bounds the normwise one
    :func:`_backward_error` measures.
    """
    diag, off = _operator(alpha, blocks)
    if w.size <= 1:  # one link, or no system: dptsv's wrapper refuses both
        return w / diag
    _, _, sigma, info = dptsv(diag, off, w, overwrite_e=1)
    if info > 0:
        chain = int(np.searchsorted(blocks.ends, info - 1, side="right"))   # the block of row info - 1
        part = blocks.part(chain)
        worst = np.max(np.abs(alpha[part.start : part.stop - 1]), initial=0.0)
        raise NumericError(
            f"tension system not positive definite (max |alpha| = {worst:.3f}); "
            "the state has left the constraint manifold", chain=chain,
        )
    return sigma


def _solve_sigma_arrays(t: np.ndarray, t_dot: np.ndarray, blocks: _Blocks):
    """Direct tension solve on (d, K) links t = D+ eta and link velocities
    t_dot = D+ eta_dot laid out by ``blocks``: one solve for a flat stack of
    chains.  Returns the interior tensions sigma_1..sigma_n of each block
    (K,) and the system's alpha (K - 1,) and w (K,), which the solve
    contract (:func:`_backward_error`) reads on the same flat stack."""
    alpha, w = _alpha(t), _sq(t_dot)
    return _solve_tridiagonal(alpha, w, blocks), alpha, w


def solve_tension(chain: ChainState, method: str = "direct") -> TensionSolution:
    """Solve the tridiagonal constraint system A sigma = w of the chain's links.

    ``direct`` runs the O(n) LAPACK tridiagonal solve; ``green`` applies
    sigma_k = (1/n) sum_j G_kj w_j through the Green function's generators,
    also in O(n).  Either result is held to the solve contract
    (:func:`_check_contract`) before it is returned.
    """
    t, t_dot = _chain_links(chain)
    alpha, w, blocks = _alpha(t), _sq(t_dot), _equal_blocks(chain.n, 1)
    if method == "direct":
        interior = _solve_tridiagonal(alpha, w, blocks)
    elif method == "green":
        interior = GreenMatrix(AlphaBeta(alpha)).apply(w)
    else:
        raise ValueError(f"unknown tension method {method!r}; use 'direct' or 'green'")
    _check_contract(_backward_error(alpha, interior, w, blocks))
    return TensionSolution(np.concatenate([[0.0], interior]))


def _check_contract(err: np.ndarray) -> None:
    """The solve contract on the backward errors ``err`` of a stack of
    systems (:func:`_backward_error`): each must be at most ``SOLVE_RTOL``, a
    small multiple of the unit roundoff that holds at every n and
    conditioning for a backward-stable solve.  Raises the NumericError of
    the first entry that breaks it, a NaN included, naming its index."""
    broken = np.flatnonzero(~(err <= SOLVE_RTOL))   # NaN too
    if broken.size:
        row = int(broken[0])
        raise NumericError(f"tension solve residual: backward error {err[row]:.3e} exceeds {SOLVE_RTOL:.1e}",
                           chain=row)


def _backward_error(alpha: np.ndarray, sigma: np.ndarray, w: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """Normwise backward error |A sigma - w| / (|A| |sigma| + |w|) in the
    infinity norm (Rigal and Gaches) of each block of a flat stack laid out
    by ``blocks``, with A the :func:`_operator` pair the solve factored.  The
    coupling products are zeroed at the block edges, so a NaN or inf sigma
    stays in its block, and the maxima reduce at ``blocks.starts``: each
    entry is bitwise its block's own."""
    diag, off = _operator(alpha, blocks)
    r = diag * sigma - w
    below, above = off * sigma[:-1], off * sigma[1:]
    below[blocks.cuts] = above[blocks.cuts] = 0.0   # else 0 * NaN crosses a block edge
    r[1:] += below
    r[:-1] += above
    np.abs(off, out=off)
    norm = diag.copy()
    norm[1:] += off
    norm[:-1] += off
    starts = blocks.starts
    scale = np.maximum.reduceat(norm, starts) * np.maximum.reduceat(np.abs(sigma), starts)
    scale += np.maximum.reduceat(np.abs(w), starts)
    return np.maximum.reduceat(np.abs(r), starts) / np.maximum(scale, np.finfo(float).tiny)


def tension_residual(chain: ChainState, sigma) -> float:
    """max_k | <D+ eta_k, D-D+ (sigma D+ eta)_k> + |D+ eta_dot_k|^2 |.

    The constraint equation in flux form, through the stepper's flux
    operator :func:`~whipchain.core._acceleration_arrays`; an independent
    restatement of the tridiagonal residual.
    """
    n = chain.n
    t, t_dot = _chain_links(chain)
    lhs = _dot(t, _acceleration_arrays(t, _tension_array(sigma, n)[1:], _equal_blocks(n, 1)))
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
    (..., n): two flux passes over the flat stack and one stacked solve on
    one layout, each chain bitwise its own (see :func:`_acceleration_arrays`
    and :func:`_solve_tridiagonal`).  Returns (..., n+1)."""
    n, d = t.shape[-1], t.shape[0]
    blocks = _equal_blocks(n, sigma.size // n)
    t, t_dot, flat = t.reshape(d, -1), t_dot.reshape(d, -1), sigma.ravel()
    rhs = 3.0 * _dot(t_dot, _acceleration_arrays(t, flat, blocks))
    rhs += _dot(t, _acceleration_arrays(t_dot, flat, blocks))
    sd = np.zeros(sigma.shape[:-1] + (n + 1,))
    sd[..., 1:] = _solve_tridiagonal(_alpha(t), rhs, blocks).reshape(sigma.shape)
    return sd


# ---------------------------------------------------------------------------
# diagnostics


def diagnostics_abc(chain: ChainState, sol: TensionSolution, sigma_dot: np.ndarray) -> tuple[float, float, float]:
    """a = max |D- sigma|, b = max s_k/sigma_k (inf when some sigma_k <= 0),
    c = max |D- sigma_dot|: the stack of one of :func:`_abc`.

    sigma and sigma_dot hold indices 0..n, and a ValueError names either one
    whose shape is not (n+1,) or whose entry 0 is not 0.  With sigma_0 = 0,
    sigma_k is the sum of its first differences up to k, so sigma_k/s_k <= a
    and likewise |sigma_dot_k|/s_k <= c, to round-off.
    """
    n = chain.n
    sigma, sigma_dot = _tension_array(sol, n), _tension_array(sigma_dot, n, "sigma_dot")
    for name, x in (("sigma", sigma), ("sigma_dot", sigma_dot)):
        if x[0] != 0.0:
            raise ValueError(f"{name}_0 must be 0, got {x[0]}")
    a, b, c = _abc(sigma, sigma_dot)
    return float(a), float(b), float(c)


def _abc(sigma: np.ndarray, sigma_dot: np.ndarray):
    """:func:`diagnostics_abc` of each chain of (..., n+1) stacks of sigma
    and sigma_dot, one entry of a, b and c per chain."""
    n = sigma.shape[-1] - 1
    a = np.abs(_links(sigma, n)).max(axis=-1)
    c = np.abs(_links(sigma_dot, n)).max(axis=-1)
    s = _weight_row(n, 1, 1, n)   # s_k = k/n
    interior = sigma[..., 1:]
    with np.errstate(divide="ignore"):
        b = np.where((interior <= 0.0).any(axis=-1), np.inf, (s / interior).max(axis=-1))
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
