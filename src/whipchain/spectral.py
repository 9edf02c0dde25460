"""Angle representation for planar chains and the chain/whip spectral maps.

A chain in the plane is equivalently a sequence of link angles theta_k with
D+ eta_k = (cos theta_k, sin theta_k); the inextensibility constraint is
then exact by construction.  Symmetric (even through the fixed end) angle
data expands in two orthogonal families:

* Q_m(s) = K_m P'_{2m-1}(1-s) on [0, 2] (Legendre-derived), and
* q_m(k/n), k = 1..2n (Hahn-derived), discretely orthonormal.

Both are orthonormal for the j = 0 symmetric weighted inner product and
diagonal with the same coefficients r_mj for every difference order j, which
is what makes the resolution-transfer maps isometries.

Inner products use the symmetric weight rho(s) = s(2-s), discretely
rho_k = k(2n+1-k)/n^2 with the rising-factorial analogue
rho_k^{(r)} = prod_{i=0}^{r-1} (k+i)(2n+1-k-i)/n^{2r} for higher orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

from .core import (
    ChainState, _anchored, _chain_links, _frozen_array, _mirrored, forward_diff_m, rising_product,
    weighted_seminorm_sq,
)


@dataclass(frozen=True)
class AngleState:
    """Link angles theta_1..theta_n and angular velocities (d = 2 chains), one shape (n,), n >= 1."""

    theta: np.ndarray
    theta_dot: np.ndarray
    time: float = 0.0
    n: int = field(init=False)

    def __post_init__(self):
        theta = _frozen_array(self.theta)
        theta_dot = _frozen_array(self.theta_dot)
        if theta.ndim != 1 or theta.size == 0 or theta_dot.shape != theta.shape:
            raise ValueError(f"theta, theta_dot need one shape (n,), n >= 1, got {theta.shape}, {theta_dot.shape}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_dot", theta_dot)
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "n", theta.shape[0])


# ---------------------------------------------------------------------------
# angle <-> position


def eta_to_theta(chain: ChainState) -> AngleState:
    """Angles of the unit links, unwrapped so |theta_{k+1} - theta_k| <= pi,
    and angular velocities from D+ eta_dot_k = theta_dot_k (-sin, cos)."""
    if chain.d != 2:
        raise ValueError(f"angle representation needs d = 2, got d = {chain.d}")
    t, td = _chain_links(chain)
    theta = np.unwrap(np.arctan2(t[1], t[0]))
    theta_dot = td[1] * np.cos(theta) - td[0] * np.sin(theta)
    return AngleState(theta, theta_dot, chain.time)


def theta_to_eta(angles: AngleState) -> ChainState:
    """Rebuild positions by cumulative sums anchored at the fixed end; the
    produced links are unit by construction."""
    theta = angles.theta
    td = angles.theta_dot * np.stack([-np.sin(theta), np.cos(theta)])
    return ChainState(theta_positions(theta).T, _anchored(td).T, angles.time)


def theta_positions(theta: np.ndarray) -> np.ndarray:
    """Positions eta_1..eta_{n+1} of the unit links at angles theta along the
    last axis, component-major: a (..., n) stack of angles gives a
    (2, ..., n+1) stack of chains, each bitwise the eta of its own
    :func:`theta_to_eta`."""
    return _anchored(np.stack([np.cos(theta), np.sin(theta)]))


def even_extend_theta(theta: np.ndarray, n: int) -> np.ndarray:
    """Extend theta_1..theta_n to k = 1..2n by theta_{2n+1-k} = theta_k."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != n:
        raise ValueError(f"expected {n} angles, got {theta.shape[-1]}")
    return _mirrored(theta, n)


# ---------------------------------------------------------------------------
# symmetric weights and inner products


def symmetric_weight(n: int, r: int, count: int) -> np.ndarray:
    """rho_k^{(r)} = prod_{i=0}^{r-1} rho_{k+i} for k = 1..count: the rising
    product of rho_j = j(2n+1-j)/n^2."""
    j = np.arange(count + r, dtype=float)
    return rising_product(j * (2 * n + 1 - j) / n**2, 1, count, r)


def discrete_symmetric_inner(f, g, j: int, n: int) -> float:
    """<<f, g>>_{rho, j} = (1/n) sum_{k=1}^{n - floor(j/2)} rho_k^{(j+1)} (D+^j f)(D+^j g).

    f and g are evenly extended sequences on k = 1..2n (or length-n halves,
    which are extended here).
    """
    def differenced(x):
        x = np.asarray(x, dtype=float)
        x = even_extend_theta(x, n) if x.shape[0] == n else x
        if x.shape[0] != 2 * n:
            raise ValueError("inputs must have length n or 2n")
        return forward_diff_m(x, n, j)

    df, dg = differenced(f), differenced(g)
    kmax = n - j // 2
    w = symmetric_weight(n, j + 1, kmax)
    return float(np.sum(w * df[:kmax] * dg[:kmax]) / n)


def r_coefficient(m: int, j: int) -> float:
    """r_mj = (2m+j)! / ((2m-j-2)! 2m (2m-1)); zero when 2m-j-2 < 0
    (reciprocal factorial of a negative integer)."""
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    if 2 * m - j - 2 < 0:
        return 0.0
    return factorial(2 * m + j) / (factorial(2 * m - j - 2) * (2 * m) * (2 * m - 1))


# ---------------------------------------------------------------------------
# the two bases


def basis_Q_deriv(m: int, s, j: int) -> np.ndarray:
    """j-th derivative of the Legendre-derived mode Q_m(s) = K_m P'_{2m-1}(1-s)
    on [0, 2] (j = 0 gives Q_m itself): even through s = 1, orthonormal at
    j = 0 for the rho-weighted inner product."""
    from numpy.polynomial import legendre as npleg   # here, not at import: only tests call this
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    coeffs = np.zeros(2 * m)
    coeffs[2 * m - 1] = 1.0
    dP = npleg.legder(coeffs, j + 1)
    K = np.sqrt((4 * m - 1) / (2.0 * m * (2 * m - 1)))
    return K * (-1.0) ** j * npleg.legval(1.0 - np.asarray(s, dtype=float), dP)


def basis_q_table(n: int, modes: int | None = None) -> np.ndarray:
    """The leading ``modes`` discrete modes q_m(k/n), m = 1..modes (all n
    by default), k = 1..2n, as a read-only (modes, 2n) array.

    q_m is even through the fixed end, so on the half grid k = 1..n it is
    the degree m-1 orthonormal polynomial in x = (k - n - 1/2)^2 for the
    weight rho_k / n (the symmetric-measure reduction of the Hahn family).
    Row m+1 is x q_m Gram-Schmidt orthogonalized against rows 1..m, twice
    for round-off, so every mode keeps a positive leading coefficient in x,
    as Q_m does in (1-s)^2; hence q_m(1) has the sign (-1)^(m-1).  The
    second half is the mirror image of the first.

    Row m reads only rows < m, so the leading rows cost O(modes^2 n) and are
    bitwise the first rows of the full O(n^3) table.  Tables are cached by
    (n, modes), with ``basis_q_table(n)`` and ``modes = n`` one entry;
    ``cache_info`` counts the builds.
    """
    modes = n if modes is None else modes
    if not 1 <= modes <= n:
        raise ValueError(f"mode count must lie in 1..{n}, got {modes}")
    return _basis_q_rows(n, modes)


@lru_cache(maxsize=64)
def _basis_q_rows(n: int, modes: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=float)
    x = (k - n - 0.5) ** 2
    w = symmetric_weight(n, 1, n) / n
    half = np.empty((modes, n))
    half[0] = 1.0 / np.sqrt(np.sum(w))
    for m in range(1, modes):
        t = x * half[m - 1]
        for _ in range(2):                        # twice-is-enough reorthogonalization
            t = t - half[:m].T @ (half[:m] @ (w * t))
        half[m] = t / np.sqrt(np.sum(w * t * t))
    table = _mirrored(half, n)
    table.setflags(write=False)
    return table


basis_q_table.cache_info = _basis_q_rows.cache_info
basis_q_table.cache_clear = _basis_q_rows.cache_clear


def basis_q(m: int, n: int) -> np.ndarray:
    """Discrete mode q_m(k/n) for k = 1..2n; symmetric under k -> 2n+1-k."""
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"mode index m={m} exceeds the resolution n={n}")
    return basis_q_table(n)[m - 1]


# ---------------------------------------------------------------------------
# transfer maps


def angle_coefficients(values, n: int, modes: int | None = None) -> np.ndarray:
    """a_m = <<theta, q_m>>_{rho,0} = (1/n) sum_k rho_k theta_k q_m(k/n) for
    m = 1..modes (all n by default), from the leading rows of
    :func:`basis_q_table`.

    ``values`` is theta_1..theta_n or its even extension to k = 1..2n, of
    which only the first half is read.  The leading coefficients agree with
    the full set to a few ulp, not always bitwise: BLAS may block the rows of
    the shorter product differently."""
    values = np.asarray(values, dtype=float)[:n]
    return basis_q_table(n, modes)[:, :n] @ (symmetric_weight(n, 1, n) * values) / n


def evaluate_discrete(coeffs, n: int) -> np.ndarray:
    """theta_k = sum_{m <= min(n, len(coeffs))} A_m q_m(k/n) for k = 1..n."""
    coeffs = np.asarray(coeffs, dtype=float)
    mm = min(n, coeffs.shape[0])
    return coeffs[:mm] @ basis_q_table(n, mm)[:, :n]


def continuize_Gn(angles: AngleState, modes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Discrete angles -> continuous-target coefficient arrays a_m (theta and
    theta_dot paths), m = 1..modes (all n by default); an isometry in every
    (rho, j) seminorm."""
    return (angle_coefficients(angles.theta, angles.n, modes),
            angle_coefficients(angles.theta_dot, angles.n, modes))


def discretize_Fn(coeffs, n: int, coeffs_dot=None, time: float = 0.0) -> AngleState:
    """Coefficients -> discrete angles at resolution n, truncating to the
    first n modes; inverse of continuize_Gn on n-mode data."""
    theta = evaluate_discrete(coeffs, n)
    theta_dot = np.zeros(n) if coeffs_dot is None else evaluate_discrete(coeffs_dot, n)
    return AngleState(theta, theta_dot, time)


def transfer_resolution(chain: ChainState, n_target: int) -> ChainState:
    """Resample a planar chain to n_target links through the spectral maps;
    the result satisfies |D+ eta| = 1 exactly and preserves the symmetric
    Sobolev seminorms of the retained modes.  Only the min(n, n_target)
    modes the target reads are built at the source resolution."""
    if n_target < 1:
        raise ValueError(f"target resolution must be >= 1, got {n_target}")
    angles = eta_to_theta(chain)
    a, ad = continuize_Gn(angles, min(chain.n, n_target))
    resampled = discretize_Fn(a, n_target, ad, time=chain.time)
    return theta_to_eta(resampled)


# ---------------------------------------------------------------------------
# angle/position norm comparison (monitored, not asserted)


def theta_eta_norms(chain: ChainState) -> tuple[float, float]:
    """The pair (A, B) of squared third-order weighted norms of the angle
    function and the position function; bounded by polynomial expressions in
    each other with constants the theory does not pin down."""
    n = chain.n
    angles = eta_to_theta(chain)
    A = 0.0
    B = 0.0
    for j in (1, 2, 3):
        if n - j < 1:
            continue
        A += weighted_seminorm_sq(angles.theta, j + 1, j, n)
        # position differences of order j+1 at k = 1..n-j need no extension
        B += weighted_seminorm_sq(chain.eta, j + 1, j + 1, n)
    return A, B
