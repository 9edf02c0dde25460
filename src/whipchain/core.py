"""Difference calculus, rising-factorial weights, weighted seminorms, and
discrete energies for a chain of n rigid links with one end fixed.

Index conventions
-----------------
Particles carry indices k = 1..n+1 with the (n+1)-st fixed at the origin;
arrays are 0-based, so ``eta[k-1]`` is particle k.  Tensions carry indices
0..n with sigma_0 = 0, stored so that ``sigma[k]`` is sigma_k.  The forward
difference is (D+ f)_k = n (f_{k+1} - f_k); difference operators shorten
arrays and never pad.  Where the extended index ranges are required, use
:func:`odd_extend` explicitly.

All functions here are pure; states are immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# difference calculus


def forward_diff(f, n: int) -> np.ndarray:
    """(D+ f)_k = n (f_{k+1} - f_k); output is one shorter than the input.

    The entry ``out[i]`` carries the chain index of ``f[i]``.  The same array
    is the backward difference (D- f)_k = n (f_k - f_{k-1}) with ``out[i]``
    carrying the index of ``f[i+1]`` instead (D- = E^{-1} D+).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] < 2:
        raise ValueError(f"forward_diff needs a sequence of length >= 2, got {f.shape[0]}")
    return n * (f[1:] - f[:-1])


def forward_diff_m(f, n: int, m: int) -> np.ndarray:
    """m-fold forward difference; output is m shorter than the input."""
    if m < 0:
        raise ValueError(f"difference order must be nonnegative, got {m}")
    out = np.asarray(f, dtype=float)
    if out.shape[0] < m + 1:
        raise ValueError(
            f"sequence of length {out.shape[0]} does not support {m} differences"
        )
    for _ in range(m):
        out = n * (out[1:] - out[:-1])
    return out


# ---------------------------------------------------------------------------
# rising-factorial weights


def rising_weight(k, r: float, n: int):
    """Weight s_k^{(r)} = Gamma(k+r) / (n^r Gamma(k)) for r > -1.

    Vectorized over k.  k = 0 is allowed with the limiting values
    s_0^{(0)} = 1 and s_0^{(r)} = 0 for r != 0 (1/Gamma(0) = 0), which is
    what the extended sigma-norm ranges need.  Integer r >= 0 uses the exact
    product k (k+1) ... (k+r-1) / n^r.  Other r use the running product
    s_k^{(r)} = Gamma(1+r) n^{-r} prod_{j=1}^{k-1} (j+r)/j, one cumulative
    product up to the largest k: its relative error stays near sqrt(k) eps,
    where a difference of log-gammas loses about k eps to cancellation.
    """
    if r <= -1:
        raise ValueError(f"weight exponent must be > -1, got r={r}")
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("weight index k must be >= 0")
    kf = k.astype(float)
    if float(r).is_integer() and r >= 0:
        ri = int(r)
        out = np.ones_like(kf)
        for i in range(ri):
            out = out * (kf + i)
        out = out / float(n) ** ri
    else:
        j = np.arange(1.0, int(k.max(initial=0)))
        ratios = np.concatenate([[0.0, 1.0], np.cumprod((j + r) / j)])  # Gamma(k+r) / (Gamma(1+r) Gamma(k))
        out = gamma(1.0 + r) / float(n) ** r * ratios[k]
    return out if out.ndim else float(out)


@lru_cache(maxsize=128)
def _weight_row(n: int, r: float, first: int, count: int) -> np.ndarray:
    """s_k^{(r)} for k = first..first+count-1, built once per key by
    :func:`rising_weight` and returned read-only (the snapshot pass asks for
    the same eight rows at every report)."""
    out = rising_weight(np.arange(first, first + count), r, n)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# weighted seminorms


def _sq(values: np.ndarray) -> np.ndarray:
    """|v|^2 over the last axis (a 1-D array is squared elementwise), summed
    component by component from the left: bitwise np.sum(v * v, axis=-1) for
    d = 2 and 3, at a third of its cost on the short length-d axis."""
    if values.ndim == 1:
        return values * values
    out = values[..., 0] * values[..., 0]
    for i in range(1, values.shape[-1]):
        out += values[..., i] * values[..., i]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis.  For d = 2 the two products are added
    directly, bitwise the einsum and cheaper; other d keep the einsum, whose
    rounding a left-to-right sum does not reproduce."""
    if a.shape[-1] == 2:
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    return np.einsum("...d,...d->...", a, b)


def _links(f: np.ndarray, n: int | None = None) -> np.ndarray:
    """(D+ f)_k = n (f_{k+1} - f_k) along the rows of (..., rows, d) vectors: a chain's
    link vectors.  n is the rows less one unless given (as an extension's slice must)."""
    n = f.shape[-2] - 1 if n is None else n
    return n * (f[..., 1:, :] - f[..., :-1, :])


def _lengths(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis: np.linalg.norm(v, axis=-1), bitwise for
    d = 2 and 3 (see :func:`_sq`), without its per-call checks."""
    return np.sqrt(_sq(v))


def weighted_seminorm_sq(f, r: float, m: int, n: int, first_index: int = 1) -> float:
    """Squared weighted Sobolev seminorm (1/n) sum_k s_k^{(r)} |D+^m f_k|^2.

    ``f[0]`` carries chain index ``first_index`` and the sum runs over every
    k at which the m-th difference exists.  With the paper's storage
    conventions that reproduces the stated ranges: a bare sequence f_1..f_n
    gives k = 1..n-m, eta (length n+1) gives k = 1..n-m+1, and sigma with
    ``first_index=0`` (length n+1) gives k = 0..n-m.
    """
    df = forward_diff_m(f, n, m)
    w = _weight_row(n, r, first_index, df.shape[0])
    return float(np.sum(w * _sq(df)) / n)


def weighted_supnorm_sq(f, r: float, m: int, n: int, first_index: int = 1) -> float:
    """Squared weighted sup seminorm max_k s_k^{(r)} |D+^m f_k|^2."""
    df = forward_diff_m(f, n, m)
    w = _weight_row(n, r, first_index, df.shape[0])
    return float(np.max(w * _sq(df)))


# ---------------------------------------------------------------------------
# chain state


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChainState:
    """Positions and velocities of the n moving particles plus the fixed end.

    eta and eta_dot have shape (n+1, d); row k-1 is particle k and the last
    row is the fixed end, exactly zero.  On the constraint manifold every
    link satisfies |D+ eta_k| = 1 and <D+ eta_k, D+ eta_dot_k> = 0; use
    :meth:`validate` to enforce this within tolerances.
    """

    n: int
    d: int
    eta: np.ndarray
    eta_dot: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one link, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"ambient dimension must be >= 2, got d={self.d}")
        eta = _frozen_array(self.eta)
        eta_dot = _frozen_array(self.eta_dot)
        expected = (self.n + 1, self.d)
        if eta.shape != expected or eta_dot.shape != expected:
            raise ValueError(
                f"eta/eta_dot must have shape {expected}, got {eta.shape} and {eta_dot.shape}"
            )
        if np.any(eta[-1] != 0.0) or np.any(eta_dot[-1] != 0.0):
            raise ValueError("the fixed end eta_{n+1} and its velocity must be exactly zero")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_dot", eta_dot)

    def link_dirs(self) -> np.ndarray:
        """(D+ eta)_k for k = 1..n, shape (n, d); unit vectors on the manifold."""
        return _links(self.eta)

    def link_dirs_dot(self) -> np.ndarray:
        """(D+ eta_dot)_k for k = 1..n, shape (n, d)."""
        return _links(self.eta_dot)

    def constraint_drift(self) -> float:
        """max_k | |D+ eta_k| - 1 |."""
        return float(np.max(np.abs(_lengths(self.link_dirs()) - 1.0)))

    def orthogonality_drift(self) -> float:
        """max_k | <D+ eta_k, D+ eta_dot_k> |."""
        return float(np.max(np.abs(_dot(self.link_dirs(), self.link_dirs_dot()))))

    def validate(self, tol_length: float = 1e-10, tol_orth: float = 1e-8) -> "ChainState":
        """Raise ValueError off the constraint manifold.  The orthogonality
        drift is measured against ``tol_orth`` times max(1, max_k |D+ eta_dot_k|):
        the round-off of <D+ eta_k, D+ eta_dot_k> grows with the speed, so an
        absolute tolerance would refuse fast states that are exact to
        round-off, while at unit speed and below it stays ``tol_orth``."""
        drift = self.constraint_drift()
        if drift > tol_length:
            raise ValueError(f"link-length drift {drift:.3e} exceeds tolerance {tol_length:.1e}")
        orth = self.orthogonality_drift()
        tol = tol_orth * max(1.0, float(np.max(_lengths(self.link_dirs_dot()))))
        if orth > tol:
            raise ValueError(f"orthogonality drift {orth:.3e} exceeds tolerance {tol:.1e}")
        return self


# ---------------------------------------------------------------------------
# odd/even extensions


class ExtendedChain(NamedTuple):
    """Chain extended through the fixed end: eta odd, sigma even.

    eta_ext / eta_dot_ext hold particles k = 1..2n+1 (row k-1) with
    eta_k = -eta_{2n+2-k}; sigma_ext, when present, holds sigma_0..sigma_2n
    with sigma_k = sigma_{2n+1-k}.
    """

    eta_ext: np.ndarray
    eta_dot_ext: np.ndarray
    sigma_ext: np.ndarray | None = None


def odd_extend(chain: ChainState, sigma=None) -> ExtendedChain:
    """Odd extension of eta and eta_dot through the fixed end, even for sigma.

    ``sigma`` may be an array sigma_0..sigma_n or any object with a
    ``.sigma`` attribute (a tension solution).
    """
    eta_ext = np.concatenate([chain.eta, -chain.eta[-2::-1]])
    eta_dot_ext = np.concatenate([chain.eta_dot, -chain.eta_dot[-2::-1]])
    if sigma is None:
        return ExtendedChain(eta_ext, eta_dot_ext)
    sig = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sig.shape != (chain.n + 1,):
        raise ValueError(f"sigma must hold sigma_0..sigma_n, expected shape ({chain.n + 1},)")
    return ExtendedChain(eta_ext, eta_dot_ext, np.concatenate([sig, sig[-1:0:-1]]))


# ---------------------------------------------------------------------------
# discrete energies


def _squared_differences(ext: ExtendedChain, n: int, m_max: int) -> list:
    """Pairs (|D+^l eta_dot_k|^2, |D+^{l+1} eta_k|^2) on k = 1..n - floor(l/2)
    for l = 0..m_max, differences beyond the fixed end taken through ``ext``."""
    out = []
    dvel = ext.eta_dot_ext
    dpos = _links(ext.eta_ext, n)
    for ell in range(m_max + 1):
        kmax = n - ell // 2
        if kmax < 1:
            raise ValueError(f"energy order {ell} needs n > {2 * (ell // 2)}")
        out.append((_sq(dvel[:kmax]), _sq(dpos[:kmax])))
        if ell < m_max:
            dvel = _links(dvel, n)
            dpos = _links(dpos, n)
    return out


def _energy_sums(sq: list, weight) -> np.ndarray:
    """Row l holds sum_k w(k, l) |D+^l eta_dot_k|^2 and sum_k w(k, l+1) |D+^{l+1} eta_k|^2
    over the ranges of :func:`_squared_differences`.

    ``weight(r, count)`` gives w(k, r) for k = 1..count; it is called once per
    order r, on the widest range that order is summed over.
    """
    w = [weight(r, len(sq[max(r - 1, 0)][0])) for r in range(len(sq) + 1)]
    return np.array(
        [[np.sum(w[ell][: len(v)] * v), np.sum(w[ell + 1][: len(p)] * p)] for ell, (v, p) in enumerate(sq)]
    )


def _s_weight(n: int):
    """The rising weights s_k^{(r)} in the form :func:`_energy_sums` takes."""
    return lambda r, count: _weight_row(n, r, 1, count)


def _sigma_weight(sigma_ext: np.ndarray):
    """The tension products sigma_k^{(r)} in the form :func:`_energy_sums` takes."""
    return lambda r, count: sigma_rising_product(sigma_ext, 1, count, r)


def _energies(sums: np.ndarray, n: int) -> np.ndarray:
    """e_0..e_{m_max} from the rows of :func:`_energy_sums`."""
    return np.cumsum((sums[:, 0] + sums[:, 1]) / n)


def u0_v0(chain: ChainState) -> tuple[float, float]:
    """The two conserved pieces of e_0: u_0 = (1/n) sum |eta_dot_k|^2 and
    v_0 = (1/n) sum s_k |D+ eta_k|^2 (= 1/2 + 1/2n on the manifold)."""
    n = chain.n
    u0, v0 = _energy_sums(_squared_differences(odd_extend(chain), n, 0), _s_weight(n))[0] / n
    return float(u0), float(v0)


def discrete_energy(chain: ChainState, m_max: int = 3) -> np.ndarray:
    """Time-independent energies e_0..e_{m_max}.

    e_m = (1/n) sum_{l=0}^{m} sum_{k=1}^{n - floor(l/2)}
          ( s_k^{(l)} |D+^l eta_dot_k|^2 + s_k^{(l+1)} |D+^{l+1} eta_k|^2 ),
    with differences beyond the fixed end taken through the odd extension.
    Nondecreasing in m, and >= 1/2 + 1/2n on the constraint manifold.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    n = chain.n
    return _energies(_energy_sums(_squared_differences(odd_extend(chain), n, m_max), _s_weight(n)), n)


def sigma_rising_product(sigma_ext: np.ndarray, k_start: int, count: int, r: int) -> np.ndarray:
    """sigma_k^{(r)} = prod_{j=k}^{k+r-1} sigma_j for k = k_start..k_start+count-1.

    ``sigma_ext`` holds sigma_0..sigma_{2n} (even extension); r = 0 gives 1.
    """
    out = np.ones(count)
    for i in range(r):
        out = out * sigma_ext[k_start + i : k_start + i + count]
    return out


def sigma_weighted_energy(chain: ChainState, sigma, m_max: int = 3) -> np.ndarray:
    """Time-dependent energies e~_0..e~_{m_max}, weighted by tension products
    sigma_k^{(l)} instead of s_k^{(l)}; equals the s-weighted energies when
    sigma_k = s_k (up to the even-extension boundary terms at m >= 3)."""
    if sigma is None:
        raise ValueError("sigma_weighted_energy requires a solved tension")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    n = chain.n
    ext = odd_extend(chain, sigma)
    return _energies(_energy_sums(_squared_differences(ext, n, m_max), _sigma_weight(ext.sigma_ext)), n)
