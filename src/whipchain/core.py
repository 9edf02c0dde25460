"""Difference calculus, rising-factorial weights, weighted seminorms, and
discrete energies for a chain of n rigid links with one end fixed.

Index conventions
-----------------
Particles carry indices k = 1..n+1 with the (n+1)-st fixed at the origin;
arrays are 0-based, so ``eta[k-1]`` is particle k.  Tensions carry indices
0..n with sigma_0 = 0, stored so that ``sigma[k]`` is sigma_k.  The forward
difference is (D+ f)_k = n (f_{k+1} - f_k); difference operators shorten
arrays and never pad.  Every diagnostic reads the links t_k = D+ eta_k and
their velocities.  The paper extends eta oddly and sigma evenly through the
fixed end; in link terms both continue evenly, t_{n+j} = t_{n+1-j} and
sigma_{n+j} = sigma_{n+1-j}, and :func:`_mirrored` continues them exactly as
many rows as a diagnostic reads.  The one flux operator D-D+ (sigma f),
with that mirror built in, is :func:`_acceleration_arrays`, which the
stepper and the tension diagnostics share.

Layout
------
Link data is component-major inside the package: an array of d-vectors is
shaped (d, ..., k), components first.  Components are summed over axis 0,
left to right, and differences run along the last axis.  A stack of
chains is one flat (d, sum n) row of blocks of n_b links, coupled by
nothing: every kernel on a flat stack (:func:`_acceleration_arrays`,
``tension._solve_tridiagonal`` and the stepper's) takes the stack's
:class:`_Blocks` and cuts the stack at its block edges; a per-chain entry
point takes its layout from :func:`_equal_blocks`.  ``ChainState`` and
every public function keep the row-major (n+1, d) and (n, d) forms and
convert once at their boundary.

All functions here are pure; states are immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gamma, isfinite, lgamma, log

import numpy as np


# ---------------------------------------------------------------------------
# difference calculus


def forward_diff_m(f, n: int, m: int) -> np.ndarray:
    """m-fold forward difference along axis 0, :func:`_links` m times; output
    is m shorter than the input.  At m = 1 ``out[i]`` = (D+ f)_k carries the
    chain index k of ``f[i]``; the same array is the backward difference
    (D- f)_k = n (f_k - f_{k-1}) at the index of ``f[i+1]`` (D- = E^{-1} D+)."""
    if m < 0:
        raise ValueError(f"difference order must be nonnegative, got {m}")
    out = np.moveaxis(np.asarray(f, dtype=float), 0, -1)
    if out.shape[-1] < m + 1:
        raise ValueError(f"sequence of length {out.shape[-1]} does not support {m} differences")
    for _ in range(m):
        out = _links(out, n)
    return np.moveaxis(out, -1, 0)


# ---------------------------------------------------------------------------
# rising-factorial weights


def rising_product(x: np.ndarray, k_start: int, count: int, r: int) -> np.ndarray:
    """x_k^{(r)} = prod_{i=0}^{r-1} x_{k+i} for k = k_start..k_start+count-1,
    multiplied from the left along the last axis of x, one row per sequence
    of a stack; r = 0 gives 1.  ``x`` holds x_0 onwards as far as
    k_start + count + r - 2.  The tension products sigma_k^{(r)} are those
    of sigma mirrored evenly past sigma_n, and ``spectral``'s symmetric
    weights rho_k^{(r)} those of rho_j = j (2n+1-j) / n^2.
    """
    out = np.ones(count)
    for i in range(r):
        out = out * x[..., k_start + i : k_start + i + count]
    return out


def _rising_products(x: np.ndarray, k_start: int, counts) -> list:
    """The :func:`rising_product` rows x_k^{(r)} for r = 0..len(counts)-1,
    row r on k = k_start..k_start+counts[r]-1 (``counts`` nonincreasing).
    Row r is row r-1 times x_{k+r-1}, so each is multiplied from the left as
    :func:`rising_product` says, and all of them cost one product each."""
    out = [np.ones(counts[0])]
    for r, count in enumerate(counts[1:], start=1):
        out.append(out[-1][..., :count] * x[..., k_start + r - 1 : k_start + r - 1 + count])
    return out


def rising_weight(k, r: float, n: int):
    """Weight s_k^{(r)} = Gamma(k+r) / (n^r Gamma(k)) for r > -1.

    Vectorized over k.  k = 0 is allowed with the limiting values
    s_0^{(0)} = 1 and s_0^{(r)} = 0 for r != 0 (1/Gamma(0) = 0), which is
    what the extended sigma-norm ranges need.  The one row of
    :func:`_rising_table`.
    """
    if r <= -1:
        raise ValueError(f"weight exponent must be > -1, got r={r}")
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("weight index k must be >= 0")
    width = int(k.max(initial=0)) + 1
    if _rising_overflows(r, n, width):
        raise ValueError(f"weights s_k^(r) at r={r}, n={n}, k < {width} pass half the largest double")
    out = _rising_table(np.array([float(r)]), np.array([n]), width)[0][k]
    return out if out.ndim else float(out)


def _rising_overflows(r: float, n: int, width: int) -> bool:
    """Whether Gamma(k+r)/Gamma(k) at the largest k < width (at least 1), or
    n^r, passes half the largest double.  Each entry and intermediate of the
    :func:`_rising_table` row s_k^{(r)}, k < width, is within a factor 1.13
    of one of the two.  From log-gammas, so it allocates nothing; from
    r = 171 on, r! alone passes the largest double."""
    k = max(width - 1, 1)
    return r >= 171 or max(lgamma(k + r) - lgamma(k), r * log(n)) > log(np.finfo(float).max / 2)


def _rising_table(r: np.ndarray, n: np.ndarray, width: int) -> np.ndarray:
    """Row i holds s_k^{(r_i)} at n_i for k = 0..width-1 (width >= 1), every r_i > -1.

    Integer r >= 0 uses the exact product k (k+1) ... (k+r-1) / n^r, the
    :func:`rising_product` of x_j = j.  Other r use the running product
    s_k^{(r)} = Gamma(1+r) n^{-r} prod_{j=1}^{k-1} (j+r)/j, one cumulative
    product for all of them: its relative error stays near sqrt(k) eps,
    where a difference of log-gammas loses about k eps to cancellation.
    """
    out = np.empty((len(r), width))
    whole = r == np.floor(r)
    for i in np.flatnonzero(whole):
        ri = int(r[i])
        out[i] = rising_product(np.arange(float(width + ri)), 0, width, ri) / float(n[i]) ** ri
    rf, j = r[~whole], np.arange(1.0, width - 1)
    ratios = np.ones((len(rf), width))   # Gamma(k+r) / (Gamma(1+r) Gamma(k)) at k
    ratios[:, 0] = 0.0
    ratios[:, 2:] = np.cumprod((j + rf[:, None]) / j, axis=1)
    lead = np.array([gamma(1.0 + ri) / float(ni) ** ri for ri, ni in zip(rf.tolist(), n[~whole].tolist())])
    ratios *= lead[:, None]
    out[~whole] = ratios
    return out


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
    """|v|^2 over the component axis 0 of (d, ..., k) vectors, summed from the
    left; a 1-D array is a scalar sequence and squares elementwise."""
    if values.ndim == 1:
        return values * values
    out = values[0] * values[0]
    for i in range(1, values.shape[0]):
        out += values[i] * values[i]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the component axis 0, summed from the left:
    np.sum(a * b, axis=0) without its temporaries."""
    out = a[0] * b[0]
    for i in range(1, a.shape[0]):
        out += a[i] * b[i]
    return out


def _links(f: np.ndarray, n: int | None = None) -> np.ndarray:
    """(D+ f)_k = n (f_{k+1} - f_k) along the last axis of (d, ..., rows) vectors:
    a chain's link vectors.  n is the rows less one unless given; callers
    pass it for higher differences, flat stacks and mirrored rows."""
    n = f.shape[-1] - 1 if n is None else n
    return n * (f[..., 1:] - f[..., :-1])


def _anchored(links: np.ndarray) -> np.ndarray:
    """The (d, ..., n+1) positions of (d, ..., n) links, eta_k = eta_{k+1} - links_k / n
    summed back from eta_{n+1} = 0: the inverse of :func:`_links` to round-off."""
    n = links.shape[-1]
    out = np.zeros(links.shape[:-1] + (n + 1,))
    back = out[..., -2::-1]   # eta_n..eta_1
    np.negative(np.cumsum((links / n)[..., ::-1], axis=-1, out=back), out=back)
    return out


def _lengths(v: np.ndarray) -> np.ndarray:
    """|v| over the component axis 0: np.linalg.norm(v, axis=0), bitwise for
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
    return float(np.sum(_weighted_terms(_sq(forward_diff_m(f, n, m).T), r, n, first_index)) / n)


def weighted_supnorm_sq(f, r: float, m: int, n: int, first_index: int = 1) -> float:
    """Squared weighted sup seminorm max_k s_k^{(r)} |D+^m f_k|^2."""
    return float(np.max(_weighted_terms(_sq(forward_diff_m(f, n, m).T), r, n, first_index)))


def _weighted_terms(sq: np.ndarray, r: float, n: int, first_index: int) -> np.ndarray:
    """s_k^{(r)} sq_k along the last axis of the squared differences ``sq``,
    whose first entry carries chain index ``first_index``."""
    return _weight_row(n, r, first_index, sq.shape[-1]) * sq


# ---------------------------------------------------------------------------
# chain state


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _finite_time(time) -> float:
    """A state's ``time`` as a Python float, refused where it is not finite."""
    time = float(time)
    if not isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    return time


@dataclass(frozen=True)
class ChainState:
    """Positions and velocities of the n moving particles plus the fixed end.

    eta and eta_dot share one shape (n+1, d), n >= 1 and d >= 2, from which n
    and d are read; row k-1 is particle k and the last row is the fixed end,
    exactly zero; time is finite.  On the constraint manifold every link has
    |D+ eta_k| = 1 and <D+ eta_k, D+ eta_dot_k> = 0; use :meth:`validate`.
    """

    eta: np.ndarray
    eta_dot: np.ndarray
    time: float = 0.0
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        eta = _frozen_array(self.eta)
        eta_dot = _frozen_array(self.eta_dot)
        if eta.ndim != 2 or min(eta.shape) < 2 or eta_dot.shape != eta.shape:
            raise ValueError(f"eta, eta_dot need one shape (n+1, d), n >= 1, d >= 2, got {eta.shape}, {eta_dot.shape}")
        if np.any(eta[-1] != 0.0) or np.any(eta_dot[-1] != 0.0):
            raise ValueError("the fixed end eta_{n+1} and its velocity must be exactly zero")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_dot", eta_dot)
        object.__setattr__(self, "time", _finite_time(self.time))
        object.__setattr__(self, "n", eta.shape[0] - 1)
        object.__setattr__(self, "d", eta.shape[1])

    def link_dirs(self) -> np.ndarray:
        """(D+ eta)_k for k = 1..n, shape (n, d); unit vectors on the manifold."""
        return _links(self.eta.T).T

    def link_dirs_dot(self) -> np.ndarray:
        """(D+ eta_dot)_k for k = 1..n, shape (n, d)."""
        return _links(self.eta_dot.T).T

    def constraint_drift(self) -> float:
        """max_k | |D+ eta_k| - 1 |."""
        return float(np.max(np.abs(_lengths(_links(self.eta.T)) - 1.0)))

    def orthogonality_drift(self) -> float:
        """max_k | <D+ eta_k, D+ eta_dot_k> |."""
        return float(np.max(np.abs(_dot(*_chain_links(self)))))

    def validate(self, tol_length: float = 1e-10, tol_orth: float = 1e-8) -> "ChainState":
        """Raise ValueError on a non-finite state, on link speeds whose squares
        |D+ eta_dot_k|^2 overflow, or off the constraint manifold.  The
        orthogonality drift is measured against ``tol_orth`` times
        max(1, max_k |D+ eta_dot_k|): the round-off of
        <D+ eta_k, D+ eta_dot_k> grows with the speed, so an absolute tolerance
        would refuse fast states that are exact to round-off, while at unit
        speed and below it stays ``tol_orth``."""
        if not (np.isfinite(self.eta).all() and np.isfinite(self.eta_dot).all()):
            raise ValueError("eta and eta_dot must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            t, t_dot = _chain_links(self)
            speed_sq = float(np.max(_sq(t_dot)))
        drift = float(np.max(np.abs(_lengths(t) - 1.0)))
        if drift > tol_length:
            raise ValueError(f"link-length drift {drift:.3e} exceeds tolerance {tol_length:.1e}")
        if not np.isfinite(speed_sq):
            raise ValueError("link speeds |D+ eta_dot_k| overflow: their squares are not finite")
        orth = float(np.max(np.abs(_dot(t, t_dot))))
        tol = tol_orth * max(1.0, np.sqrt(speed_sq))
        if orth > tol:
            raise ValueError(f"orthogonality drift {orth:.3e} exceeds tolerance {tol:.1e}")
        return self


def _chain_links(chain: ChainState) -> tuple[np.ndarray, np.ndarray]:
    """A chain's links and link velocities, component-major (d, n)."""
    return _links(chain.eta.T), _links(chain.eta_dot.T)


# ---------------------------------------------------------------------------
# links and tensions through the fixed end


def _mirrored(x: np.ndarray, rows: int) -> np.ndarray:
    """x with its last ``rows`` entries along the last axis appended in reverse,
    x_{n+j} = x_{n+1-j}: links (d, n) or tensions sigma_0..sigma_n continued
    evenly through the fixed end.  The links of the paper's odd extension of
    eta are these, as floats, up to the sign of a zero."""
    return np.concatenate([x, x[..., ::-1][..., :rows]], axis=-1)


def _tension_array(sigma, n: int, name: str = "sigma") -> np.ndarray:
    """sigma_0..sigma_n as a float array, from an array or a tension solution's
    ``.sigma``; a ValueError naming the argument ``name`` unless its shape is
    (n+1,)."""
    sig = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sig.shape != (n + 1,):
        raise ValueError(f"{name} must hold {name}_0..{name}_n, shape ({n + 1},), got {sig.shape}")
    return sig


class _Blocks:
    """The block edges of a flat (d, K) stack of chains' links, built once per
    set of chains: block b holds chain b's n_b links in columns
    ``starts[b]`` .. ``ends[b] - 1``.

    ``free`` indexes each block's first link but the stack's first (the free
    ends), ``fixed`` each block's last link (the fixed ends) and ``cuts`` the
    cosines that pair the last link of one block with the first of the next.
    ``n`` is each link's block length, for the per-link scalings, and
    ``joint_n`` each cosine's.  When every block has one n, these are one
    number and the indexers strided slices; otherwise per-link arrays and
    index arrays, so a scaling is the same single IEEE operation per element
    either way.  Per-chain reductions run ``ufunc.reduceat`` at ``starts``,
    and ``runs`` holds (n, first block, end block, first link, end link) for
    each run of consecutive blocks of one n, in the order given; ``n_top``
    is the largest n.
    """

    def __init__(self, sizes):
        sizes = [int(n) for n in sizes]
        ends = list(accumulate(sizes))
        self.sizes, self.ends = np.array(sizes, dtype=int), np.array(ends, dtype=int)
        self.n_top = max(sizes, default=0)
        self.starts = self.ends - self.sizes
        self.stacked = len(sizes) > 1
        self.runs, a = [], 0
        for b in range(1, len(sizes) + 1):
            if b == len(sizes) or sizes[b] != sizes[a]:
                self.runs.append((sizes[a], a, b, ends[a] - sizes[a], ends[b - 1]))
                a = b
        if len(self.runs) <= 1:   # one n, or an empty stack, which scales nothing
            n = self.runs[0][0] if self.runs else 1
            self.n = self.joint_n = n
            self.free, self.fixed, self.cuts = slice(n, None, n), slice(n - 1, None, n), slice(n - 1, None, n)
        else:
            self.n = np.repeat(self.sizes.astype(float), self.sizes)
            self.joint_n = self.n[:-1]
            self.free, self.fixed, self.cuts = self.starts[1:], self.ends - 1, self.ends[:-1] - 1
        self.n_sq = self.n * self.n

    @cached_property
    def diag(self) -> np.ndarray:
        """The tension operators' diagonal n^2 (2, ..., 2, 1) of every block,
        read-only."""
        diag = np.full(int(self.sizes.sum()), 2.0)
        diag[self.fixed] = 1.0
        out = diag * self.n * self.n
        out.setflags(write=False)
        return out

    def part(self, b: int) -> slice:
        """Block b's columns."""
        return slice(int(self.starts[b]), int(self.ends[b]))


@lru_cache(maxsize=16)
def _equal_blocks(n: int, count: int) -> _Blocks:
    """The layout of ``count`` chains of n links, built once per key."""
    return _Blocks([n] * count)


def _acceleration_arrays(f: np.ndarray, sigma: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """D-D+ (sigma f)_k for k = 1..n of each block of links in (d, ..., K)
    link data f under the interior tensions sigma_1..sigma_n, shaped (..., K):
    with g_k = sigma_k f_k, g_0 = 0 at the free end and g_{n+1} = g_n by the
    even mirror at the fixed end, it is n^2 (g_{k+1} - 2 g_k + g_{k-1}) for
    k < n and -n^2 (g_n - g_{n-1}) at k = n.  On the links f = t = D+ eta it
    is the link acceleration D+ eta_ddot.  A flat stack laid out by
    ``blocks`` is one pass with its block edges cut: each block is bitwise
    its own result."""
    g = sigma * f
    jump = g.copy()                       # g_k - g_{k-1}
    jump[..., 1:] -= g[..., :-1]
    if blocks.stacked:
        jump[..., blocks.free] = g[..., blocks.free]    # g_0 = 0 at each block's free end
    acc = -jump
    acc[..., :-1] += jump[..., 1:]
    if blocks.stacked:
        acc[..., blocks.fixed] = -jump[..., blocks.fixed]   # g_{n+1} = g_n at each block's fixed end
    acc *= blocks.n_sq
    return acc


# ---------------------------------------------------------------------------
# discrete energies


def _squared_differences(eta_dot: np.ndarray, t: np.ndarray, t_dot: np.ndarray, m_max: int) -> list:
    """Pairs (|D+^l eta_dot_k|^2, |D+^{l+1} eta_k|^2) on k = 1..n - floor(l/2)
    for l = 0..m_max, from the (d, ..., n+1) velocities, the (d, ..., n) links
    t = D+ eta and their velocities t_dot = D+ eta_dot; each is shaped
    (..., count), one row per chain of a stack.  Order l reads the links up
    to k = n + ceil(l/2), so they are mirrored ceil(m_max/2) rows past the
    fixed end."""
    n = t.shape[-1]
    rows = (m_max + 1) // 2
    out = []
    dvel, dpos = eta_dot, _mirrored(t, rows)
    for ell in range(m_max + 1):
        kmax = n - ell // 2
        if kmax < 1:
            raise ValueError(f"energy order {ell} needs n > {2 * (ell // 2)}")
        out.append((_sq(dvel[..., :kmax]), _sq(dpos[..., :kmax])))
        if ell < m_max:
            dvel = _mirrored(t_dot, rows) if ell == 0 else _links(dvel, n)
            dpos = _links(dpos, n)
    return out


def _energy_sums(sq: list, weight) -> np.ndarray:
    """Entry [..., l, :] holds sum_k w(k, l) |D+^l eta_dot_k|^2 and
    sum_k w(k, l+1) |D+^{l+1} eta_k|^2 over the ranges of
    :func:`_squared_differences`, one (m_max+1, 2) block per chain.

    Orders 2j and 2j+1 share the range k = 1..n-j, so their four weighted
    terms are written into one array and summed in one reduction along its
    last axis.  Each chain's sums are then bitwise its own 1-D sums, whatever
    stack it is in; padding the shorter orders to one length would change
    numpy's pairwise-summation tree.

    ``weight(counts)`` gives the rows w(k, r) for r = 0..m_max+1, row r on
    k = 1..counts[r], the widest range order r is summed over; each is one
    row for every chain or one per chain.
    """
    w = weight([sq[max(r - 1, 0)][0].shape[-1] for r in range(len(sq) + 1)])
    out = np.empty(sq[0][0].shape[:-1] + (len(sq), 2))
    for lo in range(0, len(sq), 2):
        pair = sq[lo : lo + 2]
        count = pair[0][0].shape[-1]
        terms = np.empty(out.shape[:-2] + (len(pair), 2, count))
        for i, (v, p) in enumerate(pair):
            np.multiply(w[lo + i][..., :count], v, out=terms[..., i, 0, :])
            np.multiply(w[lo + i + 1][..., :count], p, out=terms[..., i, 1, :])
        out[..., lo : lo + len(pair), :] = np.add.reduce(terms, axis=-1)
    return out


def _s_weight(n: int):
    """The rising weights s_k^{(r)} in the form :func:`_energy_sums` takes."""
    return lambda counts: [_weight_row(n, r, 1, count) for r, count in enumerate(counts)]


def _sigma_weight(sigma: np.ndarray, m_max: int):
    """The tension products sigma_k^{(r)} of sigma_0..sigma_n, one row per
    chain of a (..., n+1) stack, mirrored as deep as the ladder to ``m_max``
    reads, in the form :func:`_energy_sums` takes."""
    mirrored = _mirrored(sigma, (m_max + 1) // 2)
    return lambda counts: _rising_products(mirrored, 1, counts)


def _energies(sums: np.ndarray, n: int) -> np.ndarray:
    """e_0..e_{m_max} of each chain from its block of :func:`_energy_sums`."""
    return np.cumsum((sums[..., 0] + sums[..., 1]) / n, axis=-1)


def _chain_ladder(chain: ChainState, m_max: int) -> list:
    """:func:`_squared_differences` of a chain's velocities and links."""
    return _squared_differences(chain.eta_dot.T, *_chain_links(chain), m_max)


def u0_v0(chain: ChainState) -> tuple[float, float]:
    """The two conserved pieces of e_0: u_0 = (1/n) sum |eta_dot_k|^2 and
    v_0 = (1/n) sum s_k |D+ eta_k|^2 (= 1/2 + 1/2n on the manifold)."""
    n = chain.n
    u0, v0 = _energy_sums(_chain_ladder(chain, 0), _s_weight(n))[0] / n
    return float(u0), float(v0)


def discrete_energy(chain: ChainState, m_max: int = 3) -> np.ndarray:
    """Time-independent energies e_0..e_{m_max}.

    e_m = (1/n) sum_{l=0}^{m} sum_{k=1}^{n - floor(l/2)}
          ( s_k^{(l)} |D+^l eta_dot_k|^2 + s_k^{(l+1)} |D+^{l+1} eta_k|^2 ),
    with differences beyond the fixed end taken through the even mirror of
    the links (the paper's odd extension of eta).  Nondecreasing in m, and
    >= 1/2 + 1/2n on the constraint manifold.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    n = chain.n
    return _energies(_energy_sums(_chain_ladder(chain, m_max), _s_weight(n)), n)


def sigma_weighted_energy(chain: ChainState, sigma, m_max: int = 3) -> np.ndarray:
    """Time-dependent energies e~_0..e~_{m_max}, weighted by tension products
    sigma_k^{(l)} instead of s_k^{(l)}; equals the s-weighted energies when
    sigma_k = s_k (up to the even-mirror boundary terms at m >= 3)."""
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    n = chain.n
    weight = _sigma_weight(_tension_array(sigma, n), m_max)
    return _energies(_energy_sums(_chain_ladder(chain, m_max), weight), n)
