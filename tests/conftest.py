"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately literal (python loops, math.gamma, dense
solves) and never call the vectorized library paths they are used to check.
"""

import math

import numpy as np
import pytest

from whipchain.initial_data import random_chain


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def make_random_chain(n, seed=0, max_turn=1.2, vel_scale=1.0):
    return random_chain(n, np.random.default_rng(seed), max_turn=max_turn, vel_scale=vel_scale)


def flat_links(chains):
    """The links and link velocities of chains of one n and d, each as one
    flat component-major (d, B n) stack: chain b in columns b n .. b n + n - 1."""
    return (np.concatenate([c.link_dirs().T for c in chains], axis=1),
            np.concatenate([c.link_dirs_dot().T for c in chains], axis=1))


# ---------------------------------------------------------------------------
# oracle: weights and seminorms


def oracle_weight(k, r, n):
    """s_k^{(r)} by direct gamma evaluation (k >= 1)."""
    return math.gamma(k + r) / (n**r * math.gamma(k))


def oracle_seminorm_sq(f, r, m, n, first_index=1):
    """(1/n) sum_k s_k^{(r)} |D+^m f|^2 with python loops."""
    f = [np.atleast_1d(np.asarray(v, dtype=float)) for v in f]
    for _ in range(m):
        f = [n * (f[i + 1] - f[i]) for i in range(len(f) - 1)]
    total = 0.0
    for i, v in enumerate(f):
        k = first_index + i
        w = 1.0 if (k == 0 and r == 0) else (0.0 if k == 0 else oracle_weight(k, r, n))
        total += w * float(np.dot(v, v))
    return total / n


# ---------------------------------------------------------------------------
# oracle: energies via literal summation with explicit extensions


def oracle_extend(chain):
    """eta, eta_dot for k = 1..2n+1 as python lists (odd reflection)."""
    n = chain.n
    eta = [chain.eta[k - 1] for k in range(1, n + 2)]
    eta_dot = [chain.eta_dot[k - 1] for k in range(1, n + 2)]
    for k in range(n + 2, 2 * n + 2):
        eta.append(-eta[(2 * n + 2 - k) - 1])
        eta_dot.append(-eta_dot[(2 * n + 2 - k) - 1])
    return eta, eta_dot


def oracle_sigma_extend(sigma, n):
    """sigma_0..sigma_{2n} with sigma_k = sigma_{2n+1-k}."""
    sig = [float(sigma[k]) for k in range(n + 1)]
    for k in range(n + 1, 2 * n + 1):
        sig.append(sig[2 * n + 1 - k])
    return sig


def _mth_diff_at(seq, k, m, n):
    """D+^m seq at chain index k, seq[0] carrying index 1."""
    vals = [np.asarray(seq[k - 1 + i], dtype=float) for i in range(m + 1)]
    for _ in range(m):
        vals = [n * (vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    return vals[0]


def oracle_energy(chain, m_max):
    """e_m by term-by-term summation."""
    n = chain.n
    eta, eta_dot = oracle_extend(chain)
    out = []
    total = 0.0
    for ell in range(m_max + 1):
        for k in range(1, n - ell // 2 + 1):
            dv = _mth_diff_at(eta_dot, k, ell, n)
            dp = _mth_diff_at(eta, k, ell + 1, n)
            total += (
                oracle_weight(k, ell, n) * float(np.dot(dv, dv))
                + oracle_weight(k, ell + 1, n) * float(np.dot(dp, dp))
            ) / n
        out.append(total)
    return np.array(out)


def oracle_sigma_energy(chain, sigma, m_max):
    """e~_m by term-by-term summation with tension-product weights."""
    n = chain.n
    eta, eta_dot = oracle_extend(chain)
    sig = oracle_sigma_extend(np.asarray(getattr(sigma, "sigma", sigma)), n)

    def sigw(k, r):
        out = 1.0
        for j in range(k, k + r):
            out *= sig[j]
        return out

    out = []
    total = 0.0
    for ell in range(m_max + 1):
        for k in range(1, n - ell // 2 + 1):
            dv = _mth_diff_at(eta_dot, k, ell, n)
            dp = _mth_diff_at(eta, k, ell + 1, n)
            total += (sigw(k, ell) * float(np.dot(dv, dv)) + sigw(k, ell + 1) * float(np.dot(dp, dp))) / n
        out.append(total)
    return np.array(out)


# ---------------------------------------------------------------------------
# oracle: dense tension system assembled from raw position differences


def oracle_tension_matrix(chain):
    """Dense constraint system M sigma = rhs assembled literally from the
    position/velocity differences (no alpha shortcut): row k < n reads

    n^2 <eta_{k+2}-eta_{k+1}, eta_{k+1}-eta_k> sigma_{k+1} - 2 sigma_k
      + n^2 <eta_k-eta_{k-1}, eta_{k+1}-eta_k> sigma_{k-1} = -|etadot_{k+1}-etadot_k|^2

    and row n reads -sigma_n - n^2 <eta_n, eta_n-eta_{n-1}> sigma_{n-1} = -|etadot_n|^2.
    """
    n = chain.n
    eta = chain.eta
    eta_dot = chain.eta_dot
    M = np.zeros((n, n))
    rhs = np.zeros(n)

    def pos(k):  # eta_k, 1-based; eta_{n+1} = 0
        return eta[k - 1]

    for k in range(1, n):
        M[k - 1, k - 1] = -2.0
        M[k - 1, k] = n**2 * float(np.dot(pos(k + 2) - pos(k + 1), pos(k + 1) - pos(k)))
        if k >= 2:
            M[k - 1, k - 2] = n**2 * float(np.dot(pos(k) - pos(k - 1), pos(k + 1) - pos(k)))
        dv = eta_dot[k] - eta_dot[k - 1]
        rhs[k - 1] = -float(np.dot(dv, dv))
    M[n - 1, n - 1] = -1.0
    if n >= 2:
        M[n - 1, n - 2] = -(n**2) * float(np.dot(pos(n), pos(n) - pos(n - 1)))
    rhs[n - 1] = -float(np.dot(eta_dot[n - 1], eta_dot[n - 1]))
    return M, rhs


def oracle_tension(chain):
    """sigma_0..sigma_n from the dense solve."""
    M, rhs = oracle_tension_matrix(chain)
    sig = np.linalg.solve(M, rhs)
    return np.concatenate([[0.0], sig])


def oracle_green(chain):
    """G = n * inv(A) with A = -n^2 M (the w-normalized form of the system)."""
    M, _ = oracle_tension_matrix(chain)
    A = -(chain.n**2) * M
    return chain.n * np.linalg.inv(A)
