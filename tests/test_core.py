"""Difference calculus, weights, seminorms, extensions, and energies."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whipchain.core import (
    ChainState,
    _dot,
    _energy_sums,
    _links,
    _mirrored,
    _rising_overflows,
    _rising_products,
    _s_weight,
    _sigma_weight,
    _sq,
    _squared_differences,
    discrete_energy,
    forward_diff_m,
    rising_product,
    rising_weight,
    sigma_weighted_energy,
    u0_v0,
    weighted_seminorm_sq,
    weighted_supnorm_sq,
)
from whipchain.dynamics import project
from whipchain.initial_data import log_spiral, rigid_rotation, straight_chain
from whipchain.tension import solve_tension

from conftest import (
    make_random_chain,
    oracle_energy,
    oracle_extend,
    oracle_seminorm_sq,
    oracle_sigma_energy,
    oracle_sigma_extend,
    oracle_weight,
)


def projected_state(n, d, seed):
    """A random state of n links in R^d, projected onto the constraint manifold."""
    rng = np.random.default_rng(seed)
    eta, eta_dot = rng.normal(size=(2, n + 1, d))
    eta[-1] = eta_dot[-1] = 0.0
    return project(ChainState(eta, eta_dot))


# ---------------------------------------------------------------------------
# difference operators


class TestDifferences:
    def test_two_point(self):
        assert forward_diff_m([1.0, 3.0], 2, 1) == pytest.approx([4.0])

    def test_constant_killed(self):
        assert np.all(forward_diff_m(np.full(7, 3.25), 5, 1) == 0.0)

    def test_unit_slope(self):
        n = 6
        f = np.arange(1, n + 1) / n
        assert forward_diff_m(f, n, 1) == pytest.approx(np.ones(n - 1))

    def test_too_short(self):
        with pytest.raises(ValueError):
            forward_diff_m([1.0], 3, 1)
        with pytest.raises(ValueError, match="difference order must be nonnegative, got -1"):
            forward_diff_m([1.0, 2.0], 3, -1)

    def test_vector_valued(self):
        f = np.array([[0.0, 1.0], [1.0, 3.0]])
        assert forward_diff_m(f, 2, 1)[0] == pytest.approx([2.0, 4.0])


def test_summation_by_parts(rng):
    # (1/n) sum_{k=0}^{n-1} g_k D+f_k = -(1/n) sum_{k=1}^{n} f_k D-g_k + f_n g_n - f_0 g_0,
    # with (D- g)_k for k = 1..n read off forward_diff_m(g, n, 1) (D- = E^{-1} D+)
    for n in (2, 5, 16):
        f = rng.normal(size=n + 1)
        g = rng.normal(size=n + 1)
        lhs = np.sum(g[:-1] * forward_diff_m(f, n, 1)) / n
        rhs = -np.sum(f[1:] * forward_diff_m(g, n, 1)) / n + f[-1] * g[-1] - f[0] * g[0]
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_discrete_leibniz(rng):
    # D+^l (fg) = sum_j C(l,j) (E^j D+^{l-j} f)(D+^j g) for l <= 4
    n = 9
    f = rng.normal(size=n + 1)
    g = rng.normal(size=n + 1)
    for ell in range(5):
        lhs = forward_diff_m(f * g, n, ell)
        L = len(lhs)
        rhs = np.zeros(L)
        for j in range(ell + 1):
            dfj = forward_diff_m(f, n, ell - j)[j:]  # E^j D+^{l-j} f
            dgj = forward_diff_m(g, n, j)
            rhs += math.comb(ell, j) * dfj[:L] * dgj[:L]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


# ---------------------------------------------------------------------------
# rising weights


class TestRisingWeight:
    def test_r_zero(self):
        for k, n in [(1, 2), (7, 16), (100, 100)]:
            assert rising_weight(k, 0.0, n) == 1.0

    def test_r_one_is_k_over_n(self):
        assert rising_weight(5, 1.0, 8) == pytest.approx(5 / 8)

    def test_derived_example(self):
        # n=4, k=2, r=2: product oracle k(k+1)/n^2 = 6/16
        assert rising_weight(2, 2.0, 4) == pytest.approx(2 * 3 / 16)
        assert rising_weight(2, 2.0, 4) == pytest.approx(0.375)

    def test_matches_gamma_oracle(self):
        for k, r, n in [(1, 0.5, 4), (3, 1.5, 8), (60, 2.5, 64), (7, -0.5, 16), (9, 3.0, 16)]:
            assert rising_weight(k, r, n) == pytest.approx(oracle_weight(k, r, n), rel=1e-13)

    def test_large_k_no_overflow(self):
        # naive gamma ratio overflows here; the running product must not
        import mpmath

        val = rising_weight(10_000, 2.5, 10_000)
        expect = float(mpmath.gamma(10_000 + 2.5) / (mpmath.mpf(10_000) ** 2.5 * mpmath.gamma(10_000)))
        assert np.isfinite(val) and val == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_half_integer_r_against_exact_oracle(self, m):
        # Gamma(k + 1/2) / Gamma(k) = sqrt(pi) k C(2k, k) / 4^k, so with n = 1
        # s_k^{(m+1/2)} = sqrt(pi) K C(2K, K) / 4^K * k (k+1) ... (K-1), K = k + m,
        # a ratio of Python integers rounded once; a difference of log-gammas
        # misses this bound by about k eps
        kmax = 8192
        got = rising_weight(np.arange(1, kmax + 1), 0.5 + m, 1)
        central = [2]  # C(2K, K) for K = 1, 2, ...
        while len(central) < kmax + m:
            K = len(central)
            central.append(central[-1] * 2 * (2 * K + 1) // (K + 1))
        worst = 0.0
        for k in range(1, kmax + 1):
            K = k + m
            exact = K * central[K - 1] * math.prod(range(k, K)) / 4**K * math.sqrt(math.pi)
            worst = max(worst, abs(got[k - 1] - exact) / exact)
        assert worst <= 1e-13

    def test_k_zero_convention(self):
        assert rising_weight(0, 0.0, 4) == 1.0
        assert rising_weight(0, 2.0, 4) == 0.0
        assert rising_weight(0, 1.5, 4) == 0.0

    @pytest.mark.parametrize("r", [150.0, 170.5, 1000.0, 1e300, math.inf])
    def test_unrepresentable_weights_refused_by_name(self, r):
        # refused before any product: no OverflowError, no RuntimeWarning (an
        # error here) and no array of r floats
        with pytest.raises(ValueError, match=re.escape(f"r={r}, n=64")):
            rising_weight(np.arange(65), r, 64)

    @pytest.mark.parametrize("n", [1, 4, 64, 1000])
    def test_overflow_rule_is_half_the_largest_double(self, n):
        # a row k <= n is refused exactly where Gamma(n+r)/Gamma(n) or n^r, in
        # 40-digit arithmetic, passes half the largest double; an accepted row
        # is built with no overflow (a RuntimeWarning is an error here)
        import mpmath

        with mpmath.workdps(40):
            half = mpmath.mpf(np.finfo(float).max) / 2
            for r in [*range(175), *np.arange(-0.5, 175, 0.75).tolist()]:
                refused = max(mpmath.rf(n, r), mpmath.mpf(n) ** r) > half
                assert _rising_overflows(r, n, n + 1) == refused, r
                if not refused:
                    assert np.isfinite(rising_weight(np.arange(n + 1), r, n)).all()

    def test_integer_row_holds_one_product_at_a_time(self):
        # the exact product of r = 60 factors holds one running row at a
        # time, so the traced peak is a few rows' bytes, not r + 1 rows'
        k = np.arange(1, 100_001)
        rising_weight(k[:8], 60, 100_000)
        tracemalloc.start()
        try:
            out = rising_weight(k, 60, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * out.nbytes

    def test_rising_product_is_the_last_of_the_running_rows(self):
        # the same multiplications in the same order as _rising_products,
        # on stacks of zero to two leading axes
        rng = np.random.default_rng(7)
        for _ in range(200):
            r, count, k_start = int(rng.integers(0, 12)), int(rng.integers(1, 40)), int(rng.integers(0, 4))
            lead = tuple(int(v) for v in rng.integers(1, 4, size=rng.integers(0, 3)))
            x = rng.normal(size=(*lead, k_start + count + r))
            want = _rising_products(x, k_start, [count] * (r + 1))[-1]
            got = rising_product(x, k_start, count, r)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rising_weight(3, -1.0, 4)
        with pytest.raises(ValueError):
            rising_weight(3, -2.0, 4)
        with pytest.raises(ValueError, match="weight index k must be >= 0"):
            rising_weight(np.array([2, -1]), 1.0, 4)

    @given(
        p=st.floats(0.1, 4.0),
        q=st.floats(0.1, 4.0),
        k=st.integers(1, 64),
        j=st.integers(0, 64),
        n=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_ratio_bounds(self, p, q, k, j, n):
        if k > n:
            k = n
        skp = rising_weight(k, p, n)
        ratio = rising_weight(k, p + q, n) / rising_weight(k, q, n)
        c = math.exp(math.lgamma(p + q + 1) - math.lgamma(p + 1) - math.lgamma(q + 1))
        assert skp * (1 - 1e-12) <= ratio <= c * skp * (1 + 1e-12)
        skj = rising_weight(k + j, p, n)
        cj = math.exp(math.lgamma(j + p + 1) - math.lgamma(j + 1) - math.lgamma(p + 1))
        assert skp * (1 - 1e-12) <= skj <= cj * skp * (1 + 1e-12)


# ---------------------------------------------------------------------------
# weighted seminorms


class TestComponentSums:
    """Sums over the component axis 0 of (d, ..., k) link data."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_sq_bitwise_the_reduction(self, d, rng):
        v = rng.normal(size=(d, 16, 65))
        assert np.array_equal(_sq(v), np.sum(v * v, axis=0))
        assert np.array_equal(_sq(v[:, 0]), np.sum(v[:, 0] * v[:, 0], axis=0))
        assert np.array_equal(_sq(v[0, 0]), v[0, 0] ** 2)  # a 1-D array squares elementwise

    @pytest.mark.parametrize("d", [2, 3])
    def test_dot_bitwise_the_left_to_right_sum(self, d, rng):
        a, b = rng.normal(size=(2, d, 16, 65))
        assert np.array_equal(_dot(a, b), np.sum(a * b, axis=0))


class TestSeminorms:
    def test_constant_r0_m0(self):
        f = np.full(6, 1.7)
        assert weighted_seminorm_sq(f, 0.0, 0, 6) == pytest.approx(1.7**2)

    def test_constant_m1_zero(self):
        f = np.full(6, 2.3)
        assert weighted_seminorm_sq(f, 1.0, 1, 6) == 0.0

    def test_derived_example(self):
        # n=2, f=(1,2), r=1, m=0: (1/2)(s_1 * 1 + s_2 * 4) = (1/2)(0.5 + 4) = 2.25
        assert weighted_seminorm_sq(np.array([1.0, 2.0]), 1.0, 0, 2) == pytest.approx(2.25)

    def test_size_error(self):
        with pytest.raises(ValueError):
            weighted_seminorm_sq(np.array([1.0, 2.0]), 1.0, 2, 2)

    def test_matches_loop_oracle(self, rng):
        n = 11
        f = rng.normal(size=n)
        for r, m in [(0.0, 0), (1.5, 1), (2.0, 2), (0.5, 3)]:
            assert weighted_seminorm_sq(f, r, m, n) == pytest.approx(
                oracle_seminorm_sq(f, r, m, n), rel=1e-12
            )
        g = rng.normal(size=(n + 1, 2))
        assert weighted_seminorm_sq(g, 1.0, 1, n) == pytest.approx(
            oracle_seminorm_sq(list(g), 1.0, 1, n), rel=1e-12
        )

    def test_sigma_convention_from_zero(self, rng):
        n = 8
        sig = np.concatenate([[0.0], rng.normal(size=n)])
        assert weighted_seminorm_sq(sig, 1.5, 2, n, first_index=0) == pytest.approx(
            oracle_seminorm_sq(sig, 1.5, 2, n, first_index=0), rel=1e-12
        )

    def test_supnorm(self, rng):
        n = 9
        f = rng.normal(size=n)
        ks = np.arange(1, n)
        expect = np.max(
            [oracle_weight(k, 1.0, n) * (n * (f[k] - f[k - 1])) ** 2 for k in ks]
        )
        assert weighted_supnorm_sq(f, 1.0, 1, n) == pytest.approx(expect, rel=1e-12)

    def test_product_norm_bound(self, rng):
        # |fg|^2_{p+q,0} <= [Gamma(p+q+1)/(Gamma(p+1)Gamma(q+1))] [f]^2_{p,0} |g|^2_{q,0}
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p, q = rng.uniform(0.0, 3.0, size=2)
            f = rng.normal(size=n)
            g = rng.normal(size=n)
            lhs = weighted_seminorm_sq(f * g, p + q, 0, n)
            c = math.exp(math.lgamma(p + q + 1) - math.lgamma(p + 1) - math.lgamma(q + 1))
            rhs = c * weighted_supnorm_sq(f, p, 0, n) * weighted_seminorm_sq(g, q, 0, n)
            assert lhs <= rhs * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------------------
# the three explicit weighted inequalities


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_explicit_inequalities(r, n, rng):
    for _ in range(100):
        f = rng.normal(size=n)
        norm_rp1_1 = weighted_seminorm_sq(f, r + 1.0, 1, n)
        end = oracle_weight(n, r, n) * f[-1] ** 2
        scale = max(1.0, np.max(f * f))
        # (i) pointwise bound
        for i in range(1, n + 1):
            lhs = oracle_weight(i, r, n) * f[i - 1] ** 2
            assert lhs <= end + norm_rp1_1 / r + 1e-12 * scale
        # (ii) lower-weight norm bound
        lhs2 = weighted_seminorm_sq(f, r - 1.0, 0, n)
        assert lhs2 <= 4.0 / r**2 * norm_rp1_1 + 2.0 / r * end + 1e-12 * scale
        # (iii) endpoint bound
        rhs3 = (2 * r**2 + 4 * r + 1) / (r * (r + 1)) * norm_rp1_1 + 4 * (r + 1) * weighted_seminorm_sq(f, r, 0, n)
        assert end <= rhs3 + 1e-12 * scale


# ---------------------------------------------------------------------------
# chain state and odd extension


class TestChainState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainState(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_fixed_end_enforced(self):
        eta = np.ones((4, 2))
        with pytest.raises(ValueError):
            ChainState(eta, np.zeros((4, 2)))

    def test_validate_tolerances(self):
        ch = straight_chain(6)
        ch.validate()
        bad = ChainState(ch.eta * 1.001, ch.eta_dot)
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("field", ["eta", "eta_dot"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate_refuses_non_finite(self, field, value):
        # every drift comparison with a NaN is false, so only an explicit check refuses it
        ch = rigid_rotation(6)
        arrays = {"eta": ch.eta.copy(), "eta_dot": ch.eta_dot.copy()}
        arrays[field][2, 0] = value
        with pytest.raises(ValueError, match="must be finite"):
            ChainState(**arrays).validate()

    def test_validate_refuses_overflowing_link_speeds(self):
        # finite velocities whose squared link speeds overflow: the speed-scaled
        # orthogonality tolerance would be inf, so only an explicit check refuses it
        ch = log_spiral(16, vel_amp=1e300)
        assert np.isfinite(ch.eta_dot).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="link speeds"):
                ch.validate()

    def test_orthogonality_tolerance_scales_with_speed(self):
        # log_spiral at speed 1e9 is on the manifold to round-off (drift
        # 7.2e-7, 8e-16 of its speed); a tangential velocity of 1e-6 of the
        # speed is not, nor one of 2e-8 at rest, where tol_orth is unscaled
        fast = log_spiral(16, vel_amp=1e9)
        assert fast.orthogonality_drift() > 1e-8
        fast.validate()

        def skewed(ch, skew):   # adds skew to every <D+ eta_k, D+ eta_dot_k>
            return ChainState(ch.eta, ch.eta_dot + skew * ch.eta)

        with pytest.raises(ValueError, match="orthogonality drift"):
            skewed(fast, 1e3).validate()
        at_rest = log_spiral(16)
        skewed(at_rest, 5e-9).validate()
        with pytest.raises(ValueError, match="orthogonality drift"):
            skewed(at_rest, 2e-8).validate()

    @pytest.mark.parametrize("n, d", [(1, 2), (5, 2), (4, 3)])
    def test_n_and_d_come_from_the_arrays(self, n, d):
        eta = np.zeros((n + 1, d))
        ch = ChainState(eta, eta)
        assert (ch.n, ch.d, ch.time) == (n, d, 0.0)

    def test_n_and_d_are_not_constructor_arguments(self):
        eta = straight_chain(3).eta
        with pytest.raises(TypeError):
            ChainState(3, 2, eta, eta)   # the old positional form
        with pytest.raises(TypeError):
            ChainState(3, 2, eta, eta, 0.0)
        with pytest.raises(TypeError):
            ChainState(eta, eta, n=3)
        with pytest.raises(TypeError):
            ChainState(eta, eta, d=2)

    @pytest.mark.parametrize("eta_shape, eta_dot_shape", [
        ((4,), (4,)),              # 1-D
        ((4, 2, 1), (4, 2, 1)),    # 3-D
        ((1, 2), (1, 2)),          # one row: no link
        ((4, 1), (4, 1)),          # one column: d = 1
        ((0, 2), (0, 2)),
        ((4, 2), (5, 2)),          # mismatched
        ((4, 2), (4, 3)),
        ((4, 2), (8,)),
    ])
    def test_shapes_refused(self, eta_shape, eta_dot_shape):
        with pytest.raises(ValueError, match="one shape"):
            ChainState(np.zeros(eta_shape), np.zeros(eta_dot_shape))

    def test_replace_derives_n_again(self):
        ch = rigid_rotation(6)
        longer = dataclasses.replace(ch, eta=straight_chain(9).eta, eta_dot=np.zeros((10, 2)))
        assert (longer.n, longer.d) == (9, 2)
        wider = dataclasses.replace(ch, eta=straight_chain(6, d=3).eta, eta_dot=np.zeros((7, 3)))
        assert (wider.n, wider.d) == (6, 3)
        with pytest.raises(ValueError, match="one shape"):
            dataclasses.replace(ch, eta=straight_chain(9).eta)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(ch, n=9)

    def test_time_is_stored_as_a_python_float(self):
        eta = straight_chain(3).eta
        for time in (np.float64(0.125), 1, 0.5):
            ch = ChainState(eta, eta, time)
            assert type(ch.time) is float and ch.time == time

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, time):
        # a state at a non-finite time would step once and then blame a
        # finite state (nan), or end at once with no step taken (inf)
        eta = straight_chain(3).eta
        with pytest.raises(ValueError, match=f"^time must be finite, got {time}$"):
            ChainState(eta, eta, time)
        with pytest.raises(ValueError, match="time must be finite"):
            dataclasses.replace(ChainState(eta, eta), time=time)

    def test_immutability(self):
        ch = straight_chain(4)
        with pytest.raises((ValueError, RuntimeError)):
            ch.eta[0, 0] = 5.0


class TestOddExtend:
    """The paper's odd extension of eta and even one of sigma through the
    fixed end, in the form the diagnostics read it: the links and tensions
    continued evenly by ``_mirrored``, checked against the literal oracle
    extensions of conftest."""

    def test_fixed_point(self):
        # eta_{n+1} maps to itself, so the first mirrored link repeats the last
        ch = make_random_chain(5, seed=2)
        eta, _ = oracle_extend(ch)
        assert np.all(eta[5] == 0.0)
        t = _mirrored(ch.link_dirs().T, 1)
        assert t.shape == (2, 6) and np.all(t[:, 5] == t[:, 4])

    def test_n1_reflection(self):
        eta = np.array([[0.3, 0.4], [0.0, 0.0]])
        eta[0] /= np.linalg.norm(eta[0])  # unit link for validity
        ch = ChainState(eta, np.zeros((2, 2)))
        assert _mirrored(ch.link_dirs().T, 1).T == pytest.approx(np.array([-eta[0], -eta[0]]))

    def test_reflection_identity(self):
        n = 7
        t = _mirrored(make_random_chain(n, seed=3).link_dirs().T, n)
        for j in range(1, n + 1):
            assert np.all(t[:, n + j - 1] == t[:, n - j])  # t_{n+j} = t_{n+1-j}

    def test_extension_preserves_link_lengths(self):
        ch = make_random_chain(9, seed=4)
        links = _mirrored(ch.link_dirs().T, 9)
        assert np.linalg.norm(links, axis=0) == pytest.approx(np.ones(2 * 9), abs=1e-12)

    def test_sigma_even_reflection(self):
        n = 6
        sig = solve_tension(make_random_chain(n, seed=5)).sigma
        ext = _mirrored(sig, n)
        for k in range(n + 1, 2 * n + 1):
            assert ext[k] == ext[2 * n + 1 - k]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1024])
    def test_mirrored_links_equal_the_oracle_extension(self, n, d):
        ch = projected_state(n, d, seed=10 * n + d)
        eta, eta_dot = oracle_extend(ch)
        want = _links(np.array(eta).T, n).T      # D+ eta_j, j = 1..2n
        want_dot = _links(np.array(eta_dot).T, n).T
        sig = solve_tension(ch).sigma
        sig_want = np.array(oracle_sigma_extend(sig, n))
        for rows in sorted({0, 1, 2, n // 2, n} & set(range(n + 1))):
            got, got_dot = _mirrored(ch.link_dirs().T, rows).T, _mirrored(ch.link_dirs_dot().T, rows).T
            assert got.shape == (n + rows, d)
            # equal as floats; a zero component may differ in sign only
            assert np.all(got == want[: n + rows]) and np.all(got_dot == want_dot[: n + rows])
            assert np.all(_mirrored(sig, rows) == sig_want[: n + 1 + rows])

    def test_evolution_holds_at_fixed_end(self):
        # D-(sigma D+ eta) vanishes at k = n+1 under the extensions
        ch = make_random_chain(8, seed=6)
        sol = solve_tension(ch)
        n = 8
        eta_ext = np.array(oracle_extend(ch)[0])
        sigma_ext = np.array(oracle_sigma_extend(sol.sigma, n))
        t = n * np.diff(eta_ext, axis=0)  # D+ eta_j, j = 1..2n
        flux = sigma_ext[1 : n + 2, None] * t[: n + 1]  # j = 1..n+1
        acc_fixed = n * (flux[n] - flux[n - 1])
        assert acc_fixed == pytest.approx(np.zeros(2), abs=1e-12)


# ---------------------------------------------------------------------------
# energies


class TestDiscreteEnergy:
    def test_stationary_straight(self):
        for n in (2, 8, 33):
            e = discrete_energy(straight_chain(n), 3)
            v0 = 0.5 + 0.5 / n
            assert e == pytest.approx(np.full(4, v0), rel=1e-14)

    def test_e0_splits_into_u0_v0(self):
        ch = make_random_chain(10, seed=7)
        e = discrete_energy(ch, 0)
        u0, v0 = u0_v0(ch)
        assert e[0] == pytest.approx(u0 + v0, rel=1e-13)
        assert v0 == pytest.approx(0.5 + 0.5 / 10, rel=1e-13)

    def test_matches_brute_force(self):
        ch = make_random_chain(8, seed=8)
        e = discrete_energy(ch, 3)
        assert e == pytest.approx(oracle_energy(ch, 3), rel=1e-12)

    def test_monotone_and_bounded_below(self):
        for seed in range(5):
            ch = make_random_chain(12, seed=seed)
            e = discrete_energy(ch, 4)
            assert np.all(np.diff(e) >= -1e-14)
            assert np.all(e >= 0.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            discrete_energy(straight_chain(4), -1)


class TestSigmaWeightedEnergy:
    def test_zero_sigma_gives_u0(self):
        ch = make_random_chain(9, seed=9)
        u0, _ = u0_v0(ch)
        et = sigma_weighted_energy(ch, np.zeros(10), 3)
        assert et == pytest.approx(np.full(4, u0), rel=1e-13)

    def test_weight_identity_low_orders(self):
        # sigma_k = s_k makes the sigma-products equal the rising weights on
        # every term whose indices stay <= n; exact through m = 1 (the m = 1
        # boundary term carries D+^2 eta_n, which the odd extension kills)
        n = 12
        ch = make_random_chain(n, seed=10)
        sig = np.arange(0, n + 1) / n
        e = discrete_energy(ch, 1)
        et = sigma_weighted_energy(ch, sig, 1)
        assert et == pytest.approx(e, rel=1e-12)

    def test_weight_identity_boundary_allowance(self):
        # from m = 2 on, boundary terms use the even extension
        # (sigma_{n+1} = sigma_n, sigma_{n+2} = sigma_{n-1}) in place of
        # s_{n+1}, s_{n+2}: a weight deficit of at most 1/(n+1) at m = 2 and
        # 3/(n+2) at m = 3
        n = 24
        ch = make_random_chain(n, seed=11)
        sig = np.arange(0, n + 1) / n
        e = discrete_energy(ch, 3)
        et = sigma_weighted_energy(ch, sig, 3)
        assert et[2] == pytest.approx(e[2], rel=1.0 / (n + 1))
        assert et[3] == pytest.approx(e[3], rel=3.0 / (n + 2))

    def test_matches_brute_force(self):
        ch = make_random_chain(8, seed=12)
        sol = solve_tension(ch)
        et = sigma_weighted_energy(ch, sol, 3)
        assert et == pytest.approx(oracle_sigma_energy(ch, sol, 3), rel=1e-12)

    def test_nonnegative(self):
        ch = make_random_chain(10, seed=13)
        sol = solve_tension(ch)
        assert np.all(sigma_weighted_energy(ch, sol, 3) >= 0.0)

    def test_missing_sigma(self):
        with pytest.raises(ValueError):
            sigma_weighted_energy(make_random_chain(4, seed=1), None, 2)
        ch = make_random_chain(4, seed=1)
        with pytest.raises(ValueError, match="m_max must be nonnegative, got -1"):
            sigma_weighted_energy(ch, solve_tension(ch), -1)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_energy_ladder_matches_the_oracles_to_every_order(n, d):
    # every order the grid carries, m_max = 0..2n-1, reads the mirrored links
    # and tensions up to ceil(m_max/2) rows past the fixed end
    ch = projected_state(n, d, seed=100 * n + d)
    sol = solve_tension(ch)
    e_ref = oracle_energy(ch, 2 * n - 1)
    et_ref = oracle_sigma_energy(ch, sol, 2 * n - 1)
    for m_max in range(2 * n):
        assert discrete_energy(ch, m_max) == pytest.approx(e_ref[: m_max + 1], rel=1e-12, abs=0.0)
        assert sigma_weighted_energy(ch, sol, m_max) == pytest.approx(et_ref[: m_max + 1], rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="energy order"):
        discrete_energy(ch, 2 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1025])
def test_energy_sums_of_a_stack_are_bitwise_the_one_dimensional_sums(n):
    # each chain's sums in a (d, R, n+1) stack are the plain np.sum of its
    # own 1-D weighted terms, for both weightings, whatever the row count
    rng = np.random.default_rng(n)
    m_max = 3 if n > 1 else 1
    eta, eta_dot = rng.normal(size=(2, 2, 3, n + 1))
    sigma = rng.random((3, n + 1))
    t, t_dot = _links(eta), _links(eta_dot)
    sq = _squared_differences(eta_dot, t, t_dot, m_max)
    stacked = {"s": _energy_sums(sq, _s_weight(n)), "sigma": _energy_sums(sq, _sigma_weight(sigma, m_max))}
    for row in range(3):
        mirrored = _mirrored(sigma[row], (m_max + 1) // 2)
        weights = {"s": lambda r, k: rising_weight(np.arange(1, k + 1), r, n),
                   "sigma": lambda r, k: rising_product(mirrored, 1, k, r)}
        own = _squared_differences(eta_dot[:, row], t[:, row], t_dot[:, row], m_max)
        for name, weight in weights.items():
            for ell, (v, p) in enumerate(own):
                k = len(v)
                want = [np.sum(weight(ell, k) * v), np.sum(weight(ell + 1, k) * p)]
                assert np.array(want).tobytes() == stacked[name][row, ell].tobytes(), (name, ell)


def test_rigid_rotation_energy_structure():
    # straight rotating chain: differences of order >= 2 vanish, so e_m is
    # flat beyond m = 1
    ch = rigid_rotation(16, 1.0)
    e = discrete_energy(ch, 3)
    assert e[2] == pytest.approx(e[1], rel=1e-14)
    assert e[3] == pytest.approx(e[1], rel=1e-14)
    assert e[1] > e[0]
