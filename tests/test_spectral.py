"""Angle maps, the two orthogonal bases, Gram certificates, and the
resolution-transfer maps."""

import dataclasses
from math import comb, factorial

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from whipchain import spectral
from whipchain.core import ChainState, discrete_energy, weighted_seminorm_sq
from whipchain.initial_data import straight_chain, theta_power
from whipchain.spectral import (
    AngleState,
    angle_coefficients,
    basis_Q_deriv,
    basis_q_table,
    continuize_Gn,
    discrete_symmetric_inner,
    discretize_Fn,
    eta_to_theta,
    evaluate_discrete,
    r_coefficient,
    symmetric_weight,
    theta_eta_norms,
    theta_positions,
    theta_to_eta,
    transfer_resolution,
)

from conftest import make_random_chain


# ---------------------------------------------------------------------------
# oracle: Hahn Rodrigues construction of the discrete basis


def hahn00(r, N, x):
    """h_r^{(0,0)}(x, N) by the discrete Rodrigues formula."""
    x = np.asarray(x, dtype=float)

    def g(y):
        out = np.ones_like(y, dtype=float)
        for i in range(1, r + 1):
            out = out * (y + i) * (N - i - y)
        return out

    acc = np.zeros_like(x, dtype=float)
    for i in range(r + 1):
        acc += (-1) ** i * comb(r, i) * g(x - i)
    return (-1) ** r / factorial(r) * acc


def q_rodrigues(m, n):
    """q_m from backward differences of h_{2m-1}, normalized at j = 0."""
    N = 2 * n + 1
    k = np.arange(1, 2 * n + 1)
    q = (hahn00(2 * m - 1, N, k) - hahn00(2 * m - 1, N, k - 1)) / n ** (2 * m - 2)
    rho = k * (2 * n + 1 - k) / n**2
    nrm = np.sqrt(np.sum((rho * q * q)[:n]) / n + 0.0)
    # half-range normalization; symmetric integrand makes it well-defined
    nrm = np.sqrt(np.sum(rho * q * q) / (2 * n))
    q = q / nrm
    return q if q[0] > 0 else -q


def quad_inner_Q(l, m, j, order=200):
    """<<Q_l, Q_m>>_{rho, j} by Gauss-Legendre quadrature on [0, 1]."""
    x, w = npleg.leggauss(order)
    s = 0.5 * (x + 1.0)
    rho = s * (2.0 - s)
    return float(0.5 * np.sum(w * rho ** (j + 1) * basis_Q_deriv(l, s, j) * basis_Q_deriv(m, s, j)))


# ---------------------------------------------------------------------------
# angle <-> position maps


class TestAngleState:
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_n_comes_from_the_arrays(self, n):
        ang = AngleState(np.zeros(n), np.ones(n))
        assert (ang.n, ang.time) == (n, 0.0)

    def test_n_is_not_a_constructor_argument(self):
        theta = np.linspace(0.0, 1.0, 4)
        with pytest.raises(TypeError):
            AngleState(4, theta, theta, 0.0)   # the old positional form
        with pytest.raises(TypeError):
            AngleState(theta, theta, n=4)
        with pytest.raises(ValueError, match="one shape"):
            AngleState(4, theta, theta)   # theta would be the 0-d array 4

    @pytest.mark.parametrize("theta_shape, theta_dot_shape", [
        ((), ()),
        ((0,), (0,)),
        ((2, 3), (2, 3)),
        ((4,), (5,)),
        ((4,), (4, 1)),
    ])
    def test_shapes_refused(self, theta_shape, theta_dot_shape):
        with pytest.raises(ValueError, match="one shape"):
            AngleState(np.zeros(theta_shape), np.zeros(theta_dot_shape))

    def test_replace_derives_n_again(self):
        ang = AngleState(np.zeros(4), np.zeros(4), 0.5)
        longer = dataclasses.replace(ang, theta=np.ones(7), theta_dot=np.ones(7))
        assert (longer.n, longer.time) == (7, 0.5)
        with pytest.raises(ValueError, match="one shape"):
            dataclasses.replace(ang, theta=np.ones(7))

    def test_time_is_stored_as_a_python_float(self):
        for time in (np.float64(0.25), 2):
            ang = AngleState(np.zeros(3), np.zeros(3), time)
            assert type(ang.time) is float and ang.time == time
        chain = theta_to_eta(AngleState(np.zeros(3), np.zeros(3), np.float64(0.25)))
        assert type(chain.time) is float and type(eta_to_theta(chain).time) is float

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_refused(self, time):
        with pytest.raises(ValueError, match=f"^time must be finite, got {time}$"):
            AngleState(np.zeros(3), np.zeros(3), time)


class TestAngleMaps:
    def test_chain_along_x(self):
        # links all pointing along +x: theta = 0
        n = 6
        eta = np.zeros((n + 1, 2))
        eta[:, 0] = -np.arange(n, -1, -1, dtype=float) / n  # eta_k = -(n+1-k)/n e_x
        ch = ChainState(eta, np.zeros((n + 1, 2)))
        ang = eta_to_theta(ch)
        assert ang.theta == pytest.approx(np.zeros(n), abs=1e-15)

    def test_quarter_circle(self):
        # positions on a quarter circle of radius 2/pi: chord angles are
        # linear in k with increment -pi/(2n) (arc parameter decreases
        # outward), total turn pi/2 (1 - 1/n)
        n = 16
        R = 2.0 / np.pi
        u = np.pi / 2 * np.arange(n, -1, -1) / n  # arc parameters, free end first
        pts = R * np.column_stack([np.cos(u), np.sin(u)])
        pts -= pts[-1]
        ch = ChainState(pts, np.zeros((n + 1, 2)))
        ang = eta_to_theta(ch)
        inc = np.diff(ang.theta)
        assert inc == pytest.approx(np.full(n - 1, -np.pi / (2 * n)), abs=1e-12)
        assert abs(ang.theta[-1] - ang.theta[0]) == pytest.approx(np.pi / 2 * (n - 1) / n, abs=1e-12)

    def test_round_trip(self):
        ch = make_random_chain(14, seed=1, max_turn=2.5, vel_scale=2.0)
        back = theta_to_eta(eta_to_theta(ch))
        assert np.max(np.abs(back.eta - ch.eta)) < 1e-12
        assert np.max(np.abs(back.eta_dot - ch.eta_dot)) < 1e-12

    def test_dimension_error(self):
        ch = straight_chain(4, d=3)
        with pytest.raises(ValueError):
            eta_to_theta(ch)

    def test_unit_links_by_construction(self):
        ang = AngleState(np.linspace(0, 5, 9), np.ones(9))
        ch = theta_to_eta(ang)
        assert ch.constraint_drift() < 1e-15
        assert ch.orthogonality_drift() < 1e-15

    def test_stacked_positions_bitwise_per_chain(self):
        rng = np.random.default_rng(4)
        theta = rng.uniform(-np.pi, np.pi, size=(5, 33)).cumsum(axis=-1)
        stacked = theta_positions(theta)
        assert stacked.shape == (2, 5, 34)   # component-major
        for row, th in zip(stacked.transpose(1, 2, 0), theta):
            assert np.array_equal(row, theta_to_eta(AngleState(th, np.ones(33))).eta)

    def test_evenness_extension(self):
        # a half theta_1..theta_n is read as its extension theta_{2n+1-k} = theta_k
        th, g = np.array([0.3, -0.2, 1.1]), np.array([0.5, 1.0, -0.7, -0.7, 1.0, 0.5])
        ext = np.array([th[min(k, 7 - k) - 1] for k in range(1, 7)])
        for j in range(4):
            assert discrete_symmetric_inner(th, g, j, 3) == discrete_symmetric_inner(ext, g, j, 3)

    def test_wrong_lengths_refused(self):
        with pytest.raises(ValueError, match="inputs must have length n or 2n"):
            discrete_symmetric_inner(np.ones(5), np.ones(8), 0, 4)


# ---------------------------------------------------------------------------
# continuous basis


class TestBasisQ:
    def test_r_m0_is_one(self):
        for m in range(1, 8):
            assert r_coefficient(m, 0) == pytest.approx(1.0)
            assert quad_inner_Q(m, m, 0) == pytest.approx(1.0, abs=1e-12)

    def test_Q1_constant_and_r11_zero(self):
        s = np.linspace(0, 2, 11)
        q1 = basis_Q_deriv(1, s, 0)
        assert np.max(np.abs(q1 - q1[0])) == 0.0
        assert r_coefficient(1, 1) == 0.0

    def test_r21_value_and_quadrature(self):
        assert r_coefficient(2, 1) == pytest.approx(10.0)
        assert quad_inner_Q(2, 2, 1) == pytest.approx(10.0, abs=1e-8)

    def test_symmetry(self):
        s = np.linspace(0, 1, 23)
        for m in (1, 2, 3, 5):
            assert basis_Q_deriv(m, 2.0 - s, 0) == pytest.approx(basis_Q_deriv(m, s, 0), abs=1e-10)

    def test_orthonormality_and_rmj(self):
        for j in range(4):
            for l in range(1, 6):
                for m in range(l, 6):
                    got = quad_inner_Q(l, m, j)
                    expect = r_coefficient(m, j) if l == m else 0.0
                    assert got == pytest.approx(expect, abs=1e-8 * max(1, expect))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            basis_Q_deriv(0, np.array([0.5]), 0)
        with pytest.raises(ValueError, match="mode index must be >= 1, got 0"):
            r_coefficient(0, 0)


# ---------------------------------------------------------------------------
# discrete basis


class TestBasisQDiscrete:
    def test_symmetry_exact(self):
        for n in (8, 16):
            for m in range(1, n + 1):
                q = basis_q_table(n, m)[m - 1]
                assert np.array_equal(q, q[::-1])  # bitwise reflection identity

    def test_gram_identity_j0(self):
        n = 8
        table = basis_q_table(n)
        G = np.array(
            [[discrete_symmetric_inner(table[a], table[b], 0, n) for b in range(n)] for a in range(n)]
        )
        assert np.max(np.abs(G - np.eye(n))) < 1e-10

    def test_rmj_certificate(self):
        # diagonal Gram with the continuous r_mj values, j <= 3, m <= 8
        for n in (8, 16):
            table = basis_q_table(n)
            mtop = min(n, 8)
            for j in range(4):
                for a in range(mtop):
                    for b in range(a, mtop):
                        got = discrete_symmetric_inner(table[a], table[b], j, n)
                        expect = r_coefficient(a + 1, j) if a == b else 0.0
                        assert got == pytest.approx(expect, abs=1e-8 * max(1.0, expect))

    def test_value_example_n16_m2_j1(self):
        q2 = basis_q_table(16, 2)[1]
        assert discrete_symmetric_inner(q2, q2, 1, 16) == pytest.approx(10.0, abs=1e-8)

    def test_matches_rodrigues_oracle(self):
        n = 12
        for m in range(1, 7):
            assert basis_q_table(n, m)[m - 1] == pytest.approx(q_rodrigues(m, n), abs=1e-9)

    def test_converges_to_continuous(self):
        errs = []
        for n in (8, 16, 32):
            s = np.arange(1, 2 * n + 1) / n
            errs.append(np.max(np.abs(basis_q_table(n, 2)[1] - basis_Q_deriv(2, s, 0))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.5

    def test_sign_convention_at_the_fixed_end(self):
        # q_m(1) has the sign of Q_m(1) = K_m P'_{2m-1}(0), (-1)^(m-1); the
        # centre value is never small, unlike q_m(1/n) for high modes
        for n in (64, 128):
            centre = basis_q_table(n)[:, n - 1]
            assert np.array_equal(np.sign(centre), (-1.0) ** np.arange(n))

    @pytest.mark.parametrize("n, modes", [(64, 64), (256, 256), (512, 512), (512, 256)])
    def test_weighted_gram_and_signs_at_working_sizes(self, n, modes):
        # the full tables the acceptance suite and transfers read, and the
        # (512, 256) rows a convergence ladder's n_ref = 512 transfer builds
        table = basis_q_table(n, modes)
        half = table[:, :n]
        gram = (half * (symmetric_weight(n, 1, n) / n)) @ half.T
        assert np.max(np.abs(gram - np.eye(modes))) <= 1e-13
        assert np.array_equal(np.sign(table[:, n - 1]), (-1.0) ** np.arange(modes))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="mode count must lie in 1..8, got 9"):
            basis_q_table(8, 9)
        with pytest.raises(ValueError, match="mode count must lie in 1..8, got 0"):
            basis_q_table(8, 0)

    @pytest.mark.parametrize("n", [1, 2, 8, 37, 512])
    def test_leading_rows_bitwise_the_full_table(self, n):
        full = basis_q_table(n)
        for modes in sorted({1, max(n // 2, 1), n}):
            rows = basis_q_table(n, modes)
            assert rows.shape == (modes, 2 * n)
            assert not rows.flags.writeable
            assert rows.tobytes() == full[:modes].tobytes()

    def test_full_height_requests_share_one_cache_entry(self):
        n = 24
        full = basis_q_table(n)
        misses = basis_q_table.cache_info().misses
        for table in (basis_q_table(n, None), basis_q_table(n, modes=None), basis_q_table(n, n)):
            assert table is full
        assert basis_q_table.cache_info().misses == misses

    @pytest.mark.parametrize("modes", [0, -1, 9])
    def test_mode_count_out_of_range(self, modes):
        with pytest.raises(ValueError, match="mode count"):
            basis_q_table(8, modes)

    def test_weight_reduces_to_rho(self):
        n = 5
        w = symmetric_weight(n, 1, 2 * n)
        k = np.arange(1, 2 * n + 1)
        assert w == pytest.approx(k * (2 * n + 1 - k) / n**2)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_weight_bitwise_the_product_formula(self, n):
        # the rising product of rho_j is prod_i (k+i)(2n+1-k-i)/n^2, multiplied
        # from the left, bit for bit
        k = np.arange(1, 2 * n + 1, dtype=float)
        for r in range(5):
            want = np.ones(2 * n)
            for i in range(r):
                want = want * ((k + i) * (2 * n + 1 - k - i) / n**2)
            assert np.array_equal(symmetric_weight(n, r, 2 * n), want)


# ---------------------------------------------------------------------------
# transfer maps


class TestTransferMaps:
    def test_single_mode_maps_to_mode(self):
        n = 8
        for m in (1, 3, 7):
            coeffs = np.zeros(m)
            coeffs = np.concatenate([np.zeros(m - 1), [1.0]])
            theta = evaluate_discrete(coeffs, n)
            assert theta == pytest.approx(basis_q_table(n, m)[m - 1, :n], abs=1e-13)

    def test_Fn_Gn_identity(self):
        n = 12
        ang = AngleState(np.random.default_rng(4).normal(size=n), np.zeros(n))
        a, _ = continuize_Gn(ang)
        back = discretize_Fn(a, n)
        assert np.max(np.abs(back.theta - ang.theta)) < 1e-12

    def test_Gn_isometry_j0(self):
        n = 10
        rng = np.random.default_rng(5)
        theta = rng.normal(size=n)
        a = angle_coefficients(theta, n)
        norm_disc = discrete_symmetric_inner(theta, theta, 0, n)
        assert np.sum(a * a) == pytest.approx(norm_disc, rel=1e-10)

    def test_parseval_higher_j(self):
        # <<theta, theta>>_{rho, j} = sum r_mj a_m^2 for j <= 3, to 1e-10 relative
        n = 9
        rng = np.random.default_rng(6)
        theta = rng.normal(size=n)
        a = angle_coefficients(theta, n)
        for j in range(4):
            expect = sum(r_coefficient(m, j) * a[m - 1] ** 2 for m in range(1, n + 1))
            got = discrete_symmetric_inner(theta, theta, j, n)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_truncation_norm_monotone(self):
        # discretizing a fixed coefficient tail: j-norms increase with n
        # toward the continuum value (Parseval + truncation)
        A = 2.0 ** -np.arange(1, 33)
        for j in (0, 1):
            vals = []
            for n in (8, 16, 32):
                th = discretize_Fn(A, n)
                vals.append(discrete_symmetric_inner(th.theta, th.theta, j, n))
            full = sum(r_coefficient(m, j) * A[m - 1] ** 2 for m in range(1, 33))
            assert vals[0] <= vals[1] <= vals[2] <= full * (1 + 1e-12)

    def test_upsampling_keeps_leading_coefficients(self):
        n = 8
        rng = np.random.default_rng(7)
        ang = AngleState(rng.normal(size=n), np.zeros(n))
        a, _ = continuize_Gn(ang)
        fine = discretize_Fn(a, 2 * n)
        a2 = angle_coefficients(fine.theta, 2 * n)
        assert a2[:n] == pytest.approx(a, abs=1e-11)
        assert np.max(np.abs(a2[n:])) < 1e-11


    @pytest.mark.parametrize("M", [1, 5, 37, 64, 107, 256, 287])
    def test_leading_coefficients_within_4_ulp(self, M):
        # the (M x n) product may block its rows differently from the
        # (n x n) one, so the leading coefficients agree to a few ulp of the
        # largest, not always bitwise
        n = 2 * M
        rng = np.random.default_rng(M)
        ang = AngleState(rng.normal(size=n), rng.normal(size=n))
        full = continuize_Gn(ang)
        for got, want in zip(continuize_Gn(ang, M), full):
            assert got.shape == (M,)
            assert np.max(np.abs(got - want[:M])) <= 4 * np.spacing(np.max(np.abs(want)))
        assert np.array_equal(angle_coefficients(ang.theta, n, M), continuize_Gn(ang, M)[0])


class TestTransferResolution:
    def test_identity_at_same_n(self):
        ch = make_random_chain(12, seed=8, vel_scale=1.5)
        out = transfer_resolution(ch, 12)
        assert np.max(np.abs(out.eta - ch.eta)) < 1e-12
        assert np.max(np.abs(out.eta_dot - ch.eta_dot)) < 1e-12

    def test_straight_chain_any_target(self):
        ch = straight_chain(8)
        for target in (4, 8, 16, 37):
            out = transfer_resolution(ch, target)
            t = out.link_dirs()
            spread = np.max(np.abs(t - t[0]), axis=0)
            assert np.max(spread) < 1e-12  # still straight
            assert out.constraint_drift() < 1e-14

    def test_constraint_exact_after_transfer(self):
        ch = theta_power(32, q=0.8, vel_amp=0.5)
        out = transfer_resolution(ch, 48)
        assert out.constraint_drift() < 1e-14
        assert out.orthogonality_drift() < 1e-14

    @pytest.mark.parametrize("n, target", [(64, 24), (74, 37), (16, 48)])
    def test_builds_only_the_modes_the_target_reads(self, n, target, monkeypatch):
        built = []
        rows = spectral._basis_q_rows

        def spy(size, modes):
            built.append((size, modes))
            return rows(size, modes)

        basis_q_table.cache_clear()
        monkeypatch.setattr(spectral, "_basis_q_rows", spy)
        ch = theta_power(n, q=0.8, vel_amp=0.5)
        out = transfer_resolution(ch, target)
        assert (n, min(n, target)) in built
        assert all(size != n or modes <= target for size, modes in built)
        # the full-table path: every source mode, truncated by discretize_Fn
        a, ad = continuize_Gn(eta_to_theta(ch))
        want = theta_to_eta(discretize_Fn(a, target, ad))
        assert np.max(np.abs(out.eta - want.eta)) <= 1e-15
        assert np.max(np.abs(out.eta_dot - want.eta_dot)) <= 1e-15

    def test_upsampling_reads_no_full_target_table(self, monkeypatch):
        # evaluate_discrete builds only the rows it reads; they are bitwise the
        # full table's, so the upsampled chain keeps its bytes
        built = []
        rows = spectral._basis_q_rows

        def spy(size, modes):
            built.append((size, modes))
            return rows(size, modes)

        basis_q_table.cache_clear()
        monkeypatch.setattr(spectral, "_basis_q_rows", spy)
        ch = theta_power(64, vel_amp=1)
        out = transfer_resolution(ch, 1024)
        assert (1024, 1024) not in built
        a, ad = continuize_Gn(eta_to_theta(ch), 64)
        full = rows(1024, 1024)[:64, :1024]
        want = theta_to_eta(AngleState(a @ full, ad @ full))
        assert out.eta.tobytes() == want.eta.tobytes()
        assert out.eta_dot.tobytes() == want.eta_dot.tobytes()

    def test_e3_preserved_smooth(self):
        # smooth curved chain, n = 32 -> 64.  The angle-space (rho, j) norms
        # are preserved exactly (the isometry); e_3 converts those norms
        # through s-weights that carry structural O(1/n) factors (v_0 alone
        # is 1/2 + 1/2n), so e_3 matches to a few parts in n, not better.
        n = 32
        s = np.arange(1, n + 1) / n
        theta = 0.7 * np.sin(np.pi * s / 2)  # sin(pi(2-s)/2) = sin(pi s/2): even through s = 1
        theta_dot = 0.4 * np.sin(np.pi * s / 2)
        ch = theta_to_eta(AngleState(theta, theta_dot))
        out = transfer_resolution(ch, 64)
        e3_src = discrete_energy(ch, 3)[3]
        e3_dst = discrete_energy(out, 3)[3]
        assert e3_dst == pytest.approx(e3_src, rel=4.0 / n)
        # the underlying invariant is exact
        a_src = eta_to_theta(ch)
        a_dst = eta_to_theta(out)
        for j in range(4):
            i_src = discrete_symmetric_inner(a_src.theta, a_src.theta, j, n)
            i_dst = discrete_symmetric_inner(a_dst.theta, a_dst.theta, j, 2 * n)
            assert i_dst == pytest.approx(i_src, rel=1e-10)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            transfer_resolution(straight_chain(4, d=3), 8)

    def test_target_below_one_link_refused(self):
        with pytest.raises(ValueError, match="target resolution must be >= 1, got 0"):
            transfer_resolution(theta_power(8), 0)


@pytest.mark.parametrize("n", [2, 3])
def test_theta_eta_norms_sum_the_orders_that_exist(n):
    # order j reads j differences of theta_1..theta_n, so at n <= 3 the
    # sums run over j < n only, and order n does not exist
    ch = make_random_chain(n, seed=n)
    theta = eta_to_theta(ch).theta
    A = sum(weighted_seminorm_sq(theta, j + 1, j, n) for j in range(1, n))
    B = sum(weighted_seminorm_sq(ch.eta, j + 1, j + 1, n) for j in range(1, n))
    assert theta_eta_norms(ch) == (A, B) and A > 0.0 and B > 0.0
    with pytest.raises(ValueError, match="does not support"):
        weighted_seminorm_sq(theta, n + 1, n, n)


def test_norm_equivalence_monitored(capsys):
    # B <= c1 (A + A^2 + A^3) and A <= c2 (B + B^2) with generous constants;
    # logged for inspection, not asserted as theorem constants
    rows = []
    for n, q in [(16, 0.8), (32, 0.9), (24, 0.75)]:
        ch = theta_power(n, q=q)
        A, B = theta_eta_norms(ch)
        rows.append((n, q, A, B, B / (A + A**2 + A**3), A / (B + B**2)))
    for n, q, A, B, r1, r2 in rows:
        assert np.isfinite(A) and np.isfinite(B) and A > 0 and B > 0
        print(f"norm-equivalence n={n} q={q}: A={A:.4g} B={B:.4g} "
              f"B/(A+A^2+A^3)={r1:.3f} A/(B+B^2)={r2:.3f} (c1=c2=10 generous)")
        if r1 > 10 or r2 > 10:
            print(f"  flagged for inspection: ratio beyond generous constant")

