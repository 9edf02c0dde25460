"""Tridiagonal tension solves, the discrete Green function, bound
certificates, sigma_dot, and the a/b/c and d_m diagnostics."""

import numpy as np
import pytest

from whipchain.core import ChainState, _anchored, u0_v0
from whipchain.dynamics import _advance
from whipchain.errors import NumericError
from whipchain.initial_data import (
    folded_chain,
    random_chain,
    rigid_rotation,
    rigid_rotation_sigma,
    straight_chain,
)
from whipchain import tension
from whipchain.spectral import AngleState, theta_to_eta
from whipchain.tension import (
    alpha_beta_from_alpha,
    certify_bounds,
    compute_alpha_beta,
    diagnostics_abc,
    green_matrix,
    green_matrix_for_chain,
    sigma_sobolev,
    solve_sigma_dot,
    solve_tension,
    tension_residual,
    upsilon_threehalves,
)

from conftest import flat_links, make_random_chain, oracle_extend, oracle_green, oracle_sigma_extend, oracle_tension


# ---------------------------------------------------------------------------
# alpha / beta


class TestAlphaBeta:
    def test_straight_chain(self):
        ab = compute_alpha_beta(straight_chain(8))
        assert ab.alpha == pytest.approx(np.ones(7), abs=5e-14)
        assert ab.beta == pytest.approx(np.ones(8), abs=5e-12)

    def test_right_angle_kink(self):
        # orthogonal consecutive links: alpha = 0 there and beta = 2 at that index
        theta = np.array([0.0, 0.0, np.pi / 2, np.pi / 2])
        ch = theta_to_eta(AngleState(theta, np.zeros(4)))
        ab = compute_alpha_beta(ch)
        assert ab.alpha[1] == pytest.approx(0.0, abs=1e-15)
        assert ab.beta[1] == pytest.approx(2.0)

    def test_hand_recursion(self):
        # alpha = 1/2, n = 3: beta_3 = 1, beta_2 = 2 - 1/4 = 7/4, beta_1 = 2 - (1/4)/(7/4) = 13/7
        ab = alpha_beta_from_alpha(np.full(2, 0.5))
        assert ab.beta == pytest.approx([13 / 7, 7 / 4, 1.0])

    def test_ranges(self, rng):
        for seed in range(10):
            ch = make_random_chain(16, seed=seed, max_turn=3.0)
            ab = compute_alpha_beta(ch)
            assert np.all(np.abs(ab.alpha) <= 1.0 + 1e-12)
            assert np.all((ab.beta >= 1.0 - 1e-12) & (ab.beta <= 2.0 + 1e-12))

    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_beta_is_bitwise_the_recursion_of_alpha(self, n):
        alpha = np.cos(np.random.default_rng(n).uniform(-1.5, 1.5, size=n - 1))
        ab = tension.AlphaBeta(alpha)
        assert ab.beta.tobytes() == tension.beta_recursion(alpha).tobytes()
        assert ab.n == n and not ab.beta.flags.writeable

    def test_beta_is_not_a_constructor_argument(self):
        alpha = np.full(2, 0.5)
        with pytest.raises(TypeError):
            tension.AlphaBeta(alpha, tension.beta_recursion(alpha))


def _beta_loop(alpha):
    """The recursion beta_n = 1, beta_i = 2 - alpha_i^2 / beta_{i+1} on Python floats."""
    beta = [1.0]
    for a in reversed(alpha.tolist()):
        beta.append(2.0 - a**2 / beta[-1])
    return np.array(beta[::-1])


class TestBetaPivots:
    """beta from one dpttrf factorization of the reversed operator."""

    def test_within_2_ulp_of_the_recursion(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 17, 64, 256, 1000):
            alpha = rng.uniform(-1.0, 1.0, size=n - 1)
            beta = tension.beta_recursion(alpha)
            assert beta[-1] == 1.0
            ref = _beta_loop(alpha)
            assert np.all(np.abs(beta - ref) <= 2 * np.spacing(ref))
            # each step of the recursion, also where alpha ~ 1 lets rounding carry over
            near_one = 1.0 - rng.uniform(0.0, 1e-6, size=n - 1)
            for a in (alpha, near_one):
                beta = tension.beta_recursion(a)
                step = 2.0 - a**2 / beta[1:]
                assert np.all(np.abs(beta[:-1] - step) <= 2 * np.spacing(step))

    def test_stack_rows_are_bitwise_their_own(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 64, 256):
            alpha = rng.uniform(-1.0, 1.0, size=(7, n - 1))
            alpha[3] = 1.0  # the straight chain: every pivot exactly 1
            stacked = tension.beta_recursion(alpha)
            assert stacked.shape == (7, n) and stacked.flags.c_contiguous
            for row, a in zip(stacked, alpha):
                assert np.array_equal(row, tension.beta_recursion(a))
            assert np.all(stacked[3] == 1.0)

    def test_off_manifold_raises_naming_the_sample(self):
        with pytest.raises(NumericError) as err:
            alpha_beta_from_alpha([1.5, 1.5])
        assert err.value.chain == 0
        for col, value in ((-1, 1.5), (0, 1.99)):  # the first pivot of sample 2 to fail, or its last
            alpha = np.full((4, 5), 0.5)
            alpha[2, col] = value
            with pytest.raises(NumericError, match="not positive") as err:
                tension.beta_recursion(alpha)
            assert err.value.chain == 2

    def test_single_link(self):
        assert np.array_equal(tension.beta_recursion(np.empty(0)), [1.0])
        assert np.array_equal(tension.beta_recursion(np.empty((3, 0))), np.ones((3, 1)))
        ch = random_chain(1, np.random.default_rng(0))
        gm = green_matrix_for_chain(ch)
        assert gm.diag.tolist() == [1.0] and gm.G.tolist() == [[1.0]]
        assert certify_bounds(gm, ch).all_applicable_pass()


# ---------------------------------------------------------------------------
# Green matrix


class TestGreenMatrix:
    def test_straight_closed_form(self):
        # collinear links mean alpha = 1 exactly; G_kj = min(j,k)/n
        for n in (2, 4, 9, 64):
            gm = green_matrix(alpha_beta_from_alpha(np.ones(n - 1)))
            kk, jj = np.indices((n, n))
            expected = np.minimum(kk + 1, jj + 1) / n
            assert np.max(np.abs(gm.G - expected)) < 1e-14

    def test_straight_from_positions(self):
        # the position-built straight chain is collinear to representability
        n = 12
        gm = green_matrix_for_chain(straight_chain(n))
        kk, jj = np.indices((n, n))
        assert np.max(np.abs(gm.G - np.minimum(kk + 1, jj + 1) / n)) < 1e-13

    def test_kink_zeroes_cross_block(self):
        # alpha_i = 0 makes G_kj = 0 whenever k <= i < j (p factors vanish)
        alpha = np.array([0.5, 0.0, 0.5, 0.3])
        gm = green_matrix(alpha_beta_from_alpha(alpha))
        i = 2  # alpha_2 = 0
        for k in range(1, i + 1):
            for j in range(i + 1, 6):
                assert gm.G[k - 1, j - 1] == 0.0

    def test_symmetry(self):
        ch = make_random_chain(16, seed=3, max_turn=3.0)
        gm = green_matrix_for_chain(ch)
        assert np.max(np.abs(gm.G - gm.G.T)) < 1e-13

    def test_against_dense_inverse(self):
        for seed, n in [(0, 2), (1, 5), (2, 16)]:
            ch = make_random_chain(n, seed=seed, max_turn=2.5)
            gm = green_matrix_for_chain(ch)
            assert gm.G == pytest.approx(oracle_green(ch), rel=1e-10, abs=1e-12)

    def test_minmax_bound_with_negative_alpha(self):
        # |G_kj| <= min(j,k)/n holds even when entries go negative
        for seed in range(8):
            ch = make_random_chain(12, seed=seed, max_turn=3.1)
            gm = green_matrix_for_chain(ch)
            kk, jj = np.indices((12, 12))
            assert np.all(np.abs(gm.G) <= np.minimum(kk + 1, jj + 1) / 12 + 1e-12)


# ---------------------------------------------------------------------------
# tension solves


class TestSolveTension:
    def test_zero_velocity(self):
        sol = solve_tension(straight_chain(8))
        assert np.all(sol.sigma == 0.0)
        assert not sol.positivity

    def test_rigid_rotation_discrete_exact(self):
        # sigma_k = omega^2 k (2n+1-k) / (2n^2) solves the system exactly
        for n, om in [(8, 1.0), (32, 1.3)]:
            sol = solve_tension(rigid_rotation(n, om))
            assert sol.sigma == pytest.approx(rigid_rotation_sigma(n, om), abs=1e-13)

    def test_rigid_rotation_continuum_limit(self):
        # discrete sigma approximates omega^2 s(2-s)/2 with O(1/n) error that
        # halves from n = 32 to n = 64
        om = 1.0
        errs = {}
        for n in (32, 64):
            sol = solve_tension(rigid_rotation(n, om))
            s = np.arange(1, n + 1) / n
            exact = om**2 * s * (2.0 - s) / 2.0
            errs[n] = np.max(np.abs(sol.sigma[1:] - exact) / exact)
        ratio = errs[32] / errs[64]
        assert 1.6 <= ratio <= 2.4

    def test_n2_hand_solve(self, rng):
        ch = make_random_chain(2, seed=9)
        t = ch.link_dirs()
        td = ch.link_dirs_dot()
        alpha = float(np.dot(t[0], t[1]))
        A = 4.0 * np.array([[2.0, -alpha], [-alpha, 1.0]])  # n^2 = 4
        w = np.array([float(np.dot(td[0], td[0])), float(np.dot(td[1], td[1]))])
        expect = np.linalg.solve(A, w)
        sol = solve_tension(ch)
        assert sol.sigma[1:] == pytest.approx(expect, rel=1e-12)

    def test_green_equals_direct(self):
        for seed, n in [(0, 2), (1, 4), (2, 8), (3, 16), (4, 64)]:
            ch = make_random_chain(n, seed=seed, max_turn=2.0)
            sd = solve_tension(ch, "direct")
            sg = solve_tension(ch, "green")
            scale = max(np.max(np.abs(sd.sigma)), 1e-30)
            assert np.max(np.abs(sd.sigma - sg.sigma)) / scale < 1e-10

    def test_one_link_direct_equals_green(self):
        # a single link is the 1 x 1 system n^2 sigma_1 = w_1 with n = 1
        for seed in range(3):
            ch = make_random_chain(1, seed=seed)
            w = float(np.sum(ch.link_dirs_dot() ** 2))
            sd = solve_tension(ch, "direct")
            sg = solve_tension(ch, "green")
            assert sd.sigma[1] == sg.sigma[1] == pytest.approx(w, rel=1e-15)
        assert solve_tension(rigid_rotation(1, 2.0)).sigma == pytest.approx(rigid_rotation_sigma(1, 2.0), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_stacked_solve_is_bitwise_per_chain(self, n):
        # B systems stacked into one solve with zero couplings give each
        # chain's own solve bit for bit
        chains = [make_random_chain(n, seed=s, vel_scale=1.0 + s) for s in range(5)]
        stacked, alpha, w = tension._solve_sigma_arrays(*flat_links(chains), n)
        for row, c in enumerate(chains):
            own = tension._solve_sigma_arrays(c.link_dirs().T, c.link_dirs_dot().T, n)
            part = slice(row * n, (row + 1) * n)
            for got, want in zip((stacked[part], alpha[row * n : row * n + n - 1], w[part]), own):
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.concatenate([[0.0], stacked[part]]), solve_tension(c).sigma)

    def test_stacked_solve_names_failing_chain(self):
        # doubled link lengths (alpha_i = 4) in the second of three chains
        good = rigid_rotation(8, 1.0)
        links = np.concatenate([good.link_dirs().T, 2.0 * good.link_dirs().T, good.link_dirs().T], axis=1)
        links_dot = np.concatenate([good.link_dirs_dot().T] * 3, axis=1)
        with pytest.raises(NumericError, match="not positive definite") as info:
            tension._solve_sigma_arrays(links, links_dot, 8)
        assert info.value.chain == 1

    def test_matches_dense_oracle(self):
        ch = make_random_chain(10, seed=5, max_turn=3.0)
        sol = solve_tension(ch)
        assert sol.sigma == pytest.approx(oracle_tension(ch), rel=1e-10, abs=1e-13)

    def test_positivity_criterion(self):
        # all alpha > 0 and nontrivial velocity implies all sigma > 0
        for seed in range(6):
            ch = make_random_chain(12, seed=seed, max_turn=1.5)
            assert np.all(compute_alpha_beta(ch).alpha > 0)
            sol = solve_tension(ch)
            assert sol.positivity and sol.min_sigma > 0

    def test_min_and_positivity_are_bitwise_the_stacked_min(self, rng):
        # sigma_0 = 0 is left out; a NaN tension gives a NaN minimum and no
        # positivity, a chain at rest a zero minimum and no positivity
        stack = np.zeros((5, 9))
        stack[:3, 1:] = rng.normal(1.0, 1.0, size=(3, 8))
        stack[1, 4] = np.nan
        stack[2, 1:] = np.abs(stack[2, 1:]) + 0.5
        low = stack[:, 1:].min(axis=-1)
        for row, want in zip(stack, low.tolist()):
            sol = tension.TensionSolution(row)
            assert np.float64(sol.min_sigma).tobytes() == np.float64(want).tobytes()
            assert sol.positivity is (want > 0.0)
        assert [tension.TensionSolution(row).positivity for row in stack[1:]] == [False, True, False, False]
        assert np.isnan(tension.TensionSolution(stack[1]).min_sigma)
        with pytest.raises(TypeError):
            tension.TensionSolution(stack[2], 0.5, True)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_tension(straight_chain(4), "magic")

    def test_flux_form_residual(self):
        ch = make_random_chain(14, seed=7)
        sol = solve_tension(ch)
        w = np.sum(ch.link_dirs_dot() ** 2, axis=1)
        assert tension_residual(ch, sol) <= 1e-10 * max(np.max(w), 1.0)

    def test_second_difference_form(self):
        # the solved tension satisfies the equivalent rewrite
        # D-D+ sigma = (E sigma)/2 |D+^2 eta|^2 + (E^{-1} sigma)/2 |D-D+ eta|^2 - |D+ eta_dot|^2
        # componentwise (sigma extended evenly, eta oddly)
        from whipchain.core import forward_diff

        ch = make_random_chain(12, seed=13, max_turn=2.5)
        n = ch.n
        sol = solve_tension(ch)
        sig = np.array(oracle_sigma_extend(sol.sigma, n)[: n + 2])  # sigma_0..sigma_{n+1}
        eta_ext = np.array(oracle_extend(ch)[0][: n + 3])
        curv = forward_diff(forward_diff(eta_ext, n), n)  # D+^2 eta_j, j = 1..n+1
        curv_sq = np.sum(curv * curv, axis=1)
        w = np.sum(ch.link_dirs_dot() ** 2, axis=1)
        lhs = n * n * (sig[2:] - 2.0 * sig[1:-1] + sig[:-2])  # D-D+ sigma_k, k = 1..n
        # (E sigma)_k |D+^2 eta_k|^2 pairs curv at j = k; (E^{-1} sigma)_k
        # |D-D+ eta_k|^2 pairs curv at j = k-1 (the k = 1 factor rides on sigma_0 = 0)
        back = np.concatenate([[0.0], curv_sq[: n - 1]])
        rhs = sig[2:] / 2.0 * curv_sq[:n] + sig[:-2] / 2.0 * back - w
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_folded_chain_negative_tension():
    # antiparallel fold with angular velocity on the fixed-end side: the
    # product formula makes G_kj < 0 across the fold, so tension goes
    # nonpositive on the free-end side
    ch = folded_chain(8)
    ab = compute_alpha_beta(ch)
    assert np.min(ab.alpha) == pytest.approx(-1.0)
    sol = solve_tension(ch)
    assert sol.min_sigma <= 0.0
    assert not sol.positivity


def test_acute_angle_example():
    # constant-turn chain with every joint acute (turn 2pi/3 > pi/2, so
    # alpha = -1/2): a one-hot angular velocity at the free side of any
    # joint drives some tension nonpositive
    n = 4
    theta = np.arange(n) * (2 * np.pi / 3)
    base = theta_to_eta(AngleState(theta, np.zeros(n)))
    assert np.all(compute_alpha_beta(base).alpha == pytest.approx(-0.5))
    found = None
    for j in range(n):
        theta_dot = np.zeros(n)
        theta_dot[j] = 1.0
        ch = theta_to_eta(AngleState(theta, theta_dot))
        sol = solve_tension(ch)
        if sol.min_sigma <= 0:
            found = j
            break
    assert found is not None


# ---------------------------------------------------------------------------
# certificates


class TestCertificates:
    def test_straight_chain_certificate(self):
        n = 16
        ch = straight_chain(n)
        cert = certify_bounds(green_matrix_for_chain(ch), ch)
        # max nG/k attained (= 1) for k <= j; min ratio n^2G/(jk) = 1 at the corner
        assert cert.max_upper_ratio == pytest.approx(1.0, abs=1e-12)
        assert cert.min_lower_ratio == pytest.approx(1.0, abs=1e-11)
        assert cert.upsilon == pytest.approx(0.0, abs=1e-20)
        assert cert.upsilon_admissible  # zero curvature: bound holds outright
        assert cert.all_applicable_pass()

    def test_lower_bound_with_small_upsilon(self):
        # a gently curved chain with upsilon around 0.1 must satisfy
        # n^2 G_kj/(jk) >= e^{-2 upsilon} outright
        n = 32
        s = np.arange(1, n + 1) / n
        target = 0.1
        theta = np.sqrt(target) * 2.0 * np.sqrt(s)  # |theta'| ~ s^{-1/2}: equalizes the upsilon max
        ch = theta_to_eta(AngleState(theta, np.zeros(n)))
        ups = upsilon_threehalves(ch)
        assert 0.02 < ups <= 2 * np.sqrt(n) / 5
        cert = certify_bounds(green_matrix_for_chain(ch), ch)
        assert cert.lower_bound_ok
        assert cert.min_lower_ratio >= np.exp(-2 * cert.upsilon) - 1e-12

    def test_upper_bounds_random_nonneg_alpha(self):
        for seed in range(10):
            ch = make_random_chain(16, seed=seed, max_turn=1.5, vel_scale=2.0)
            cert = certify_bounds(green_matrix_for_chain(ch), ch)
            assert cert.all_alpha_nonneg
            assert cert.diff_bound_ok and cert.ratio_bound_ok
            assert cert.minmax_bound_ok

    def test_corner_minimum_and_product_formula(self):
        for seed in range(10):
            ch = make_random_chain(12, seed=seed, max_turn=1.5)
            cert = certify_bounds(green_matrix_for_chain(ch), ch)
            assert cert.corner_ok
            assert abs(cert.corner_product_gap) < 1e-12

    def test_upsilon_is_exact_max(self):
        ch = make_random_chain(10, seed=3)
        n = 10
        curv = np.diff(ch.link_dirs(), axis=0) * n
        ks = np.arange(1, n)
        expect = np.max((ks / n) ** 1.5 * np.sum(curv**2, axis=1))
        assert upsilon_threehalves(ch) == pytest.approx(expect, rel=1e-13)

    def test_negative_alpha_reports_not_applicable(self):
        ch = folded_chain(8)
        cert = certify_bounds(green_matrix_for_chain(ch), ch)
        assert not cert.all_alpha_nonneg
        assert cert.diff_bound_ok is None and cert.corner_ok is None
        assert cert.minmax_bound_ok  # unconditional bound still holds


def _dense_certificate(G, chain):
    """The certificate's clauses read off a dense G."""
    n = chain.n
    kk = np.arange(1, n + 1)[:, None]
    jj = np.arange(1, n + 1)[None, :]
    G0 = np.vstack([np.zeros((1, n)), G])
    F = n * n * G / (jj * kk)
    nonneg = bool(np.all(compute_alpha_beta(chain).alpha >= 0))
    ups = upsilon_threehalves(chain)
    diff, upper, low, F1n = np.max(np.abs(n * (G0[1:] - G0[:-1]))), np.max(n * G / kk), np.min(F), F[0, -1]
    return {
        "max_abs_green_diff": diff,
        "max_upper_ratio": upper,
        "min_lower_ratio": low,
        "corner_gap": low - F1n,
        "minmax_bound_ok": bool(np.all(np.abs(G) <= np.minimum(jj, kk) / n + 1e-12)),
        "diff_bound_ok": bool(diff <= 1 + 1e-12) if nonneg else None,
        "ratio_bound_ok": bool(upper <= 1 + 1e-12) if nonneg else None,
        "lower_bound_ok": bool(low >= np.exp(-2 * ups) - 1e-12) if ups <= 2 * np.sqrt(n) / 5 else None,
        "corner_ok": bool(abs(low - F1n) <= 1e-12 * max(1.0, abs(F1n))) if nonneg else None,
    }


def _staircase_chain(n, turns, rng):
    """Chain whose links alternate exactly between the axes at the joints
    listed in ``turns`` (alpha = 0 there exactly, 1 elsewhere)."""
    dirs = np.zeros((n, 2))
    axis = 0
    for k in range(n):
        if k in turns:
            axis = 1 - axis
        dirs[k, axis] = 1.0
    eta = np.zeros((n + 1, 2))
    eta[:-1] = -np.cumsum(dirs[::-1], axis=0)[::-1] / n  # eta_{n+1} = 0
    eta_dot = rng.normal(size=(n + 1, 2))
    eta_dot[-1] = 0.0
    return ChainState(eta, eta_dot)


def _quarter_turn_chain(n, turns):
    """Chain of axis-aligned links turning by ``turns[k]`` quarter turns at
    joint k: alpha is exactly 0 at a right angle and -1 at a fold back."""
    headings = np.cumsum([turns.get(k, 0) for k in range(n)]) % 4
    dirs = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])[headings]
    eta = np.zeros((n + 1, 2))
    eta[:-1] = -np.cumsum(dirs[::-1], axis=0)[::-1] / n  # eta_{n+1} = 0
    return ChainState(eta, np.zeros((n + 1, 2)))


def _dense_block_extremes(G, cuts):
    """Per block [lo, hi) of a split chain, read off a dense G: the largest
    |n (G_kj - G_{k-1,j})| and n G_kj / k over its rows k, and the smallest
    n^2 G_kj / (j k) over its rows and columns."""
    n = G.shape[0]
    kk = np.arange(1, n + 1)[:, None]
    diff = np.abs(n * np.diff(np.vstack([np.zeros((1, n)), G]), axis=0)).max(axis=1)
    upper = (n * G / kk).max(axis=1)
    F = n * n * G / (kk * kk.T)
    return [(diff[lo:hi].max(), upper[lo:hi].max(), F[lo:hi, lo:hi].min())
            for lo, hi in zip([0, *cuts], [*cuts, n])]


class TestGeneratorCertificates:
    """The O(n) certificate against the same clauses read off a dense G
    (the inverse of the assembled operator)."""

    def test_split_rows_match_dense_blocks(self):
        # chains of right angles (which split them) and fold backs, whose
        # extremes sit in every block, not only the first: each row's
        # extremes, stacked and alone, are the extremes over its blocks of a
        # dense per-block oracle (and 0 for the lower ratio, across blocks)
        rng = np.random.default_rng(31)
        chains, held = [], set()
        while len(chains) < 40:
            n = int(rng.integers(5, 24))
            quarter = rng.choice(4, size=n, p=[0.55, 0.15, 0.15, 0.15])
            ch = _quarter_turn_chain(n, {k: int(q) for k, q in enumerate(quarter) if k and q})
            cuts = np.flatnonzero(compute_alpha_beta(ch).alpha == 0.0) + 1
            if len(cuts) >= 2:
                chains.append((ch, cuts))
        for ch, cuts in chains:
            blocks = np.array(_dense_block_extremes(oracle_green(ch), cuts))
            want = (blocks[:, 0].max(), blocks[:, 1].max(), min(blocks[:, 2].min(), 0.0))
            stack = tension.certify_stack(ch.eta.T[:, None])
            cert = certify_bounds(green_matrix_for_chain(ch), ch)
            for i, key in enumerate(("max_abs_green_diff", "max_upper_ratio", "min_lower_ratio")):
                assert getattr(cert, key) == pytest.approx(want[i], rel=1e-10, abs=1e-13), key
                assert stack[key][0] == getattr(cert, key)
            held |= {(i, int(b)) for i, b in enumerate((blocks[:, 0].argmax(), blocks[:, 2].argmin()))}
        assert {(0, 1), (0, 2), (1, 1), (1, 2)} <= held   # later blocks hold the extremes too

    def _compare(self, ch, abs_tol=0.0):
        gm = green_matrix_for_chain(ch)
        cert = certify_bounds(gm, ch)
        assert "G" not in vars(gm)  # no dense matrix was formed
        ref = _dense_certificate(oracle_green(ch), ch)
        for key in ("max_abs_green_diff", "max_upper_ratio", "min_lower_ratio"):
            assert getattr(cert, key) == pytest.approx(ref[key], rel=1e-10, abs=abs_tol), key
        # the inverse resolves the corner entry only to round-off of the largest entries
        assert cert.corner_gap == pytest.approx(ref["corner_gap"], rel=1e-10, abs=max(abs_tol, 1e-12))
        for key in ("minmax_bound_ok", "diff_bound_ok", "ratio_bound_ok", "lower_bound_ok", "corner_ok"):
            assert getattr(cert, key) == ref[key], key
        return cert

    @pytest.mark.parametrize("family", ["obtuse", "mixed_sign", "small_turn"])
    def test_random_against_dense(self, family):
        rng = np.random.default_rng({"obtuse": 11, "mixed_sign": 12, "small_turn": 13}[family])
        acute = 0
        for n in (2, 3, 5, 16, 41, 100, 256):
            turn = {"obtuse": 1.45, "mixed_sign": 2.6, "small_turn": 0.6 * n**-0.75}[family]
            cert = self._compare(random_chain(n, rng, max_turn=turn, vel_scale=2.0))
            acute += not cert.all_alpha_nonneg
            if family != "mixed_sign":
                assert cert.all_applicable_pass()
        assert (acute > 0) == (family == "mixed_sign")

    def test_right_angle_joints_split_blocks(self, rng):
        n = 32
        ch = _staircase_chain(n, {5, 6, 20}, rng)
        ab = compute_alpha_beta(ch)
        assert np.count_nonzero(ab.alpha == 0.0) == 3
        cert = self._compare(ch, abs_tol=1e-14)
        # entries across a right angle vanish exactly, so min F = F_1n = 0
        assert cert.min_lower_ratio == 0.0 and cert.corner_gap == 0.0
        assert cert.all_alpha_nonneg and cert.all_applicable_pass()
        G = green_matrix_for_chain(ch).G
        assert np.all(G[:5, 5:] == 0.0) and np.all(G[6:20, 20:] == 0.0)

    def test_certificate_at_n_1e5(self):
        n = 100_000
        ch = random_chain(n, np.random.default_rng(7), max_turn=0.6 * n**-0.75, vel_scale=2.0)
        gm = green_matrix_for_chain(ch)
        cert = certify_bounds(gm, ch)
        assert "G" not in vars(gm)
        floats = [cert.max_abs_green_diff, cert.max_upper_ratio, cert.min_lower_ratio,
                  cert.upsilon, cert.corner_gap, cert.corner_product_gap]
        assert np.all(np.isfinite(floats))
        assert cert.upsilon_admissible and cert.all_applicable_pass()

    def test_green_apply_is_G_times_w(self):
        for seed, n in [(0, 2), (1, 7), (2, 40)]:
            ch = make_random_chain(n, seed=seed, max_turn=2.8)
            gm = green_matrix_for_chain(ch)
            w = np.random.default_rng(seed).normal(size=n)
            assert gm.apply(w) == pytest.approx(oracle_green(ch) @ w / n, rel=1e-10, abs=1e-13)



_FAMILY_TURN = {"obtuse": lambda n: 1.45, "mixed_sign": lambda n: 2.6, "small_turn": lambda n: 0.6 * n**-0.75}


def _assert_rows_match(stack, chains):
    """Every row of a stacked certificate is bitwise the chain's own."""
    for b, ch in enumerate(chains):
        cert = certify_bounds(green_matrix_for_chain(ch), ch)
        for key, values in stack.items():
            hypothesis = tension._HYPOTHESES.get(key)
            if hypothesis is not None and not getattr(cert, hypothesis):
                assert getattr(cert, key) is None, key
                continue
            mine = getattr(cert, key)
            assert type(mine) is type(values[b].item()) and mine == values[b], (b, key)


def _position_stack(chains):
    """The component-major (d, B, n+1) stack of the chains' positions."""
    return np.stack([ch.eta.T for ch in chains], axis=1)


class TestCertifyStack:
    """``certify_stack`` over (2, B, n+1) stacks against per-chain certificates."""

    @pytest.mark.parametrize("family", sorted(_FAMILY_TURN))
    @pytest.mark.parametrize("n", [2, 3, 64, 256])
    @pytest.mark.parametrize("B", [1, 2, 7])
    def test_rows_bitwise_per_chain(self, family, n, B):
        rng = np.random.default_rng(B * 1000 + n)
        chains = [random_chain(n, rng, max_turn=_FAMILY_TURN[family](n), vel_scale=2.0) for _ in range(B)]
        _assert_rows_match(tension.certify_stack(_position_stack(chains)), chains)

    def test_stack_mixing_split_and_whole_rows(self, rng):
        n = 64
        chains = [
            _staircase_chain(n, {5, 6, 20}, rng),
            random_chain(n, rng, max_turn=1.45),
            _staircase_chain(n, set(range(1, n, 2)), rng),  # a right angle at every other joint
            random_chain(n, rng, max_turn=2.6),
            _staircase_chain(n, {40}, rng),
            random_chain(n, rng, max_turn=0.6 * n**-0.75),
            _staircase_chain(n, {1, n - 1}, rng),  # one-link blocks at both ends
        ]
        stack = tension.certify_stack(_position_stack(chains))
        _assert_rows_match(stack, chains)
        assert stack["min_lower_ratio"][[0, 2, 4, 6]].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_blockwise_accumulate_restarts_at_zeros(self):
        rng = np.random.default_rng(9)
        zero = rng.random((5, 40)) < 0.2
        zero[1] = False
        zero[2, [0, -1]] = True  # one-entry blocks at both ends
        x = rng.normal(size=(5, 41))
        x[2, [0, -1]] = 10.0, -10.0  # extremes that would leak past a missed restart
        for ufunc, reverse in ((np.maximum, False), (np.minimum, True)):
            got = tension._blockwise(ufunc, x, zero, reverse=reverse)
            for b in range(5):
                cuts = np.flatnonzero(zero[b]) + 1
                for lo, hi in zip([0, *cuts], [*cuts, 41]):
                    part = x[b, lo:hi][::-1] if reverse else x[b, lo:hi]
                    want = ufunc.accumulate(part)
                    assert np.array_equal(got[b, lo:hi], want[::-1] if reverse else want)


# ---------------------------------------------------------------------------
# sigma_dot


class TestSigmaDot:
    def test_stationary_zero(self):
        ch = straight_chain(8)
        sol = solve_tension(ch)
        assert np.all(solve_sigma_dot(ch, sol) == 0.0)

    def test_rigid_rotation_steady(self):
        ch = rigid_rotation(16, 1.0)
        sol = solve_tension(ch)
        sd = solve_sigma_dot(ch, sol)
        assert np.max(np.abs(sd)) < 1e-10

    def test_centered_difference_oracle(self):
        # compare with (sigma(t+h) - sigma(t-h)) / 2h along the exact flow
        ch = make_random_chain(12, seed=7, vel_scale=0.6)
        sol = solve_tension(ch)
        sd = solve_sigma_dot(ch, sol)
        h = 1e-5
        out = {}
        for sign in (+1, -1):
            links, links_dot = _advance(ch.link_dirs().T, ch.link_dirs_dot().T, sol.sigma[1:], ch.n, sign * h)
            out[sign] = solve_tension(ChainState(_anchored(links).T, _anchored(links_dot).T)).sigma
        fd = (out[+1] - out[-1]) / (2 * h)
        scale = max(np.max(np.abs(sd)), 1e-30)
        assert np.max(np.abs(fd - sd)) / scale < 1e-3


# ---------------------------------------------------------------------------
# a, b, c diagnostics and d_m norms


class TestDiagnostics:
    def test_zero_velocity(self):
        ch = straight_chain(8)
        sol = solve_tension(ch)
        sd = solve_sigma_dot(ch, sol)
        a, b, c = diagnostics_abc(ch, sol, sd)
        assert a == 0.0 and c == 0.0
        assert b == np.inf

    def test_rigid_rotation_limits(self):
        # from sigma(s) = om^2 s(2-s)/2: a -> om^2 (at s = 0), b -> 2/om^2 (at s = 1)
        n, om = 256, 1.4
        ch = rigid_rotation(n, om)
        sol = solve_tension(ch)
        sd = solve_sigma_dot(ch, sol)
        a, b, c = diagnostics_abc(ch, sol, sd)
        assert a == pytest.approx(om**2, rel=2.0 / n)
        assert b == pytest.approx(2.0 / om**2, rel=2.0 / n)
        assert c == pytest.approx(0.0, abs=1e-9)

    def test_b_infinite_on_negative_tension(self):
        ch = folded_chain(8)
        sol = solve_tension(ch)
        sd = solve_sigma_dot(ch, sol)
        _, b, _ = diagnostics_abc(ch, sol, sd)
        assert b == np.inf

    def test_a_vs_e2_ratio_logged(self):
        # a <~ e_2 with an unpinned constant: log the ratio, assert finiteness only
        ratios = []
        from whipchain.core import discrete_energy

        for seed in range(5):
            ch = make_random_chain(16, seed=seed)
            sol = solve_tension(ch)
            sd = solve_sigma_dot(ch, sol)
            a, _, _ = diagnostics_abc(ch, sol, sd)
            ratios.append(a / discrete_energy(ch, 2)[2])
        assert np.all(np.isfinite(ratios))

    def test_d_norms_match_seminorm_definition(self):
        from whipchain.core import weighted_seminorm_sq

        ch = make_random_chain(12, seed=4)
        sol = solve_tension(ch)
        d = sigma_sobolev(sol, 12, 3)
        expect1 = weighted_seminorm_sq(sol.sigma, 1.5, 2, 12, first_index=0)
        expect2 = expect1 + weighted_seminorm_sq(sol.sigma, 2.5, 3, 12, first_index=0)
        expect3 = expect2 + weighted_seminorm_sq(sol.sigma, 3.5, 4, 12, first_index=0)
        assert d == pytest.approx([expect1, expect2, expect3], rel=1e-13)

    def test_d_norms_nan_when_too_coarse(self):
        ch = make_random_chain(2, seed=1)
        sol = solve_tension(ch)
        d = sigma_sobolev(sol, 2, 3)
        assert np.isfinite(d[0]) or np.isnan(d[0])  # d1 needs 3 sigma points: fine at n=2
        assert np.isnan(d[2])  # d3 needs D+^4 sigma: impossible at n=2

    def test_d_ratios_finite(self):
        from whipchain.core import discrete_energy

        for seed in range(5):
            ch = make_random_chain(16, seed=seed)
            sol = solve_tension(ch)
            e3 = discrete_energy(ch, 3)[3]
            d = sigma_sobolev(sol, 16, 3)
            ratios = [d[0] / e3**4, d[1] / e3**4, d[2] / e3**6]
            assert np.all(np.isfinite(ratios))


def test_u0_conservation_identity():
    # <eta_dot, D-(sigma D+ eta)> sums to zero by parts on the manifold
    for seed in range(6):
        ch = make_random_chain(12, seed=seed)
        sol = solve_tension(ch)
        from whipchain.dynamics import acceleration

        acc = acceleration(ch, sol)
        total = np.sum(np.einsum("kd,kd->k", ch.eta_dot[:-1], acc[:-1])) / ch.n
        u0, _ = u0_v0(ch)
        assert abs(total) <= 1e-12 * max(1.0, u0 * np.max(np.abs(sol.sigma)) * ch.n**2)


# ---------------------------------------------------------------------------
# typed numeric failures


class TestNumericErrors:
    def test_inconsistent_sigma_dot_raises(self):
        # a constant sigma_dot has max |D- sigma_dot| = 0 but sigma_dot_k/s_k > 0
        n = 8
        ch = rigid_rotation(n, 1.0)
        with pytest.raises(NumericError, match="sigma_dot"):
            diagnostics_abc(ch, solve_tension(ch), np.ones(n + 1))

    def test_residual_contract_raises(self, monkeypatch):
        import whipchain.tension as tension

        monkeypatch.setattr(tension, "SOLVE_RTOL", -1.0)
        with pytest.raises(NumericError, match="residual"):
            solve_tension(rigid_rotation(8, 1.0))

    def test_exact_rotation_passes_at_large_n(self):
        # the normwise backward error stays at round-off where the old
        # absolute residual test against 1e-10 |w| rejected the exact solution
        n = 2**15
        ch = rigid_rotation(n, 1.0)
        for method in ("direct", "green"):
            sol = solve_tension(ch, method)
            assert sol.sigma == pytest.approx(rigid_rotation_sigma(n, 1.0), abs=1e-8)

    @pytest.mark.parametrize("n", [64, 2**15])
    def test_one_perturbed_tension_raises(self, monkeypatch, n):
        # a 1e-8 relative error in a single sigma_k is far above round-off; a
        # uniform rescaling would hide in the normwise test, a local one not
        import whipchain.tension as tension

        solve = tension._solve_tridiagonal

        def mutated(alpha, w, n):
            sigma = solve(alpha, w, n).copy()
            sigma[n // 2] *= 1.0 + 1e-8
            return sigma

        ch = rigid_rotation(n, 1.0)
        solve_tension(ch)
        monkeypatch.setattr(tension, "_solve_tridiagonal", mutated)
        with pytest.raises(NumericError, match="backward error"):
            solve_tension(ch)

    def test_off_manifold_system_not_positive_definite(self):
        # doubled link lengths give alpha_i = 4: the 2 / -alpha stencil loses
        # diagonal dominance and definiteness
        ch = rigid_rotation(8, 1.0)
        off = ChainState(2.0 * ch.eta, ch.eta_dot)
        with pytest.raises(NumericError, match="not positive definite"):
            solve_tension(off)


# ---------------------------------------------------------------------------
# LAPACK loaded from scipy's extension file


def _lapack_results(routines, monkeypatch):
    """sigma (dptsv), beta (dpttrf) and the certificate arrays (dpttrf and
    dtbtrs) of one stack of five chains, computed with the given
    (dptsv, dpttrf, dtbtrs)."""
    for name, func in zip(("dptsv", "dpttrf", "dtbtrs"), routines):
        monkeypatch.setattr(tension, name, func)
    rng = np.random.default_rng(21)
    chains = [random_chain(64, rng, max_turn=1.2, vel_scale=2.0) for _ in range(5)]
    sigma, alpha, _ = tension._solve_sigma_arrays(*flat_links(chains), 64)
    beta = tension.beta_recursion(np.stack([alpha[b * 64 : b * 64 + 63] for b in range(5)]))
    return {"sigma": sigma, "beta": beta, **tension.certify_stack(_position_stack(chains))}


def _assert_bitwise(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key, strict=True)


class TestLapackLoad:
    """``tension._load_lapack`` loads scipy's ``_flapack`` extension from its
    file; the routines must be the ones ``scipy.linalg.lapack`` exports, and
    any failure of the direct load falls back to that module."""

    def test_direct_load_is_bitwise_scipy_lapack(self, monkeypatch):
        from scipy.linalg import lapack

        direct = tension._load_lapack()
        want = _lapack_results((lapack.dptsv, lapack.dpttrf, lapack.dtbtrs), monkeypatch)
        _assert_bitwise(_lapack_results(direct, monkeypatch), want)

    @pytest.mark.parametrize("failure", ["no_spec", "no_file", "unloadable_file"])
    def test_failed_direct_load_falls_back(self, monkeypatch, tmp_path, failure):
        import importlib.machinery
        import importlib.util
        from types import SimpleNamespace

        from scipy.linalg import lapack

        want = _lapack_results(tension._load_lapack(), monkeypatch)
        (tmp_path / "linalg").mkdir()
        if failure == "unloadable_file":
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(b"not a shared object")
        spec = None if failure == "no_spec" else SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
        routines = tension._load_lapack()
        assert routines == (lapack.dptsv, lapack.dpttrf, lapack.dtbtrs)
        _assert_bitwise(_lapack_results(routines, monkeypatch), want)
