"""Integration, projection, trajectory reporting, and blowup detection."""

import numpy as np
import pytest

from whipchain import core, dynamics, tension
from whipchain.core import ChainState, u0_v0
from whipchain.dynamics import (
    IntegratorConfig,
    acceleration,
    adaptive_dt,
    detect_blowup,
    project,
    run,
    run_batch,
    snapshot_report,
    step,
)
from whipchain.errors import FitRejected, NumericError
from whipchain.initial_data import (
    folded_chain,
    near_loop,
    perturbed_vertical,
    rigid_rotation,
    rigid_rotation_exact,
    straight_chain,
    theta_power,
)
from whipchain.tension import solve_tension, tension_residual

from conftest import make_random_chain


# ---------------------------------------------------------------------------
# acceleration


class TestAcceleration:
    def test_zero_velocity(self):
        ch = straight_chain(8)
        acc = acceleration(ch, solve_tension(ch))
        assert np.all(acc == 0.0)

    def test_rigid_rotation_centripetal(self):
        # eta_ddot_k ~ -om^2 (1 - s_k) u with O(1/n) relative error
        n, om = 128, 1.0
        ch = rigid_rotation(n, om)
        acc = acceleration(ch, solve_tension(ch))
        s = np.arange(1, n + 1) / n
        expect = -(om**2) * np.outer(1.0 - s, [1.0, 0.0])
        err = np.max(np.abs(acc[:-1] - expect))
        assert err < 2.0 / n

    def test_rigid_rotation_exact_discrete(self):
        # the exact discrete relation: eta_ddot_k = -om^2 c_k u, c_k = (n+1-k)/n
        n, om = 16, 1.3
        ch = rigid_rotation(n, om)
        acc = acceleration(ch, solve_tension(ch))
        c = np.arange(n, 0, -1) / n
        expect = -(om**2) * np.outer(c, [1.0, 0.0])
        assert acc[:-1] == pytest.approx(expect, abs=1e-12)

    def test_size_error(self):
        ch = straight_chain(4)
        with pytest.raises(ValueError):
            acceleration(ch, np.zeros(3))

    def test_fixed_end_zero(self):
        ch = make_random_chain(9, seed=1)
        acc = acceleration(ch, solve_tension(ch))
        assert np.all(acc[-1] == 0.0)


# ---------------------------------------------------------------------------
# adaptive dt


class TestAdaptiveDt:
    def test_zero_sigma_gives_dt_max(self):
        ch = straight_chain(8)
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.25)
        assert adaptive_dt(ch, solve_tension(ch), cfg) == 0.25

    def test_arithmetic(self):
        # max sigma = 1, n = 100, cfl = 0.5 -> dt = 5e-3 when within clamps
        cfg = IntegratorConfig(t_end=1.0, cfl=0.5, dt_max=1.0)
        ch = straight_chain(100)
        sigma = np.zeros(101)
        sigma[50] = 1.0
        assert adaptive_dt(ch, sigma, cfg) == pytest.approx(5e-3, rel=1e-9)

    def test_rigid_rotation_value(self):
        n, om = 64, 1.0
        ch = rigid_rotation(n, om)
        cfg = IntegratorConfig(t_end=1.0, dt_max=1.0)
        dt = adaptive_dt(ch, solve_tension(ch), cfg)
        # max sigma approx om^2/2 at the fixed end
        assert dt == pytest.approx(cfg.cfl / (n * np.sqrt(om**2 / 2)), rel=2e-2)

    def test_clamps(self):
        ch = straight_chain(8)
        cfg = IntegratorConfig(t_end=1.0, dt_min=1e-5, dt_max=1e-4)
        sigma = np.full(9, 1e12)
        assert adaptive_dt(ch, sigma, cfg) == 1e-5


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, scheme="euler")

    def test_bad_cfl(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, cfl=1.5)

    def test_bad_dt_order(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt_min=1.0, dt_max=0.1)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("t_end", np.inf, "t_end must be finite"),
            ("t_end", np.nan, "t_end must be finite"),
            ("dt_min", np.nan, "dt_min must be finite"),
            ("dt_max", np.nan, "dt_max must be finite"),
            ("dt_max", np.inf, "dt_max must be finite"),
            ("blowup_threshold", np.nan, "blowup_threshold must be finite"),
            ("blowup_threshold", np.inf, "blowup_threshold must be finite"),
            ("blowup_threshold", -1.0, "blowup_threshold must be positive"),
            ("blowup_threshold", 0.0, "blowup_threshold must be positive"),
            ("dt_max", 0.0, "dt_max must be positive"),
        ],
    )
    def test_non_finite_or_meaningless_setting(self, key, value, message):
        kwargs = {"t_end": 1.0, "dt_min": 0.0, key: value}
        with pytest.raises(ValueError, match=message):
            IntegratorConfig(**kwargs)


# ---------------------------------------------------------------------------
# stepping and projection


class TestStep:
    def test_stationary_fixed_point(self):
        ch = straight_chain(8)
        cfg = IntegratorConfig(t_end=1.0)
        out = step(ch, cfg, dt=1e-3)
        assert out.eta == pytest.approx(ch.eta, abs=1e-15)
        assert np.all(out.eta_dot == 0.0)

    def test_projection_restores_constraints(self):
        ch = make_random_chain(16, seed=2, vel_scale=2.0)
        cfg = IntegratorConfig(t_end=1.0)
        out = step(ch, cfg, dt=5e-3)
        assert out.constraint_drift() < 1e-12
        assert out.orthogonality_drift() < 1e-12

    def test_v0_exact_after_projection(self):
        ch = make_random_chain(32, seed=3, vel_scale=2.0)
        cfg = IntegratorConfig(t_end=1.0)
        out = step(ch, cfg)
        _, v0 = u0_v0(out)
        assert v0 == pytest.approx(0.5 + 0.5 / 32, abs=1e-13)

    def test_time_reversal_unprojected(self):
        ch = make_random_chain(10, seed=4)
        cfg = IntegratorConfig(t_end=1.0, project=False)
        dt = 1e-3
        back = step(step(ch, cfg, dt=dt), cfg, dt=-dt)
        assert np.max(np.abs(back.eta - ch.eta)) < 1e-13
        assert np.max(np.abs(back.eta_dot - ch.eta_dot)) < 1e-12

    def test_heun_consistency(self):
        # Heun and RK4 agree to O(dt^3) on one step
        ch = make_random_chain(12, seed=5)
        c4 = IntegratorConfig(t_end=1.0, scheme="rk4", project=False)
        c2 = IntegratorConfig(t_end=1.0, scheme="heun", project=False)
        dt = 1e-4
        a = step(ch, c4, dt=dt)
        b = step(ch, c2, dt=dt)
        assert np.max(np.abs(a.eta - b.eta)) < 1e-10

    def test_projection_idempotent_on_manifold(self):
        ch = make_random_chain(12, seed=6)
        out = project(ch)
        assert np.max(np.abs(out.eta - ch.eta)) < 1e-13
        assert np.max(np.abs(out.eta_dot - ch.eta_dot)) < 1e-12

    def test_numeric_error_on_overflowing_step(self):
        from whipchain.errors import NumericError

        ch = make_random_chain(8, seed=9, vel_scale=5.0)
        cfg = IntegratorConfig(t_end=1.0, project=False)
        with pytest.raises(NumericError):
            out = ch
            for _ in range(200):  # an absurd fixed step drives the state to NaN
                out = step(out, cfg, dt=10.0)


class TestRigidRotationOrbit:
    def test_one_period_return(self):
        n = 64
        ch = rigid_rotation(n, 1.0)
        cfg = IntegratorConfig(t_end=2 * np.pi, report_stride=10**9)
        traj = run(ch, cfg)
        assert traj.termination == "t_end_reached"
        fin = traj.snapshots[-1].state
        exact = rigid_rotation_exact(n, 2 * np.pi)
        rel = np.max(np.linalg.norm(fin.eta - exact.eta, axis=1)) / np.max(
            np.linalg.norm(exact.eta, axis=1)
        )
        assert rel < 1e-4

    def test_u0_conservation(self):
        n = 64
        traj = run(rigid_rotation(n, 1.0), IntegratorConfig(t_end=2 * np.pi, report_stride=10**9))
        u0_start, _ = u0_v0(traj.snapshots[0].state)
        u0_end, v0_end = u0_v0(traj.snapshots[-1].state)
        assert abs(u0_end - u0_start) / u0_start <= 1e-6
        assert v0_end == pytest.approx(0.5 + 0.5 / n, abs=1e-13)

    def test_three_dimensional_rotation(self):
        # the integrator and projection are dimension-agnostic
        n = 16
        ch = rigid_rotation(n, 1.0, d=3)
        traj = run(ch, IntegratorConfig(t_end=0.5, report_stride=100))
        fin = traj.snapshots[-1].state
        exact = rigid_rotation_exact(n, 0.5, 1.0, d=3)
        assert np.max(np.abs(fin.eta - exact.eta)) < 1e-6
        assert fin.constraint_drift() < 1e-12


class TestRun:
    def test_snapshot_times_increasing_and_consistent(self):
        ch = perturbed_vertical(12, amplitude=0.3)
        traj = run(ch, IntegratorConfig(t_end=0.05, report_stride=10))
        times = [s.state.time for s in traj.snapshots]
        assert np.all(np.diff(times) > 0)
        for snap in traj.snapshots:
            assert tension_residual(snap.state, snap.tension) < 1e-8

    def test_folded_chain_halts_immediately(self):
        ch = folded_chain(8)
        cfg = IntegratorConfig(t_end=1.0, halt_on_negative_tension=True)
        traj = run(ch, cfg)
        assert traj.termination == "negative_tension"
        assert traj.n_steps == 0
        assert len(traj.snapshots) == 1

    def test_chain_at_rest_does_not_halt(self):
        # zero tension is not negative tension: a straight chain at rest runs to t_end
        traj = run(straight_chain(8), IntegratorConfig(t_end=0.01))
        assert traj.termination == "t_end_reached"
        assert traj.n_steps == 10
        assert all(np.all(snap.state.eta_dot == 0.0) for snap in traj.snapshots)

    def test_dt_underflow(self):
        ch = make_random_chain(8, seed=7, vel_scale=3.0)
        cfg = IntegratorConfig(t_end=1.0, dt_min=1.0, dt_max=1.0, cfl=1e-6)
        # raw CFL dt is far below dt_min here
        traj = run(ch, cfg)
        assert traj.termination == "dt_underflow"

    def test_blowup_threshold(self):
        # continue-anyway flag: drive past the negative-tension boundary so
        # the curvature threshold is what terminates
        ch = near_loop(48)
        cfg = IntegratorConfig(
            t_end=5.0, blowup_threshold=80.0, report_stride=50, halt_on_negative_tension=False
        )
        traj = run(ch, cfg)
        assert traj.termination == "blowup_suspected"

    def test_negative_tension_halt_is_default(self):
        # the same configuration under defaults stops at the regime boundary
        ch = near_loop(48)
        traj = run(ch, IntegratorConfig(t_end=5.0, report_stride=50))
        assert traj.termination == "negative_tension"
        assert traj.snapshots[-1].state.time < 5.0

    def test_projection_log(self):
        ch = perturbed_vertical(10, amplitude=0.5)
        traj = run(ch, IntegratorConfig(t_end=0.02))
        assert len(traj.projection_log) == traj.n_steps
        assert np.all(traj.projection_log >= 0.0)

    def test_u0_drift_unit_time_n128(self):
        traj = run(rigid_rotation(128, 1.0), IntegratorConfig(t_end=1.0, report_stride=10**9))
        u0s, _ = u0_v0(traj.snapshots[0].state)
        u0e, _ = u0_v0(traj.snapshots[-1].state)
        assert abs(u0e - u0s) / u0s <= 1e-6

    def test_gronwall_ratio_logged_and_e3_bounded(self):
        # small transverse perturbation over a unit time: e_3 stays bounded
        # and the discrete Gronwall quotient is logged (finite, not asserted
        # against any constant)
        ch = perturbed_vertical(16, amplitude=0.2)
        traj = run(ch, IntegratorConfig(t_end=1.0, report_stride=100))
        assert traj.termination == "t_end_reached"
        cols = traj.series()
        e3 = cols["e3"]
        assert np.all(np.isfinite(e3))
        # bounded: the perturbation swells (factor ~45 here as it reaches the
        # free end) and relaxes, with no runaway by t = 1
        assert np.max(e3) <= 1e3 * e3[0]
        assert e3[-1] <= np.max(e3)
        dt = np.diff(cols["t"])
        gron = np.diff(cols["et3"]) / (dt * e3[:-1] ** 7)
        assert np.all(np.isfinite(gron))


class TestSteppingCore:
    @pytest.mark.parametrize("project_on", [True, False])
    def test_run_snapshots_are_step_results(self, project_on):
        # every snapshot but the last (whose dt is cut to reach t_end) is one
        # step() of the previous one, bitwise and with the same time
        cfg = IntegratorConfig(t_end=0.0125, report_stride=1, project=project_on)
        traj = run(perturbed_vertical(12, amplitude=0.3), cfg)
        states = [snap.state for snap in traj.snapshots]
        assert len(states) == traj.n_steps + 1 >= 4
        for prev, cur in zip(states[:-2], states[1:-1]):
            nxt = step(prev, cfg)
            assert nxt.time == cur.time
            assert np.array_equal(nxt.eta, cur.eta)
            assert np.array_equal(nxt.eta_dot, cur.eta_dot)

    def test_negative_tension_halt_between_strides_snapshots_halting_state(self):
        traj = run(near_loop(48), IntegratorConfig(t_end=5.0, report_stride=10**9))
        assert traj.termination == "negative_tension"
        assert traj.n_steps > 0
        assert len(traj.snapshots) == 2
        assert traj.snapshots[-1].tension.min_sigma <= 0.0

    def test_blowup_halt_between_strides_snapshots_halting_state(self):
        cfg = IntegratorConfig(
            t_end=5.0, blowup_threshold=80.0, report_stride=10**9, halt_on_negative_tension=False
        )
        traj = run(near_loop(48), cfg)
        assert traj.termination == "blowup_suspected"
        assert len(traj.snapshots) == 2
        cols = traj.series()
        assert max(cols["max_ang_vel"][-1], cols["max_curvature"][-1]) > cfg.blowup_threshold


def _assert_same_trajectory(got, want):
    """Every snapshot, the step count, the projection log and the
    termination agree bit for bit."""
    assert got.termination == want.termination
    assert got.n_steps == want.n_steps
    assert got.projection_log.tobytes() == want.projection_log.tobytes()
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert a.state.time == b.state.time
        for x, y in [(a.state.eta, b.state.eta), (a.state.eta_dot, b.state.eta_dot),
                     (a.tension.sigma, b.tension.sigma), (a.report.e, b.report.e),
                     (a.report.e_tilde, b.report.e_tilde), (a.report.d, b.report.d)]:
            assert x.tobytes() == y.tobytes()
        for name in ("u0", "v0", "a", "b", "c", "constraint_drift"):
            assert getattr(a.report, name) == getattr(b.report, name)


class TestRunBatch:
    def test_batch_is_bitwise_each_serial_run(self):
        # random chains of different step counts and terminations, a folded
        # chain that halts at step 0 and a straight chain at rest, on a stride
        # that most runs stop in between
        chains = [make_random_chain(16, seed=s, vel_scale=v) for s, v in ((1, 1.0), (2, 4.0), (5, 8.0))]
        chains += [folded_chain(16), straight_chain(16)]
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.02, report_stride=7)
        serial = [run(c, cfg) for c in chains]
        assert len({t.n_steps for t in serial[:3]}) == 3
        assert {t.termination for t in serial} == {"t_end_reached", "negative_tension"}
        assert serial[3].n_steps == 0
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    def test_snapshots_handed_out_as_made(self):
        # every snapshot once, as it is made: each chain's in its order, and
        # at step 0 the chains in order, the folded one (which stops there)
        # included
        chains = [make_random_chain(8, seed=s, vel_scale=2.0) for s in (1, 2)] + [folded_chain(8)]
        handed = []
        trajs = run_batch(chains, IntegratorConfig(t_end=0.02, report_stride=4),
                          on_snapshot=lambda i, snap: handed.append((i, snap)))
        assert all(type(i) is int for i, _ in handed)
        for i, traj in enumerate(trajs):
            assert [snap for j, snap in handed if j == i] == traj.snapshots
        assert len(handed) == sum(len(t.snapshots) for t in trajs)
        assert handed[:3] == [(i, trajs[i].snapshots[0]) for i in range(3)]

    def test_dt_underflow_in_a_batch(self):
        # dt_min between the raw CFL steps of a fast chain (which underflows)
        # and a chain at rest (which runs on); a fast folded chain meets both
        # negative tension and underflow at step 0, and negative tension wins
        def raw_dt(chain):
            return 0.5 / (16 * np.sqrt(np.max(solve_tension(chain).sigma)))

        fast, folded = make_random_chain(16, seed=7, vel_scale=3.0), folded_chain(16, vel_amp=20.0)
        raw = raw_dt(fast)
        cfg = IntegratorConfig(t_end=20 * raw, dt_min=2 * raw, dt_max=2 * raw, report_stride=3)
        assert raw_dt(folded) < cfg.dt_min
        chains = [fast, straight_chain(16), folded]
        trajs = run_batch(chains, cfg)
        assert [t.termination for t in trajs] == ["dt_underflow", "t_end_reached", "negative_tension"]
        for got, c in zip(trajs, chains):
            _assert_same_trajectory(got, run(c, cfg))

    def test_one_link_chains(self):
        cfg = IntegratorConfig(t_end=0.05, report_stride=10)
        chains = [make_random_chain(1, seed=s) for s in range(3)]
        serial = [run(c, cfg) for c in chains]
        assert all(t.termination == "t_end_reached" for t in serial)
        assert all(t.snapshots[-1].state.time == 0.05 for t in serial)
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    @pytest.mark.parametrize("other", [straight_chain(9), straight_chain(8, d=3)], ids=["n", "d"])
    def test_mixed_shapes_rejected(self, other):
        with pytest.raises(ValueError, match="one n and d"):
            run_batch([straight_chain(8), other], IntegratorConfig(t_end=0.01))

    def test_numeric_error_names_the_original_chain(self, monkeypatch):
        # the folded chain leaves the batch at step 0, so working row 1 of the
        # first step is chain 2
        def fail(eta, eta_dot, sigma, n, t, dt, cfg):
            raise NumericError("boom", chain=1)

        monkeypatch.setattr(dynamics, "_step_arrays", fail)
        chains = [folded_chain(8), make_random_chain(8, seed=1), make_random_chain(8, seed=2)]
        with pytest.raises(NumericError, match="^chain 2: boom") as info:
            run_batch(chains, IntegratorConfig(t_end=0.01))
        assert info.value.chain == 2

    def test_non_finite_step_names_the_failing_chain(self):
        # a NaN velocity in chain 1 spreads through the zero couplings of the
        # stacked solve into its neighbours' tensions, yet the error names
        # chain 1
        chains = [make_random_chain(8, seed=s) for s in range(3)]
        eta = np.stack([c.eta for c in chains])
        eta_dot = np.stack([c.eta_dot for c in chains])
        eta_dot[1, 0, 0] = np.nan
        sigma = dynamics._solve_sigma_arrays(eta, eta_dot, 8)
        assert np.isnan(sigma).any(axis=1).all()
        with pytest.raises(NumericError, match="non-finite") as info:
            dynamics._step_arrays(eta, eta_dot, sigma, 8, np.zeros(3), np.full((3, 1, 1), 1e-3),
                                  IntegratorConfig(t_end=1.0))
        assert info.value.chain == 1


class TestStepStartSolve:
    """Each iteration of the stepping loop makes one stacked tension solve at
    the step start, which the stop tests, dt, the step and the snapshots
    read; an RK4 step adds three stage solves, and no per-chain
    ``solve_tension`` runs."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"stacked": 0, "solve_tension": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dynamics, "_solve_sigma_arrays", counted("stacked", dynamics._solve_sigma_arrays))
        solve = counted("solve_tension", tension.solve_tension)
        monkeypatch.setattr(tension, "solve_tension", solve)
        monkeypatch.setattr(dynamics, "solve_tension", solve, raising=False)
        return counts

    def test_stride_1_run(self, counts):
        traj = run(perturbed_vertical(12, amplitude=0.3), IntegratorConfig(t_end=0.0125, report_stride=1))
        k = traj.n_steps
        assert k >= 4 and len(traj.snapshots) == k + 1
        assert counts == {"stacked": 4 * k + 1, "solve_tension": 0}

    def test_batch_between_strides(self, counts):
        chains = [make_random_chain(16, seed=s) for s in range(3)]
        trajs = run_batch(chains, IntegratorConfig(t_end=0.05, dt_max=0.01, report_stride=10**9))
        k = max(t.n_steps for t in trajs)
        assert k >= 5
        assert [len(t.snapshots) for t in trajs] == [2, 2, 2]
        assert counts == {"stacked": 4 * k + 1, "solve_tension": 0}

    def test_snapshots_reuse_the_step_start_system(self, monkeypatch):
        # alpha and w are formed once per stacked solve; the snapshots' solve
        # contract reads the step-start solve's, so a stride-1 RK4 run of
        # k steps forms them 4k + 1 times, not once more per snapshot
        calls = []
        alpha_w = tension._alpha_w
        monkeypatch.setattr(tension, "_alpha_w", lambda eta, eta_dot: calls.append(1) or alpha_w(eta, eta_dot))
        traj = run(perturbed_vertical(12, amplitude=0.3), IntegratorConfig(t_end=0.0125, report_stride=1))
        k = traj.n_steps
        assert k >= 4 and len(traj.snapshots) == k + 1
        assert len(calls) == 4 * k + 1


def test_snapshot_report_fields():
    ch = make_random_chain(12, seed=8)
    sol = solve_tension(ch)
    rep = snapshot_report(ch, sol)
    assert rep.e.shape == (4,) and rep.e_tilde.shape == (4,) and rep.d.shape == (3,)
    assert rep.e[0] == pytest.approx(rep.u0 + rep.v0, rel=1e-12)
    assert np.isfinite(rep.a) and np.isfinite(rep.c)
    assert rep.constraint_drift < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_report_maxima_and_drift_bitwise_the_direct_kernels(n, d):
    # the report reads them off the energy ladder's rows l = 0 and 1; they
    # must be bitwise what the stop tests' _maxima and ChainState give, and
    # what np.linalg.norm gives on the link vectors
    rng = np.random.default_rng(10 * n + d)
    eta, eta_dot = rng.normal(size=(2, n + 1, d))
    eta[-1] = eta_dot[-1] = 0.0
    ch = project(ChainState(n, d, eta, eta_dot))
    sol = solve_tension(ch)
    rep = snapshot_report(ch, sol)
    ang, curv = dynamics._maxima(ch.eta, ch.eta_dot, n)
    links = n * (ch.eta[1:] - ch.eta[:-1])
    ang_ref = np.linalg.norm(n * (ch.eta_dot[1:] - ch.eta_dot[:-1]), axis=1).max()
    curv_ref = np.linalg.norm(n * (links[1:] - links[:-1]), axis=1).max(initial=0.0)
    drift_ref = np.max(np.abs(np.linalg.norm(links, axis=1) - 1.0))
    assert rep.max_ang_vel == ang == ang_ref
    assert rep.max_curvature == curv == curv_ref
    assert rep.constraint_drift == ch.constraint_drift() == drift_ref
    # the ladder's curvature row reaches k = n, through the fixed end; the
    # report covers k < n only, so one link has curvature 0
    ladder = core._squared_differences(core.odd_extend(ch, sol), n, 1)
    assert len(ladder[1][1]) == n
    assert (rep.max_curvature == 0.0) == (n == 1)


def test_snapshot_report_bitwise_with_weight_cache_cold_and_warm():
    traj = run(theta_power(64, vel_amp=1.0), IntegratorConfig(t_end=0.01, report_stride=1))
    assert len(traj.snapshots) > 2
    fields = ("e", "e_tilde", "u0", "v0", "a", "b", "c", "d", "constraint_drift", "time")
    for snap in traj.snapshots:
        core._weight_row.cache_clear()
        cold = snapshot_report(snap.state, snap.tension)
        misses = core._weight_row.cache_info().misses
        warm = snapshot_report(snap.state, snap.tension)
        assert core._weight_row.cache_info().misses == misses
        for name in fields:
            for rep in (cold, warm):
                got, want = np.asarray(getattr(rep, name)), np.asarray(getattr(snap.report, name))
                assert got.tobytes() == want.tobytes(), name


class TestResolutionConvergence:
    def test_error_halves_under_doubling(self):
        # same continuum datum (spectrally interpolated), error vs the
        # closed-form rotation at fixed t; first-order-or-better decay
        from whipchain.spectral import continuize_Gn, discretize_Fn, eta_to_theta, theta_to_eta

        t_end = 0.4
        ref = rigid_rotation(128, 1.0)
        cp, cv = continuize_Gn(eta_to_theta(ref))
        errs = {}
        for n in (16, 32):
            chain = theta_to_eta(discretize_Fn(cp, n, cv))
            traj = run(chain, IntegratorConfig(t_end=t_end, report_stride=10**9))
            fin = traj.snapshots[-1].state
            exact = rigid_rotation_exact(n, t_end).eta
            errs[n] = np.max(np.linalg.norm(fin.eta - exact, axis=1))
        assert errs[16] / errs[32] >= 1.5


# ---------------------------------------------------------------------------
# blowup detection


class TestDetectBlowup:
    def _series(self, p_ang, p_curv, T=1.0, n=40, lo=0.5, hi=0.95):
        t = np.linspace(lo, hi, n)
        return np.column_stack([t, (T - t) ** (-p_ang), (T - t) ** (-p_curv)])

    def test_recovers_its_own_model(self):
        fit = detect_blowup(self._series(1.0, 1.5))
        assert abs(fit.T_est - 1.0) < 1e-6
        assert abs(fit.p_angular - 1.0) < 1e-6
        assert abs(fit.p_curvature - 1.5) < 1e-6

    def test_recovers_three_halves(self):
        fit = detect_blowup(self._series(1.5, 1.5))
        assert abs(fit.p_angular - 1.5) < 1e-6
        assert abs(fit.p_curvature - 1.5) < 1e-6

    def test_T_beyond_last_sample(self):
        fit = detect_blowup(self._series(1.0, 1.5))
        assert fit.T_est > 0.95

    def test_bounded_series_rejected(self):
        t = np.linspace(0.0, 1.0, 30)
        y = 2.0 - np.exp(-t)  # bounded, but increasing
        ser = np.column_stack([t, y, np.full_like(t, 3.0)])  # flat curvature column
        with pytest.raises(FitRejected):
            detect_blowup(ser)

    def test_nonmonotone_tail_rejected(self):
        ser = self._series(1.0, 1.5)
        ser[-3, 1] = ser[-4, 1] * 0.5
        with pytest.raises(FitRejected):
            detect_blowup(ser)

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitRejected):
            detect_blowup(self._series(1.0, 1.5, n=5))

    def test_residuals_reported(self):
        fit = detect_blowup(self._series(1.0, 1.5))
        assert len(fit.residuals) == 2
        assert all(r >= 0 for r in fit.residuals)

    def test_near_loop_hunt_produces_finite_T(self):
        traj = run(near_loop(64), IntegratorConfig(t_end=1.0, report_stride=25, blowup_threshold=1e7))
        cols = traj.series()
        ser = np.column_stack([cols["t"], cols["max_ang_vel"], cols["max_curvature"]])
        fit = detect_blowup(ser)
        assert np.isfinite(fit.T_est) and fit.T_est > cols["t"][-1]
        assert np.all(np.isfinite(fit.residuals))
