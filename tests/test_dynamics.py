"""Integration, projection, trajectory reporting, and blowup detection."""

import dataclasses

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

from conftest import flat_links, make_random_chain


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


_TENSION_READERS = {
    "acceleration": acceleration,
    "adaptive_dt": lambda ch, sig: adaptive_dt(ch, sig, IntegratorConfig(t_end=1.0)),
    "diagnostics_abc": lambda ch, sig: tension.diagnostics_abc(ch, sig, np.zeros(ch.n + 1)),
    "sigma_sobolev": lambda ch, sig: tension.sigma_sobolev(sig, ch.n),
    "solve_sigma_dot": tension.solve_sigma_dot,
    "tension_residual": tension_residual,
    "sigma_weighted_energy": core.sigma_weighted_energy,
}


@pytest.mark.parametrize("reader", sorted(_TENSION_READERS))
def test_tension_of_the_wrong_length_is_refused(reader):
    # a length-5 sigma at n = 12 is refused by its shape, never broadcast or
    # cut short; a tension solution is read through its .sigma
    ch = rigid_rotation(12)
    with pytest.raises(ValueError, match=r"shape \(13,\), got \(5,\)"):
        _TENSION_READERS[reader](ch, np.ones(5))
    _TENSION_READERS[reader](ch, solve_tension(ch))


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

    @pytest.mark.parametrize("stride", [2.5, 2.0, "2", None, 0, -1, np.int64(0)])
    def test_report_stride_must_be_an_integer_of_at_least_one(self, stride):
        # a stride of 2.5 would report every 5 steps
        with pytest.raises(ValueError, match="report_stride must be an integer >= 1"):
            IntegratorConfig(t_end=0.01, report_stride=stride)

    @pytest.mark.parametrize("stride", [1, 3, np.int64(3), 10**9])
    def test_integer_report_stride_accepted(self, stride):
        assert IntegratorConfig(t_end=0.01, report_stride=stride).report_stride == stride


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

    def test_n_steps_is_the_length_of_the_projection_log(self):
        traj = run(perturbed_vertical(10, amplitude=0.5), IntegratorConfig(t_end=0.02))
        assert traj.n_steps == len(traj.projection_log) > 0
        shorter = dataclasses.replace(traj, projection_log=traj.projection_log[:3])
        assert shorter.n_steps == 3
        with pytest.raises(ValueError, match="n_steps"):
            dataclasses.replace(traj, n_steps=1)
        with pytest.raises(TypeError):
            dynamics.Trajectory(traj.snapshots, traj.termination, traj.n_steps, traj.projection_log)

    def test_unknown_termination_refused(self):
        traj = run(perturbed_vertical(6, amplitude=0.5), IntegratorConfig(t_end=0.002))
        with pytest.raises(ValueError, match="unknown termination 'bogus'"):
            dynamics.Trajectory(traj.snapshots, "bogus", traj.projection_log)

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
        def fail(links, links_dot, sigma, n, time, dt, cfg):
            raise NumericError("boom", chain=1)

        monkeypatch.setattr(dynamics, "_step_arrays", fail)
        chains = [folded_chain(8), make_random_chain(8, seed=1), make_random_chain(8, seed=2)]
        with pytest.raises(NumericError, match="^chain 2: boom") as info:
            run_batch(chains, IntegratorConfig(t_end=0.01))
        assert info.value.chain == 2

    @pytest.mark.parametrize("halt", [True, False])
    def test_mid_run_stops_in_a_batch_match_serial(self, halt):
        # near_loop(48) stops mid-run on negative tension, or with the halt
        # off on the blowup threshold, while a random chain runs to t_end and
        # a late-starting one reaches it first: each leaves the batch at its
        # own step, and every trajectory is its serial one
        late = make_random_chain(48, seed=2, max_turn=0.3)
        chains = [make_random_chain(48, seed=1, max_turn=0.3), near_loop(48),
                  ChainState(late.eta, late.eta_dot, 0.5)]
        cfg = IntegratorConfig(t_end=0.9, blowup_threshold=80.0, report_stride=10**9, halt_on_negative_tension=halt)
        serial = [run(c, cfg) for c in chains]
        stop = "negative_tension" if halt else "blowup_suspected"
        assert [t.termination for t in serial] == ["t_end_reached", stop, "t_end_reached"]
        assert serial[2].n_steps < serial[1].n_steps < serial[0].n_steps
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    def test_non_finite_step_names_the_failing_chain(self):
        # a NaN velocity in chain 1 spreads through the zero couplings of the
        # stacked solve into its neighbours' tensions, yet the error names
        # chain 1
        chains = [make_random_chain(8, seed=s) for s in range(3)]
        links, links_dot = flat_links(chains)
        links_dot[0, 8] = np.nan   # chain 1's first link
        sigma = dynamics._solve_sigma_arrays(links, links_dot, 8)[0]
        assert np.isnan(sigma.reshape(3, 8)).any(axis=1).all()
        with pytest.raises(NumericError, match="non-finite") as info:
            dynamics._step_arrays(links, links_dot, sigma, 8, np.zeros(3), np.full(24, 1e-3),
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
        # w is formed once per stacked solve, from the link velocities; the
        # snapshots' solve contract and the stop tests read the step-start
        # solve's, so a stride-1 RK4 run of k steps forms it 4k + 1 times,
        # not once more per snapshot, and never through solve_tension
        calls = {"w": 0, "solve_tension": 0}
        sq, solve = tension._sq, tension.solve_tension

        def counted(key, func):
            def wrapper(*args):
                calls[key] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(tension, "_sq", counted("w", sq))
        monkeypatch.setattr(tension, "solve_tension", counted("solve_tension", solve))
        traj = run(perturbed_vertical(12, amplitude=0.3), IntegratorConfig(t_end=0.0125, report_stride=1))
        k = traj.n_steps
        assert k >= 4 and len(traj.snapshots) == k + 1
        assert calls == {"w": 4 * k + 1, "solve_tension": 0}


def _links_chain(n, d, seed):
    """A chain on the manifold built from its links: unit links along a
    random walk of directions, random link velocities normal to them."""
    rng = np.random.default_rng(seed)
    t = np.eye(d)[0] + np.cumsum(rng.normal(scale=0.3, size=(n, d)), axis=0)
    t /= np.linalg.norm(t, axis=1)[:, None]
    u = rng.normal(size=(n, d))
    u -= np.sum(u * t, axis=1)[:, None] * t
    return ChainState(core._anchored(t.T).T, core._anchored(u.T).T)


def _position_step(eta, eta_dot, dt):
    """One RK4 step and projection of one chain in position space, by the
    position-space kernels the link stepper replaced (kept as the oracle):
    the positions, the velocities and the largest particle displacement the
    projection made."""
    n = eta.shape[0] - 1

    def rhs(e, v):
        sigma = np.zeros(n + 1)
        sigma[1:] = tension._solve_tridiagonal(tension._alpha(core._links(e.T)), core._sq(core._links(v.T)), n)
        flux = sigma[1:, None] * (e[1:] - e[:-1])
        acc = np.zeros_like(e)
        acc[:-1] = flux
        acc[1:-1] -= flux[:-1]
        return v, acc * n * n

    k1x, k1v = rhs(eta, eta_dot)
    k2x, k2v = rhs(eta + 0.5 * dt * k1x, eta_dot + 0.5 * dt * k1v)
    k3x, k3v = rhs(eta + 0.5 * dt * k2x, eta_dot + 0.5 * dt * k2v)
    k4x, k4v = rhs(eta + dt * k3x, eta_dot + dt * k3v)
    e = eta + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
    v = eta_dot + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    seg = e[:-1] - e[1:]
    unit = seg / (n * np.linalg.norm(seg, axis=1)[:, None])
    new_e = np.zeros_like(e)
    new_e[:-1] = np.cumsum(unit[::-1], axis=0)[::-1]
    t = -n * unit
    vdiff = n * (v[1:] - v[:-1])
    vdiff -= np.sum(vdiff * t, axis=1)[:, None] * t
    new_v = np.zeros_like(v)
    new_v[:-1] = -np.cumsum((vdiff / n)[::-1], axis=0)[::-1]
    return new_e, new_v, np.linalg.norm(new_e - e, axis=1).max()


class TestLinkStepping:
    """The stepper carries links and link velocities; positions are formed
    for snapshots only."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    def test_one_step_agrees_with_position_kernels(self, n, d):
        ch = _links_chain(n, d, seed=n + d)
        cfg = IntegratorConfig(t_end=1.0)
        links, links_dot = flat_links([ch])
        sigma = dynamics._solve_sigma_arrays(links, links_dot, n)[0]
        dt = adaptive_dt(ch, np.concatenate([[0.0], sigma]), cfg)
        links, links_dot, moved = dynamics._step_arrays(links, links_dot, sigma, n, [0.0], np.full(n, dt), cfg)
        eta, eta_dot = core._anchored(links).T, core._anchored(links_dot).T
        want_eta, want_dot, want_moved = _position_step(ch.eta, ch.eta_dot, dt)
        assert np.max(np.abs(eta - want_eta)) <= 1e-13 * np.max(np.abs(want_eta))
        assert np.max(np.abs(eta_dot - want_dot)) <= 1e-13 * np.max(np.abs(want_dot))
        assert abs(moved[0] - want_moved) <= 1e-13 * np.max(np.abs(want_eta))
        # the public step takes and returns positions: the same step
        out = step(ch, cfg)
        assert out.time == dt
        assert np.array_equal(out.eta, eta) and np.array_equal(out.eta_dot, eta_dot)

    @pytest.mark.parametrize("project_on", [True, False])
    def test_batch_is_bitwise_each_serial_run_in_3d(self, project_on):
        chains = [_links_chain(16, 3, seed=s) for s in range(3)] + [rigid_rotation(16, 2.0, d=3)]
        cfg = IntegratorConfig(t_end=0.05, dt_max=1.0, report_stride=3, project=project_on)
        serial = [run(c, cfg) for c in chains]
        assert len({t.n_steps for t in serial}) > 1
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_is_bitwise_each_serial_run_at_block_edges(self, n, d):
        # at n <= 3 every link, or all but one, is the first or the last of
        # its block in the flat stack.  The chains move at different speeds,
        # so at different dt; the one that starts at t = 0.3 stops mid-run,
        # and the stack is compacted around it
        chains = [_links_chain(n, d, seed=10 * n + s) for s in range(4)]
        chains = [ChainState(c.eta, (1 + 2 * s) * c.eta_dot, 0.3 if s == 1 else 0.0)
                  for s, c in enumerate(chains)]
        cfg = IntegratorConfig(t_end=0.5, cfl=0.1, dt_max=0.02, report_stride=3)
        serial = [run(c, cfg) for c in chains]
        steps = [t.n_steps for t in serial]
        assert 3 < steps[1] < max(steps)
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_flat_stack_kernels_bitwise_per_chain(self, n, d):
        # the stage solve and the acceleration cut a flat (d, B n) stack at
        # its block edges: each block is the chain's own result bit for bit
        chains = [_links_chain(n, d, seed=100 + s) for s in range(5)]
        links, links_dot = flat_links(chains)
        solved = tension._solve_sigma_arrays(links, links_dot, n)
        acc = [core._acceleration_arrays(f, solved[0], n) for f in (links, links_dot)]
        for b, c in enumerate(chains):
            part = slice(b * n, (b + 1) * n)
            t, t_dot = c.link_dirs().T, c.link_dirs_dot().T
            own = tension._solve_sigma_arrays(t, t_dot, n)
            # sigma and w per link; alpha per joint, n - 1 to a chain
            for got, want, cut in zip(solved, own, (part, slice(b * n, b * n + n - 1), part)):
                assert got[cut].tobytes() == want.tobytes()
            for got, f in zip(acc, (t, t_dot)):
                assert got[:, part].tobytes() == core._acceleration_arrays(f, own[0], n).tobytes()

    def test_t0_snapshot_keeps_the_initial_arrays(self):
        # the links summed back need not give the caller's positions
        # bitwise (they do not for the turned chain); the t = 0 snapshot
        # holds the caller's arrays, also for a chain that stops there
        c, turn = make_random_chain(33, seed=2), np.array([[0.6, -0.8], [0.8, 0.6]])
        turned = ChainState(c.eta @ turn, c.eta_dot @ turn)
        chains = [_links_chain(33, 2, seed=1), turned, near_loop(33), folded_chain(33)]
        trajs = run_batch(chains, IntegratorConfig(t_end=0.01, report_stride=10**9))
        assert trajs[3].n_steps == 0
        assert not np.array_equal(core._anchored(turned.link_dirs().T).T, turned.eta)
        for c, traj in zip(chains, trajs):
            first = traj.snapshots[0].state
            assert first.eta.tobytes() == c.eta.tobytes()
            assert first.eta_dot.tobytes() == c.eta_dot.tobytes()
            assert first.time == c.time

    @pytest.mark.parametrize("B, n, d", [(1, 1, 2), (16, 64, 2), (3, 1024, 3)])
    def test_projection_displacement_bitwise_the_anchored_corrections(self, B, n, d):
        # the stepper sums the link corrections into displacements without
        # the pinned zero row and the sign; the positions of the corrections
        # (_anchored) are the oracle
        chains = [_links_chain(n, d, seed=10 * B + s) for s in range(B)]
        links, links_dot = flat_links(chains)
        cfg = IntegratorConfig(t_end=1.0)
        sigma = dynamics._solve_sigma_arrays(links, links_dot, n)[0]
        dt = np.repeat(dynamics._clamp_dt(dynamics._raw_dt(n, sigma.reshape(B, n), cfg), cfg), n)
        unit, _, moved = dynamics._step_arrays(links, links_dot, sigma, n, np.zeros(B), dt, cfg)
        new_t, _ = dynamics._advance(links, links_dot, sigma, n, dt)
        want = np.sqrt(core._sq(core._anchored((unit - new_t).reshape(d, B, n))).max(axis=-1))
        assert moved.shape == (B,) and np.all(moved > 0.0)
        assert moved.tobytes() == want.tobytes()

    def test_one_step_at_two_to_the_fifteen(self, monkeypatch):
        # one run() step of the rigid rotation at n = 2^15 completes, and the
        # projection leaves every link unit to 4 ulp
        projected = []
        project_arrays = dynamics._project_arrays

        def kept(links, links_dot):
            out = project_arrays(links, links_dot)
            projected.append(out[0])
            return out

        monkeypatch.setattr(dynamics, "_project_arrays", kept)
        n = 2**15
        traj = run(rigid_rotation(n, 1.0), IntegratorConfig(t_end=1e-6, report_stride=10**9))
        assert traj.termination == "t_end_reached" and traj.n_steps == 1
        assert traj.snapshots[-1].state.time == 1e-6
        assert len(projected) == 1 and projected[0].shape == (2, n)
        assert np.max(np.abs(np.linalg.norm(projected[0], axis=0) - 1.0)) <= 4 * np.finfo(float).eps


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
    # must be bitwise what the stop tests take from the step-start link data
    # (the root of the largest w, the largest |D+ t|) and ChainState give,
    # and what np.linalg.norm gives on the link vectors
    rng = np.random.default_rng(10 * n + d)
    eta, eta_dot = rng.normal(size=(2, n + 1, d))
    eta[-1] = eta_dot[-1] = 0.0
    ch = project(ChainState(eta, eta_dot))
    sol = solve_tension(ch)
    rep = snapshot_report(ch, sol)
    links, links_dot = flat_links([ch])
    _, _, w = tension._solve_sigma_arrays(links, links_dot, n)
    ang = np.sqrt(w.max(axis=-1))
    curv = core._lengths(core._links(links, n)).max(axis=-1, initial=0.0)
    links = n * (ch.eta[1:] - ch.eta[:-1])
    ang_ref = np.linalg.norm(n * (ch.eta_dot[1:] - ch.eta_dot[:-1]), axis=1).max()
    curv_ref = np.linalg.norm(n * (links[1:] - links[:-1]), axis=1).max(initial=0.0)
    drift_ref = np.max(np.abs(np.linalg.norm(links, axis=1) - 1.0))
    assert rep.max_ang_vel == ang == ang_ref
    assert rep.max_curvature == curv == curv_ref
    assert rep.constraint_drift == ch.constraint_drift() == drift_ref
    # the ladder's curvature row reaches k = n, through the fixed end; the
    # report covers k < n only, so one link has curvature 0
    ladder = core._squared_differences(ch.eta_dot.T, ch.link_dirs().T, ch.link_dirs_dot().T, 1)
    assert len(ladder[1][1]) == n
    assert (rep.max_curvature == 0.0) == (n == 1)


def test_snapshot_report_bitwise_with_weight_cache_cold_and_warm():
    traj = run(theta_power(64, vel_amp=1.0), IntegratorConfig(t_end=0.01, report_stride=1))
    assert len(traj.snapshots) > 2
    fields = ("e", "e_tilde", "u0", "v0", "a", "b", "c", "d", "constraint_drift")
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


def _mixed_chains(rows, n, d):
    """``rows`` chains of one n and d from several generators; the first is
    at rest, so its tension is 0 and its b is inf."""
    rng = np.random.default_rng(100 * n + 10 * d + rows)

    def projected_random():
        eta, eta_dot = rng.normal(size=(2, n + 1, d))
        eta[-1] = eta_dot[-1] = 0.0
        return project(ChainState(eta, eta_dot))

    makers = [lambda: straight_chain(n, d), lambda: rigid_rotation(n, 1.5, d), projected_random]
    if d == 2:
        makers += [lambda: make_random_chain(n, seed=int(rng.integers(1000))), lambda: theta_power(n, vel_amp=1.0),
                   lambda: folded_chain(n) if n > 1 else straight_chain(n, d, angle=0.3)]
    return [makers[i % len(makers)]() for i in range(rows)]


def _snapshot_stack(chains):
    """The arguments of dynamics._snapshot_pass for every row of ``chains``,
    each at its own time, from their stacked step-start solve."""
    n = chains[0].n
    eta = np.stack([c.eta.T for c in chains], axis=1)
    eta_dot = np.stack([c.eta_dot.T for c in chains], axis=1)
    sigma, alpha, w = tension._solve_sigma_arrays(*flat_links(chains), n)
    times = 0.125 * np.arange(len(chains))
    return eta, eta_dot, sigma.reshape(-1, n), alpha, w.reshape(-1, n), times


@pytest.mark.parametrize("rows", [1, 2, 16])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64])
def test_snapshot_pass_rows_bitwise_their_own_reports(n, d, rows):
    # every report field and tension of a stacked pass is bitwise what
    # snapshot_report and the solve of that chain alone give: m_max = 1 at
    # n = 1, NaN d_m at small n, and b = inf on the chain at rest
    chains = _mixed_chains(rows, n, d)
    args = _snapshot_stack(chains)
    made = dynamics._snapshot_pass(*args, np.arange(rows))
    assert len(made) == rows and made[0].report.b == np.inf
    for chain, time, snap in zip(chains, args[-1], made):
        sol, rep = snap.tension, snap.report
        assert snap.state.time == time
        alone = ChainState(chain.eta, chain.eta_dot, time)
        own = solve_tension(alone)
        want = snapshot_report(alone, own)
        assert sol.sigma.tobytes() == own.sigma.tobytes()
        assert (sol.min_sigma, sol.positivity) == (own.min_sigma, own.positivity)
        for field in dataclasses.fields(want):
            got, expect = getattr(rep, field.name), getattr(want, field.name)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes(), field.name
    # a pass over some of the rows reports them as the full pass does
    some = np.arange(rows)[1::2]
    for row, snap in zip(some, dynamics._snapshot_pass(*args, some)):
        assert snap.tension.sigma.tobytes() == made[row].tension.sigma.tobytes()
        assert np.asarray(snap.report.e_tilde).tobytes() == np.asarray(made[row].report.e_tilde).tobytes()
        assert snap.state.time == made[row].state.time


def test_snapshot_pass_hands_out_each_rows_state_at_its_time():
    chains = _mixed_chains(5, 8, 2)
    eta, eta_dot, sigma, alpha, w, times = _snapshot_stack(chains)
    rows = np.array([1, 4])
    made = dynamics._snapshot_pass(eta, eta_dot, sigma, alpha, w, times, rows)
    assert [type(snap) for snap in made] == [dynamics.Snapshot] * 2
    for row, snap in zip(rows, made):
        assert snap.state.time == times[row]
        assert snap.state.eta.tobytes() == chains[row].eta.tobytes()
        assert snap.state.eta_dot.tobytes() == chains[row].eta_dot.tobytes()


def test_batch_snapshot_times_are_python_floats():
    # the pass reads each time from a float64 array; the state stores it as
    # the float a generator's state holds, the same value bit for bit
    chains = [make_random_chain(12, seed=s) for s in range(3)]
    trajs = run_batch(chains, IntegratorConfig(t_end=0.01, report_stride=2))
    snaps = [snap for traj in trajs for snap in traj.snapshots]
    assert len(snaps) > 2 * len(chains)
    assert all(type(snap.state.time) is float for snap in snaps)
    assert "np.float64" not in repr(snaps[-1].state)


def test_run_snapshot_states_are_c_contiguous():
    # the pass cuts each state out of a component-major stack; the state
    # holds it in C order, so a store row ravels it without a second copy
    traj = run(make_random_chain(12, seed=0), IntegratorConfig(t_end=0.01, report_stride=2))
    assert len(traj.snapshots) > 2
    for snap in traj.snapshots:
        assert snap.state.eta.flags.c_contiguous and snap.state.eta_dot.flags.c_contiguous


def test_snapshot_pass_names_the_first_row_that_breaks_the_contract():
    n = 16
    eta, eta_dot, sigma, alpha, w, times = _snapshot_stack([make_random_chain(n, seed=s) for s in range(4)])
    sigma = sigma.copy()
    sigma[2] *= 1.0 + 1e-6
    sigma[3] *= 1.0 + 1e-3
    with pytest.raises(NumericError) as alone:
        tension._checked_solution(sigma[2], alpha[2 * n : 3 * n - 1], w[2])
    with pytest.raises(NumericError) as stacked:
        dynamics._snapshot_pass(eta, eta_dot, sigma, alpha, w, times, np.arange(4))
    assert stacked.value.chain == 2 and str(stacked.value) == str(alone.value)
    # the error names the working row, not the place in the pass
    with pytest.raises(NumericError) as part:
        dynamics._snapshot_pass(eta, eta_dot, sigma, alpha, w, times, np.array([1, 3]))
    assert part.value.chain == 3


def test_abc_stack_names_the_first_inconsistent_row():
    # a constant sigma_dot fails the c check (as in the per-chain test); the
    # stack names its row, with the message the chain alone gives
    n = 8
    chains = [rigid_rotation(n, 1.0), make_random_chain(n, seed=3), make_random_chain(n, seed=4)]
    sigma = np.stack([solve_tension(c).sigma for c in chains])
    sigma_dot = np.stack([tension.solve_sigma_dot(c, s) for c, s in zip(chains, sigma)])
    sigma_dot[1] = 1.0
    with pytest.raises(NumericError) as alone:
        tension.diagnostics_abc(chains[1], sigma[1], sigma_dot[1])
    with pytest.raises(NumericError) as stacked:
        tension._abc(sigma, sigma_dot)
    assert stacked.value.chain == 1 and str(stacked.value) == str(alone.value)
    a, b, c = tension._abc(sigma[[0, 2]], sigma_dot[[0, 2]])
    for i, row in enumerate((0, 2)):
        assert (a[i], b[i], c[i]) == tension.diagnostics_abc(chains[row], sigma[row], sigma_dot[row])


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
        ser = self._series(1.0, 1.5)
        ser[-2, 0] = ser[-3, 0]
        with pytest.raises(FitRejected, match="sample times must be strictly increasing"):
            detect_blowup(ser)

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitRejected):
            detect_blowup(self._series(1.0, 1.5, n=5))

    def test_series_without_three_columns_refused(self):
        with pytest.raises(ValueError, match=r"series must be \(N, 3\)"):
            detect_blowup(self._series(1.0, 1.5)[:, :2])

    def test_non_finite_T_est_refused(self):
        with pytest.raises(ValueError, match="T_est must be finite"):
            dynamics.BlowupFit(float("nan"), 1.0, 1.5, (0.0, 0.0))

    def test_interior_fit_is_off_the_bracket_edge(self):
        # T = 1 lies 0.48 window spans past the last sample, inside the bracket
        assert detect_blowup(self._series(1.0, 1.5)).at_bracket_edge is False

    def test_linear_growth_runs_to_the_bracket_edge(self):
        t = np.linspace(0.0, 1.0, 30)
        fit = detect_blowup(np.column_stack([t, 1.0 + t, 2.0 + 3.0 * t]))
        assert fit.at_bracket_edge is True

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
        # the curvature saturates at its ceiling 2n, not at a singularity, so
        # the fit's T_est is the search bracket's end, not a blowup time
        assert fit.at_bracket_edge is True
