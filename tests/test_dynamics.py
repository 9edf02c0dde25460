"""Integration, projection, trajectory reporting, and blowup detection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    GENERATORS,
    _accepted,
    folded_chain,
    near_loop,
    perturbed_vertical,
    random_chain,
    rigid_rotation,
    rigid_rotation_exact,
    rigid_rotation_sigma,
    straight_chain,
    make_initial,
    theta_power,
)
from whipchain.spectral import basis_q_table
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

    @pytest.mark.parametrize("seed", [1063938750, 1722851097])
    def test_negative_tension_halt_reads_the_step_start_tension(self, seed, monkeypatch):
        # two chains of the ensemble benchmark whose RK stage tension goes
        # negative one step before the step-start tension does: the halt
        # reads the step start, so it comes at the first snapshot whose own
        # min_sigma is below 0, and the last row of a series explains it
        stage_rhs, stage_min = dynamics._stage_rhs, []

        def recorded(t, t_dot, blocks):
            stage_min.append(tension._solve_sigma_arrays(t, t_dot, blocks)[0].min())
            return stage_rhs(t, t_dot, blocks)

        monkeypatch.setattr(dynamics, "_stage_rhs", recorded)
        traj = run(random_chain(64, seed), IntegratorConfig(t_end=0.25))
        mins = np.array([snap.tension.min_sigma for snap in traj.snapshots])
        assert traj.termination == "negative_tension" and len(mins) == traj.n_steps + 1
        assert mins[-1] < 0.0 and np.all(mins[:-1] >= 0.0)
        stages = np.reshape(stage_min, (traj.n_steps, 3))   # the k2, k3 and k4 solves of each step
        assert np.flatnonzero(stages.min(axis=1) < 0.0).tolist() == [traj.n_steps - 1]

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

    @pytest.mark.parametrize("other", [straight_chain(8, d=3)], ids=["d"])
    def test_mixed_shapes_rejected(self, other):
        with pytest.raises(ValueError, match="one d"):
            run_batch([straight_chain(8), other], IntegratorConfig(t_end=0.01))

    def test_mixed_n_batch_is_bitwise_each_serial_run(self):
        # chains of n = 1, 2, 7, 16 and 64 out of order, two of n = 7, and a
        # folded chain that halts at step 0, on a stride most runs stop in
        # between; every snapshot is handed out once, iteration by iteration
        # and within one by chain index
        chains = [make_random_chain(16, seed=1, vel_scale=2.0), make_random_chain(1, seed=2), folded_chain(7),
                  make_random_chain(64, seed=3, vel_scale=1.0), make_random_chain(2, seed=4, vel_scale=3.0),
                  make_random_chain(7, seed=5, vel_scale=0.5)]
        cfg = IntegratorConfig(t_end=0.3, dt_max=0.05, report_stride=3)
        serial = [run(c, cfg) for c in chains]
        assert serial[2].termination == "negative_tension" and serial[2].n_steps == 0
        assert len({t.n_steps for t in serial}) > 2
        handed = []
        trajs = run_batch(chains, cfg, on_snapshot=lambda i, snap: handed.append((i, snap)))
        for got, want in zip(trajs, serial):
            _assert_same_trajectory(got, want)
        # snapshot j of a chain is made at iteration min(3 j, its step count)
        made = sorted((min(3 * j, traj.n_steps), i, j) for i, traj in enumerate(trajs)
                      for j in range(len(traj.snapshots)))
        assert [(i, snap) for i, snap in handed] == [(i, trajs[i].snapshots[j]) for _, i, j in made]

    def test_chains_out_of_n_order_keep_their_order(self):
        # the stack holds the chains in the order given: the two adjacent
        # n = 16 chains are one run and the third a run of its own.  Each
        # trajectory is bitwise its own run, and each iteration's snapshots
        # are handed out in chain order
        chains = [make_random_chain(16, seed=1, vel_scale=2.0), make_random_chain(16, seed=2), folded_chain(7),
                  make_random_chain(64, seed=3, vel_scale=1.0), make_random_chain(2, seed=4, vel_scale=3.0),
                  make_random_chain(16, seed=5, vel_scale=0.5)]
        cfg = IntegratorConfig(t_end=0.3, dt_max=0.05, report_stride=1)
        solve, layouts = dynamics._solve_sigma_arrays, []

        def recorded(t, t_dot, blocks):
            layouts.append(blocks)
            return solve(t, t_dot, blocks)

        handed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_solve_sigma_arrays", recorded)
            trajs = run_batch(chains, cfg, on_snapshot=lambda i, snap: handed.append((i, snap)))
        first = layouts[0]
        assert first.sizes.tolist() == [16, 16, 7, 64, 2, 16]
        runs = [(16, 0, 2), (7, 2, 3), (64, 3, 4), (2, 4, 5), (16, 5, 6)]
        assert [(n, b0, b1) for n, b0, b1, _, _ in first.runs] == runs
        serial = [run(c, cfg) for c in chains]
        assert len({t.n_steps for t in serial}) > 2
        for got, want in zip(trajs, serial):
            _assert_same_trajectory(got, want)
        # at stride 1, snapshot j of a chain is made at iteration j
        made = sorted((j, i) for i, traj in enumerate(trajs) for j in range(len(traj.snapshots)))
        assert [(i, snap) for i, snap in handed] == [(i, trajs[i].snapshots[j]) for j, i in made]

    def test_mixed_n_steps_below_dt_max_and_underflow(self):
        # a fast n = 64 chain whose CFL step is under dt_min (it stops at
        # step 0 on dt_underflow), an n = 16 chain whose CFL step binds below
        # dt_max, and slow chains that step at dt_max, all in one batch
        chains = [make_random_chain(7, seed=2, vel_scale=0.5), make_random_chain(64, seed=7, vel_scale=8.0),
                  make_random_chain(16, seed=7, vel_scale=2.0), make_random_chain(2, seed=1, vel_scale=0.5)]
        cfg = IntegratorConfig(t_end=0.3, dt_min=0.02, dt_max=0.1, report_stride=1)
        raw = [adaptive_dt(c, solve_tension(c), dataclasses.replace(cfg, dt_min=0.0, dt_max=1.0)) for c in chains]
        assert raw[1] < cfg.dt_min < raw[2] < cfg.dt_max < min(raw[0], raw[3])
        serial = [run(c, cfg) for c in chains]
        assert [t.termination for t in serial] == ["t_end_reached", "dt_underflow", "t_end_reached", "t_end_reached"]
        steps = [np.diff([snap.state.time for snap in t.snapshots]) for t in serial]
        assert np.all(steps[2] < cfg.dt_max) and steps[0][0] == steps[3][0] == cfg.dt_max
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    @pytest.mark.parametrize("project_on", [True, False])
    def test_mixed_n_batch_in_3d(self, project_on):
        chains = [_links_chain(n, 3, seed=n) for n in (16, 1, 5, 2)]
        chains += [rigid_rotation(12, 2.0, d=3), _links_chain(5, 3, seed=9)]
        cfg = IntegratorConfig(t_end=0.05, dt_max=1.0, report_stride=3, project=project_on)
        serial = [run(c, cfg) for c in chains]
        assert len({t.n_steps for t in serial}) > 1
        for got, want in zip(run_batch(chains, cfg), serial):
            _assert_same_trajectory(got, want)

    def test_numeric_error_in_a_mixed_batch_names_the_original_chain(self, monkeypatch):
        # the folded n = 7 chain leaves the batch at step 0, so working row 1
        # of the first step is the n = 8 chain, chain 2
        def fail(links, links_dot, sigma, blocks, time, dt, cfg):
            raise NumericError("boom", chain=1)

        monkeypatch.setattr(dynamics, "_step_arrays", fail)
        chains = [make_random_chain(16, seed=1), folded_chain(7), make_random_chain(8, seed=2),
                  make_random_chain(12, seed=3)]
        with pytest.raises(NumericError, match="^chain 2: boom") as info:
            run_batch(chains, IntegratorConfig(t_end=0.01))
        assert info.value.chain == 2

    def test_contract_breach_in_a_ragged_batch_names_the_original_chain(self, monkeypatch):
        # chains given out of n order; the folded chain 1 leaves the batch at
        # step 0.  The step-start solve of iteration 2 (a snapshot iteration
        # at stride 2; each step adds three stage solves) hands out the n = 9
        # chain's tensions scaled by 1 + 1e-6.  That chain is working row 4
        # of the stack, which keeps the given order, and chain 5 of the batch
        solve, calls = dynamics._solve_sigma_arrays, []

        def perturbed(t, t_dot, blocks):
            sigma, alpha, w = solve(t, t_dot, blocks)
            calls.append(blocks)
            if len(calls) == 9:
                sigma = sigma.copy()
                sigma[blocks.part(4)] *= 1.0 + 1e-6
            return sigma, alpha, w

        chains = [make_random_chain(n, seed=n) for n in (16, 5, 64, 1, 9)]
        chains.insert(1, folded_chain(7))
        cfg = IntegratorConfig(t_end=0.05, report_stride=2)
        assert [traj.n_steps > 2 for traj in run_batch(chains, cfg)] == [True, False, True, True, True, True]
        monkeypatch.setattr(dynamics, "_solve_sigma_arrays", perturbed)
        with pytest.raises(NumericError, match="^chain 5: tension solve residual") as info:
            run_batch(chains, cfg)
        assert info.value.chain == 5 and len(calls) == 9
        assert calls[8].sizes.tolist() == [16, 5, 64, 1, 9]

    def test_numeric_error_names_the_original_chain(self, monkeypatch):
        # the folded chain leaves the batch at step 0, so working row 1 of the
        # first step is chain 2
        def fail(links, links_dot, sigma, blocks, time, dt, cfg):
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
        blocks = core._equal_blocks(8, 3)
        sigma = dynamics._solve_sigma_arrays(links, links_dot, blocks)[0]
        assert np.isnan(sigma.reshape(3, 8)).any(axis=1).all()
        with pytest.raises(NumericError, match="non-finite") as info:
            dynamics._step_arrays(links, links_dot, sigma, blocks, np.zeros(3), np.full(24, 1e-3),
                                  IntegratorConfig(t_end=1.0))
        assert info.value.chain == 1

    def test_non_finite_step_in_a_ragged_stack_names_the_failing_chain(self):
        chains = [make_random_chain(n, seed=n) for n in (3, 8, 5)]
        links = np.concatenate([c.link_dirs().T for c in chains], axis=1)
        links_dot = np.concatenate([c.link_dirs_dot().T for c in chains], axis=1)
        links_dot[0, 3] = np.nan   # chain 1's first link
        blocks = core._Blocks([3, 8, 5])
        sigma = dynamics._solve_sigma_arrays(links, links_dot, blocks)[0]
        assert np.isnan(sigma[blocks.starts]).all()
        with pytest.raises(NumericError, match="non-finite") as info:
            dynamics._step_arrays(links, links_dot, sigma, blocks, np.zeros(3), np.full(16, 1e-3),
                                  IntegratorConfig(t_end=1.0))
        assert info.value.chain == 1

    @staticmethod
    def _batch_step_goes_non_finite(monkeypatch, first_row):
        """Make run_batch's stacked step non-finite from working row
        ``first_row`` on; a chain re-stepped alone (on a layout of one
        block, not the stack's) steps as it would."""
        advance = dynamics._advance

        def advance_nan(t, t_dot, sigma, blocks, dt):
            x, v = advance(t, t_dot, sigma, blocks, dt)
            if blocks.stacked:
                v[:, blocks.starts[first_row]:] = np.nan
            return x, v

        monkeypatch.setattr(dynamics, "_advance", advance_nan)

    def test_a_chain_whose_lone_solve_fails_is_named(self, monkeypatch):
        # every row goes non-finite; the n = 16 and n = 8 chains (rows 0 and
        # 1) step soundly alone and the n = 12 chain's lone re-solve raises,
        # so the batch names the n = 12 chain, input index 2
        chains = [make_random_chain(n, seed=n) for n in (16, 8, 12)]
        solve = dynamics._solve_sigma_arrays

        def lone_fails(t, t_dot, blocks):
            if blocks.sizes.tolist() == [12]:   # only a lone re-solve has one block; the batch stacks three
                raise NumericError("the lone solve fails", chain=0)
            return solve(t, t_dot, blocks)

        self._batch_step_goes_non_finite(monkeypatch, 0)
        monkeypatch.setattr(dynamics, "_solve_sigma_arrays", lone_fails)
        with pytest.raises(NumericError, match="^chain 2: non-finite state after step at t=0$") as info:
            run_batch(chains, IntegratorConfig(t_end=1.0))
        assert info.value.chain == 2

    def test_the_first_non_finite_row_is_named_when_no_chain_fails_alone(self, monkeypatch):
        # the folded chain 1 leaves the batch at step 0; rows 1 and 2 of the
        # first step (n = 8 and 12) go non-finite, yet each chain steps
        # soundly alone: the batch names row 1's chain, input index 2
        chains = [make_random_chain(16, seed=16), folded_chain(7), make_random_chain(8, seed=8),
                  make_random_chain(12, seed=12)]
        self._batch_step_goes_non_finite(monkeypatch, 1)
        with pytest.raises(NumericError, match="^chain 2: non-finite state after step at t=0$") as info:
            run_batch(chains, IntegratorConfig(t_end=1.0))
        assert info.value.chain == 2


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
        sigma[1:] = tension._solve_tridiagonal(tension._alpha(core._links(e.T)), core._sq(core._links(v.T)),
                                               core._equal_blocks(n, 1))
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
        blocks = core._equal_blocks(n, 1)
        sigma = dynamics._solve_sigma_arrays(links, links_dot, blocks)[0]
        dt = adaptive_dt(ch, np.concatenate([[0.0], sigma]), cfg)
        links, links_dot, moved = dynamics._step_arrays(links, links_dot, sigma, blocks, [0.0], np.full(n, dt), cfg)
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
        stacked, alone = core._equal_blocks(n, 5), core._equal_blocks(n, 1)
        solved = tension._solve_sigma_arrays(links, links_dot, stacked)
        acc = [core._acceleration_arrays(f, solved[0], stacked) for f in (links, links_dot)]
        for b, c in enumerate(chains):
            part = slice(b * n, (b + 1) * n)
            t, t_dot = c.link_dirs().T, c.link_dirs_dot().T
            own = tension._solve_sigma_arrays(t, t_dot, alone)
            # sigma and w per link; alpha per joint, n - 1 to a chain
            for got, want, cut in zip(solved, own, (part, slice(b * n, b * n + n - 1), part)):
                assert got[cut].tobytes() == want.tobytes()
            for got, f in zip(acc, (t, t_dot)):
                assert got[:, part].tobytes() == core._acceleration_arrays(f, own[0], alone).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_ragged_stack_kernels_bitwise_per_chain(self, d):
        # blocks of different n: the stage solve and the acceleration cut the
        # stack at the edges a _Blocks lists, and scale each block by its n
        sizes = [5, 1, 64, 2, 2, 17]
        chains = [_links_chain(n, d, seed=200 + b) for b, n in enumerate(sizes)]
        links, links_dot = flat_links(chains)
        blocks = core._Blocks(sizes)
        solved = tension._solve_sigma_arrays(links, links_dot, blocks)
        acc = [core._acceleration_arrays(f, solved[0], blocks) for f in (links, links_dot)]
        for b, c in enumerate(chains):
            part = blocks.part(b)
            t, t_dot = c.link_dirs().T, c.link_dirs_dot().T
            alone = core._equal_blocks(c.n, 1)
            own = tension._solve_sigma_arrays(t, t_dot, alone)
            for got, want, cut in zip(solved, own, (part, slice(part.start, part.stop - 1), part)):
                assert got[cut].tobytes() == want.tobytes()
            for got, f in zip(acc, (t, t_dot)):
                assert got[:, part].tobytes() == core._acceleration_arrays(f, own[0], alone).tobytes()

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
        blocks = core._equal_blocks(n, B)
        sigma = dynamics._solve_sigma_arrays(links, links_dot, blocks)[0]
        dt = np.repeat(dynamics._clamp_dt(dynamics._chain_dt(sigma, blocks, cfg), cfg), n)
        unit, _, moved = dynamics._step_arrays(links, links_dot, sigma, blocks, np.zeros(B), dt, cfg)
        new_t, _ = dynamics._advance(links, links_dot, sigma, blocks, dt)
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


class TestStepScreens:
    """The stepping loop decides its per-step bookkeeping from whole-stack
    bounds and runs the per-chain code only where they cannot decide; each
    trajectory is bitwise the one the per-chain code gives."""

    @pytest.mark.parametrize("chain, t_end, least", [
        (theta_power(48, vel_amp=4.0), 0.3, 0.0), (near_loop(64), 1.0, 0.95),
        (make_random_chain(48, seed=3, vel_scale=4.0), 0.3, 0.0), (perturbed_vertical(48, amplitude=2.0), 0.3, 0.0),
        (rigid_rotation(48, 3.0), 0.3, 0.0), (rigid_rotation(48, 3.0, d=3), 0.3, 0.0),
        (_links_chain(48, 3, seed=5), 0.3, 0.0),
    ], ids=["theta_power", "near_loop", "random", "perturbed_vertical", "rigid_rotation",
            "rigid_rotation_d3", "random_d3"])
    def test_curvature_within_its_ceiling_on_every_step(self, chain, t_end, least, monkeypatch):
        # the links every step starts from, stepped ones and (on each stride)
        # ones summed back to positions and differenced again, are unit to
        # within _LINK_SLACK, so |D+^2 eta| <= 2 n (1 + _LINK_SLACK); near_loop
        # comes within 5 % of that ceiling.  A failure here is a fault in the
        # projection or the restart, not a reason to widen the slack
        starts, step_arrays = [], dynamics._step_arrays

        def recorded(links, links_dot, *args):
            starts.append(links)
            return step_arrays(links, links_dot, *args)

        monkeypatch.setattr(dynamics, "_step_arrays", recorded)
        traj = run(chain, IntegratorConfig(t_end=t_end, report_stride=3, halt_on_negative_tension=False))
        assert traj.n_steps == len(starts) >= 300
        n, slack = chain.n, dynamics._LINK_SLACK
        peak = max(np.sqrt(core._sq(core._links(links, n)).max()) for links in starts)
        assert max(np.abs(core._lengths(links) - 1.0).max() for links in starts) <= slack
        assert least * 2 * n <= peak <= 2 * n * (1 + slack)

    @pytest.mark.parametrize("project_on", [True, False])
    def test_blowup_below_the_ceiling_stops_on_the_curvature(self, project_on):
        # near_loop(48)'s curvature peaks near 90, under its ceiling 2n = 96,
        # so a threshold of 80 leaves the curvature to be formed at every step
        # (with projection on or off); it stops the chain at step 812, as
        # before the screens, while its neighbour runs to t_end
        cfg = IntegratorConfig(t_end=0.85, blowup_threshold=80.0, report_stride=25, halt_on_negative_tension=False,
                               project=project_on)
        assert not dynamics._curvature_capped(48, cfg)
        chains = [make_random_chain(48, seed=1, max_turn=0.3), near_loop(48)]
        trajs = run_batch(chains, cfg)
        assert [(t.termination, t.n_steps) for t in trajs] == [("t_end_reached", 850), ("blowup_suspected", 812)]
        last = trajs[1].snapshots[-1].report
        assert last.max_ang_vel < cfg.blowup_threshold < last.max_curvature
        for got, c in zip(trajs, chains):
            _assert_same_trajectory(got, run(c, cfg))

    def test_cfl_bound_chain_keeps_its_own_dt_beside_dt_max_bound_ones(self):
        # one n, so one CFL bound would serve the whole stack; but the fast
        # chain's CFL step is under dt_max, so each chain steps by its own dt
        chains = [make_random_chain(16, seed=s, vel_scale=v) for s, v in ((2, 0.5), (1, 8.0), (3, 0.5))]
        cfg = IntegratorConfig(t_end=0.2, dt_max=0.02, report_stride=4)
        raw = [adaptive_dt(c, solve_tension(c), dataclasses.replace(cfg, dt_max=1.0)) for c in chains]
        assert raw[1] < cfg.dt_max < min(raw[0], raw[2])
        trajs = run_batch(chains, cfg)
        steps = [np.diff([snap.state.time for snap in t.snapshots]) for t in trajs]
        assert np.all(steps[1] < 4 * cfg.dt_max) and steps[0][0] == steps[2][0] == 4 * cfg.dt_max
        for got, c in zip(trajs, chains):
            _assert_same_trajectory(got, run(c, cfg))

    def test_finiteness_screen_leaves_an_overflowing_sum_undecided(self):
        # a NaN or inf reaches the sum; a sum that overflows on finite entries
        # also reads as not finite, and the elementwise check then decides
        big = np.full((2, 4), 1e308)
        with np.errstate(over="ignore"):
            assert not dynamics._finite_sum(big)
        assert dynamics._finite_sum(np.ones((2, 4)))
        assert not dynamics._finite_sum(np.array([[1.0, np.nan], [np.inf, 0.0]]))

    def test_shared_dt_max_needs_every_chain_clear_of_t_end(self):
        cfg = IntegratorConfig(t_end=1.0, dt_max=0.125)
        assert dynamics._shares_dt_max(0.125, 0.875, cfg)
        assert not dynamics._shares_dt_max(0.125, 0.9, cfg)   # the latest chain's step is cut
        assert not dynamics._shares_dt_max(0.12, 0.0, cfg)    # some chain may be CFL-bound
        assert not dynamics._shares_dt_max(np.nan, 0.0, cfg)

    def test_curvature_capped_needs_projection_and_room_under_the_threshold(self):
        cfg = IntegratorConfig(t_end=1.0, blowup_threshold=128.0)
        assert dynamics._curvature_capped(63, cfg)
        assert not dynamics._curvature_capped(64, cfg)   # 2n (1 + slack) passes 128
        assert not dynamics._curvature_capped(8, dataclasses.replace(cfg, project=False))


_BATCH_GENERATORS = {d: sorted(name for name, gen in GENERATORS.items() if d == 2 or "d" in _accepted(gen))
                     for d in (2, 3)}


@st.composite
def _batches(draw):
    """1-6 chains of one d in {2, 3}, n in 1..96, from the generators (their
    velocities scaled, some starting late), and settings under which every
    termination occurs across the draws."""
    d = draw(st.sampled_from([2, 3]))
    t_end = draw(st.sampled_from([0.01, 0.03]))
    chains = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(_BATCH_GENERATORS[d]))
        n = draw(st.integers(2 if name == "folded" else 1, 96))
        params = {"rng": draw(st.integers(0, 99))} if name == "random" else {}
        c = make_initial(name, n, **params, **({"d": d} if d == 3 else {}))
        speed = draw(st.sampled_from([1.0, 4.0, 16.0]))
        start = draw(st.sampled_from([0.0, 0.0, t_end - 0.0015]))
        chains.append(ChainState(c.eta, speed * c.eta_dot, start))
    dt_max = draw(st.sampled_from([1e-3, 4e-3]))
    cfg = IntegratorConfig(
        t_end=t_end, dt_max=dt_max, dt_min=draw(st.sampled_from([1e-12, dt_max / 4, dt_max])),
        project=draw(st.booleans()), halt_on_negative_tension=draw(st.booleans()),
        report_stride=draw(st.sampled_from([1, 3, 10**9])), blowup_threshold=draw(st.sampled_from([1e8, 40.0, 2.0])),
    )
    return chains, cfg


def _rotating(n, speed, time=0.0):
    c = rigid_rotation(n, speed)
    return ChainState(c.eta, c.eta_dot, time)


@given(_batches())
@example(([make_initial("random", 64, rng=1), make_initial("random", 16, rng=2), near_loop(48)],
          IntegratorConfig(t_end=0.01, blowup_threshold=40.0, halt_on_negative_tension=False, report_stride=3)))
@example(([_rotating(96, 16.0), straight_chain(8), _rotating(32, 1.0, time=0.0285)],
          IntegratorConfig(t_end=0.03, dt_max=4e-3, dt_min=4e-3, report_stride=3)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_batch_is_bitwise_each_chain_alone_by_the_per_chain_code(batch):
    # the batch contract at random: every trajectory of a screened batch is
    # bitwise the chain's own run with every screen falling back, and the
    # snapshots are handed out iteration by iteration, within one by chain.
    # The examples pin a curvature stop under the ceiling with projection
    # on, and a dt underflow beside a chain whose last step t_end cuts
    chains, cfg = batch
    handed = []
    trajs = run_batch(chains, cfg, on_snapshot=lambda i, snap: handed.append((i, snap)))
    with pytest.MonkeyPatch.context() as mp:   # every screen falls back to the per-chain code
        mp.setattr(dynamics, "_curvature_capped", lambda n, cfg: False)
        mp.setattr(dynamics, "_shares_dt_max", lambda low, t_top, cfg: False)
        mp.setattr(dynamics, "_finite_sum", lambda x: False)
        for got, c in zip(trajs, chains):
            _assert_same_trajectory(got, run(c, cfg))
    made = sorted((min(cfg.report_stride * j, traj.n_steps), i, j) for i, traj in enumerate(trajs)
                  for j in range(len(traj.snapshots)))
    assert [(i, snap) for i, snap in handed] == [(i, trajs[i].snapshots[j]) for _, i, j in made]


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
    _, _, w = tension._solve_sigma_arrays(links, links_dot, core._equal_blocks(n, 1))
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
    stacked in the given order, as run_batch stacks them, each at its own
    time, from their stacked step-start solve."""
    blocks = core._Blocks([c.n for c in chains])
    pos = [(np.stack([c.eta.T for c in chains[b0:b1]], axis=1), np.stack([c.eta_dot.T for c in chains[b0:b1]], axis=1))
           for _, b0, b1, _, _ in blocks.runs]
    sigma, alpha, w = tension._solve_sigma_arrays(*flat_links(chains), blocks)
    times = 0.125 * np.arange(len(chains))
    return pos, blocks, sigma, alpha, w, times


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
    pos, blocks, sigma, alpha, w, times = _snapshot_stack(chains)
    rows = np.array([1, 4])
    made = dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, rows)
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
    pos, blocks, sigma, alpha, w, times = _snapshot_stack([make_random_chain(n, seed=s) for s in range(4)])
    sigma = sigma.copy()
    sigma[2 * n : 3 * n] *= 1.0 + 1e-6
    sigma[3 * n :] *= 1.0 + 1e-3
    with pytest.raises(NumericError) as alone:
        tension._check_contract(
            tension._backward_error(alpha[2 * n : 3 * n - 1], sigma[2 * n : 3 * n], w[2 * n : 3 * n],
                                    core._equal_blocks(n, 1)))
    with pytest.raises(NumericError) as stacked:
        dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, np.arange(4))
    assert stacked.value.chain == 2 and str(stacked.value) == str(alone.value)
    # the error names the working row, not the place in the pass
    with pytest.raises(NumericError) as part:
        dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, np.array([1, 3]))
    assert part.value.chain == 3


def _ragged_chains():
    """Chains of n = 1, 7, 16, 16, 64: a ragged stack whose two n = 16 chains
    are one run."""
    return [make_random_chain(n, seed=s) for s, n in enumerate((1, 7, 16, 16, 64))]


def test_backward_error_of_a_ragged_stack_is_bitwise_each_block_alone():
    _, blocks, sigma, alpha, w, _ = _snapshot_stack(_ragged_chains())
    err = tension._backward_error(alpha, sigma, w, blocks)
    assert err.shape == (5,) and np.all(err <= tension.SOLVE_RTOL) and np.count_nonzero(err) >= 3
    for b, size in enumerate(blocks.sizes):
        part = blocks.part(b)
        own = tension._backward_error(alpha[part.start : part.stop - 1], sigma[part], w[part],
                                      core._equal_blocks(int(size), 1))
        assert err[b : b + 1].tobytes() == own.tobytes()


@pytest.mark.parametrize("bad", range(5))
def test_snapshot_pass_names_the_breaking_row_of_a_ragged_stack(bad, monkeypatch):
    pos, blocks, sigma, alpha, w, times = _snapshot_stack(_ragged_chains())
    part = blocks.part(bad)
    sigma = sigma.copy()
    sigma[part] *= 1.0 + 1e-6
    with pytest.raises(NumericError) as alone:
        tension._check_contract(
            tension._backward_error(alpha[part.start : part.stop - 1], sigma[part], w[part],
                                    core._equal_blocks(int(blocks.sizes[bad]), 1)))
    report, reported = dynamics._report_stack, []
    monkeypatch.setattr(dynamics, "_report_stack", lambda *args: reported.append(args) or report(*args))
    with pytest.raises(NumericError) as stacked:
        dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, np.arange(5))
    assert stacked.value.chain == bad and str(stacked.value) == str(alone.value)
    # the breach is raised before any row is reported; a pass without it
    # hands out every row
    assert not reported
    rows = np.delete(np.arange(5), bad)
    assert len(dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, rows)) == 4


@pytest.mark.parametrize("bad", range(5))
def test_snapshot_pass_refuses_a_nan_tension(bad):
    # a NaN backward error compares false with SOLVE_RTOL, and the contract
    # still refuses it, naming the NaN's row.  A NaN at either block edge,
    # sigma_1 or sigma_n, stays in its block: the zero coupling across the
    # edge would add 0 * NaN to the neighbour's residual, and it is cut, so
    # a pass over the other rows hands out every one of them
    pos, blocks, sigma, alpha, w, times = _snapshot_stack(_ragged_chains())
    part, others = blocks.part(bad), np.delete(np.arange(5), bad)
    for edge in (part.start, part.stop - 1):
        broken = sigma.copy()
        broken[edge] = np.nan
        with pytest.raises(NumericError, match="^tension solve residual: backward error nan exceeds ") as info:
            dynamics._snapshot_pass(pos, blocks, broken, alpha, w, times, np.arange(5))
        assert info.value.chain == bad
        assert len(dynamics._snapshot_pass(pos, blocks, broken, alpha, w, times, others)) == 4


def test_snapshot_pass_names_the_working_row_of_a_failed_report(monkeypatch):
    # a report check that fails in the pass over the two n = 16 rows names
    # its row of that pass; the error names the working row
    abc = dynamics._abc

    def failing(sigma, sigma_dot):
        if sigma.shape[-1] == 17:
            raise NumericError("boom", chain=1)
        return abc(sigma, sigma_dot)

    pos, blocks, sigma, alpha, w, times = _snapshot_stack(_ragged_chains())
    monkeypatch.setattr(dynamics, "_abc", failing)
    with pytest.raises(NumericError, match="^boom$") as info:
        dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, np.array([0, 2, 3, 4]))
    assert info.value.chain == 3


@st.composite
def _ragged_layouts(draw):
    """A flat stack of 1-6 chains of one d and n in 1..96, in any order, and
    the rows a snapshot pass reports."""
    d = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.integers(1, 96), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**16))
    rows = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)).filter(any))
    return [_links_chain(n, d, seed + b) for b, n in enumerate(sizes)], np.flatnonzero(rows)


@given(_ragged_layouts())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ragged_stack_kernels_bitwise_per_block(layout):
    # the stacked solve, the acceleration, the solve contract and the
    # snapshot pass each give every block what the chain gives alone
    chains, rows = layout
    pos, blocks, sigma, alpha, w, times = _snapshot_stack(chains)
    links, links_dot = flat_links(chains)
    solved = tension._solve_tridiagonal(alpha, w, blocks)
    acc = [core._acceleration_arrays(f, sigma, blocks) for f in (links, links_dot)]
    err = tension._backward_error(alpha, sigma, w, blocks)
    made = dynamics._snapshot_pass(pos, blocks, sigma, alpha, w, times, rows)
    assert len(made) == len(rows)
    snaps = dict(zip(rows.tolist(), made))
    for b, c in enumerate(chains):
        part = blocks.part(b)
        t, t_dot = c.link_dirs().T, c.link_dirs_dot().T
        own_pos, own_blocks, own_sigma, own_alpha, own_w, _ = _snapshot_stack([c])
        alone = core._equal_blocks(c.n, 1)
        assert solved[part].tobytes() == tension._solve_tridiagonal(own_alpha, own_w, alone).tobytes()
        for got, f in zip(acc, (t, t_dot)):
            assert got[:, part].tobytes() == core._acceleration_arrays(f, own_sigma, alone).tobytes()
        own_err = tension._backward_error(own_alpha, own_sigma, own_w, alone)
        assert err[b : b + 1].tobytes() == own_err.tobytes()
        if b in snaps:
            got, (want,) = snaps[b], dynamics._snapshot_pass(own_pos, own_blocks, own_sigma, own_alpha, own_w,
                                                             times[b : b + 1], np.arange(1))
            assert got.state.time == times[b]
            assert got.state.eta.tobytes() == c.eta.tobytes()
            assert got.tension.sigma.tobytes() == want.tension.sigma.tobytes()
            for field in dataclasses.fields(want.report):
                got_value, want_value = getattr(got.report, field.name), getattr(want.report, field.name)
                assert np.asarray(got_value).tobytes() == np.asarray(want_value).tobytes(), field.name


@st.composite
def _tension_stacks(draw):
    """n, and two (B, n+1) stacks with entry 0 zero: tensions and their
    derivatives, the sums of first differences of either sign spread over
    16 decades, a fifth of them zero."""
    n, rows = draw(st.integers(1, 200)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stack():
        steps = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, n))
        steps[rng.random((rows, n)) < 0.2] = 0.0
        out = np.zeros((rows, n + 1))
        out[:, 1:] = np.cumsum(steps, axis=-1)
        return out

    return n, stack(), stack()


@given(_tension_stacks())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_abc_bound_each_row_by_its_differences(stacks):
    # with sigma_0 = 0, sigma_k is the sum of its first differences, so
    # sigma_k/s_k <= a = max |D- sigma| and |sigma_dot_k|/s_k <= c, up to
    # the four roundings of the differences, the scaling and the quotient;
    # each row is bitwise diagnostics_abc of its chain alone
    n, sigma, sigma_dot = stacks
    a, b, c = tension._abc(sigma, sigma_dot)
    s = np.arange(1, n + 1) / n
    u = np.finfo(float).eps / 2
    assert np.all((sigma[:, 1:] / s).max(axis=-1) <= a * (1 + 4 * u))
    assert np.all((np.abs(sigma_dot[:, 1:]) / s).max(axis=-1) <= c * (1 + 4 * u))
    chain = straight_chain(n)
    for row in range(len(sigma)):
        own = tension.diagnostics_abc(chain, sigma[row], sigma_dot[row])
        assert np.array([a[row], b[row], c[row]]).tobytes() == np.array(own).tobytes()


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
# out-of-plane normal modes of the rotating chain


def _out_of_plane_mode(n, m):
    """z^{(m)}_k = -(1/n) sum_{j>=k} u_j, k = 1..n+1, whose links D+ z are
    the Hahn row u = q_m(k/n), k = 1..n: the m-th out-of-plane mode of the
    rigidly rotating chain, whose frequency is omega sqrt(m (2m-1)) at every n."""
    z = np.zeros(n + 1)
    z[:n] = -np.cumsum(basis_q_table(n)[m - 1, :n][::-1])[::-1] / n
    return z


class TestNormalModes:
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3, 16, 64, 1024) for m in sorted({1, 2, n}) if m <= n])
    def test_acceleration_of_a_mode_is_its_eigenvalue(self, n, m, omega):
        # z'' = n^2 [sigma_k (z_{k+1} - z_k) - sigma_{k-1} (z_k - z_{k-1})]
        # under the exact rotating tension has eigenvalue -omega^2 m (2m-1) on
        # z^{(m)}; the in-plane rows do not see z.  The n^2 scaling amplifies
        # round-off: 4e-16 at n <= 3, 4e-11 at n = 1024, on one BLAS thread or two
        chain, sigma, eps = rigid_rotation(n, omega, d=3), rigid_rotation_sigma(n, omega), 1e-3
        z = _out_of_plane_mode(n, m)
        eta = chain.eta.copy()
        eta[:, 2] += eps * z
        acc = acceleration(ChainState(eta, chain.eta_dot), sigma)
        want = -(omega**2) * m * (2 * m - 1) * eps * z
        assert np.max(np.abs(acc[:, 2] - want)) <= n * n * 1e-15 * np.max(np.abs(want))
        assert np.array_equal(acc[:, :2], acceleration(chain, sigma)[:, :2])

    def test_nonlinear_chain_oscillates_at_the_whip_frequency(self):
        # the rotation (omega = 1) plus the m = 2 mode at largest |z_k| = 1e-4,
        # in-plane links shortened to unit length, for 1.3 periods: the free
        # end's z crosses zero at T/4, 3T/4 and 5T/4.  The tension moves at
        # O(eps^2) only, so the frequency is omega sqrt(m (2m-1)) up to an eps^2
        # shift: +1.4e-8 here, -4.2e-6 at eps = 1e-3
        n, m, omega, eps = 16, 2, 1.0, 1e-4
        z = _out_of_plane_mode(n, m)
        lift = np.diff(z * (eps / np.max(np.abs(z)))) * n   # the links' z components
        links = np.stack([np.sqrt(1.0 - lift**2), np.zeros(n), lift], axis=1)
        eta = np.zeros((n + 1, 3))
        eta[:n] = -np.cumsum(links[::-1], axis=0)[::-1] / n
        chain = ChainState(eta, rigid_rotation(n, omega, d=3).eta_dot).validate()
        freq = omega * np.sqrt(m * (2 * m - 1))
        traj = run(chain, IntegratorConfig(t_end=1.3 * 2 * np.pi / freq, report_stride=10))
        assert traj.termination == "t_end_reached"
        t = np.array([snap.state.time for snap in traj.snapshots])
        x = np.array([snap.state.eta[0, 2] for snap in traj.snapshots])
        i = np.flatnonzero(np.sign(x[:-1]) != np.sign(x[1:]))
        assert len(i) == 3
        cross = t[i] - x[i] * (t[i + 1] - t[i]) / (x[i + 1] - x[i])
        assert abs(2 * np.pi / (cross[2] - cross[0]) / freq - 1.0) <= 1e-6


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
