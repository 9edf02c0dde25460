"""The initial-data library: constraint exactness and defining properties."""

import numpy as np
import pytest

from whipchain.initial_data import (
    GENERATORS,
    folded_chain,
    log_spiral,
    make_initial,
    near_loop,
    perturbed_vertical,
    random_chain,
    rigid_rotation,
    rigid_rotation_exact,
    rigid_rotation_sigma,
    straight_chain,
    theta_power,
)
from whipchain.spectral import eta_to_theta
from whipchain.tension import compute_alpha_beta


@pytest.mark.parametrize("name", sorted(set(GENERATORS) - {"random"}))
def test_all_generators_on_manifold(name):
    ch = make_initial(name, 16)
    ch.validate(tol_length=1e-12, tol_orth=1e-12)
    assert np.all(ch.eta[-1] == 0.0) and np.all(ch.eta_dot[-1] == 0.0)


def test_random_generator_on_manifold():
    ch = make_initial("random", 16, rng=3)
    ch.validate(tol_length=1e-12, tol_orth=1e-12)


def test_make_initial_unknown_generator():
    with pytest.raises(ValueError, match="spiral_galaxy"):
        make_initial("spiral_galaxy", 8)


def test_make_initial_unknown_param():
    with pytest.raises(ValueError, match="mass"):
        make_initial("rigid_rotation", 8, mass=2.0)


def test_make_initial_reads_each_generators_parameters_once(monkeypatch):
    # the accepted names come from the type hints, read once per generator;
    # the refusal names the generator and the parameter as before
    from whipchain import initial_data

    calls = []
    hints = initial_data.get_type_hints
    monkeypatch.setattr(initial_data, "get_type_hints", lambda gen: calls.append(gen) or hints(gen))
    initial_data._accepted.cache_clear()
    for seed in range(3):
        make_initial("random", 8, rng=seed, vel_scale=2.0)
    make_initial("rigid_rotation", 8, omega=2.0)
    with pytest.raises(ValueError, match="^generator 'rigid_rotation' does not accept parameter 'mass'$"):
        make_initial("rigid_rotation", 8, mass=2.0)
    assert calls == [random_chain, rigid_rotation]


def test_straight_chain_positions():
    ch = straight_chain(8)
    expect = np.arange(8, -1, -1) / 8
    assert ch.eta[:, 0] == pytest.approx(expect)
    assert np.all(ch.eta[:, 1] == 0.0)
    assert np.all(ch.eta_dot == 0.0)


def test_straight_chain_higher_dimension():
    ch = straight_chain(6, d=4)
    assert ch.d == 4
    ch.validate()


def test_straight_chain_angle_in_higher_dimension():
    # the angle turns the chain in the first two axes for every d
    ch = straight_chain(4, d=3, angle=1.0)
    assert np.array_equal(ch.eta[0], [np.cos(1.0), np.sin(1.0), 0.0])
    assert np.allclose(ch.link_dirs(), -ch.eta[0], rtol=0.0, atol=1e-15)
    ch.validate()


@pytest.mark.parametrize("generator", [straight_chain, rigid_rotation, rigid_rotation_exact])
@pytest.mark.parametrize("d", [1, 0])
def test_planar_generators_refuse_a_dimension_below_two_by_name(generator, d):
    args = (0.5,) if generator is rigid_rotation_exact else ()
    with pytest.raises(ValueError, match=f"d must be >= 2, got d={d}"):
        generator(8, *args, d=d)


@pytest.mark.parametrize(
    "generator",
    [*GENERATORS.values(), lambda n: rigid_rotation_exact(n, 0.5), rigid_rotation_sigma],
    ids=[*GENERATORS, "rigid_rotation_exact", "rigid_rotation_sigma"],
)
@pytest.mark.parametrize("n", [0, -1])
def test_generators_refuse_fewer_than_one_link_by_name(generator, n):
    # refused before any array is built: no divide-by-zero warning, no
    # negative-dimension error that does not name n
    with pytest.raises(ValueError, match=f"got n={n}$"):
        generator(n)


def test_random_chain_refuses_a_negative_max_turn_by_name():
    with pytest.raises(ValueError, match="max_turn=-1"):
        random_chain(8, 0, max_turn=-1.0)


def test_rigid_rotation_velocity_profile():
    n, om = 12, 1.7
    ch = rigid_rotation(n, om)
    c = np.arange(n, -1, -1) / n
    assert ch.eta_dot[:, 1] == pytest.approx(om * c)
    assert np.all(ch.eta_dot[:, 0] == 0.0)


def test_folded_chain_structure():
    ch = folded_chain(10, fold=0.5)
    ab = compute_alpha_beta(ch)
    assert np.min(ab.alpha) == pytest.approx(-1.0)
    assert np.sum(np.abs(ab.alpha + 1.0) < 1e-12) == 1  # exactly one fold


def test_perturbed_vertical_small_velocity():
    ch = perturbed_vertical(16, amplitude=0.01)
    assert np.max(np.abs(ch.eta_dot)) < 0.01
    assert np.max(np.abs(ch.eta[:, 1])) < 1e-15  # positions stay straight


def test_log_spiral_curvature_profile():
    # |eta_ss| = 2/(3s): discrete curvature |D+^2 eta_k| approaches 2/(3 s_k)
    # away from the free end
    n = 256
    ch = log_spiral(n)
    curv = np.linalg.norm(np.diff(ch.link_dirs(), axis=0) * n, axis=1)
    ks = np.arange(1, n)
    s = ks / n
    inner = (s > 0.2) & (s < 0.9)
    assert curv[inner] == pytest.approx(2.0 / (3.0 * s[inner]), rel=0.02)


def test_log_spiral_free_end_location():
    # the free end sits at (3/sqrt(13), 0) in the continuum
    n = 4096
    ch = log_spiral(n)
    assert ch.eta[0] == pytest.approx([3.0 / np.sqrt(13.0), 0.0], abs=5e-3)


def test_theta_power_angles():
    n, q = 32, 0.75
    ch = theta_power(n, q=q)
    ang = eta_to_theta(ch)
    s = np.arange(1, n + 1) / n
    assert ang.theta == pytest.approx(s**q, abs=1e-12)


def test_theta_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_power(8, q=0.0)


def test_near_loop_has_full_turn():
    ch = near_loop(64)
    ang = eta_to_theta(ch)
    assert ang.theta[0] - ang.theta[-1] == pytest.approx(2 * np.pi, rel=0.05)


def test_random_chain_alpha_positive_with_bounded_turns():
    for seed in range(5):
        ch = random_chain(20, np.random.default_rng(seed), max_turn=1.5)
        assert np.all(compute_alpha_beta(ch).alpha > 0)
