"""Initial-data library: the configurations used throughout the tests,
demos, and experiment harness.

Planar generators go through the angle representation so the unit-link
constraint holds exactly; ``straight_chain`` and ``rigid_rotation`` also
work in higher ambient dimension, in the plane of the first two axes.
"""

from __future__ import annotations

from typing import get_type_hints

import numpy as np
import numpy.random  # at import, not lazily inside the first run that draws a random chain

from .core import ChainState
from .spectral import AngleState, theta_to_eta


def _in_plane(d: int, x: float, y: float) -> np.ndarray:
    """The vector (x, y, 0, ..., 0) of R^d, for the chains that lie in the
    plane of the first two axes; d < 2 is refused."""
    if d < 2:
        raise ValueError(f"the chain lies in the first two axes, so d must be >= 2, got d={d}")
    u = np.zeros(d)
    u[:2] = x, y
    return u


def straight_chain(n: int, d: int = 2, angle: float = 0.0) -> ChainState:
    """Stationary chain along a fixed direction; eta_k = ((n+1-k)/n) u with
    u = (cos angle, sin angle, 0, ..., 0)."""
    u = _in_plane(d, np.cos(angle), np.sin(angle))
    c = np.arange(n, -1, -1, dtype=float) / n
    eta = np.outer(c, u)
    return ChainState(eta, np.zeros_like(eta))


def rigid_rotation(n: int, omega: float = 1.0, d: int = 2) -> ChainState:
    """Straight chain rotating rigidly at angular rate omega about the fixed
    end; an exact solution of the chain ODE with tension
    sigma_k = omega^2 k (2n+1-k) / (2 n^2)."""
    c = np.arange(n, -1, -1, dtype=float) / n
    u, uperp = _in_plane(d, 1.0, 0.0), _in_plane(d, 0.0, 1.0)
    eta = np.outer(c, u)
    eta_dot = np.outer(c, omega * uperp)
    return ChainState(eta, eta_dot)


def rigid_rotation_exact(n: int, t: float, omega: float = 1.0, d: int = 2) -> ChainState:
    """Closed-form state of the rotating chain at time t (oracle for tests)."""
    c = np.arange(n, -1, -1, dtype=float) / n
    u = _in_plane(d, np.cos(omega * t), np.sin(omega * t))
    uperp = _in_plane(d, -np.sin(omega * t), np.cos(omega * t))
    eta = np.outer(c, u)
    eta_dot = np.outer(c, omega * uperp)
    return ChainState(eta, eta_dot, time=t)


def rigid_rotation_sigma(n: int, omega: float = 1.0) -> np.ndarray:
    """Exact discrete tension of the rotating chain, sigma_0..sigma_n."""
    k = np.arange(0, n + 1, dtype=float)
    return omega**2 * k * (2 * n + 1 - k) / (2.0 * n**2)


def folded_chain(n: int, fold: float = 0.5, vel_amp: float = 1.0) -> ChainState:
    """Two antiparallel segments (alpha = -1 at the fold) with angular
    velocity loaded on the fixed-end side, which forces nonpositive tension
    on the free-end side of the fold."""
    if n < 2:
        raise ValueError("folded chain needs n >= 2")
    f = min(max(int(round(fold * n)), 1), n - 1)
    theta = np.where(np.arange(1, n + 1) <= f, 0.0, np.pi)
    theta_dot = np.zeros(n)
    ks = np.arange(1, n + 1)
    mask = ks > f
    theta_dot[mask] = vel_amp * np.sin(np.pi * (ks[mask] - f) / (n - f + 1))
    return theta_to_eta(AngleState(theta, theta_dot))


def perturbed_vertical(n: int, amplitude: float = 0.05, mode: int = 1) -> ChainState:
    """Straight chain with a small transverse velocity profile."""
    theta = np.zeros(n)
    ks = np.arange(1, n + 1)
    theta_dot = amplitude * np.sin(mode * np.pi * ks / (n + 1.0))
    return theta_to_eta(AngleState(theta, theta_dot))


def log_spiral(n: int, vel_amp: float = 0.0) -> ChainState:
    """The logarithmic-spiral configuration whose curvature diverges like
    2/(3s) at the free end: unit tangents of
    eta(s) = (3(1 - s cos((2/3) ln s)), -3 s sin((2/3) ln s)) / sqrt(13),
    sampled at s = k/n, with an optional transverse velocity profile."""
    s = np.arange(1, n + 1) / n
    u = (2.0 / 3.0) * np.log(s)
    tx = -3.0 / np.sqrt(13.0) * (np.cos(u) - (2.0 / 3.0) * np.sin(u))
    ty = -3.0 / np.sqrt(13.0) * (np.sin(u) + (2.0 / 3.0) * np.cos(u))
    theta = np.unwrap(np.arctan2(ty, tx))
    theta_dot = vel_amp * (1.0 - s)
    return theta_to_eta(AngleState(theta, theta_dot))


def theta_power(n: int, q: float = 0.75, vel_amp: float = 0.0) -> ChainState:
    """Angle profile theta(s) = s^q (unbounded curvature at the free end for
    q < 1 while the third-order energy stays finite for q > 1/2)."""
    if not 0.0 < q:
        raise ValueError(f"power must be positive, got q={q}")
    s = np.arange(1, n + 1) / n
    theta = s**q
    theta_dot = vel_amp * (1.0 - s)
    return theta_to_eta(AngleState(theta, theta_dot))


def near_loop(n: int, loop_width: float = 0.12, center: float = 0.4, omega: float = 4.0) -> ChainState:
    """A full 2 pi turn of width ``loop_width`` centered at arclength
    ``center``, with an angular-velocity profile that drives the loop
    tighter; the configuration blowup hunts start from."""
    if not 0.0 < loop_width:
        raise ValueError(f"loop width must be positive, got loop_width={loop_width}")
    s = np.arange(1, n + 1) / n
    z = (center - s) / loop_width
    theta = 2.0 * np.pi / (1.0 + np.exp(-4.0 * z))
    theta_dot = omega * (s - center) / loop_width * np.exp(-((s - center) / loop_width) ** 2)
    return theta_to_eta(AngleState(theta, theta_dot))


def random_chain(
    n: int,
    rng: np.random.Generator | int | None = None,
    max_turn: float = 1.2,
    vel_scale: float = 1.0,
) -> ChainState:
    """Random admissible planar chain: bounded-variation angles (so the
    constraint holds exactly) and Gaussian angular velocities.

    ``max_turn`` < pi/2 keeps every alpha_i > 0.
    """
    if not 0.0 <= max_turn:
        raise ValueError(f"max turn must be nonnegative, got max_turn={max_turn}")
    if not 0.0 <= vel_scale:
        raise ValueError(f"velocity scale must be nonnegative, got vel_scale={vel_scale}")
    theta, theta_dot = _random_angles(n, np.random.default_rng(rng), max_turn, vel_scale)
    return theta_to_eta(AngleState(theta, theta_dot))


def _random_angles(n: int, rng: np.random.Generator, max_turn: float, vel_scale: float):
    """The angles and angular velocities of :func:`random_chain`, drawn from
    ``rng`` by the same calls in the same order."""
    inc = rng.uniform(-max_turn, max_turn, size=n - 1)
    theta = np.concatenate([[rng.uniform(-np.pi, np.pi)], inc]).cumsum()
    return theta, rng.normal(0.0, vel_scale, size=n)


GENERATORS = {
    "straight": straight_chain,
    "rigid_rotation": rigid_rotation,
    "folded": folded_chain,
    "perturbed_vertical": perturbed_vertical,
    "log_spiral": log_spiral,
    "theta_power": theta_power,
    "near_loop": near_loop,
    "random": random_chain,
}


def make_initial(name: str, n: int, **params) -> ChainState:
    """Look up a generator by name and build a state, refusing a parameter
    its type hints (the list the config reads) lack, or a non-finite number."""
    if name not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ValueError(f"unknown initial-data generator {name!r}; known: {known}")
    gen = GENERATORS[name]
    accepted = get_type_hints(gen).keys() - {"return"}
    for key in params:
        if key not in accepted:
            raise ValueError(f"generator {name!r} does not accept parameter {key!r}")
        if isinstance(params[key], float) and not np.isfinite(params[key]):
            raise ValueError(f"parameter {key!r} must be finite, got {params[key]!r}")
    return gen(n, **params)
