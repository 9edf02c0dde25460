"""Moving between chain resolutions through the orthogonal bases.

In the plane the constraint is exactly an angle function theta_k, and
symmetric (even through the fixed end) angle data expands in the
Legendre-derived modes Q_m(s) and their discrete Hahn-derived counterparts
q_m(k/n).  Both families are orthonormal for the symmetric weight
rho = s(2-s) at difference order 0 and diagonal with the SAME coefficients
r_mj at every order, so the coefficient maps preserve all the weighted
Sobolev seminorms at once -- and the reconstructed chain satisfies the
constraint exactly.

Run:  python demos/04_spectral_transfer.py
"""

import numpy as np

from whipchain import (
    IntegratorConfig,
    continuize_Gn,
    discrete_symmetric_inner,
    discretize_Fn,
    eta_to_theta,
    r_coefficient,
    run,
    theta_to_eta,
    transfer_resolution,
)
from whipchain.initial_data import rigid_rotation, rigid_rotation_exact
from whipchain.spectral import basis_q_table

print("=== discrete orthonormality and the r_mj ladder (n = 8) ===")
n = 8
table = basis_q_table(n)
gram0 = np.array([[discrete_symmetric_inner(table[a], table[b], 0, n) for b in range(n)] for a in range(n)])
print(f"j=0 Gram deviation from identity: {np.max(np.abs(gram0 - np.eye(n))):.2e}")
for j in (1, 2, 3):
    diag = [discrete_symmetric_inner(table[m], table[m], j, n) for m in range(4)]
    expect = [r_coefficient(m + 1, j) for m in range(4)]
    print(f"j={j}: diag = {np.array2string(np.array(diag), precision=6)}  r_mj = {expect}")

print("\n=== round trip and isometry ===")
rng = np.random.default_rng(1)
theta = rng.normal(size=n) * 0.5
from whipchain import AngleState

ang = AngleState(theta, np.zeros(n))
coeffs, _ = continuize_Gn(ang)
back = discretize_Fn(coeffs, n)
print(f"F_n o G_n identity error: {np.max(np.abs(back.theta - theta)):.2e}")
print(f"sum a_m^2 = {np.sum(coeffs**2):.12f}")
print(f"<<theta, theta>>_0 = {discrete_symmetric_inner(theta, theta, 0, n):.12f}")

print("\n=== resolution transfer preserves the constraint exactly ===")
chain = theta_to_eta(AngleState(0.6 * np.sin(np.pi * np.arange(1, 17) / 16 / 2), np.zeros(16)))
for target in (8, 32, 64):
    out = transfer_resolution(chain, target)
    print(f"n = 16 -> {target:3d}: |link length - 1| max = {out.constraint_drift():.2e}")

print("\n=== convergence of the chain to the whip (rotation oracle) ===")
t_end = 0.5
ref = rigid_rotation(256, 1.0)
cp, cv = continuize_Gn(eta_to_theta(ref))
prev = None
for nv in (16, 32, 64):
    chain = theta_to_eta(discretize_Fn(cp, nv, cv))
    traj = run(chain, IntegratorConfig(t_end=t_end, report_stride=10**9))
    fin = traj.snapshots[-1].state
    # particle k sits at arclength (k-1)/n from the free end of the whip
    exact = rigid_rotation_exact(nv, t_end).eta
    err = np.max(np.linalg.norm(fin.eta - exact, axis=1))
    ratio = "" if prev is None else f"   ratio {prev / err:.2f}"
    print(f"n = {nv:3d}: max position error vs continuum at t = {t_end}: {err:.5f}{ratio}")
    prev = err
print("errors halve with resolution: the chain converges to the whip.")
