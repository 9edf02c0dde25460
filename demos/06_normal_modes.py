"""Out-of-plane normal modes of the rotating chain: an exact moving solution.

Tilt the rigidly rotating chain (demo 01) out of its plane by a small
z = eps z^(m).  The tension changes only at O(eps^2), so to first order

    z_k'' = n^2 [sigma_k (z_{k+1} - z_k) - sigma_{k-1} (z_k - z_{k-1})]

under the exact sigma_k = om^2 k (2n+1-k) / (2n^2).  That operator's
eigenvalues are om^2 m (2m-1) at every n, the whip's own: the continuum
operator is Legendre's, (om^2/2) d/dx ((1 - x^2) dz/dx) with x = 1 - s, whose
odd eigenfunctions P_{2m-1}(x) vanish at the fixed end.  The links D+ z^(m)
of the chain's mode are the m-th Hahn row of the spectral basis, so the
mode needs no eigensolver.

The nonlinear chain is started from the rotation plus the m = 2 mode (its
largest |z_k| is eps), with the in-plane links shortened to unit length, and
run for 0.8 periods.  The frequency is fitted from the free end's two zero
crossings (a half period apart), each found on the cubic Hermite
interpolant of the sampled z and z'.  Its error against om sqrt(m (2m-1))
is then O(eps^2) plus the time stepping's, which this demo separates:

  * against eps at n = 16, where dt_max = 1e-3 makes the stepping's small;
  * against dt_max at n = 256, where dt_max binds (the CFL step is larger);
  * against cfl at n = 1024, where the CFL rule binds.

Last, the chain's mode shape against the whip's P_3(1 - s), s = (k-1)/n,
both normalized at the free end: the spatial error of a moving whip.
Observed orders are printed, not asserted.

Run:  python demos/06_normal_modes.py
"""

import numpy as np
from numpy.polynomial import legendre
from scipy.interpolate import CubicHermiteSpline

from whipchain import ChainState, IntegratorConfig, rigid_rotation, run_batch
from whipchain.spectral import basis_q_table

omega, m = 1.0, 2
freq = omega * np.sqrt(m * (2 * m - 1))


def mode(n):
    """z^(m)_k = -(1/n) sum_{j>=k} u_j, k = 1..n+1, with u the Hahn row q_m(k/n)."""
    z = np.zeros(n + 1)
    z[:n] = -np.cumsum(basis_q_table(n, m)[m - 1, :n][::-1])[::-1] / n
    return z


def perturbed_rotation(n, eps):
    """The rotation at rate omega in d = 3 plus eps times the mode, largest |z_k| = eps."""
    z = mode(n)
    lift = np.diff(z * (eps / np.max(np.abs(z)))) * n   # the links' z components
    links = np.stack([np.sqrt(1.0 - lift**2), np.zeros(n), lift], axis=1)
    eta = np.zeros((n + 1, 3))
    eta[:n] = -np.cumsum(links[::-1], axis=0)[::-1] / n
    return ChainState(eta, rigid_rotation(n, omega, d=3).eta_dot).validate()


def frequency_errors(n, stride, eps=(1e-4,), **integrator):
    """The relative error of the fitted frequency and the step count of one
    chain per eps, stepped as one batch."""
    cfg = IntegratorConfig(t_end=0.8 * 2 * np.pi / freq, report_stride=stride, **integrator)
    rows = []
    for traj in run_batch([perturbed_rotation(n, e) for e in eps], cfg):
        t = np.array([snap.state.time for snap in traj.snapshots])
        z = np.array([snap.state.eta[0, 2] for snap in traj.snapshots])
        z_dot = np.array([snap.state.eta_dot[0, 2] for snap in traj.snapshots])
        cross = CubicHermiteSpline(t, z, z_dot).roots(extrapolate=False)
        rows.append((np.pi / (cross[1] - cross[0]) / freq - 1.0, traj.n_steps))
    return rows


def sweep(title, name, values, n, stride=20):
    """The frequency error at each value of one setting, with the order
    log(error ratio) / log(value ratio) between neighbouring rows."""
    print(f"\n=== {title} ===")
    print(f"{name:>8} {'steps':>6} {'freq error':>12} {'order':>6}")
    if name == "eps":
        rows = frequency_errors(n, stride, eps=values)
    else:
        rows = [frequency_errors(n, stride, **{name: v})[0] for v in values]
    for i, (v, (err, steps)) in enumerate(zip(values, rows)):
        order = "" if i == 0 else f"{np.log(rows[i - 1][0] / err) / np.log(values[i - 1] / v):6.2f}"
        print(f"{v:8.3g} {steps:6d} {err:+12.2e} {order:>6}")


print(f"m = {m}: the whip's frequency omega sqrt(m (2m-1)) = {freq:.6f}")
sweep("frequency error against eps at n = 16 (the eps^2 amplitude shift)", "eps", (3e-3, 1e-3, 1e-4), 16)
sweep("frequency error against dt_max at n = 256 (RK4: fourth order)", "dt_max", (2e-3, 1e-3, 5e-4), 256)
sweep("frequency error against cfl at n = 1024 (the CFL rule binds)", "cfl", (0.5, 0.25), 1024, stride=100)

print("\n=== m = 2 shape against P_3(1 - s), normalized at the free end ===")
print(f"{'n':>6} {'max error':>10} {'order':>6}")
prev = None
for n in (16, 64, 256, 1024):
    z, s = mode(n), np.arange(n + 1) / n
    err = np.max(np.abs(z / z[0] - legendre.legval(1.0 - s, [0, 0, 0, 1])))
    order = "" if prev is None else f"{np.log(prev[1] / err) / np.log(n / prev[0]):6.2f}"
    print(f"{n:6d} {err:10.2e} {order:>6}")
    prev = (n, err)
print("\nThe frequencies are the whip's at every n, so their error is the")
print("amplitude's and the stepping's alone; the shape converges at first order in 1/n.")
