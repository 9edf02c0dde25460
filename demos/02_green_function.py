"""The discrete Green function and its certified bounds.

The tension solves a tridiagonal system whose inverse is explicit: from the
link-angle cosines alpha_i and the recursion beta_n = 1,
beta_i = 2 - alpha_i^2/beta_{i+1},

    G_kj = (1/n) sum_{i<=min(j,k)} p_ij p_ik / beta_i,
    p_ij = prod_{m=i}^{j-1} alpha_m / beta_{m+1}.

G is semiseparable: G_kj = G_kk p_kj for j >= k, so ``GreenMatrix`` holds
only the diagonal G_kk and the ratios alpha_m / beta_{m+1}, the certificate
is computed from them in O(n), and the dense matrix is materialized only when
``.G`` is read (as for the small straight chain printed below).

For a straight chain G_kj = min(j,k)/n.  With every joint angle obtuse
(alpha > 0) all entries are positive and sharp bounds hold; acute joints let
the tension go negative.  This demo reproduces the constant-angle family of
configurations and prints the full bound certificate.

Run:  python demos/02_green_function.py
"""

import numpy as np

from whipchain import (
    AngleState,
    certify_bounds,
    compute_alpha_beta,
    green_matrix_for_chain,
    solve_tension,
    theta_to_eta,
)

print("=== straight chain: the min(j,k)/n closed form ===")
from whipchain import alpha_beta_from_alpha, green_matrix

n = 6
gm = green_matrix(alpha_beta_from_alpha(np.ones(n - 1)))
print((gm.G * n).round(12))
print("rows are min(j,k) / n * n = min(j,k): exact\n")

print("=== constant joint angle, from obtuse to acute ===")
for n, turn in [(56, 0.05), (8, 0.6), (4, 2 * np.pi / 3)]:
    theta = np.arange(n) * turn
    theta_dot = np.zeros(n)
    theta_dot[-1] = 1.0  # load angular velocity near the fixed end
    chain = theta_to_eta(AngleState(theta, theta_dot))
    ab = compute_alpha_beta(chain)
    sol = solve_tension(chain)
    kind = "obtuse joints (alpha > 0)" if ab.alpha[0] > 0 else "ACUTE joints (alpha < 0)"
    print(
        f"n={n:3d} turn={turn:5.3f}: alpha = {ab.alpha[0]:+.3f}  {kind}"
        f"   min sigma = {sol.min_sigma:+.4f}  positive tension: {sol.positivity}"
    )
print("acute joint angles are exactly what allows negative tension\n")

print("=== bound certificate on a gently curved chain ===")
n = 32
s = np.arange(1, n + 1) / n
chain = theta_to_eta(AngleState(0.4 * np.sqrt(s), 0.8 * (1 - s)))
cert = certify_bounds(green_matrix_for_chain(chain), chain)
print(f"n = {cert.n}, all alpha >= 0: {cert.all_alpha_nonneg}")
print(f"max |D- G|          = {cert.max_abs_green_diff:.6f}   (bound 1: {cert.diff_bound_ok})")
print(f"max n G_kj / k      = {cert.max_upper_ratio:.6f}   (bound 1: {cert.ratio_bound_ok})")
print(f"upsilon             = {cert.upsilon:.6f}   (admissible <= 2 sqrt(n)/5 = {2*np.sqrt(n)/5:.3f}: {cert.upsilon_admissible})")
print(f"min n^2 G_kj/(jk)   = {cert.min_lower_ratio:.6f}   (lower bound e^(-2 ups) = {np.exp(-2*cert.upsilon):.6f}: {cert.lower_bound_ok})")
print(f"|G| <= min(j,k)/n   : {cert.minmax_bound_ok}")
print(f"corner minimum      : min F = F_1n with gap {cert.corner_gap:.2e} ({cert.corner_ok})")
print(f"product formula gap : {cert.corner_product_gap:.2e}")
