"""Dynamics of an inextensible chain fixed at one end.

The chain is n particles joined by rigid unit-length links (scaled by 1/n),
the last particle pinned at the origin.  Link tensions solve a tridiagonal
constraint system whose inverse is an explicit discrete Green function with
certified upper and lower bounds; the flow eta_ddot = D-(sigma D+ eta) is
integrated with constraint projection and monitored through a hierarchy of
weighted energies.  For planar chains, angle coordinates and a pair of
orthogonal bases (Legendre-derived continuous, Hahn-derived discrete) move
states between resolutions while preserving the weighted Sobolev norms.
"""

__version__ = "0.1.0"   # before the submodules: the harness writes it into every manifest

from .core import (
    ChainState,
    discrete_energy,
    forward_diff,
    forward_diff_m,
    rising_weight,
    sigma_weighted_energy,
    u0_v0,
    weighted_seminorm_sq,
    weighted_supnorm_sq,
)
from .dynamics import (
    BlowupFit,
    EnergyReport,
    IntegratorConfig,
    Snapshot,
    Trajectory,
    acceleration,
    adaptive_dt,
    detect_blowup,
    project,
    run,
    run_batch,
    snapshot_report,
    step,
)
from .errors import ConfigError, FitRejected, NumericError
from .harness import ExperimentConfig, RunManifest, emit_series, parse_config, run_experiment
from .initial_data import (
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
from .spectral import (
    AngleState,
    basis_q,
    continuize_Gn,
    discrete_symmetric_inner,
    discretize_Fn,
    eta_to_theta,
    r_coefficient,
    theta_to_eta,
    transfer_resolution,
)
from .tension import (
    AlphaBeta,
    GreenCertificate,
    GreenMatrix,
    TensionSolution,
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
