"""Self-verifying simulator of a kicked particle in a tilted tight-binding band.

A charged particle on a 1D lattice under a constant force repeatedly
interacts with fresh thermal two-level atoms.  The package evaluates every
closed-form object of the model (Wannier-Stark eigenbasis, single-atom
propagator, reduced Kraus channel and its deformations, drift/diffusion,
rate functions, two-time counting statistics) and cross-checks each one
against an independent brute-force route.
"""

__version__ = "0.1.0"

from .bessel import bessel_halfwidth, bessel_j_array, bessel_squares, bessel_table
from .channel import (
    KrausTriple,
    adjoint_apply,
    apply_channel,
    apply_deformed,
    channel_oracle,
    deformed_weights,
    kraus_weights,
    log_theta,
    theta,
)
from .config import TOL, Tolerances
from .errors import (
    AccuracyError,
    BudgetError,
    ConfigError,
    NumericsError,
    StarkwalkError,
    WindowError,
)
from .fcs import (
    EnergyFcsResult,
    PositionCgf,
    ReservoirConfig,
    energy_cgf,
    environment_reduced_map,
    free_dressing_weights,
    free_kernel,
    position_cgf,
    position_cgf_oracle,
    repeated_interaction_propagator,
    run_energy_fcs,
    run_position_fcs,
)
from .params import ModelParams
from .singleatom import (
    AtomGibbs,
    JointDensityMatrix,
    closed_unitary,
    hamiltonian_blocks,
    oracle_unitary,
    position_expectation,
    position_motion_bound,
    position_oracle,
    propagate_closed,
    propagate_oracle,
)
from .state import (
    BlochCoefficients,
    LatticeWindow,
    ParticleDensityMatrix,
    bloch_coefficients,
    free_evolve,
    position_distribution,
    position_operator,
    required_order,
    transform_matrix,
)
from .walk import (
    LatticeLaw,
    TransportCoefficients,
    WalkSample,
    rate_function,
    rate_function_entropy,
    rate_function_numeric,
    sample_walk,
    scgf,
    transport_coefficients,
    walk_log_pmf,
    walk_pmf_exact,
    walk_pmf_oracle,
)
