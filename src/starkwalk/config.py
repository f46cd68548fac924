"""Numerical tolerances of the runtime and of `verify-all`, collected in one place.

Every threshold the package or its acceptance checks read comes from
this record, so a tolerance is never hard-coded at the point of use; it
holds no other.  The bounds that only the tests read live with the tests
(`tests/conftest.py`).  All arithmetic is IEEE double precision.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # state invariants
    trace: float = 1e-10
    leakage: float = 1e-8          # transformed mass allowed outside the window
    boundary: float = 1e-10        # occupancy at the window edge before an op refuses

    # special functions
    bessel_normalization: float = 1e-12

    # channel / propagator cross-checks
    channel_oracle: float = 1e-10
    propagator_agreement: float = 1e-10
    theta_symmetry: float = 1e-12
    theta_kraus_identity: float = 1e-13

    # random walk statistics
    walk_moments_rel: float = 1e-10
    walk_cgf_rel: float = 1e-10
    walk_law_rel: float = 1e-11    # ratio-recurrence law vs the n-fold convolution
    fluctuation_rel: float = 1e-10
    rate_match: float = 1e-8
    clt_kolmogorov: float = 0.02
    ldp_abs: float = 0.05
    einstein: float = 1e-6

    # counting statistics
    fcs_support: float = 1e-12
    fcs_mgf_rel: float = 1e-8
    energy_conservation: float = 1e-12
    energy_rate: float = 1e-6
    position_cgf_gap: float = 0.02
    position_cgf_identity: float = 1e-12   # closed-form CGF vs the windowed oracle

    # single-atom dynamics
    position_oracle: float = 1e-9


TOL = Tolerances()
