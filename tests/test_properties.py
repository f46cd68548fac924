"""Property tests over a box of model parameters.

Every draw either raises a StarkwalkError (the input contract) or
satisfies the closed-form invariants of the Kraus weights, theta and the
scaled cumulant generating function.  The rate function may not refuse:
for every p < 1 its closed form is >= 0, vanishes at the drift and, for
p > 0 inside (-1, 1), equals the numeric Legendre transform.  The walk
law may not refuse either: for n <= 30 it equals the n-fold convolution.
The search is derandomized, so the suite stays deterministic.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from starkwalk import (
    TOL,
    ModelParams,
    StarkwalkError,
    deformed_weights,
    kraus_weights,
    log_theta,
    rate_function,
    rate_function_numeric,
    scgf,
    theta,
    transport_coefficients,
    walk_pmf_exact,
    walk_pmf_oracle,
)

from conftest import assert_law_matches_oracle


def _real(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# (E, F, lam, tau, beta); F = 0 and tau = 0 sit inside the box on purpose:
# they must be refused.  beta E reaches 2500, past where cosh overflows.
params_box = st.tuples(_real(0.0, 50.0), _real(0.0, 20.0), _real(-5.0, 5.0),
                       _real(0.0, 20.0), _real(0.0, 50.0))


def _invariants(params, alpha, eta):
    be = params.beta * params.E

    kt = kraus_weights(params)
    assert abs(kt.as_array().sum() - 1.0) <= TOL.theta_kraus_identity
    assert np.array_equal(deformed_weights(0.0, params), kt.as_array())

    assert math.isclose(theta(1.0 - alpha, params), theta(alpha, params),
                        rel_tol=TOL.theta_symmetry)
    assert math.isclose(scgf(-be - eta, params), scgf(eta, params),
                        rel_tol=TOL.scgf_symmetry, abs_tol=TOL.scgf_symmetry)

    # one step from a delta carries mass theta; compared in log space, where
    # the closed form keeps relative accuracy even when theta is ~1e200
    gamma = alpha * be
    mass = np.convolve([1.0], deformed_weights(gamma, params)).sum()
    assert math.isclose(math.log(mass), log_theta(gamma, params),
                        rel_tol=TOL.theta_kraus_identity, abs_tol=TOL.theta_kraus_identity)


def _rate_invariants(params, x):
    """Must hold without refusal for every p < 1, whatever beta E."""
    tc = transport_coefficients(params)
    assert abs(rate_function(tc.v_d * params.tau, params)) <= TOL.rate_match
    assert rate_function(x, params) >= -TOL.rate_match
    if params.p > 0.0 and abs(x) < 1.0:
        assert math.isclose(rate_function(x, params), rate_function_numeric(x, params),
                            rel_tol=TOL.rate_match, abs_tol=TOL.rate_match)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(params_box, _real(-2.0, 3.0), _real(-5.0, 5.0), _real(-1.0, 1.0), st.integers(0, 30))
def test_closed_forms_hold_or_refuse(raw, alpha, eta, x, n):
    try:
        params = ModelParams(*raw)
    except StarkwalkError:
        return
    try:
        _invariants(params, alpha, eta)
    except StarkwalkError:
        pass
    if params.p < 1.0:
        _rate_invariants(params, x)
    # the walk law may not refuse: it equals the n-fold convolution
    assert_law_matches_oracle(walk_pmf_exact(n, params), walk_pmf_oracle(n, params))
