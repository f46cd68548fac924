"""Property tests over a box of model parameters.

Every draw either raises a StarkwalkError (the input contract) or
satisfies the closed-form invariants of the Kraus weights, theta and the
scaled cumulant generating function.  The rate function may not refuse:
for every p < 1 its closed form is >= 0, vanishes at the drift and, for
p > 0 inside (-1, 1), equals the numeric Legendre transform.  The walk
law may not refuse either: for n <= 30 it equals the n-fold convolution.
The cases come from a seeded numpy generator, plus each bound of each
coordinate, so they stay the same whatever else in the project changes.
"""
import math

import numpy as np
import pytest

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

from conftest import TEST_TOL, assert_law_matches_oracle


# (E, F, lam, tau, beta, alpha, eta, x); F = 0 and tau = 0 sit inside the box on
# purpose: they must be refused.  beta E reaches 2500, past where cosh overflows.
_BOX = ((0.0, 50.0), (0.0, 20.0), (-5.0, 5.0), (0.0, 20.0), (0.0, 50.0),
        (-2.0, 3.0), (-5.0, 5.0), (-1.0, 1.0))
_N_MAX = 30
_DRAWS = 300


def _cases() -> list[tuple]:
    """(E, F, lam, tau, beta, alpha, eta, x, n): _DRAWS points drawn uniformly from the
    box and n uniformly from 0.._N_MAX, then one point at each bound of each coordinate."""
    rng = np.random.default_rng(20240531)
    lows, highs = np.array(_BOX).T
    count = _DRAWS + 2 * len(_BOX) + 2
    reals = rng.uniform(lows, highs, size=(count, len(_BOX)))
    ns = rng.integers(0, _N_MAX, endpoint=True, size=count)
    reals[_DRAWS + np.arange(2 * len(_BOX)), np.repeat(np.arange(len(_BOX)), 2)] = np.ravel(_BOX)
    ns[-2:] = 0, _N_MAX
    return [(*r, n) for r, n in zip(reals.tolist(), ns.tolist())]


def _invariants(params, alpha, eta):
    be = params.beta * params.E

    weights = kraus_weights(params)
    assert abs(weights.sum() - 1.0) <= TOL.theta_kraus_identity
    assert np.array_equal(deformed_weights(0.0, params), weights)

    assert math.isclose(theta(1.0 - alpha, params), theta(alpha, params),
                        rel_tol=TOL.theta_symmetry)
    assert math.isclose(scgf(-be - eta, params), scgf(eta, params),
                        rel_tol=TEST_TOL.scgf_symmetry, abs_tol=TEST_TOL.scgf_symmetry)

    # one step from a delta carries mass theta; compared in log space, where
    # the closed form keeps relative accuracy even when theta is ~1e200
    gamma = alpha * be
    mass = np.convolve([1.0], deformed_weights(gamma, params)).sum()
    assert math.isclose(math.log(mass), log_theta(gamma, params),
                        rel_tol=TOL.theta_kraus_identity, abs_tol=TOL.theta_kraus_identity)


def _rate_invariants(params, x):
    """Must hold without refusal for every p < 1, whatever beta E."""
    tc = transport_coefficients(params)
    at_drift, rate = rate_function([tc.v_d * params.tau, x], params).tolist()
    assert abs(at_drift) <= TOL.rate_match
    assert rate >= -TOL.rate_match
    if params.p > 0.0 and abs(x) < 1.0:
        assert math.isclose(rate, rate_function_numeric([x], params)[0],
                            rel_tol=TOL.rate_match, abs_tol=TOL.rate_match)


@pytest.mark.parametrize("case", _cases())
def test_closed_forms_hold_or_refuse(case):
    *raw, alpha, eta, x, n = case
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
