import math

import mpmath
import numpy as np
import pytest

from starkwalk import (
    TOL,
    ModelParams,
    NumericsError,
    derive_params,
    energy_cgf,
    kraus_weights,
    log_theta,
    rate_function,
    rate_function_entropy,
    rate_function_numeric,
    sample_walk,
    scgf,
    theta,
    transport_coefficients,
    walk_log_pmf,
    walk_pmf_exact,
)
from starkwalk.verify import CHECK_PARAMS


def test_transport_reference_point(params):
    tc = transport_coefficients(params)
    # frozen from 40-digit evaluation
    assert abs(tc.v_d - 0.16070708734107652) < 1e-15
    assert abs(tc.D - 0.09259365419350199) < 1e-15
    assert tc.mobility is None


def test_transport_infinite_temperature():
    tc = transport_coefficients(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    assert tc.v_d == 0.0
    d_p = kraus_weights(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    p = d_p.p_plus + d_p.p_minus
    assert abs(tc.D - p / 2.0) <= 1e-15


def test_einstein_relation_near_zero_force():
    p = ModelParams(E=1e-3, F=1e-3, lam=0.3, tau=1.0, beta=1.0)
    tc = transport_coefficients(p)
    assert tc.mobility is not None
    assert abs(tc.D * p.beta / tc.mobility - 1.0) <= 1e-6


def test_single_step_law(params):
    kt = kraus_weights(params)
    law = walk_pmf_exact(1, params)
    assert np.array_equal(law.pmf, kt.as_array())


def test_two_step_enumeration(params):
    kt = kraus_weights(params)
    law = walk_pmf_exact(2, params)
    # P[S_2 = 0] = p_0^2 + 2 p_+ p_-
    assert abs(law.pmf[2] - (kt.p_zero**2 + 2.0 * kt.p_plus * kt.p_minus)) <= 1e-15
    assert abs(law.pmf[0] - kt.p_minus**2) <= 1e-16
    assert abs(law.pmf[4] - kt.p_plus**2) <= 1e-16


def test_moments_match_transport(params):
    tc = transport_coefficients(params)
    for n in (1, 5, 50):
        law = walk_pmf_exact(n, params)
        assert abs(law.pmf.sum() - 1.0) <= 1e-12
        assert abs(law.mean() / (n * tc.v_d * params.tau) - 1.0) <= 1e-10
        assert abs(law.variance() / (n * 2.0 * tc.D * params.tau) - 1.0) <= 1e-10


def test_finite_n_cgf_identity(params):
    # sum_k e^{eta k} P[S_n = k] = theta(-eta / beta E)^n
    n = 50
    law = walk_pmf_exact(n, params)
    be = params.beta * params.E
    for eta in (-1.0, 0.5, 2.0):
        lhs = law.mgf(eta)
        rhs = theta(-eta / be, params) ** n
        assert abs(lhs / rhs - 1.0) <= 1e-10


def test_fluctuation_symmetry_linear_range(params):
    be = params.beta * params.E
    n = 60
    law = walk_pmf_exact(n, params)
    for k in range(1, n + 1):
        p_plus_k = law.pmf[n + k]
        p_minus_k = law.pmf[n - k]
        if p_plus_k < 1e-250:
            continue
        assert abs(p_minus_k / (math.exp(-be * k) * p_plus_k) - 1.0) <= 1e-10


def test_log_pmf_agrees_with_linear(params):
    n = 40
    law = walk_pmf_exact(n, params)
    logp = walk_log_pmf(n, params)
    mask = law.pmf > 1e-250
    assert np.max(np.abs(np.exp(logp[mask]) / law.pmf[mask] - 1.0)) <= 1e-10


def test_log_pmf_far_from_equilibrium():
    # beta E = 800: p_- = e^{-812} underflows, its log does not
    params = ModelParams(E=800.0, F=1.0, lam=1.0, tau=2.0, beta=1.0)
    n, be = 3, params.beta * params.E
    logp = walk_log_pmf(n, params)
    assert np.all(np.isfinite(logp))
    for k in range(1, n + 1):
        assert abs(logp[n - k] - (logp[n + k] - be * k)) <= TOL.fluctuation_rel


def test_log_pmf_reaches_below_denormals(params):
    # at n = 200 the all-down corner is ~e^{-737}, far below float range
    logp = walk_log_pmf(200, params)
    kt = kraus_weights(params)
    assert abs(logp[0] - 200.0 * math.log(kt.p_minus)) <= 1e-9
    assert logp[0] < -730.0


def test_sampling_reproducible(params):
    a = sample_walk(100, 5000, seed=42, params=params)
    b = sample_walk(100, 5000, seed=42, params=params)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.counts, b.counts)
    c = sample_walk(100, 5000, seed=43, params=params)
    assert not (np.array_equal(a.values, c.values) and np.array_equal(a.counts, c.counts))


def test_sampling_streams_partition(params):
    whole = sample_walk(50, 4000, seed=9, params=params, streams=4)
    assert whole.counts.sum() == 4000


def test_sampling_zero_coupling():
    p = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    s = sample_walk(100, 1000, seed=1, params=p)
    assert np.array_equal(s.values, [0])
    assert np.array_equal(s.counts, [1000])


def test_sampling_symmetric_mean():
    p = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0)
    tc = transport_coefficients(p)
    n, trials = 2000, 20000
    s = sample_walk(n, trials, seed=5, params=p)
    sigma = math.sqrt(2.0 * tc.D * n * p.tau / trials)
    assert abs(s.mean()) <= 4.0 * sigma


def test_sampling_argument_errors(params):
    with pytest.raises(ValueError):
        sample_walk(10, 0, seed=0, params=params)
    with pytest.raises(ValueError):
        sample_walk(10, 7, seed=0, params=params, streams=2)


def test_scgf_basics(params):
    assert scgf(0.0, params) == 0.0
    kt = kraus_weights(params)
    be = params.beta * params.E
    for eta in np.linspace(-2.0, 2.0, 17):
        assert abs(scgf(-be - eta, params) - scgf(eta, params)) <= 1e-12
        # the log of the one-step moment E[e^{eta S_1}] from the Kraus weights
        moment = kt.p_minus * math.exp(-eta) + kt.p_zero + kt.p_plus * math.exp(eta)
        assert abs(scgf(eta, params) - math.log(moment)) <= 1e-14


def test_scgf_far_tails(params):
    # e(eta) -> |eta| + log p_+- without overflow; the FT symmetry survives
    kt = kraus_weights(params)
    be = params.beta * params.E
    assert math.isclose(scgf(800.0, params), 800.0 + math.log(kt.p_plus),
                        rel_tol=TOL.scgf_symmetry)
    assert math.isclose(scgf(-800.0, params), 800.0 + math.log(kt.p_minus),
                        rel_tol=TOL.scgf_symmetry)
    assert math.isclose(scgf(-be - 800.0, params), scgf(800.0, params),
                        rel_tol=TOL.scgf_symmetry)


def test_scgf_derivatives_match_transport(params):
    tc = transport_coefficients(params)
    h = 1e-5
    d1 = (scgf(h, params) - scgf(-h, params)) / (2.0 * h)
    assert abs(d1 - tc.v_d * params.tau) <= 1e-8
    h = 1e-4
    d2 = (scgf(h, params) - 2.0 * scgf(0.0, params) + scgf(-h, params)) / h**2
    assert abs(d2 - 2.0 * tc.D * params.tau) <= 1e-6


def test_scgf_defined_at_zero_temperature_product():
    p = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0)
    kt = kraus_weights(p)
    for eta in (-1.0, 0.3, 2.0):
        direct = math.log(kt.p_minus * math.exp(-eta) + kt.p_zero + kt.p_plus * math.exp(eta))
        assert abs(scgf(eta, p) - direct) <= 1e-14


def test_rate_function_properties(params):
    tc = transport_coefficients(params)
    assert abs(rate_function(tc.v_d * params.tau, params)) <= 1e-15
    # frozen: I(0) = -log theta(1/2)
    assert abs(rate_function(0.0, params) - 0.07716780505219559) < 1e-15
    be = params.beta * params.E
    xs = np.linspace(-0.95, 0.95, 39)
    # the closed form is built on this symmetry, so the Legendre oracle checks it
    for x in xs:
        assert abs(rate_function_numeric(float(x), params)
                   - (-be * x + rate_function_numeric(float(-x), params))) <= 1e-10
    # strict convexity via second differences
    vals = [rate_function(float(x), params) for x in xs]
    second = np.diff(vals, 2)
    assert np.all(second > 0.0)
    assert rate_function(1.5, params) == math.inf
    assert rate_function(-1.0001, params) == math.inf


def test_rate_function_boundary_limits(params):
    kt = kraus_weights(params)
    assert abs(rate_function(1.0, params) + math.log(kt.p_plus)) <= 1e-12
    assert abs(rate_function(-1.0, params) + math.log(kt.p_minus)) <= 1e-12
    # continuity into the endpoint
    assert abs(rate_function(1.0 - 1e-9, params) - rate_function(1.0, params)) <= 1e-6


def test_numeric_rate_matches_closed_form(params):
    for x in np.linspace(-0.999, 0.999, 81):
        closed = rate_function(float(x), params)
        numeric = rate_function_numeric(float(x), params)
        assert abs(closed - numeric) <= 1e-8
    tc = transport_coefficients(params)
    assert abs(rate_function_numeric(tc.v_d * params.tau, params)) <= 1e-12
    with pytest.raises(ValueError):
        rate_function_numeric(1.0, params)


def _rate_reference(x, params):
    """I(x) at 60 digits from the exact maximiser z = e^eta of eta x - e(eta)."""
    with mpmath.workdps(60):
        p, be = mpmath.mpf(derive_params(params).p), mpmath.mpf(params.beta * params.E)
        p_plus = p / (1 + mpmath.exp(-be))
        p_minus, p_zero = p_plus * mpmath.exp(-be), 1 - p
        if abs(x) == 1.0:
            return float(-mpmath.log(p_plus if x > 0 else p_minus))
        x = mpmath.mpf(x)
        # (1-x) p_+ z^2 - x p_0 z - (1+x) p_- = 0, each root form free of cancellation
        a, b, c = (1 - x) * p_plus, x * p_zero, (1 + x) * p_minus
        root = mpmath.sqrt(b * b + 4 * a * c)
        z = (b + root) / (2 * a) if x > 0 else 2 * c / (root - b)
        return float(x * mpmath.log(z) - mpmath.log(p_minus / z + p_zero + p_plus * z))


@pytest.mark.parametrize("params", [
    CHECK_PARAMS,
    ModelParams(E=3.0, F=1.0, lam=1.0, tau=2.0, beta=11.0),
    ModelParams(E=800.0, F=1.0, lam=1.0, tau=2.0, beta=1.0),
    ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
], ids=["check-params", "small-a", "beta-E-800", "beta-E-2500"])
def test_rate_function_matches_mpmath(params):
    for x in (-1.0, -0.999, -0.5, -0.3, -0.01, 0.0, 0.3, 0.999, 1.0):
        ref = _rate_reference(x, params)
        assert math.isclose(rate_function(x, params), ref, rel_tol=TOL.rate_match)
        if abs(x) < 1.0:
            assert math.isclose(rate_function_numeric(x, params), ref, rel_tol=TOL.rate_match)


@pytest.mark.parametrize("fn", [
    lambda v: log_theta(v, CHECK_PARAMS),
    lambda v: theta(v, CHECK_PARAMS),
    lambda v: scgf(v, CHECK_PARAMS),
    lambda v: energy_cgf(3, v, CHECK_PARAMS),
    lambda v: rate_function(v, CHECK_PARAMS),
], ids=["log_theta", "theta", "scgf", "energy_cgf", "rate_function"])
def test_nan_argument_is_numerics_error(fn):
    with pytest.raises(NumericsError):
        fn(math.nan)


def test_double_legendre_recovers_scgf(params):
    # sup_x [eta x - I(x)] = e(eta) on a grid
    xs = np.linspace(-0.9999, 0.9999, 4001)
    Ix = np.array([rate_function(float(x), params) for x in xs])
    for eta in np.linspace(-1.5, 1.5, 7):
        back = np.max(eta * xs - Ix)
        assert abs(back - scgf(float(eta), params)) <= 1e-6


def test_entropy_rate_function(params):
    be = params.beta * params.E
    tc = transport_coefficients(params)
    assert abs(rate_function_entropy(-be * tc.v_d * params.tau, params)) <= 1e-12
    # phi(0) = -log theta(1/2); the symmetric point is the minimizer
    assert abs(rate_function_entropy(0.0, params)
               - (-math.log(theta(0.5, params)))) <= 1e-12
    for s in np.linspace(-1.2, 1.2, 13):
        # Legendre image of theta(1 - a) = theta(a): phi(-s) = phi(s) - s
        assert abs(rate_function_entropy(float(-s), params)
                   - (rate_function_entropy(float(s), params) - s)) <= 1e-10
        # identity with the displacement rate function
        assert abs(rate_function_entropy(float(s), params)
                   - rate_function(float(-s / be), params)) <= 1e-10
