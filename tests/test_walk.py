import math
import re
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from starkwalk import (
    TOL,
    BudgetError,
    ConfigError,
    LatticeLaw,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    WalkSample,
    apply_channel,
    bloch_coefficients,
    deformed_weights,
    energy_cgf,
    free_evolve,
    free_kernel,
    kraus_weights,
    log_theta,
    oracle_unitary,
    position_cgf,
    position_cgf_oracle,
    rate_function,
    rate_function_numeric,
    run_position_fcs,
    sample_walk,
    scgf,
    theta,
    transport_coefficients,
    walk_log_pmf,
    walk_pmf_exact,
    walk_pmf_oracle,
)
from starkwalk.verify import CHECK_PARAMS, _log_convolution_table
from starkwalk.walk import (
    _FSUM_CHUNK,
    MAX_LAW_SITES,
    MAX_TRIALS,
    SAMPLE_CHUNK,
    _fsum,
    _law_sum,
    _live_span,
    _outward_products,
    _outward_ratios,
    _place,
    _ratio_recurrence,
    log_step_kernel,
)

from conftest import (
    TEST_TOL,
    assert_law_matches_oracle,
    log_convolve_step,
    one_call_walk_tally,
    rate_function_entropy,
    same_bits,
    sequential_walk_law,
)

walk_module = sys.modules["starkwalk.walk"]

# the law's corner cases: frozen walk, parity-locked walk, p_0 = 1e-14 (the law
# alternates between heavy and light sites), no bias, p_- underflowing
LAW_PARAMS = {
    "check-params": CHECK_PARAMS,
    "p-zero": ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0),
    "p-one": ModelParams(E=1.0, F=1.0, lam=math.pi / 2, tau=1.0, beta=1.0),
    "p-near-one": ModelParams(E=1.0, F=1.0, lam=math.pi / 2 - 1e-7, tau=1.0, beta=0.0),
    "beta-E-0": ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0),
    "beta-E-800": ModelParams(E=800.0, F=1.0, lam=1.0, tau=2.0, beta=1.0),
}


def test_transport_reference_point(params):
    tc = transport_coefficients(params)
    # frozen from 40-digit evaluation
    assert abs(tc.v_d - 0.16070708734107652) < 1e-15
    assert abs(tc.D - 0.09259365419350199) < 1e-15
    assert tc.mobility is None


def test_transport_infinite_temperature():
    tc = transport_coefficients(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    assert tc.v_d == 0.0
    p_minus, _, p_plus = kraus_weights(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    p = p_plus + p_minus
    assert abs(tc.D - p / 2.0) <= 1e-15


def test_einstein_relation_near_zero_force():
    p = ModelParams(E=1e-3, F=1e-3, lam=0.3, tau=1.0, beta=1.0)
    tc = transport_coefficients(p)
    assert tc.mobility is not None
    assert abs(tc.D * p.beta / tc.mobility - 1.0) <= 1e-6


def test_single_step_law(params):
    law = walk_pmf_exact(1, params)
    assert np.array_equal(law.pmf, kraus_weights(params))


def test_two_step_enumeration(params):
    p_minus, p_zero, p_plus = kraus_weights(params)
    law = walk_pmf_exact(2, params)
    # P[S_2 = 0] = p_0^2 + 2 p_+ p_-
    assert abs(law.pmf[2] - (p_zero**2 + 2.0 * p_plus * p_minus)) <= 1e-15
    assert abs(law.pmf[0] - p_minus**2) <= 1e-16
    assert abs(law.pmf[4] - p_plus**2) <= 1e-16


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


# the powering oracle's own check: the check parameters, p_- underflowing, and
# p_0 = 1e-8, where the law alternates between heavy and light sites
POWERING_PARAMS = {
    "check-params": CHECK_PARAMS,
    "beta-E-800": ModelParams(E=800.0, F=1.0, lam=1.0, tau=2.0, beta=1.0),
    "p-near-one": ModelParams(E=1.0, F=1.0, lam=math.pi / 2 - 1e-4, tau=1.0, beta=0.3),
}


@pytest.mark.parametrize("params", POWERING_PARAMS.values(), ids=POWERING_PARAMS.keys())
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 50, 2000])
def test_powering_oracle_matches_sequential_convolution(params, n):
    law, oracle = walk_pmf_oracle(n, params), sequential_walk_law(n, params)
    assert law.pmf.shape == oracle.pmf.shape == (2 * n + 1,)
    assert_law_matches_oracle(law, oracle)


@pytest.mark.parametrize("params", LAW_PARAMS.values(), ids=LAW_PARAMS.keys())
def test_law_matches_convolution_oracle(params):
    for n in (0, 1, 2, 50, 200, 2000):
        law, oracle = walk_pmf_exact(n, params), walk_pmf_oracle(n, params)
        assert law.pmf.shape == oracle.pmf.shape == (2 * n + 1,)
        assert_law_matches_oracle(law, oracle)


@pytest.mark.parametrize("n", [2, 3, 50, 2000])
def test_impossible_sites_are_exact_zeros(n):
    frozen = LAW_PARAMS["p-zero"]
    delta = np.eye(2 * n + 1)[n]
    assert np.array_equal(walk_pmf_exact(n, frozen).pmf, delta)
    assert np.array_equal(walk_log_pmf(n, frozen), np.where(delta == 1.0, 0.0, -np.inf))
    # p = 1 never stays put: S_n has the parity of n
    locked = LAW_PARAMS["p-one"]
    assert not walk_pmf_exact(n, locked).pmf[1::2].any()
    assert np.all(walk_log_pmf(n, locked)[1::2] == -math.inf)
    assert np.all(np.isfinite(walk_log_pmf(n, locked)[0::2]))


@pytest.mark.parametrize("params", [
    *LAW_PARAMS.values(), ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
], ids=[*LAW_PARAMS.keys(), "beta-E-2500"])
def test_log_law_matches_log_convolution(params):
    logk = log_step_kernel(params)
    logp = np.array([0.0])
    for n in range(201):
        if n:
            logp = log_convolve_step(logp, logk)
        if n in (0, 1, 2, 3, 50, 200):
            law = walk_log_pmf(n, params)
            finite = np.isfinite(logp)
            assert np.array_equal(np.isfinite(law), finite)
            assert np.all(law[~finite] == -math.inf)
            gap = np.abs(law[finite] - logp[finite]) / np.maximum(1.0, np.abs(logp[finite]))
            assert np.max(gap) <= TOL.walk_law_rel


@pytest.mark.parametrize("params", [
    *LAW_PARAMS.values(), ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
], ids=[*LAW_PARAMS.keys(), "beta-E-2500"])
def test_log_convolution_table_rows_are_the_step_by_step_convolution(params):
    # check 7's table: row n is the n-th log_convolve_step centred on the middle column,
    # bit for bit, and -inf off its support; -inf log weights (p = 0, p = 1) included
    steps = 60
    logk = log_step_kernel(params)
    table = _log_convolution_table(logk, steps)
    assert table.shape == (steps + 1, 2 * steps + 3)
    c, logp = steps + 1, np.array([0.0])
    for n in range(steps + 1):
        if n:
            logp = log_convolve_step(logp, logk)
        assert same_bits(table[n, c - n:c + n + 1], logp)
        assert np.all(table[n, :c - n] == -math.inf) and np.all(table[n, c + n + 1:] == -math.inf)


def test_log_law_fluctuation_identity_at_n_2000():
    # the log-space convolution misses this identity at n = 2000 by 1.1e-10
    params = ModelParams(E=2.04, F=1.0, lam=0.49, tau=1.0, beta=1.01)
    n, be = 2000, params.beta * params.E
    logp = walk_log_pmf(n, params)
    k = np.arange(1, n + 1)
    assert np.max(np.abs(logp[n - k] - (logp[n + k] - be * k))) <= TOL.fluctuation_rel


def _multinomial_reference(n, s, params):
    """P[S_n = s] at 50 digits: the sum over N_- of the trinomial multinomial terms."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        p, be = mpmath.mpf(params.p), mpmath.mpf(params.beta * params.E)
        p_plus = p / (1 + mpmath.exp(-be))
        p_minus, p_zero = p_plus * mpmath.exp(-be), 1 - p
        m = max(0, -s)                    # N_- = m, N_+ = m + s, N_0 = n - 2m - s
        term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(m + s + 1)
                          - mpmath.loggamma(m + 1) - mpmath.loggamma(n - 2 * m - s + 1)
                          + (m + s) * mpmath.log(p_plus) + m * mpmath.log(p_minus)
                          + (n - 2 * m - s) * mpmath.log(p_zero))
        q = p_plus * p_minus / p_zero**2
        terms = []
        while n - 2 * m - s >= 0:
            terms.append(term)
            zeros = n - 2 * m - s
            term *= zeros * (zeros - 1) * q / ((m + s + 1) * (m + 1))
            m += 1
        return mpmath.fsum(terms)


def test_law_matches_multinomial_spot_values():
    mpmath = pytest.importorskip("mpmath")
    params, n = CHECK_PARAMS, 10_000
    tc = transport_coefficients(params)
    mean, sigma = n * tc.v_d * params.tau, math.sqrt(n * 2.0 * tc.D * params.tau)
    pmf, logp = walk_pmf_exact(n, params).pmf, walk_log_pmf(n, params)
    mode = int(np.argmax(pmf)) - n
    for s in (mode, round(mean - 3.0 * sigma), round(mean + 3.0 * sigma), -n // 2, n // 2):
        ref = _multinomial_reference(n, s, params)
        log_ref = float(mpmath.log(ref))
        assert abs(logp[s + n] - log_ref) <= TOL.walk_law_rel * max(1.0, abs(log_ref))
        if ref >= sys.float_info.min:
            assert math.isclose(pmf[s + n], float(ref), rel_tol=TOL.walk_law_rel)


def test_law_at_n_100000_mass_and_moments():
    params, n = CHECK_PARAMS, 100_000
    tc = transport_coefficients(params)
    law = walk_pmf_exact(n, params)
    assert abs(math.fsum(law.pmf) - 1.0) <= 1e-14
    mean = math.fsum(law.dx * law.pmf)
    var = math.fsum((law.dx - mean) ** 2 * law.pmf)    # two passes
    assert math.isclose(mean, n * tc.v_d * params.tau, rel_tol=TOL.walk_moments_rel)
    assert math.isclose(var, n * 2.0 * tc.D * params.tau, rel_tol=TOL.walk_moments_rel)


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
    assert abs(logp[0] - 200.0 * math.log(kraus_weights(params)[0])) <= 1e-9
    assert logp[0] < -730.0


def test_sampling_reproducible(params):
    a = sample_walk(100, 5000, seed=42, params=params)
    b = sample_walk(100, 5000, seed=42, params=params)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.counts, b.counts)
    c = sample_walk(100, 5000, seed=43, params=params)
    assert not (np.array_equal(a.values, c.values) and np.array_equal(a.counts, c.counts))


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


@pytest.mark.parametrize("n, trials", [(10**9, 1), (10**5, 1), (100, 1000)],
                         ids=["check-4-walk", "long-walk", "per-trial"])
def test_grand_mean_has_the_law_of_one_long_walk(n, trials):
    # the step counts of T walks of n steps sum to Multinomial(nT, p): the grand mean of
    # the per-trial route and S_N / T of one N = nT-step walk have one law, N(v_d, 2D/(N tau));
    # z = (grand mean / (n tau) - v_d) / sigma over seeds 0..399
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    sigma = math.sqrt(2.0 * tc.D / (n * trials * params.tau))
    means = np.array([sample_walk(n, trials, seed, params).mean() for seed in range(400)])
    z = (means / (n * params.tau) - tc.v_d) / sigma
    assert abs(z.mean()) <= 4.0 / math.sqrt(z.size)
    assert abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / z.size)


@pytest.mark.parametrize("n, values, counts, exact", [
    # sum(values * counts) = 1.605e19: an int64 dot wraps to a mean of -2.397e9
    (10**11, [16_000_000_000, 16_100_000_000], [500_000_000, 500_000_000],
     Fraction(16_050_000_000)),
    # 3 * 2^62 - 1 wraps too, and its quotient by 3 is rounded once
    (2**62, [2**62 - 1, 2**62], [1, 2], Fraction(3 * 2**62 - 1, 3)),
], ids=["1.6e19", "3*2^62"])
def test_sample_mean_is_exact_past_int64(n, values, counts, exact):
    sample = WalkSample(n=n, trials=sum(counts), seed=0, values=np.array(values),
                        counts=np.array(counts))
    assert sample.mean() == float(exact)


def test_sample_mean_below_2_53_is_the_int64_dot():
    # the exact sum over the trials, rounded once: below 2^53 the int64 dot's bits
    sample = sample_walk(10_000, 100_003, 7, CHECK_PARAMS)
    total = sum(int(v) * int(c) for v, c in zip(sample.values, sample.counts))
    assert sample.mean() == float(Fraction(total, sample.trials))
    assert sample.mean() == float(np.dot(sample.values, sample.counts) / sample.trials)


# p = 0 (lam = 0: the walk never moves) and p = 1.0 exactly (no pause step)
_SAMPLE_PARAMS = {
    "check": CHECK_PARAMS,
    "frozen": ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0),
    "locked": ModelParams(E=1.0, F=1.0, lam=math.pi / 2, tau=1.0, beta=1.0),
}


def test_sample_parameter_corners_are_exact():
    assert _SAMPLE_PARAMS["frozen"].p == 0.0 and _SAMPLE_PARAMS["locked"].p == 1.0


@pytest.mark.parametrize("key", list(_SAMPLE_PARAMS))
@pytest.mark.parametrize("n", [0, 1, 50, 10_000])
@pytest.mark.parametrize("trials", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1,
                                    3 * SAMPLE_CHUNK + 5])
def test_streamed_sample_is_the_one_call_tally(key, n, trials):
    # chunked draws read the one-call Philox stream: values and counts bit-equal
    params = _SAMPLE_PARAMS[key]
    sample = sample_walk(n, trials, seed=trials + n, params=params)
    values, counts = one_call_walk_tally(n, trials, trials + n, params)
    assert np.array_equal(sample.values, values) and sample.values.dtype == values.dtype
    assert np.array_equal(sample.counts, counts) and sample.counts.dtype == counts.dtype
    assert int(sample.counts.sum()) == trials


def test_sample_memory_is_independent_of_trials():
    # one chunk of step counts and the tally span are held, not the 10^7 x 3 draws
    tracemalloc.start()
    try:
        sample_walk(10_000, 10**7, 7, CHECK_PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("n, trials, error, limit", [
    (100, MAX_TRIALS + 1, BudgetError, f"{MAX_TRIALS} trials"),
    (100, 2**63, BudgetError, f"{MAX_TRIALS} trials"),
    (2**63, 10, ConfigError, "n <= 2^63 - 1"),
])
def test_sample_size_refusals_come_before_any_draw(monkeypatch, n, trials, error, limit):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was built before the refusal")

    monkeypatch.setattr(np.random, "Generator", no_draw)
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(limit)):
        sample_walk(n, trials, 0, CHECK_PARAMS)
    assert time.perf_counter() - start < 1.0


def test_sample_tally_budget_is_its_span(monkeypatch):
    # the budget admits a tally exactly as wide as the sampled span and refuses one site less
    values, counts = one_call_walk_tally(10_000, 3 * SAMPLE_CHUNK, 5, CHECK_PARAMS)
    span = int(values[-1] - values[0]) + 1
    monkeypatch.setattr(walk_module, "MAX_TALLY_SITES", span)
    assert np.array_equal(sample_walk(10_000, 3 * SAMPLE_CHUNK, 5, CHECK_PARAMS).counts, counts)
    monkeypatch.setattr(walk_module, "MAX_TALLY_SITES", span - 1)
    with pytest.raises(BudgetError, match=f"tally budget of {span - 1} sites"):
        sample_walk(10_000, 3 * SAMPLE_CHUNK, 5, CHECK_PARAMS)


@pytest.mark.parametrize("build", [
    walk_pmf_exact, walk_log_pmf, walk_pmf_oracle,
    lambda n, params: run_position_fcs(n, _NAN_STATE, params),
], ids=["exact", "log", "oracle", "position-fcs"])
@pytest.mark.parametrize("n", [MAX_LAW_SITES // 2, 2**63], ids=["max-plus-one-site", "2**63"])
def test_a_law_past_its_site_budget_is_refused_before_any_work(build, n):
    # 2n + 1 dense sites: one site past the budget and n = 2^63 are refused at once,
    # with nothing allocated (10^9 asked numpy for 14.9 GiB, 2^63 ran on unrefused)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"past the budget of {MAX_LAW_SITES} sites"):
            build(n, CHECK_PARAMS)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 2**16, (elapsed, peak)


@pytest.mark.parametrize("values", [
    lambda n: walk_pmf_exact(n, CHECK_PARAMS).pmf,
    lambda n: walk_log_pmf(n, CHECK_PARAMS),
    lambda n: walk_pmf_oracle(n, CHECK_PARAMS).pmf,
], ids=["exact", "log", "oracle"])
def test_the_law_site_budget_admits_its_edge(monkeypatch, values):
    # a law of exactly MAX_LAW_SITES sites is built as without the budget; one site more
    # is refused
    whole = values(10)
    monkeypatch.setattr(walk_module, "MAX_LAW_SITES", 21)
    assert np.array_equal(values(10), whole)
    with pytest.raises(BudgetError, match=re.escape("(n <= 10)")):
        values(11)


def test_sampling_argument_errors(params):
    with pytest.raises(ValueError):
        sample_walk(10, 0, seed=0, params=params)
    with pytest.raises(ValueError):
        sample_walk(-1, 10, seed=0, params=params)


def test_scgf_basics(params):
    assert scgf(0.0, params) == 0.0
    p_minus, p_zero, p_plus = kraus_weights(params)
    be = params.beta * params.E
    for eta in np.linspace(-2.0, 2.0, 17):
        assert abs(scgf(-be - eta, params) - scgf(eta, params)) <= 1e-12
        # the log of the one-step moment E[e^{eta S_1}] from the Kraus weights
        moment = p_minus * math.exp(-eta) + p_zero + p_plus * math.exp(eta)
        assert abs(scgf(eta, params) - math.log(moment)) <= 1e-14


def test_scgf_far_tails(params):
    # e(eta) -> |eta| + log p_+- without overflow; the FT symmetry survives
    p_minus, _, p_plus = kraus_weights(params)
    be = params.beta * params.E
    assert math.isclose(scgf(800.0, params), 800.0 + math.log(p_plus),
                        rel_tol=TEST_TOL.scgf_symmetry)
    assert math.isclose(scgf(-800.0, params), 800.0 + math.log(p_minus),
                        rel_tol=TEST_TOL.scgf_symmetry)
    assert math.isclose(scgf(-be - 800.0, params), scgf(800.0, params),
                        rel_tol=TEST_TOL.scgf_symmetry)


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
    p_minus, p_zero, p_plus = kraus_weights(p)
    for eta in (-1.0, 0.3, 2.0):
        direct = math.log(p_minus * math.exp(-eta) + p_zero + p_plus * math.exp(eta))
        assert abs(scgf(eta, p) - direct) <= 1e-14


def test_rate_function_properties(params):
    tc = transport_coefficients(params)
    assert abs(rate_function([tc.v_d * params.tau], params)[0]) <= 1e-15
    # frozen: I(0) = -log theta(1/2)
    assert abs(rate_function([0.0], params)[0] - 0.07716780505219559) < 1e-15
    be = params.beta * params.E
    xs = np.linspace(-0.95, 0.95, 39)
    # the closed form is built on this symmetry, so the Legendre oracle checks it
    numeric, mirrored = rate_function_numeric(xs, params), rate_function_numeric(-xs, params)
    assert np.all(np.abs(numeric - (-be * xs + mirrored)) <= 1e-10)
    # strict convexity via second differences
    second = np.diff(rate_function(xs, params), 2)
    assert np.all(second > 0.0)
    assert rate_function([1.5, -1.0001], params).tolist() == [math.inf, math.inf]


def test_closed_form_rate_at_p_one_refuses_inside_the_interval():
    # p = 1 never stays put: only the ends x = +-1 have a closed form
    locked = LAW_PARAMS["p-one"]
    assert rate_function([1.0], locked)[0] == -log_step_kernel(locked)[2]
    with pytest.raises(NumericsError, match="needs p < 1"):
        rate_function([0.5], locked)


def test_rate_function_boundary_limits(params):
    p_minus, _, p_plus = kraus_weights(params)
    at_end, at_start, inside = rate_function([1.0, -1.0, 1.0 - 1e-9], params).tolist()
    assert abs(at_end + math.log(p_plus)) <= 1e-12
    assert abs(at_start + math.log(p_minus)) <= 1e-12
    # continuity into the endpoint
    assert abs(inside - at_end) <= 1e-6


def test_numeric_rate_matches_closed_form(params):
    xs = np.linspace(-0.999, 0.999, 81)
    assert np.all(np.abs(rate_function(xs, params) - rate_function_numeric(xs, params)) <= 1e-8)
    tc = transport_coefficients(params)
    assert abs(rate_function_numeric([tc.v_d * params.tau], params)[0]) <= 1e-12
    with pytest.raises(ValueError):
        rate_function_numeric([1.0], params)


def _rate_reference(x, params):
    """I(x) at 60 digits from the exact maximiser z = e^eta of eta x - e(eta)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        p, be = mpmath.mpf(params.p), mpmath.mpf(params.beta * params.E)
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


# the rate function's 60-digit reference sets
RATE_PARAMS = {
    "check-params": CHECK_PARAMS,
    "small-a": ModelParams(E=3.0, F=1.0, lam=1.0, tau=2.0, beta=11.0),
    "beta-E-800": ModelParams(E=800.0, F=1.0, lam=1.0, tau=2.0, beta=1.0),
    "beta-E-2500": ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
}
# beta E = 9e13, p = 1.2e-28
HUGE_BETA_E = ModelParams(E=9e13, F=1.0, lam=0.5, tau=1e-13, beta=1.0)


@pytest.mark.parametrize("params", RATE_PARAMS.values(), ids=RATE_PARAMS.keys())
def test_rate_function_matches_mpmath(params):
    grid = np.linspace(-0.999, 0.999, 101).tolist()
    xs = [-1.0, -0.999, -0.5, -0.3, -0.01, 0.0, 0.3, 0.999, 1.0, *grid]
    closed = rate_function(xs, params).tolist()
    numeric = iter(rate_function_numeric([x for x in xs if abs(x) < 1.0], params).tolist())
    for x, rate in zip(xs, closed):
        ref = _rate_reference(x, params)
        assert math.isclose(rate, ref, rel_tol=TOL.rate_match)
        if abs(x) < 1.0:
            assert math.isclose(next(numeric), ref, rel_tol=TOL.rate_match)


def test_rate_oracle_matches_closed_form_at_huge_beta_E():
    # the Legendre oracle's tilted q_- needs -beta E - eta as one exact difference;
    # l_- - eta would cancel terms of size beta E
    params = HUGE_BETA_E
    xs = np.linspace(-0.999, 0.999, 41)
    for numeric, closed in zip(rate_function_numeric(xs, params).tolist(),
                               rate_function(xs, params).tolist()):
        assert math.isclose(numeric, closed, rel_tol=TOL.rate_match)


# beta E = 3.6e15, where one ulp of eta ~ -beta E is 0.5 and moves q_- by e^0.5
ULP_HALF_BETA_E = ModelParams(E=90458076926983.64, F=6.7136412086923185, lam=-2.174414705319727,
                              tau=2.0504923415950067, beta=39.961278645291664)


@pytest.mark.parametrize("x", [-7.46e-30, -1.97e-17, -1e-10])
def test_rate_oracle_resolves_eta_at_an_ulp_of_order_one(x):
    # a Newton step of a few ulps of eta is still a step: stopping on it gave -0.0344
    # at x = -7.46e-30, where I is 2.7e-14
    assert math.isclose(rate_function_numeric([x], ULP_HALF_BETA_E)[0],
                        rate_function([x], ULP_HALF_BETA_E)[0], rel_tol=TOL.rate_match)


@pytest.mark.parametrize("x", [1e-25, 1e-17, 1e-12])
def test_rate_keeps_an_R_below_an_ulp_of_one(x):
    # a^2 underflows to 0 here, so R = x: log((1 + R) / (1 - x^2)) rounded 1 + R and
    # gave relative errors of 0.36, 4.7e-2 and 2.7e-6 at these three points
    assert math.isclose(rate_function([x], ULP_HALF_BETA_E)[0],
                        _rate_reference(x, ULP_HALF_BETA_E), rel_tol=1e-14)


def test_rate_oracle_refuses_an_eta_it_cannot_resolve():
    # beta E = 1.6e18: the ulp of eta near -beta E is 256, and no double reaches the sup
    params = ModelParams(E=2.668748208420642e16, F=0.05129723267391656, lam=0.24024763513490044,
                         tau=0.01430642217090306, beta=58.27553263444768)
    with pytest.raises(NumericsError, match="finer than an ulp"):
        rate_function_numeric([-9.791670809925605e-33], params)


@pytest.mark.parametrize("params", [*RATE_PARAMS.values(), HUGE_BETA_E],
                         ids=[*RATE_PARAMS, "beta-E-9e13"])
def test_rate_oracle_on_an_array_equals_each_one_entry_call(params):
    # the grid of `rate --n 400`, solved in lock-step: every entry bit for bit its one-entry call
    grid = np.linspace(-0.999, 0.999, 401)
    numeric = rate_function_numeric(grid, params)
    assert isinstance(numeric, np.ndarray) and numeric.shape == grid.shape
    assert numeric.tolist() == [rate_function_numeric([x], params)[0] for x in grid.tolist()]
    assert rate_function_numeric((0.3,), params).tolist() == rate_function_numeric(
        np.array([0.3]), params).tolist()
    assert rate_function_numeric(np.empty(0), params).shape == (0,)
    assert rate_function(np.empty(0), params).shape == (0,)


def test_rate_oracle_lanes_that_stop_raise_no_warning():
    # lanes that stop after one step (x at the drift) ride along with lanes that take
    # many (x near the ends at beta E = 9e13); -W error turns any warning into a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (CHECK_PARAMS, HUGE_BETA_E):
            v = transport_coefficients(params).v_d * params.tau
            xs = np.array([v, -0.999999, v, 0.999999, 0.0, v])
            assert np.array_equal(rate_function_numeric(xs, params),
                                  [rate_function_numeric([x], params)[0] for x in xs.tolist()])


def test_rate_oracle_refuses_a_bracket_past_a_double_without_a_warning():
    # the frozen walk (p = 0) has e' = 0 at every eta: x = 0 is solved, x = 0.5 doubles
    # its bracket to inf, which is refused as one NumericsError for the whole array
    frozen = ModelParams(E=2.0, F=2.0, lam=0.0, tau=1.0, beta=1.0)
    assert rate_function_numeric([0.0], frozen).tolist() == [0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="cannot bracket Legendre sup at x=0.5"):
            rate_function_numeric(np.array([0.0, 0.5]), frozen)


@pytest.mark.parametrize("x", [2.514876900612406e-37, 1.6480220197333004e-91, 5e-324, -1e-20])
@pytest.mark.parametrize("E,beta", [(0.0, 1.0), (2.0, 0.0)])
def test_rate_oracle_at_a_tiny_x_and_beta_E_zero(E, beta, x):
    # e' = q_+ - q_- cancels to 0 near eta = 0: Newton stops once e' - x is within
    # its rounding, instead of creeping by x / e'' for 200 steps and refusing
    params = ModelParams(E=E, F=1.0, lam=1.0, tau=1.0, beta=beta)
    assert math.isclose(rate_function_numeric([x], params)[0], rate_function([x], params)[0],
                        rel_tol=TOL.rate_match, abs_tol=TOL.rate_match)


def test_rate_oracle_refuses_an_array_entry_outside_the_open_interval():
    with pytest.raises(ConfigError, match="strictly inside"):
        rate_function_numeric(np.array([0.0, 1.0]), CHECK_PARAMS)
    with pytest.raises(ConfigError, match="strictly inside"):
        rate_function_numeric(np.array([0.0, math.nan]), CHECK_PARAMS)


_NAN_WINDOW = LatticeWindow(-12, 12, -12, 12)
_NAN_STATE = ParticleDensityMatrix.eigenstate(_NAN_WINDOW, 0)
_WALK_LAW = walk_pmf_exact(5, CHECK_PARAMS)
_POSITION_FCS = run_position_fcs(3, _NAN_STATE, CHECK_PARAMS)


_INFINITIES = (math.inf, -math.inf)


@pytest.mark.parametrize("fn,also", [
    (lambda v: log_theta(v, CHECK_PARAMS), ()),
    (lambda v: theta(v, CHECK_PARAMS), ()),
    (lambda v: scgf(v, CHECK_PARAMS), ()),
    (lambda v: energy_cgf(3, v, CHECK_PARAMS), ()),
    (lambda v: rate_function([v], CHECK_PARAMS), ()),
    (lambda v: deformed_weights(v, CHECK_PARAMS), _INFINITIES),
    (lambda v: apply_channel(_NAN_STATE, v, CHECK_PARAMS), _INFINITIES),
    (lambda v: position_cgf_oracle(2, [v], _NAN_STATE, CHECK_PARAMS), _INFINITIES),
    (_WALK_LAW.mgf, ()),
    (_POSITION_FCS.log_mgf, ()),
    (lambda v: _POSITION_FCS.window_probability(-1.0, v), ()),
    (lambda v: _POSITION_FCS.ft_log_ratio(0.1, 0.02, v), ()),
    (lambda v: position_cgf(5, v, CHECK_PARAMS), ()),
    (lambda v: oracle_unitary(v, CHECK_PARAMS, _NAN_WINDOW), ()),
    (lambda v: free_evolve(_NAN_STATE, v, CHECK_PARAMS), ()),
    (lambda v: bloch_coefficients([0.5, v], CHECK_PARAMS.F), ()),
    (lambda v: free_kernel(v, CHECK_PARAMS), ()),
], ids=["log_theta", "theta", "scgf", "energy_cgf", "rate_function", "deformed_weights",
        "apply_channel", "position_cgf_oracle", "walk_mgf", "position_log_mgf",
        "window_probability", "ft_log_ratio_tau", "position_cgf", "oracle_unitary",
        "free_evolve", "bloch_coefficients", "free_kernel"])
def test_nan_argument_is_numerics_error(fn, also):
    # and the routes through `deformed_weights` refuse an infinite exponent too, where one
    # weight is inf and the other 0, so a step would form inf * 0; a NaN is not called
    # an overflow
    for value in (math.nan, *also):
        with pytest.raises(NumericsError) as refused:
            fn(value)
        assert math.isinf(value) or "overflow" not in str(refused.value)


def test_window_probability_takes_infinite_bounds():
    assert _WALK_LAW.window_probability(-math.inf, math.inf) == float(np.sum(_WALK_LAW.pmf))
    assert _WALK_LAW.window_probability(math.inf, math.inf) == 0.0


@pytest.mark.parametrize("fn,eta", [
    (_WALK_LAW.mgf, 1e3), (_WALK_LAW.mgf, math.inf), (_WALK_LAW.mgf, -math.inf),
    (_POSITION_FCS.log_mgf, math.inf), (_POSITION_FCS.log_mgf, 1e308),
], ids=["walk-1e3", "walk-inf", "walk-minus-inf", "position-log-inf", "position-log-1e308"])
def test_moment_generating_function_past_a_double_is_numerics_error(fn, eta):
    # the value overflows a double or is inf * 0: refused, not a numpy warning
    with pytest.raises(NumericsError, match="not a finite double"):
        fn(eta)


@pytest.mark.parametrize("pmf", [np.zeros(7), np.zeros(0)], ids=["zeros", "empty"])
def test_log_mgf_of_a_law_without_mass_is_numerics_error(pmf):
    # no positive entry leaves no term to sum: refused, not numpy's maximum of nothing
    law = LatticeLaw(n=3, first=-3, pmf=pmf)
    for fn in (law.log_mgf, law.mgf):
        with pytest.raises(NumericsError, match="no positive probability"):
            fn(0.5)


@pytest.mark.parametrize("eta", [3, 2**62, -2**63, 2**63])
@pytest.mark.parametrize("law", [_WALK_LAW, _POSITION_FCS], ids=["walk", "position"])
def test_an_integer_eta_is_taken_as_its_float(law, eta):
    # an int eta times the int64 sites would wrap (2**62 * 3) or refuse to convert (2**63)
    assert law.log_mgf(eta) == law.log_mgf(float(eta))


def test_walk_mgf_skips_the_underflowed_tail():
    # at n = 1000 the far tail of the law is an exact 0 where e^{eta s} is e^1000:
    # the factored sum drops it instead of forming inf * 0
    n = 1000
    law = walk_pmf_exact(n, CHECK_PARAMS)
    assert law.pmf[0] == 0.0
    want = math.exp(n * scgf(1.0, CHECK_PARAMS))
    assert abs(law.mgf(1.0) / want - 1.0) <= 1e-12


def test_double_legendre_recovers_scgf(params):
    # sup_x [eta x - I(x)] = e(eta) on a grid
    xs = np.linspace(-0.9999, 0.9999, 4001)
    Ix = rate_function(xs, params)
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
        # against the Legendre oracle of the displacement rate function
        assert abs(rate_function_entropy(float(s), params)
                   - rate_function_numeric([float(-s / be)], params)[0]) <= 1e-10


def test_chunked_fsum_is_correctly_rounded():
    # exact cancellation across chunk boundaries: only a correctly rounded
    # sum over the whole array returns the small terms
    rng = np.random.default_rng(5)
    for size in (0, 1, _FSUM_CHUNK - 1, _FSUM_CHUNK, 3 * _FSUM_CHUNK + 7):
        x = rng.random(size)
        assert _fsum(x) == math.fsum(x)
    x = np.zeros(2 * _FSUM_CHUNK + 3)
    x[0], x[_FSUM_CHUNK + 1], x[-1], x[5] = 1e100, -1e100, 1.0, 0.5
    assert _fsum(x) == 1.5


def _sum_params():
    rng = np.random.default_rng(14)
    drawn = [ModelParams(E=float(rng.uniform(0.1, 5.0)), F=float(rng.uniform(0.5, 2.0)),
                         lam=float(rng.uniform(0.05, 1.5)), tau=float(rng.uniform(0.2, 2.0)),
                         beta=float(rng.uniform(0.0, 3.0))) for _ in range(6)]
    near_one = ModelParams(E=1.0, F=1.0, lam=math.pi / 2 - 1e-4, tau=1.0, beta=0.3)
    return list(LAW_PARAMS.values()) + [near_one] + drawn


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000, 20000])
def test_head_sum_is_the_whole_support_sum(n):
    # the law relative to its mode, linear and as exponentials of the log
    # route: summing the head alone, guarded, is fsum over every site
    for params in _sum_params():
        logk = log_step_kernel(params)
        sites, down, up = _outward_ratios(n, logk)
        rel = np.concatenate([_outward_products(down)[:0:-1], _outward_products(up)])
        log_rel = np.concatenate([np.cumsum(down)[::-1], [0.0], np.cumsum(up)])
        for x in (rel, np.exp(log_rel)):
            assert _law_sum(x) == _fsum(x)
        if n != 1:
            law = walk_pmf_exact(n, params).pmf
            assert np.array_equal(law[sites], rel / _fsum(rel))
            log_law = walk_log_pmf(n, params)
            assert np.array_equal(log_law[sites], log_rel - math.log(_fsum(np.exp(log_rel))))


def test_head_sum_falls_back_near_a_rounding_tie():
    # 1 + 2^-53 is a tie that rounds to 1; the 1e-300 below the floor lifts
    # the true sum past it, which only the whole sum sees
    x = np.array([1.0, 2.0 ** -53, 1e-300])
    assert _fsum(x[:2]) == 1.0
    assert _law_sum(x) == 1.0 + 2.0 ** -52 == math.fsum(x.tolist())


@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_sampled_tally_is_the_sorted_unique_tally(params, n):
    for seed in (0, 3, 7, 11):
        sample = sample_walk(n, 2000, seed=seed, params=params)
        rng = np.random.Generator(np.random.Philox(seed))
        steps = rng.multinomial(n, kraus_weights(params), size=2000)
        values, counts = np.unique(steps[:, 2] - steps[:, 0], return_counts=True)
        assert np.array_equal(sample.values, values) and sample.values.dtype == values.dtype
        assert np.array_equal(sample.counts, counts) and sample.counts.dtype == counts.dtype


def test_walk_law_refuses_where_its_log_ratios_overflow():
    # the log ratios between neighbouring sites reach beta E, their sums ~n beta E:
    # 3e307 at beta E = 1e307 is finite, at beta E = 1e308 or inf they overflow
    def at(beta):
        return ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=beta)
    law = walk_pmf_exact(3, at(5e306)).pmf
    assert np.all(law[:3] == 0.0) and abs(law.sum() - 1.0) <= 1e-15
    assert np.array_equal(walk_log_pmf(3, at(5e306))[:3], [-3e307, -2e307, -1e307])
    # p = 1 takes the binomial ratios, whose log-weight term beta E overflows as well
    locked = ModelParams(E=1.0, F=1.0, lam=math.pi / 2, tau=1.0, beta=1e308)
    for params in (at(5e307), at(1e308), locked):
        for route in (walk_pmf_exact, walk_log_pmf):
            with pytest.raises(NumericsError, match="log ratios overflow"):
                route(3, params)


def _full_recurrence_law(n, params):
    """The linear law on every reachable site, its ratios from the j = 0 start."""
    sites, down, up = _outward_ratios(n, log_step_kernel(params))
    rel = np.concatenate([_outward_products(down)[:0:-1], _outward_products(up)])
    return _place(n, sites, rel / _law_sum(rel), 0.0)


SMALL_P = ModelParams(E=2.0, F=1.0, lam=0.05, tau=1.0, beta=1.0)
NEAR_ONE = {"p-near-one": LAW_PARAMS["p-near-one"],
            "near-one-1e-4": ModelParams(E=1.0, F=1.0, lam=math.pi / 2 - 1e-4, tau=1.0, beta=0.3)}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000, 20_000, 100_000])
def test_live_span_law_is_the_full_recurrence_law(n):
    # ratios, products and sum on the live span only, from a certified restart,
    # and exact zeros elsewhere: bit for bit the law of the j = 0 recurrence
    for params in [*_sum_params(), SMALL_P]:
        law = walk_pmf_exact(n, params).pmf
        if n == 1:
            assert np.array_equal(law, kraus_weights(params))
        else:
            assert np.array_equal(law, _full_recurrence_law(n, params))


@pytest.fixture
def recurrence_plan(monkeypatch):
    """plan(n, params): the live span of S_n and the start that `_ratio_recurrence`
    receives when `_outward_ratios` forms the ratios on it, as (sites, start)."""
    starts = []
    real = walk_module._ratio_recurrence
    monkeypatch.setattr(walk_module, "_ratio_recurrence",
                        lambda *a: starts.append(a[4]) or real(*a))

    def plan(n, params):
        logk = log_step_kernel(params)
        sites = _live_span(n, logk, params.beta * params.E)
        starts.clear()
        _outward_ratios(n, logk, sites)
        assert len(starts) == 1
        return sites, starts[0]
    return plan


def test_live_span_law_at_n_10_6(recurrence_plan):
    n = 10**6
    sites, start = recurrence_plan(n, CHECK_PARAMS)
    # 33,069 nonzero sites; the recurrence restarts far past j = 0
    assert sites.stop - sites.start < 40_000 and start > 800_000
    law = walk_pmf_exact(n, CHECK_PARAMS).pmf
    assert np.array_equal(law, _full_recurrence_law(n, CHECK_PARAMS))
    assert np.count_nonzero(law) == 33_069


@pytest.mark.parametrize("n", [2000, 20_000, 100_000])
def test_near_p_one_takes_the_j0_start(n, recurrence_plan):
    # rho is within ~1e-8 of 1 there: no restart can be certified in time
    for params in NEAR_ONE.values():
        sites, start = recurrence_plan(n, params)
        assert sites is not None and start == 0
    for params in (CHECK_PARAMS, SMALL_P):
        assert recurrence_plan(n, params)[1] > 0


def test_whole_support_live_reads_only_the_two_ends(monkeypatch, recurrence_plan):
    # where n I(+-1) is under the floor the envelope is not searched
    xs = []
    real = walk_module._rate
    monkeypatch.setattr(walk_module, "_rate", lambda x, *a: xs.append(x) or real(x, *a))
    for n in (2, 50, 200):
        xs.clear()
        assert recurrence_plan(n, CHECK_PARAMS) == (None, 0)
        assert {abs(x) for x in xs} == {1.0}
    xs.clear()
    assert recurrence_plan(20_000, CHECK_PARAMS)[0] is not None
    assert min(abs(x) for x in xs) < 1.0


@pytest.mark.parametrize("params", [CHECK_PARAMS, *NEAR_ONE.values()],
                         ids=["check-params", *NEAR_ONE])
def test_restart_is_bit_equal_or_falls_back_to_j0(params):
    # starts too close to `first` for the two chains to meet: the margin doubles
    # (to j = 0 near p = 1) and the values are still those of the j = 0 chain
    n, (l_minus, l_zero, l_plus) = 20_000, log_step_kernel(params).tolist()
    q = math.exp(l_plus + l_minus - 2.0 * l_zero)
    full = _ratio_recurrence(n, q, 0, n - 1)
    for first in (3, 5_000, 15_000):
        for start in (1, first - 1, first // 2):
            assert _ratio_recurrence(n, q, first, n - 1, start) == full[first:]
