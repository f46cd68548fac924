import math
import sys
import tracemalloc

import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    ConfigError,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    WindowError,
    apply_channel,
    channel_oracle,
    deformed_weights,
    free_evolve,
    kraus_weights,
    log_theta,
    oracle_unitary,
    theta,
)
from starkwalk.channel import _atom_diagonal, _kick, _log_theta, _partial_trace_on
from starkwalk.singleatom import _oracle_blocks
from starkwalk.state import _crop, _free_phases
from starkwalk.verify import CHECK_PARAMS
from starkwalk.walk import rate_function, rate_function_numeric

from conftest import (
    TEST_TOL,
    adjoint_apply,
    apply_deformed,
    check_density,
    from_diagonal,
    hermiticity_defect,
    kron_channel_oracle,
    min_eigenvalue,
    random_density,
    random_interior_operator,
    same_bits_up_to_zero_signs,
)


@pytest.fixture
def window():
    return LatticeWindow(-16, 15, -16, 15)


def test_kraus_weights_reference_point(params):
    weights = kraus_weights(params)
    assert weights.dtype == np.float64 and weights.shape == (3,)
    p_minus, p_zero, p_plus = weights
    # frozen from 40-digit evaluation
    assert abs(p_plus - 0.18586058182486645) < 1e-15
    assert abs(p_minus - 0.025153494483789930) < 1e-15
    assert abs(p_minus + p_zero + p_plus - 1.0) <= 1e-14
    assert abs(p_minus - math.exp(-params.beta * params.E) * p_plus) <= 1e-16
    assert abs((p_plus - p_minus) - params.p * math.tanh(params.beta * params.E / 2)) <= 1e-15


def test_kraus_weights_temperature_limits():
    hot_minus, _, hot_plus = kraus_weights(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    assert abs(hot_plus - hot_minus) <= 1e-16
    d = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=50.0)
    cold_minus, _, cold_plus = kraus_weights(d)
    assert cold_minus <= 1e-20
    assert abs(cold_plus - d.p) <= 1e-15


def test_theta_normalization_and_symmetry(params):
    assert abs(theta(0.0, params) - 1.0) <= 1e-15
    assert abs(theta(1.0, params) - 1.0) <= 1e-15
    # frozen from 40-digit evaluation
    assert abs(theta(0.5, params) - 0.92573449764640562) < 1e-15
    for a in np.arange(-2.0, 3.0001, 0.05):
        assert abs(theta(1.0 - a, params) - theta(a, params)) <= 1e-12


def test_theta_equals_kraus_mgf(params):
    p_minus, p_zero, p_plus = kraus_weights(params)
    be = params.beta * params.E
    for a in np.arange(-2.0, 3.0001, 0.1):
        via_kraus = (math.exp(a * be) * p_minus + p_zero
                     + math.exp(-a * be) * p_plus)
        assert abs(theta(a, params) - via_kraus) <= 1e-13


def test_theta_overflow_is_numerics_error():
    # log theta(400) ~ 800 is finite; theta itself exceeds the double range
    assert math.isfinite(log_theta(400.0 * CHECK_PARAMS.beta * CHECK_PARAMS.E, CHECK_PARAMS))
    with pytest.raises(NumericsError):
        theta(400.0, CHECK_PARAMS)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf])
def test_theta_of_an_infinite_alpha_is_numerics_error(alpha):
    # log theta is inf there, its limit, and theta is past the double range as at 400
    assert log_theta(alpha * CHECK_PARAMS.beta * CHECK_PARAMS.E, CHECK_PARAMS) == math.inf
    with pytest.raises(NumericsError, match="overflows a double; use log_theta"):
        theta(alpha, CHECK_PARAMS)


def test_log_theta_symmetry_far_out(params):
    be = params.beta * params.E
    for gamma in (-800.0, 800.0):
        assert math.isclose(log_theta(gamma, params), log_theta(be - gamma, params),
                            rel_tol=TEST_TOL.scgf_symmetry)


def _log_theta_reference(gamma, params):
    """log(e^gamma p_- + p_0 + e^-gamma p_+) at 60 digits from the double p."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        p, be = mpmath.mpf(params.p), mpmath.mpf(params.beta * params.E)
        p_plus = p / (1 + mpmath.exp(-be))
        return float(mpmath.log(mpmath.exp(gamma) * p_plus * mpmath.exp(-be) + (1 - p)
                                + mpmath.exp(-gamma) * p_plus))


@pytest.mark.parametrize("params, gammas", [
    # p = 9.1e-8: theta is within 1e-7 of 1
    (ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0), (-1.0, 1.0, 1250.0)),
    # p = 1: theta = r, down to e^-49 at gamma = beta E / 2
    (ModelParams(E=100.0, F=100.0, lam=math.pi / 2, tau=1.0, beta=1.0), (-1.0, 1.0, 50.0)),
], ids=["small-p", "p-one"])
def test_log_theta_matches_mpmath(params, gammas):
    for gamma in gammas:
        assert math.isclose(log_theta(gamma, params), _log_theta_reference(gamma, params),
                            rel_tol=TOL.theta_kraus_identity)


def _log_theta_at(gamma, p, be):
    """log((1 - p) + p cosh(be/2 - gamma)/cosh(be/2)) at 60 digits from the doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        gamma, p, be = mpmath.mpf(gamma), mpmath.mpf(p), mpmath.mpf(be)
        return mpmath.log((1 - p) + p * mpmath.cosh(be / 2 - gamma) / mpmath.cosh(be / 2))


# beta E = 0 and a subnormal jump probability p = 2e-323
SUBNORMAL_P = ModelParams(E=0.0, F=1.81e-75, lam=2.44e123, tau=1.75e-285, beta=7.14e-264)


def test_log_theta_at_subnormal_jump_probability():
    # past log r = 709, p + (1 - p)/r adds two subnormals, and theta = 1 + p r
    # may be near 1; from log(p r) it keeps its digits.  log p and log r are
    # ~740 in size, so log(p r) carries ~2e-13 of rounding: the relative error
    # of p r, and so of log theta
    p = SUBNORMAL_P.p
    assert 0.0 < p < sys.float_info.min
    for gamma in (709.5, 720.0, 740.0, 745.0, 747.25, 760.0, 900.0, -750.0, 1e5):
        want = _log_theta_at(gamma, p, 0.0)
        assert abs(log_theta(gamma, SUBNORMAL_P) - want) <= 2e-13 * abs(want), gamma
    # log r ~ -gamma for gamma < 0 at any beta E
    for q, be in ((5e-324, 30.0), (1e-320, 1500.0)):
        for gamma in (-709.5, -745.0, -760.0, -900.0):
            want = _log_theta_at(gamma, q, be)
            assert abs(_log_theta(gamma, q, be) - want) <= 2e-13 * abs(want), (gamma, q, be)


def test_rate_oracle_at_subnormal_jump_probability():
    # the Legendre oracle of the rate, which reads log_theta, agrees with the
    # closed form and with a 60-digit sup_eta [eta x - log((1 - p) + p cosh eta)]
    mpmath = pytest.importorskip("mpmath")
    p, x = SUBNORMAL_P.p, 0.666
    with mpmath.workdps(60):
        P, X = mpmath.mpf(p), mpmath.mpf(x)
        eta = mpmath.findroot(
            lambda h: X - P * mpmath.sinh(h) / ((1 - P) + P * mpmath.cosh(h)), 747)
        want = float(eta * X - mpmath.log((1 - P) + P * mpmath.cosh(eta)))
    assert abs(want - 494.698476610639) <= 1e-12
    for rate in (rate_function, rate_function_numeric):
        assert abs(rate([x], SUBNORMAL_P)[0] - want) <= TOL.rate_match * want, rate


GAMMA_GRID = [s * g for g in (1e-6, 1e-3, 0.1, 1.0, 5.0) for s in (1.0, -1.0)]


@pytest.mark.parametrize("be", [0.0, 1e-3, 1.0, 30.0, 700.0, 2500.0])
def test_log_theta_core_is_relative_at_small_gamma(be):
    # small |gamma| against large beta E: log r must not come from subtracting
    # two log-coshes of size beta E / 2
    for gamma in GAMMA_GRID:
        for p in (1e-6, 0.3, 0.999):
            want = _log_theta_at(gamma, p, be)
            got = _log_theta(gamma, p, be)
            if want == 0:
                assert got == 0.0          # gamma = beta E: theta = 1 exactly
            else:
                assert abs((got - want) / want) <= 1e-14, (gamma, p, be)


def test_deformed_on_eigenstate_is_trinomial(params, window):
    p_minus, p_zero, p_plus = kraus_weights(params)
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    out = apply_deformed(dm, 0.0, params)
    i = window.k_index(0)
    diag = np.diagonal(out.coeffs).real
    assert diag[i - 1] == p_minus
    assert diag[i] == p_zero
    assert diag[i + 1] == p_plus
    assert np.count_nonzero(out.coeffs) == 3


def test_deformed_trace_scaling_all_states(params, window):
    rng = np.random.default_rng(20)
    for alpha in (0.0, -0.7, 0.4, 1.3):
        dm = random_density(rng, window, 6)
        out = apply_deformed(dm, alpha, params)
        assert abs(out.trace() - theta(alpha, params) * dm.trace()) <= 1e-14


def test_deformed_preserves_positivity(params, window):
    rng = np.random.default_rng(21)
    for _ in range(100):
        dm = random_density(rng, window, 5)
        out = apply_deformed(dm, 0.3, params)
        assert min_eigenvalue(out) >= -1e-12
        assert hermiticity_defect(out) <= 1e-13


def test_channel_on_diagonal_equals_deformed(params, window):
    rng = np.random.default_rng(22)
    w = np.zeros(window.n_k)
    w[10:22] = rng.random(12)
    w /= w.sum()
    dm = from_diagonal(window, w)
    a = apply_channel(dm, 0.3, params)
    b = apply_deformed(dm, 0.3, params)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_channel_commutes_with_free_evolution(params, window):
    rng = np.random.default_rng(23)
    dm = random_density(rng, window, 6)
    t = 1.234
    a = free_evolve(apply_channel(dm, 0.0, params), t, params)
    b = apply_channel(free_evolve(dm, t, params), 0.0, params)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_channel_vs_oracle(params, window):
    rng = np.random.default_rng(24)
    for _ in range(10):
        dm = random_density(rng, window, 6)
        for alpha in (0.0, 0.3, 1.0):
            a = apply_channel(dm, alpha, params)
            b = channel_oracle(dm, alpha, params)
            assert np.linalg.norm(a.coeffs - b.coeffs, "nuc") <= 1e-10


def oracle_inputs(window):
    """Operators that exercise the occupied-range crop of `channel_oracle`."""
    rng = np.random.default_rng(31)
    n = window.n_k
    states = [random_density(rng, window, half, center).coeffs
              for half, center in ((0, 0), (3, -5), (6, 2), (12, 0))]
    # crops clamped at each window edge: coherences reach the first and last
    # sites while the diagonal there stays below the edge refusal
    lower = np.zeros((n, n), dtype=complex)
    lower[0, 4], lower[4, 0] = 0.3 - 0.2j, 0.3 + 0.2j
    lower[4, 4], lower[0, 0] = 1.0, 1e-12
    upper = np.zeros((n, n), dtype=complex)
    upper[n - 1, n - 6], upper[n - 6, n - 1] = -0.5j, 0.5j
    upper[n - 6, n - 6] = 1.0
    full = np.zeros((n, n), dtype=complex)
    full[2:n - 2, 2:n - 2] = (rng.normal(size=(n - 4, n - 4))
                              + 1j * rng.normal(size=(n - 4, n - 4)))
    full[0, n - 1], full[n - 1, 0] = 0.25, 0.25
    return states + [lower, upper, full, np.zeros((n, n), dtype=complex)]


@pytest.mark.parametrize("p,alphas", [
    (ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0), [0.0, 0.3, 1.0, -0.7, 2.5]),
    (ModelParams(E=1.0, F=0.7, lam=1.3, tau=2.1, beta=0.0), [0.0, 0.3, 1.0, -0.7, 2.5]),
    # beta E = 700: w_excited^(1 - alpha) underflows to 0 at alpha = -0.7
    (ModelParams(E=3.5, F=1.0, lam=0.2, tau=0.6, beta=200.0), [0.0, 0.3, 1.0, -0.7]),
])
def test_cropped_oracle_equals_kron_route(p, alphas, window):
    # the cropped oracle and the whole-window kron route give the same bits
    for coeffs in oracle_inputs(window):
        dm = ParticleDensityMatrix(window, coeffs)
        for alpha in alphas:
            alone = channel_oracle(dm, alpha, p)
            assert isinstance(alone, ParticleDensityMatrix)
            assert same_bits_up_to_zero_signs(alone.coeffs,
                                              kron_channel_oracle(dm, alpha, p).coeffs)
    zero = ParticleDensityMatrix(window, np.zeros((window.n_k, window.n_k)))
    assert not np.any(channel_oracle(zero, 0.3, p).coeffs)


def test_cropped_oracle_refuses_at_the_edge_as_the_kron_route(params, window):
    # the refusal reads the particle diagonal times the atom weights: the
    # product's boundary mass, with the same message
    n = window.n_k
    for site in (0, 1, n - 2, n - 1):
        coeffs = np.zeros((n, n), dtype=complex)
        coeffs[site, site], coeffs[n // 2, n // 2] = 0.25, 0.75
        dm = ParticleDensityMatrix(window, coeffs)
        for alpha in (0.0, 1.0):
            with pytest.raises(WindowError) as reference:
                kron_channel_oracle(dm, alpha, params)
            with pytest.raises(WindowError) as cropped:
                channel_oracle(dm, alpha, params)
            assert str(cropped.value) == str(reference.value)


def test_oracle_exponent_shape_is_checked(params, window):
    # each step takes one real alpha and returns one state: an array of any shape, 0-d
    # and empty included, is refused with ConfigError naming alpha
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    for route in (apply_channel, apply_deformed, channel_oracle):
        assert isinstance(route(dm, np.float64(0.3), params), ParticleDensityMatrix)
        for alpha in (np.array(0.3), np.array([0.0, 0.3]), np.zeros((2, 2)), np.empty(0),
                      [0.3], "half"):
            with pytest.raises(ConfigError, match="alpha must be a real number, got alpha = "):
                route(dm, alpha, params)


@pytest.mark.parametrize("physics, alpha", [
    # w_excited rounds to 0 at beta E = 900, and rho_beta^{1 - alpha} needs 0^-1.5
    ((3.0, 1.0, 0.2, 0.6, 300.0), 2.5),
    # w_excited^{1 - alpha} = 0.119^-1999 overflows a double at beta E = 2
    ((2.0, 1.0, 0.5, 1.0, 1.0), 2000.0),
    # a NaN exponent gives NaN powers, refused the same way
    ((2.0, 1.0, 0.5, 1.0, 1.0), math.nan),
])
def test_oracle_refuses_an_atom_power_past_the_double_range(physics, alpha):
    E, F, lam, tau, beta = physics
    p = ModelParams(E=E, F=F, lam=lam, tau=tau, beta=beta)
    dm = ParticleDensityMatrix.eigenstate(LatticeWindow.for_dynamics(0, 0, 1, p.F), 0)
    with pytest.raises(NumericsError, match=f"exponent a = {1.0 - alpha!r}"):
        channel_oracle(dm, alpha, p)


def test_cropped_oracle_forms_no_joint_window_array(params):
    # a 512-site window with 21 occupied sites: the whole-window route holds
    # several 2n_k x 2n_k complex arrays (16 MiB each) at once; the cropped
    # route's peak is its n_k x n_k result and that result's copy
    window = LatticeWindow(-256, 255, -256, 255)
    n = window.n_k
    dm = random_density(np.random.default_rng(32), window, 10)
    channel_oracle(dm, 0.3, params)   # first call outside the trace: imports, caches
    tracemalloc.start()
    try:
        channel_oracle(dm, 0.3, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    joint_bytes = (2 * n) ** 2 * np.dtype(complex).itemsize
    assert peak < 0.6 * joint_bytes


def state_stack(window):
    """Random states of different supports, and their stack on the union of their
    occupied k-ranges widened by one site: (states, stack, ks)."""
    rng = np.random.default_rng(41)
    dms = [random_density(rng, window, half, center)
           for half, center in ((0, 0), (3, -5), (6, 2), (2, 9))]
    return (dms, *_crop(np.stack([dm.coeffs for dm in dms])))


def assert_on_own_crop(out: np.ndarray, stacked: np.ndarray, ks: slice, dm):
    """The public result `out` equals the stacked kernel's entries on the call's own crop,
    entry by entry, and is exactly 0 outside that crop (and so is the kernel)."""
    own = _crop(dm.coeffs)[1]
    inner = slice(own.start - ks.start, own.stop - ks.start)
    assert np.array_equal(out[own, own], stacked[inner, inner])
    rest = out.copy()
    rest[own, own] = 0.0
    assert not np.any(rest)
    spill = stacked.copy()
    spill[inner, inner] = 0.0
    assert not np.any(spill)


def test_stacked_kraus_kernels_equal_each_public_call(params, window):
    # the free phases and the kicks of a stack of states of different supports, one
    # alpha at a time as the acceptance check runs them, against apply_channel and
    # apply_deformed
    dms, stack, ks = state_stack(window)
    evolved = _free_phases(params.tau, params.F, ks.stop - ks.start) * stack
    for alpha in (0.0, 0.3, 1.0, -0.7):
        w = deformed_weights(alpha * params.beta * params.E, params)
        for route, kicked in ((apply_channel, _kick(evolved, w)),
                              (apply_deformed, _kick(stack, w))):
            assert kicked.shape == stack.shape
            for i, dm in enumerate(dms):
                assert_on_own_crop(route(dm, alpha, params).coeffs, kicked[i], ks, dm)


def test_stacked_partial_trace_equals_each_public_call(params, window):
    # the lifted-product conjugation and the atom trace of a stack of states of
    # different supports, one alpha at a time as the acceptance check runs them
    dms, stack, ks = state_stack(window)
    gibbs = AtomGibbs.from_params(params)
    blocks, edges = _oracle_blocks(params.tau, params, window, ks)
    for alpha in (0.0, 0.3, 1.0, -0.7):
        traced = _partial_trace_on(stack, _atom_diagonal(gibbs, 1.0 - alpha),
                                   _atom_diagonal(gibbs, alpha), blocks, edges)
        assert traced.shape == stack.shape
        for i, dm in enumerate(dms):
            assert_on_own_crop(channel_oracle(dm, alpha, params).coeffs, traced[i], ks, dm)


def test_cropped_kraus_route_equals_the_whole_window_kick(params, window):
    # apply_channel and apply_deformed run on the occupied k-range; the whole-window
    # free evolution and kick give the same bits, crops clamped at an edge included
    for coeffs in oracle_inputs(window):
        dm = ParticleDensityMatrix(window, coeffs)
        for route, whole in ((apply_channel, free_evolve(dm, params.tau, params).coeffs),
                             (apply_deformed, dm.coeffs)):
            for alpha in (0.0, 0.3, 1.0, -0.7):
                w = deformed_weights(alpha * params.beta * params.E, params)
                assert same_bits_up_to_zero_signs(route(dm, alpha, params).coeffs,
                                                  _kick(whole, w))


def test_oracle_output_is_density(params, window):
    rng = np.random.default_rng(25)
    dm = random_density(rng, window, 6)
    out = channel_oracle(dm, 0.0, params)
    check_density(out)


def test_adjoint_fixes_identity(params, window):
    n = window.n_k
    for alpha in (0.0, 0.4, 1.0):
        out = adjoint_apply(np.eye(n), window, alpha, params)
        inner = out[2:n - 2, 2:n - 2]
        assert np.max(np.abs(inner - theta(alpha, params) * np.eye(n - 4))) <= 1e-15


def test_adjoint_duality(params, window):
    rng = np.random.default_rng(26)
    for alpha in (0.0, 0.3, 1.0):
        A = random_density(rng, window, 6)
        B = rng.normal(size=(window.n_k,) * 2) + 1j * rng.normal(size=(window.n_k,) * 2)
        lhs = np.trace(B @ apply_channel(A, alpha, params).coeffs)
        rhs = np.trace(adjoint_apply(B, window, alpha, params) @ A.coeffs)
        assert abs(lhs - rhs) <= TEST_TOL.adjoint_duality


def test_adjoint_matches_defining_partial_trace(params, window):
    # Tr_a (I (x) rho^{1-a}) e^{i tau H} (B (x) rho^a) e^{-i tau H}
    rng = np.random.default_rng(27)
    n = window.n_k
    gibbs = AtomGibbs.from_params(params)
    W = oracle_unitary(params.tau, params, window)
    for alpha in (0.0, 0.3, 1.0):
        B = random_interior_operator(rng, window, 6)
        joint = np.kron(gibbs.power(alpha), B)
        moved = W.conj().T @ joint @ W
        weighted = np.kron(gibbs.power(1.0 - alpha), np.eye(n)) @ moved
        reduced = weighted[:n, :n] + weighted[n:, n:]
        got = adjoint_apply(B, window, alpha, params)
        assert np.max(np.abs(got - reduced)) <= 1e-10


def test_adjoint_unital_positivity(params, window):
    rng = np.random.default_rng(28)
    g = rng.normal(size=(window.n_k,) * 2) + 1j * rng.normal(size=(window.n_k,) * 2)
    B = g @ g.conj().T
    out = adjoint_apply(B, window, 0.0, params)
    assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] >= -1e-10


def test_time_reversal_involution_and_fixed_points(params, window):
    rng = np.random.default_rng(29)
    A = rng.normal(size=(window.n_k,) * 2) + 1j * rng.normal(size=(window.n_k,) * 2)
    assert np.array_equal(np.conj(np.conj(A)), A)
    # operators real in the position basis have real eigenbasis coefficients
    R = rng.normal(size=(window.n_k,) * 2)
    assert np.array_equal(np.conj(R.astype(complex)), R.astype(complex))


def test_time_reversal_relates_adjoint_to_deformation(params, window):
    rng = np.random.default_rng(30)
    for alpha in (0.0, 0.5, 1.0):
        A = random_interior_operator(rng, window, 6)
        lhs = adjoint_apply(A, window, alpha, params)
        # the eigenfunctions are real in the position basis, so time reversal
        # conjugates eigenbasis coefficients entrywise
        conj_in = ParticleDensityMatrix(window, np.conj(A))
        rhs = np.conj(apply_channel(conj_in, 1.0 - alpha, params).coeffs)
        assert np.max(np.abs(lhs - rhs)) <= TEST_TOL.time_reversal


def test_master_step_equals_channel_diagonal(params, window):
    rng = np.random.default_rng(31)
    w = np.zeros(window.n_k)
    w[8:24] = rng.random(16)
    w /= w.sum()
    # the classical step p_k -> p_+ p_{k-1} + p_0 p_k + p_- p_{k+1}
    out_vec = np.convolve(w, kraus_weights(params))[1:-1]
    out_dm = apply_channel(from_diagonal(window, w), 0.0, params)
    assert np.max(np.abs(out_vec - np.diagonal(out_dm.coeffs).real)) <= TEST_TOL.master_vs_channel


def test_exponential_family_is_stationary_direction(params, window):
    weights = kraus_weights(params)
    be = params.beta * params.E
    k = window.k_values.astype(float)
    for a, b in ((1.0, 0.0), (0.3, 0.2), (0.0, 1.0)):
        w = a + b * np.exp(be * (k - k[-1]))   # shifted to avoid overflow
        out = np.convolve(w, weights)[1:-1]
        rel = np.abs(out[1:-1] / w[1:-1] - 1.0)
        assert np.max(rel) <= 1e-13


def test_no_stationary_state(params):
    # the truncated master matrix is strictly substochastic: spectral radius < 1,
    # so no probability vector is stationary on any finite window
    p_minus, p_zero, p_plus = kraus_weights(params)
    for W in (3, 8, 21):
        M = np.zeros((W, W))
        for i in range(W):
            if i > 0:
                M[i, i - 1] = p_plus
            M[i, i] = p_zero
            if i < W - 1:
                M[i, i + 1] = p_minus
        radius = np.max(np.abs(np.linalg.eigvals(M)))
        assert radius < 1.0 - 1e-6


def test_gauge_sectors_invariant(params, window):
    n = window.n_k
    for d_off in (0, 3, -2):
        A = np.zeros((n, n), dtype=complex)
        idx = np.arange(max(4, 4 - d_off), min(n - 4, n - 4 - d_off))
        A[idx, idx + d_off] = 1.0 + 0.5j
        out = apply_channel(ParticleDensityMatrix(window, A), 0.7, params)
        support = np.nonzero(out.coeffs)
        assert np.all(support[1] - support[0] == d_off)


def test_spectral_radius_growth_rate(params, window):
    rng = np.random.default_rng(32)
    for alpha in (0.25, 0.8):
        dm = random_density(rng, window, 4)
        th = theta(alpha, params)
        traces = [dm.trace()]
        for _ in range(8):
            dm = apply_deformed(dm, alpha, params)
            traces.append(dm.trace())
        rates = np.diff(np.log(traces))
        assert np.max(np.abs(rates - math.log(th))) <= 1e-8


def test_adjoint_free_phase_overflow_is_refused():
    # tau F k overflows before the phases form: refused, not a numpy overflow
    # (at E = F the Rabi phase omega0 tau / 2 is lam tau, below the 2^52 at which
    # ModelParams.p, read by the deformed weights, would refuse first)
    window = LatticeWindow(-16, 15, -16, 15)
    params = ModelParams(E=1.8e307, F=1.8e307, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(NumericsError, match="overflows"):
        adjoint_apply(np.eye(window.n_k), window, 0.0, params)
