import math

import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    ConfigError,
    JointDensityMatrix,
    LatticeWindow,
    ModelParams,
    ParticleDensityMatrix,
    ReservoirConfig,
    WindowError,
    adjoint_apply,
    apply_channel,
    apply_deformed,
    bessel_halfwidth,
    bessel_j_array,
    bessel_squares,
    bessel_table,
    bloch_coefficients,
    channel_oracle,
    deformed_weights,
    energy_cgf,
    environment_reduced_map,
    free_dressing_weights,
    free_evolve,
    free_kernel,
    log_theta,
    position_cgf,
    position_cgf_oracle,
    position_distribution,
    position_operator,
    position_oracle,
    propagate_closed,
    rate_function,
    rate_function_entropy,
    rate_function_numeric,
    required_order,
    run_energy_fcs,
    run_position_fcs,
    sample_walk,
    scgf,
    theta,
    transform_matrix,
    walk_log_pmf,
    walk_pmf_exact,
    walk_pmf_oracle,
)
from starkwalk.state import require_interior

from conftest import bessel_series, random_density


def position_mean(dm, F):
    x, pmf = position_distribution(dm, F)
    return float(np.dot(x, pmf))


@pytest.fixture
def window():
    return LatticeWindow.for_dynamics(0, 0, steps=4, F=1.0)


def test_window_bookkeeping(window):
    assert window.n_k == window.k_max - window.k_min + 1
    assert window.k_index(window.k_min) == 0
    with pytest.raises(WindowError):
        window.k_index(window.k_max + 1)
    with pytest.raises(WindowError, match="outside window"):
        window.x_index(window.x_min - 1)


@pytest.mark.parametrize("F", [0.1, 0.05])
def test_for_dynamics_pads_x_by_the_bessel_profile(F):
    # the x-range pads the k-range by the spread of the Bessel profile J_nu(2/F), so an
    # eigenstate at either end of the k-range keeps its whole position mass in the window
    window = LatticeWindow.for_dynamics(-15, 14, steps=0, F=F, margin=0)
    assert window.n_k == 30
    for k in (window.k_min, window.k_max):
        _, pmf = position_distribution(ParticleDensityMatrix.eigenstate(window, k), F)
        assert abs(float(pmf.sum()) - 1.0) <= TOL.trace


def test_free_evolve_preserves_spectrum(params, window):
    rng = np.random.default_rng(3)
    for _ in range(5):
        dm = random_density(rng, window, 4)
        out = free_evolve(dm, 0.37, params)
        assert out.hermiticity_defect() <= 1e-12
        assert abs(out.trace() - dm.trace()) <= 1e-12
        ev_in = np.linalg.eigvalsh(dm.coeffs)
        ev_out = np.linalg.eigvalsh(out.coeffs)
        assert np.max(np.abs(ev_in - ev_out)) <= 1e-12


@pytest.mark.parametrize("t", [0.1, 1.0, 3.7, 123.4])
def test_free_evolve_is_the_phase_map(params, t):
    # one exponential per index difference, gathered: the same argument for
    # every entry as the direct e^{i t F (k - k')}, so equal bit for bit
    window = LatticeWindow(-32, 31, -32, 31)
    rng = np.random.default_rng(4)
    dm = random_density(rng, window, 20)
    k = window.k_values
    direct = np.exp(1j * t * params.F * (k[:, None] - k[None, :])) * dm.coeffs
    assert np.array_equal(free_evolve(dm, t, params).coeffs, direct)


def test_free_evolve_diagonal_states_fixed(params, window):
    dm = ParticleDensityMatrix.from_diagonal(window, np.ones(window.n_k) / window.n_k)
    out = free_evolve(dm, 2.17, params)
    assert np.array_equal(out.coeffs, dm.coeffs)


def test_free_evolve_bloch_period(params, window):
    rng = np.random.default_rng(4)
    dm = random_density(rng, window, 4)
    out = free_evolve(dm, 2.0 * math.pi / params.F, params)
    assert np.max(np.abs(out.coeffs - dm.coeffs)) <= 1e-12


def test_free_evolve_coherence_phase(params, window):
    c = np.zeros((window.n_k, window.n_k), dtype=complex)
    c[window.k_index(0), window.k_index(1)] = 1.0
    out = free_evolve(ParticleDensityMatrix(window, c), 0.83, params)
    # E_0 - E_1 = F: the coherence picks up e^{-i t F}
    got = out.coeffs[window.k_index(0), window.k_index(1)]
    assert abs(got - np.exp(-1j * 0.83 * params.F)) <= 1e-15


def test_position_distribution_of_eigenstate(window):
    dm = ParticleDensityMatrix.eigenstate(window, 2)
    xs, pmf = position_distribution(dm, 1.0)
    order = required_order(window)
    table = bessel_table(1.0, order)
    for i, x in enumerate(xs):
        assert abs(pmf[i] - table[2 - int(x) + order] ** 2) <= 1e-15
    assert abs(np.sum(pmf) - 1.0) <= 1e-8


def test_position_mean_of_central_eigenstate(window):
    # profile is symmetric about its rung: mean = sum_x x J_{-x}^2 = 0
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    oracle = sum(x * bessel_series(-x, 2.0) ** 2 for x in range(-30, 31))
    assert abs(oracle) < 1e-15
    assert abs(position_mean(dm, 1.0) - oracle) <= 1e-12


def test_position_leakage_error(params):
    window = LatticeWindow(-12, 11, -3, 3)   # x-range far too narrow
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    with pytest.raises(WindowError):
        position_distribution(dm, params.F)


@pytest.mark.parametrize("window,F", [
    (LatticeWindow(-8, 7, -8, 7), 1.0),
    (LatticeWindow(-3, 9, -20, 11), 0.5),
    (LatticeWindow.for_dynamics(-2, 2, steps=3, F=0.05), 0.05),
])
def test_transform_matrix_is_the_recurrence_with_parity(window, F):
    # Psi[x, k] = J_{k-x}(2/F), negative orders by J_{-nu} = (-1)^nu J_nu: bit for bit
    half = bessel_j_array(2.0 / F, required_order(window))
    nu = window.k_values[None, :] - window.x_values[:, None]
    want = np.where(nu < 0, (-1.0) ** np.abs(nu), 1.0) * half[np.abs(nu)]
    assert np.array_equal(transform_matrix(window, F), want)


def test_position_operator_matches_bessel_sums(window):
    X = position_operator(window, 1.0)
    psi = transform_matrix(window, 1.0)
    xs = window.x_values.astype(float)
    direct = psi.T @ np.diag(xs) @ psi
    inner = slice(6, window.n_k - 6)   # interior rows: truncation-free
    assert np.max(np.abs((X - direct)[inner, inner])) <= 1e-10


def test_bloch_offset_example():
    coeffs = bloch_coefficients(1.0, math.pi)
    # (4/pi) sin(pi/2) sin(xi + pi/2) = (2/pi)(e^{i xi} + e^{-i xi})
    assert abs(coeffs.c_plus - 2.0 / math.pi) <= 1e-15
    assert abs(coeffs.c_minus - 2.0 / math.pi) <= 1e-15


def test_bloch_offset_vanishes_on_period(params):
    coeffs = bloch_coefficients(2.0 * math.pi / params.F, params.F)
    assert abs(coeffs.c_plus) + abs(coeffs.c_minus) <= 1e-14


def test_bloch_norm_bound(params):
    for n in range(1, 30):
        coeffs = bloch_coefficients(n * params.tau, params.F)
        assert abs(coeffs.c_plus) + abs(coeffs.c_minus) <= 4.0 / params.F + 1e-14


def test_free_motion_mean_stays_bounded(params, window):
    rng = np.random.default_rng(5)
    dm = random_density(rng, window, 3)
    m0 = position_mean(dm, params.F)
    for t in np.linspace(0.0, 12.0, 25):
        mt = position_mean(free_evolve(dm, float(t), params), params.F)
        assert abs(mt - m0) <= 8.0 / params.F


def test_boundary_refusal(window):
    c = np.zeros((window.n_k, window.n_k), dtype=complex)
    c[0, 0] = 1.0
    with pytest.raises(WindowError):
        require_interior(np.diagonal(c))


def test_density_checks(window):
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    dm.check_density()
    bad = ParticleDensityMatrix(window, 2.0 * dm.coeffs)
    with pytest.raises(ValueError):
        bad.check_density()


def test_every_window_edge_refusal_is_the_one_message():
    # particle, joint, alpha-batch and reservoir refusals: one message, each with its band
    params = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    window = LatticeWindow(-8, 7, -8, 7)
    weights = np.zeros(window.n_k)
    weights[0], weights[window.n_k // 2] = 0.25, 0.75
    dm = ParticleDensityMatrix.from_diagonal(window, weights)
    joint = JointDensityMatrix.product(dm, AtomGibbs.from_params(params).density())
    reservoir = ReservoirConfig(params=params, M=2, n=2, window=window)
    for band, refuse in (
            (1, lambda: apply_channel(dm, 0.0, params)),
            (2, lambda: propagate_closed(joint, 1.0, params)),
            (2, lambda: position_oracle(np.array([0.5, 1.0]), joint, params)),
            (2, lambda: channel_oracle(dm, np.array([0.0, 0.3, 1.0]), params)),
            (3, lambda: run_energy_fcs(reservoir, dm))):
        with pytest.raises(WindowError, match=rf"^support within {band} sites of the window "
                           r"edge \(occupancy \S+ > 1\.0e-10\); enlarge the window$"):
            refuse()


_W = LatticeWindow(-2, 2, -4, 4)
_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
_RHO = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
# an int past the double range, which float() cannot hold: each real argument it reaches
_HUGE = 10**400
_HUGE_REALS = {
    "model-params": lambda: ModelParams(E=_HUGE, F=1.0, lam=0.5, tau=1.0, beta=1.0),
    "log-theta": lambda: log_theta(_HUGE, _P),
    "deformed-weights": lambda: deformed_weights(_HUGE, _P),
    "scgf": lambda: scgf(_HUGE, _P),
    "rate": lambda: rate_function(_HUGE, _P),
    "rate-numeric": lambda: rate_function_numeric(_HUGE, _P),
    "rate-entropy": lambda: rate_function_entropy(_HUGE, _P),
    "energy-cgf": lambda: energy_cgf(2, _HUGE, _P),
    "position-cgf": lambda: position_cgf(2, _HUGE, _P),
    "free-kernel": lambda: free_kernel(_HUGE, _P),
    "free-evolve": lambda: free_evolve(_RHO, _HUGE, _P),
    "bessel-table": lambda: bessel_table(_HUGE, 3),
    "bessel-j-array": lambda: bessel_j_array(_HUGE, 3),
    "bessel-halfwidth": lambda: bessel_halfwidth(_HUGE),
    "bloch-coefficients": lambda: bloch_coefficients(_HUGE, 1.0),
    "position-operator": lambda: position_operator(_W, _HUGE),
    "dynamics-window": lambda: LatticeWindow.for_dynamics(0, 0, 1, F=_HUGE),
    "transform-matrix": lambda: transform_matrix(_W, _HUGE),
    "atom-power": lambda: AtomGibbs.from_params(_P).power(_HUGE),
    "adjoint-apply": lambda: adjoint_apply(np.eye(16), _RHO.window, _HUGE, _P),
    "environment-map": lambda: environment_reduced_map(
        ReservoirConfig(params=_P, M=1, n=1, window=_RHO.window), np.eye(16), _HUGE),
    "walk-law-mgf": lambda: walk_pmf_exact(3, _P).mgf(_HUGE),
    "position-log-mgf": lambda: run_position_fcs(3, _RHO, _P).log_mgf(_HUGE),
    "ft-log-ratio": lambda: run_position_fcs(3, _RHO, _P).ft_log_ratio(_HUGE, 0.1, 1.0),
    "window-probability": lambda: run_position_fcs(3, _RHO, _P).window_probability(_HUGE, 1.0),
}


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: LatticeWindow(0, 0, -1, 1), "window bounds", id="window-bounds"),
    pytest.param(lambda: ParticleDensityMatrix(_W, np.eye(4)), "coefficient shape",
                 id="particle-shape"),
    pytest.param(lambda: JointDensityMatrix(_W, np.eye(5)), "joint coefficient shape",
                 id="joint-shape"),
    pytest.param(lambda: ParticleDensityMatrix.from_diagonal(_W, np.ones(4)),
                 "diagonal weight vector", id="diagonal-shape"),
    pytest.param(lambda: ParticleDensityMatrix(_W, 2.0 * np.eye(5) / 5.0).check_density(),
                 "trace", id="trace"),
    pytest.param(lambda: ParticleDensityMatrix(_W, np.triu(np.ones((5, 5))) / 5.0).check_density(),
                 "not Hermitian", id="density-non-hermitian"),
    pytest.param(lambda: ParticleDensityMatrix(_W, np.diag([1.5, -0.5, 0.0, 0.0, 0.0]))
                 .check_density(), "not PSD", id="density-not-psd"),
    pytest.param(lambda: bessel_j_array(-1.0, 3), "finite z >= 0", id="bessel-negative-z"),
    pytest.param(lambda: bessel_j_array(1.0, -1), "nmax must be an integer >= 0, got -1",
                 id="bessel-negative-order"),
    pytest.param(lambda: bessel_table(0.0, 5), "the tilt F must be finite and > 0, got F = 0.0",
                 id="table-zero-force"),
    pytest.param(lambda: bessel_table(math.inf, 3), "got F = inf", id="table-infinite-force"),
    pytest.param(lambda: transform_matrix(_W, math.inf), "got F = inf",
                 id="transform-infinite-force"),
    pytest.param(lambda: bessel_table("a", 3), "got F = 'a'", id="table-string-force"),
    # the Bessel argument is a real number before any comparison is made
    pytest.param(lambda: bessel_j_array("a", 3), "got z = 'a'", id="bessel-string-z"),
    pytest.param(lambda: bessel_halfwidth("a"), "got z = 'a'", id="halfwidth-string-z"),
    pytest.param(lambda: bessel_squares(-1.0, "z"), "finite z >= 0", id="squares-negative-z"),
    # the tilt: finite and > 0 before 2/F or 4/F is formed
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, 1, F=0.0),
                 "the tilt F must be finite and > 0, got F = 0.0", id="dynamics-window-zero-force"),
    pytest.param(lambda: bloch_coefficients(1.0, 0.0), "got F = 0.0", id="bloch-zero-force"),
    pytest.param(lambda: bloch_coefficients(1.0, -1.0), "got F = -1.0",
                 id="bloch-negative-force"),
    pytest.param(lambda: bloch_coefficients(1.0, math.inf), "got F = inf",
                 id="bloch-infinite-force"),
    pytest.param(lambda: position_operator(_W, -1.0), "got F = -1.0",
                 id="position-operator-negative-force"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, 1, F="a"), "got F = 'a'",
                 id="dynamics-window-string-force"),
    # window bounds and indices are integers
    pytest.param(lambda: LatticeWindow(-0.5, 3.2, -1, 4), "k_min must be an integer, got -0.5",
                 id="window-fractional-bounds"),
    pytest.param(lambda: LatticeWindow("a", 3, -1, 4), "k_min must be an integer, got 'a'",
                 id="window-string-bound"),
    pytest.param(lambda: LatticeWindow(-2, 2, -4, True), "x_max must be an integer, got True",
                 id="window-bool-bound"),
    pytest.param(lambda: _W.k_index(0.5), "k must be an integer, got 0.5",
                 id="window-fractional-k"),
    pytest.param(lambda: ParticleDensityMatrix.eigenstate(_W, 0.5),
                 "k must be an integer, got 0.5", id="eigenstate-fractional-k"),
    pytest.param(lambda: _W.x_index(1.5), "x must be an integer, got 1.5",
                 id="window-fractional-x"),
    # a non-finite state is refused before any eigenvalue is taken
    pytest.param(lambda: ParticleDensityMatrix(_W, np.full((5, 5), math.nan)).check_density(),
                 "coefficients must be finite", id="density-nan"),
    # 2/F overflows to inf: the x-padding's Bessel profile refuses it as bessel_j_array does
    pytest.param(lambda: bessel_halfwidth(math.inf), "finite z >= 0", id="halfwidth-infinite-z"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, steps=1, F=1e-310), "finite z >= 0",
                 id="dynamics-window-infinite-bessel-argument"),
    # counts: an integer at or above its floor, or ConfigError naming the argument
    pytest.param(lambda: walk_pmf_exact(2.5, _P), "n must be an integer >= 0, got 2.5",
                 id="walk-law-fractional-n"),
    pytest.param(lambda: walk_pmf_exact(True, _P), "n must be an integer >= 0, got True",
                 id="walk-law-bool-n"),
    pytest.param(lambda: walk_log_pmf(2.5, _P), "n must be an integer >= 0, got 2.5",
                 id="log-law-fractional-n"),
    pytest.param(lambda: walk_pmf_oracle(2.5, _P), "n must be an integer >= 0, got 2.5",
                 id="law-oracle-fractional-n"),
    pytest.param(lambda: sample_walk(2.5, 10, 0, _P), "n must be an integer >= 0, got 2.5",
                 id="sample-fractional-n"),
    pytest.param(lambda: sample_walk(3, 2.5, 0, _P), "trials must be an integer >= 1, got 2.5",
                 id="sample-fractional-trials"),
    pytest.param(lambda: sample_walk(3, 10, -1, _P), "seed must be an integer >= 0, got -1",
                 id="sample-negative-seed"),
    pytest.param(lambda: ReservoirConfig(params=_P, M=2.5, n=2, window=_RHO.window),
                 "M must be an integer >= 1, got 2.5", id="reservoir-fractional-m"),
    pytest.param(lambda: bessel_j_array(2.0, 2.5), "nmax must be an integer >= 0, got 2.5",
                 id="bessel-fractional-order"),
    pytest.param(lambda: run_position_fcs(-3, _RHO, _P, method="matrix"),
                 "n must be an integer >= 0, got -3", id="position-fcs-matrix-negative-n"),
    pytest.param(lambda: run_position_fcs(2.5, _RHO, _P), "n must be an integer >= 0, got 2.5",
                 id="position-fcs-reduced-fractional-n"),
    pytest.param(lambda: position_cgf(-2, 0.5, _P), "n must be an integer >= 0, got -2",
                 id="position-cgf-negative-n"),
    pytest.param(lambda: energy_cgf(-2, 0.5, _P), "n must be an integer >= 0, got -2",
                 id="energy-cgf-negative-n"),
    pytest.param(lambda: position_cgf_oracle(-2, 0.5, _RHO, _P),
                 "n must be an integer >= 0, got -2", id="position-cgf-oracle-negative-n"),
    pytest.param(lambda: free_dressing_weights(-1, _P, _RHO.window),
                 "n must be an integer >= 0, got -1", id="dressing-negative-n"),
    # an unhashable z is checked before the Bessel profile's cache hashes it
    pytest.param(lambda: bessel_j_array([1.0], 3), "got z = [1.0]", id="bessel-list-z"),
    pytest.param(lambda: bessel_halfwidth(np.array([1.0])), "got z = array([1.])",
                 id="halfwidth-array-z"),
    # every real argument is a real number before any arithmetic is done with it
    pytest.param(lambda: log_theta("a", _P), "got gamma = 'a'", id="log-theta-string"),
    pytest.param(lambda: theta("a", _P), "got alpha = 'a'", id="theta-string"),
    pytest.param(lambda: deformed_weights("a", _P), "got gamma = 'a'",
                 id="deformed-weights-string"),
    pytest.param(lambda: scgf("a", _P), "got eta = 'a'", id="scgf-string"),
    pytest.param(lambda: energy_cgf(2, "a", _P), "got alpha = 'a'", id="energy-cgf-string"),
    pytest.param(lambda: position_cgf(2, "a", _P), "got eta = 'a'", id="position-cgf-string"),
    pytest.param(lambda: rate_function("a", _P), "got x = 'a'", id="rate-string"),
    pytest.param(lambda: rate_function_numeric("a", _P), "got x = 'a'",
                 id="rate-numeric-string"),
    pytest.param(lambda: rate_function_entropy("a", _P), "got s = 'a'",
                 id="rate-entropy-string"),
    pytest.param(lambda: apply_deformed(_RHO, "a", _P), "got alpha = 'a'",
                 id="apply-deformed-string"),
    pytest.param(lambda: apply_channel(_RHO, "a", _P), "got alpha = 'a'",
                 id="apply-channel-string"),
    pytest.param(lambda: walk_pmf_exact(3, _P).mgf("a"), "got eta = 'a'",
                 id="walk-law-mgf-string"),
    pytest.param(lambda: run_position_fcs(2, _RHO, _P).log_mgf("a"), "got eta = 'a'",
                 id="position-log-mgf-string"),
    pytest.param(lambda: run_position_fcs(2, _RHO, _P).ft_log_ratio("a", 0.1, 1.0),
                 "got v = 'a'", id="ft-log-ratio-string"),
    pytest.param(lambda: run_position_fcs(2, _RHO, _P).window_probability("a", 1.0),
                 "got lo = 'a'", id="window-probability-string"),
    pytest.param(lambda: adjoint_apply(np.eye(16), _RHO.window, "a", _P), "got alpha = 'a'",
                 id="adjoint-apply-string"),
    pytest.param(lambda: position_cgf_oracle(2, "a", _RHO, _P), "got eta = 'a'",
                 id="position-cgf-oracle-string"),
    pytest.param(lambda: environment_reduced_map(ReservoirConfig(params=_P, M=1, n=1,
                                                                 window=_RHO.window),
                                                 np.eye(16), "a"),
                 "got alpha = 'a'", id="environment-map-string"),
    pytest.param(lambda: AtomGibbs.from_params(_P).power("a"), "got a = 'a'",
                 id="atom-power-string"),
    pytest.param(lambda: free_kernel("a", _P), "got t = 'a'", id="free-kernel-string-time"),
    pytest.param(lambda: free_evolve(_RHO, "a", _P), "got t = 'a'",
                 id="free-evolve-string-time"),
    # free_kernel and free_evolve take one time, not a list of them
    pytest.param(lambda: free_kernel([1.0, 2.0], _P), "got t = [1.0, 2.0]",
                 id="free-kernel-list-time"),
    pytest.param(lambda: free_evolve(_RHO, [1.0, 2.0], _P), "got t = [1.0, 2.0]",
                 id="free-evolve-list-time"),
    # the oracles that take a real or a 1-D array of them refuse two axes
    pytest.param(lambda: rate_function_numeric(np.zeros((2, 2)), _P),
                 "x of shape (2, 2)", id="rate-numeric-2d"),
    pytest.param(lambda: position_cgf_oracle(2, np.zeros((2, 2)), _RHO, _P),
                 "eta of shape (2, 2)", id="position-cgf-oracle-2d"),
    pytest.param(lambda: apply_channel(_RHO, np.zeros((2, 2)), _P),
                 "alpha of shape (2, 2)", id="apply-channel-2d"),
    pytest.param(lambda: apply_deformed(_RHO, np.zeros((2, 2)), _P),
                 "alpha of shape (2, 2)", id="apply-deformed-2d"),
    pytest.param(lambda: channel_oracle(_RHO, np.zeros((2, 2)), _P),
                 "alpha of shape (2, 2)", id="channel-oracle-2d"),
    pytest.param(lambda: channel_oracle(_RHO, "a", _P), "got alpha = 'a'",
                 id="channel-oracle-string"),
    pytest.param(lambda: rate_function_numeric([0.1, "a"], _P), "got x = [0.1, 'a']",
                 id="rate-numeric-list-with-string"),
    pytest.param(lambda: position_cgf_oracle(2, None, _RHO, _P), "got eta = None",
                 id="position-cgf-oracle-none"),
    pytest.param(lambda: apply_channel(_RHO, [None], _P), "got alpha = [None]",
                 id="apply-channel-list-with-none"),
    pytest.param(lambda: bloch_coefficients("a", 1.0), "got t = 'a'",
                 id="bloch-string-time"),
    pytest.param(lambda: run_position_fcs(2, _RHO, _P, method="nope"), "unknown method 'nope'",
                 id="position-fcs-unknown-method"),
    pytest.param(lambda: walk_pmf_exact(3, _P).oracle_gap(walk_pmf_exact(2, _P)),
                 "must weigh the same sites", id="oracle-gap-other-sites"),
    pytest.param(lambda: rate_function_entropy(0.1, ModelParams(E=0.0, F=1.0, lam=0.5, tau=1.0,
                                                                beta=1.0)),
                 "needs beta E > 0", id="rate-entropy-zero-beta-E"),
    *[pytest.param(build, "must lie in the double range", id=f"{name}-10**400")
      for name, build in _HUGE_REALS.items()],
])
def test_bad_arguments_raise_config_error(build, message):
    with pytest.raises(ConfigError) as refused:
        build()
    assert message in str(refused.value)


def test_nan_state_fails_the_leakage_test():
    # a NaN pmf leaks NaN mass, which the leakage budget refuses
    window = LatticeWindow.for_dynamics(0, 0, steps=1, F=1.0)
    nan_state = ParticleDensityMatrix(window, np.full((window.n_k, window.n_k), math.nan))
    with pytest.raises(WindowError, match="leakage budget"):
        position_distribution(nan_state, 1.0)


def test_numpy_integer_counts_are_accepted():
    three, window = np.int64(3), _RHO.window
    assert LatticeWindow(-three, three, -three, three) == LatticeWindow(-3, 3, -3, 3)
    assert window.k_index(three) == window.k_index(3)
    assert np.array_equal(walk_pmf_exact(three, _P).pmf, walk_pmf_exact(3, _P).pmf)
    assert np.array_equal(walk_log_pmf(three, _P), walk_log_pmf(3, _P))
    assert np.array_equal(sample_walk(three, three, three, _P).counts,
                          sample_walk(3, 3, 3, _P).counts)
    assert ReservoirConfig(params=_P, M=three, n=three, window=window).M == 3
    assert np.array_equal(bessel_j_array(2.0, three), bessel_j_array(2.0, 3))
    assert energy_cgf(three, 0.5, _P) == energy_cgf(3, 0.5, _P)
    assert position_cgf(three, 0.5, _P) == position_cgf(3, 0.5, _P)
    assert np.array_equal(run_position_fcs(three, _RHO, _P).pmf,
                          run_position_fcs(3, _RHO, _P).pmf)
