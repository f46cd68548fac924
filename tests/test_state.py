import math

import numpy as np
import pytest

from starkwalk import (
    ConfigError,
    JointDensityMatrix,
    LatticeWindow,
    ParticleDensityMatrix,
    WindowError,
    bessel_j_array,
    bessel_table,
    bloch_coefficients,
    bloch_offset,
    free_evolve,
    position_distribution,
    position_mean,
    position_operator,
    required_order,
    transform_matrix,
)
from starkwalk.state import require_interior

from conftest import bessel_series, random_density


@pytest.fixture
def window():
    return LatticeWindow.for_dynamics(0, 0, steps=4, F=1.0)


@pytest.fixture
def table(window):
    return bessel_table(1.0, required_order(window))


def test_window_bookkeeping(window):
    assert window.n_k == window.k_max - window.k_min + 1
    assert window.k_index(window.k_min) == 0
    with pytest.raises(WindowError):
        window.k_index(window.k_max + 1)


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


def test_position_distribution_of_eigenstate(window, table):
    dm = ParticleDensityMatrix.eigenstate(window, 2)
    xs, pmf = position_distribution(dm, table)
    for i, x in enumerate(xs):
        assert abs(pmf[i] - table.j(2 - int(x)) ** 2) <= 1e-15
    assert abs(np.sum(pmf) - 1.0) <= 1e-8


def test_position_mean_of_central_eigenstate(window, table):
    # profile is symmetric about its rung: mean = sum_x x J_{-x}^2 = 0
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    oracle = sum(x * bessel_series(-x, 2.0) ** 2 for x in range(-30, 31))
    assert abs(oracle) < 1e-15
    assert abs(position_mean(dm, table) - oracle) <= 1e-12


def test_position_leakage_error(params):
    window = LatticeWindow(-12, 11, -3, 3)   # x-range far too narrow
    table = bessel_table(params.F, required_order(window))
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    with pytest.raises(WindowError):
        position_distribution(dm, table)


def test_position_operator_matches_bessel_sums(window, table):
    X = position_operator(window, 1.0)
    psi = transform_matrix(window, table)
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
    assert coeffs.sup_norm <= 1e-14


def test_bloch_norm_bound(params):
    for n in range(1, 30):
        coeffs = bloch_offset(n, params)
        assert coeffs.sup_norm <= 4.0 / params.F + 1e-14


def test_free_motion_mean_stays_bounded(params, window, table):
    rng = np.random.default_rng(5)
    dm = random_density(rng, window, 3)
    m0 = position_mean(dm, table)
    for t in np.linspace(0.0, 12.0, 25):
        mt = position_mean(free_evolve(dm, float(t), params), table)
        assert abs(mt - m0) <= 8.0 / params.F


def test_boundary_refusal(window):
    c = np.zeros((window.n_k, window.n_k), dtype=complex)
    c[0, 0] = 1.0
    with pytest.raises(WindowError):
        require_interior(ParticleDensityMatrix(window, c))


def test_density_checks(window):
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    dm.check_density()
    bad = ParticleDensityMatrix(window, 2.0 * dm.coeffs)
    with pytest.raises(ValueError):
        bad.check_density()


_W = LatticeWindow(-2, 2, -4, 4)


@pytest.mark.parametrize("build", [
    lambda: LatticeWindow(0, 0, -1, 1),
    lambda: ParticleDensityMatrix(_W, np.eye(4)),
    lambda: JointDensityMatrix(_W, np.eye(5)),
    lambda: ParticleDensityMatrix.from_diagonal(_W, np.ones(4)),
    lambda: ParticleDensityMatrix(_W, 2.0 * np.eye(5) / 5.0).check_density(),
    lambda: bessel_j_array(-1.0, 3),
    lambda: bessel_j_array(1.0, -1),
    lambda: bessel_table(0.0, 5),
], ids=["window-bounds", "particle-shape", "joint-shape", "diagonal-shape", "trace",
        "bessel-negative-z", "bessel-negative-order", "table-zero-force"])
def test_bad_arguments_raise_config_error(build):
    with pytest.raises(ConfigError):
        build()
