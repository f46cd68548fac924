import math
from fractions import Fraction

import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    ConfigError,
    JointDensityMatrix,
    LatticeLaw,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    ReservoirConfig,
    WindowError,
    apply_channel,
    bessel_halfwidth,
    bessel_j_array,
    bessel_squares,
    bessel_table,
    bloch_coefficients,
    channel_oracle,
    deformed_weights,
    energy_cgf,
    free_dressing_weights,
    free_evolve,
    free_kernel,
    log_theta,
    oracle_unitary,
    position_cgf,
    position_cgf_oracle,
    position_distribution,
    position_operator,
    position_oracle,
    propagate_closed,
    rate_function,
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
from starkwalk.state import _crop, _span, _support, _uncrop, require_interior

from conftest import (
    bessel_series,
    check_density,
    crop_joint,
    dense_position_distribution,
    from_diagonal,
    hermiticity_defect,
    random_density,
    random_joint,
    same_bits,
    scatter_joint,
    stacked_support_square,
    widened_sites,
)


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
        assert hermiticity_defect(out) <= 1e-12
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
    dm = from_diagonal(window, np.ones(window.n_k) / window.n_k)
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


@pytest.mark.parametrize("F", [1.0, 0.4, 3.0])
def test_position_distribution_is_the_whole_window_sum(F):
    # the sums run on the occupied k-range alone: on every eigenstate (at the window's
    # edges too) and on the zero state each entry is the whole-window sum bit for bit;
    # on random states the summation order differs, and each entry is within 8 ulps of
    # the largest (2 measured)
    rng = np.random.default_rng(11)
    for half in (0, 3, 15, 30):
        window = LatticeWindow.for_dynamics(-half, half, steps=10, F=F)
        for k in (window.k_min, -half, 0, half, window.k_max):
            dm = ParticleDensityMatrix.eigenstate(window, k)
            assert same_bits(position_distribution(dm, F)[1], dense_position_distribution(dm, F))
        zero = ParticleDensityMatrix(window, np.zeros((window.n_k, window.n_k)))
        assert same_bits(position_distribution(zero, F)[1], dense_position_distribution(zero, F))
        for _ in range(5):
            dm = random_density(rng, window, half)
            got, want = position_distribution(dm, F)[1], dense_position_distribution(dm, F)
            assert np.max(np.abs(got - want)) <= 8 * np.spacing(np.max(want))


def test_position_distribution_reads_the_occupied_range(monkeypatch):
    # a state on 7 of 137 sites: the sums run over those sites widened by one, 9 x 9
    shapes = []

    def spy(A, atoms=1):
        sub, ks = _crop(A, atoms)
        shapes.append(sub.shape)
        return sub, ks

    monkeypatch.setattr("starkwalk.state._crop", spy)
    window = LatticeWindow.for_dynamics(0, 0, steps=60, F=1.0)
    dm = random_density(np.random.default_rng(3), window, 3)
    assert window.n_k == 137 and position_distribution(dm, 1.0)[1].size == window.n_x
    assert shapes == [(9, 9)]


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
    coeffs = bloch_coefficients([1.0], math.pi)
    # (4/pi) sin(pi/2) sin(xi + pi/2) = (2/pi)(e^{i xi} + e^{-i xi})
    assert abs(coeffs.c_plus[0] - 2.0 / math.pi) <= 1e-15
    assert abs(coeffs.c_minus[0] - 2.0 / math.pi) <= 1e-15


def test_bloch_offset_vanishes_on_period(params):
    coeffs = bloch_coefficients([2.0 * math.pi / params.F], params.F)
    assert abs(coeffs.c_plus[0]) + abs(coeffs.c_minus[0]) <= 1e-14


def test_bloch_norm_bound(params):
    coeffs = bloch_coefficients(np.arange(1, 30) * params.tau, params.F)
    assert np.all(np.abs(coeffs.c_plus) + np.abs(coeffs.c_minus) <= 4.0 / params.F + 1e-14)
    assert bloch_coefficients(np.empty(0), params.F).c_plus.shape == (0,)


# a real tilt of another type is read as its float: the same bits, or the same refusal
@pytest.mark.parametrize("F, refusal", [
    (Fraction(1, 2), None),
    # the phase t F = 1e20 is past 2^52
    (10**20, r"phase t \* energy = 1e\+20 reaches 2\^52"),
], ids=["fraction-force", "int-10**20-force"])
def test_bloch_coefficients_read_a_real_tilt_as_its_float(F, refusal):
    if refusal is not None:
        with pytest.raises(NumericsError, match=refusal):
            bloch_coefficients([1.0], F)
        return
    got, want = bloch_coefficients([1.0], F), bloch_coefficients([1.0], float(F))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


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
    check_density(dm)
    bad = ParticleDensityMatrix(window, 2.0 * dm.coeffs)
    with pytest.raises(ValueError):
        check_density(bad)


def test_every_window_edge_refusal_is_the_one_message():
    # particle, joint and oracle refusals: one message, each with its band
    params = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    window = LatticeWindow(-8, 7, -8, 7)
    weights = np.zeros(window.n_k)
    weights[0], weights[window.n_k // 2] = 0.25, 0.75
    dm = from_diagonal(window, weights)
    joint = JointDensityMatrix.product(dm, AtomGibbs.from_params(params).density())
    for band, refuse in (
            (1, lambda: apply_channel(dm, 0.0, params)),
            (2, lambda: propagate_closed(joint, 1.0, params)),
            (2, lambda: position_oracle(np.array([0.5, 1.0]), joint, params)),
            (2, lambda: channel_oracle(dm, 0.3, params))):
        with pytest.raises(WindowError, match=rf"^support within {band} sites of the window "
                           r"edge \(occupancy \S+ > 1\.0e-10\); enlarge the window$"):
            refuse()


_W = LatticeWindow(-2, 2, -4, 4)


def _entry(n: int, value) -> list:
    """An n x n list of lists of 0.0, with `value` at (0, 0)."""
    return [[value if i == j == 0 else 0.0 for j in range(n)] for i in range(n)]


_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
_RHO = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
# an int past the double range, which float() cannot hold: each real argument it reaches
_HUGE = 10**400
_LAW = walk_pmf_exact(3, _P)


def _law_ratio(**fields) -> float:
    """The FT log ratio of the n = 3 walk law with `fields` replaced."""
    law = LatticeLaw(**{"n": _LAW.n, "first": _LAW.first, "pmf": _LAW.pmf, **fields})
    return law.ft_log_ratio(0.1, 0.02, 1.0)


_HUGE_REALS = {
    "model-params": lambda: ModelParams(E=_HUGE, F=1.0, lam=0.5, tau=1.0, beta=1.0),
    "log-theta": lambda: log_theta(_HUGE, _P),
    "deformed-weights": lambda: deformed_weights(_HUGE, _P),
    "scgf": lambda: scgf(_HUGE, _P),
    "energy-cgf": lambda: energy_cgf(2, _HUGE, _P),
    "position-cgf": lambda: position_cgf(2, _HUGE, _P),
    # a count that is multiplied into a float: n log theta and n tau
    "energy-cgf-n": lambda: energy_cgf(_HUGE, 0.5, _P),
    "position-cgf-n": lambda: position_cgf(_HUGE, 0.5, _P),
    "dressing-n": lambda: free_dressing_weights(_HUGE, _P, _RHO.window),
    "free-kernel": lambda: free_kernel(_HUGE, _P),
    "free-evolve": lambda: free_evolve(_RHO, _HUGE, _P),
    "bessel-table": lambda: bessel_table(_HUGE, 3),
    "bessel-j-array": lambda: bessel_j_array(_HUGE, 3),
    "bessel-halfwidth": lambda: bessel_halfwidth(_HUGE),
    "position-operator": lambda: position_operator(_W, _HUGE),
    "dynamics-window": lambda: LatticeWindow.for_dynamics(0, 0, 1, F=_HUGE),
    "transform-matrix": lambda: transform_matrix(_W, _HUGE),
    "atom-power": lambda: AtomGibbs.from_params(_P).power(_HUGE),
    "walk-law-mgf": lambda: walk_pmf_exact(3, _P).mgf(_HUGE),
    "position-log-mgf": lambda: run_position_fcs(3, _RHO, _P).log_mgf(_HUGE),
    "ft-log-ratio": lambda: run_position_fcs(3, _RHO, _P).ft_log_ratio(_HUGE, 0.1, 1.0),
    "window-probability": lambda: run_position_fcs(3, _RHO, _P).window_probability(_HUGE, 1.0),
    # n tau was a bare OverflowError
    "lattice-law-n": lambda: _law_ratio(n=_HUGE),
}


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: LatticeWindow(0, 0, -1, 1), "window bounds", id="window-bounds"),
    pytest.param(lambda: ParticleDensityMatrix(_W, np.eye(4)), "coefficient shape",
                 id="particle-shape"),
    pytest.param(lambda: JointDensityMatrix(_W, np.eye(5)), "joint coefficient shape",
                 id="joint-shape"),
    # the tests' density check names each defect
    pytest.param(lambda: check_density(ParticleDensityMatrix(_W, 2.0 * np.eye(5) / 5.0)),
                 "trace", id="trace"),
    pytest.param(lambda: check_density(ParticleDensityMatrix(_W, np.triu(np.ones((5, 5))) / 5.0)),
                 "not Hermitian", id="density-non-hermitian"),
    pytest.param(lambda: check_density(ParticleDensityMatrix(_W, np.diag([1.5, -0.5, 0, 0, 0]))),
                 "not PSD", id="density-not-psd"),
    pytest.param(lambda: bessel_j_array(-1.0, 3), "z must be >= 0, got z = -1.0",
                 id="bessel-negative-z"),
    pytest.param(lambda: bessel_j_array(1.0, -1), "nmax must be an integer >= 0, got -1",
                 id="bessel-negative-order"),
    pytest.param(lambda: bessel_table(1.0, -1), "order_max must be an integer >= 0, got -1",
                 id="table-negative-order"),
    # a law's fields are refused by name when it is built: a bad n reached "log ratio
    # undefined", a fractional first gave half-integer sites, and a 2-D or list pmf a
    # bare ValueError, IndexError or AttributeError in a reader
    *[pytest.param(lambda fields=fields: _law_ratio(**fields), message, id=f"lattice-law-{kind}")
      for kind, fields, message in (
          ("negative-n", {"n": -3}, "n must be an integer >= 0, got -3"),
          ("fractional-n", {"n": 2.5}, "n must be an integer >= 0, got 2.5"),
          ("bool-n", {"n": True}, "n must be an integer >= 0, got True"),
          ("fractional-first", {"first": 0.5}, "first must be an integer, got 0.5"),
          ("2d-pmf", {"pmf": _LAW.pmf.reshape(7, 1)}, "pmf of shape (7, 1): expected a 1-D array"),
          ("list-pmf", {"pmf": [0.5, 0.5]}, "pmf must be a 1-D array, got [0.5, 0.5]"))],
    pytest.param(lambda: bessel_table(0.0, 5), "F must be > 0, got F = 0.0",
                 id="table-zero-force"),
    pytest.param(lambda: bessel_table(math.inf, 3), "got F = inf", id="table-infinite-force"),
    pytest.param(lambda: transform_matrix(_W, math.inf), "got F = inf",
                 id="transform-infinite-force"),
    pytest.param(lambda: bessel_table("a", 3), "got F = 'a'", id="table-string-force"),
    # the Bessel argument is a real number before any comparison is made
    pytest.param(lambda: bessel_j_array("a", 3), "got z = 'a'", id="bessel-string-z"),
    pytest.param(lambda: bessel_halfwidth("a"), "got z = 'a'", id="halfwidth-string-z"),
    pytest.param(lambda: bessel_squares(-1.0, "z"), "z must be >= 0, got z = -1.0",
                 id="squares-negative-z"),
    # the tilt: finite and > 0 before 2/F or 4/F is formed
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, 1, F=0.0),
                 "F must be > 0, got F = 0.0", id="dynamics-window-zero-force"),
    pytest.param(lambda: bloch_coefficients([1.0], 0.0), "got F = 0.0", id="bloch-zero-force"),
    pytest.param(lambda: bloch_coefficients([1.0], -1.0), "got F = -1.0",
                 id="bloch-negative-force"),
    pytest.param(lambda: bloch_coefficients([1.0], math.inf), "got F = inf",
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
    # a non-finite state is refused when it is built
    pytest.param(lambda: ParticleDensityMatrix(_W, np.full((5, 5), math.nan)),
                 "coefficients must be finite", id="density-nan"),
    # each coefficient of a particle or joint state is a finite number
    *[pytest.param(lambda build=build, value=value: build(value), message, id=f"{name}-{kind}")
      for name, build in (("particle", lambda v: ParticleDensityMatrix(_W, _entry(5, v))),
                          ("joint", lambda v: JointDensityMatrix(_W, _entry(10, v))))
      for kind, value, message in (
          ("nan-entry", math.nan, "coefficients must be finite numbers"),
          ("inf-entry", math.inf, "coefficients must be finite numbers"),
          ("string-entry", "a", "coefficients must be finite numbers, got a list of length"))],
    # 2/F overflows to inf: the x-padding's Bessel profile refuses it as bessel_j_array does
    pytest.param(lambda: bessel_halfwidth(math.inf), "z must be finite, got z = inf",
                 id="halfwidth-infinite-z"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, steps=1, F=1e-310),
                 "z must be finite, got z = inf",
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
    pytest.param(lambda: ReservoirConfig(params=_P, n=2.5),
                 "n must be an integer >= 0, got 2.5", id="reservoir-fractional-n"),
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
    pytest.param(lambda: position_cgf_oracle(-2, [0.5], _RHO, _P),
                 "n must be an integer >= 0, got -2", id="position-cgf-oracle-negative-n"),
    pytest.param(lambda: free_dressing_weights(-1, _P, _RHO.window),
                 "n must be an integer >= 0, got -1", id="dressing-negative-n"),
    # an unhashable z is checked before the Bessel profile's cache hashes it
    pytest.param(lambda: bessel_j_array([1.0], 3), "got z = [1.0]", id="bessel-list-z"),
    pytest.param(lambda: bessel_halfwidth(np.array([1.0])), "got z = an array of shape (1,)",
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
    pytest.param(lambda: position_cgf_oracle(2, "a", _RHO, _P), "got eta = 'a'",
                 id="position-cgf-oracle-string"),
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
    # the channel steps take one real alpha: an array of any shape is refused
    pytest.param(lambda: apply_channel(_RHO, np.zeros((2, 2)), _P),
                 "alpha must be a real number, got alpha = an array of shape (2, 2)",
                 id="apply-channel-2d"),
    pytest.param(lambda: channel_oracle(_RHO, np.zeros((2, 2)), _P),
                 "alpha must be a real number, got alpha = an array of shape (2, 2)",
                 id="channel-oracle-2d"),
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
    pytest.param(lambda: walk_pmf_exact(3, _P).oracle_gap("a"),
                 "the oracle must be a LatticeLaw, got 'a'", id="oracle-gap-not-a-law"),
    # an array is echoed by its shape, on one line however small it is
    pytest.param(lambda: walk_pmf_exact(3, _P).oracle_gap(np.ones((3, 2))),
                 "the oracle must be a LatticeLaw, got an array of shape (3, 2)",
                 id="oracle-gap-array"),
    # a time of 0 or -0.0, and an infinite one where v < delta, made the FT ratio 0.0
    *[pytest.param(lambda v=v, tau=tau: run_position_fcs(3, _RHO, _P).ft_log_ratio(v, 0.1, tau),
                   f"tau must be {'finite' if math.isinf(tau) else '> 0'}, got tau = {tau!r}",
                   id=f"ft-log-ratio-v-{v}-tau-{tau!r}")
      for v, tau in ((0.05, 0.0), (0.05, -0.0), (0.05, math.inf), (0.2, math.inf),
                     (0.05, -math.inf), (0.05, -1.0))],
    # an infinite v or delta is refused by name: inf - inf made a NaN bound, and an
    # infinite delta made the ratio 0.0
    *[pytest.param(lambda v=v, d=d: run_position_fcs(3, _RHO, _P).ft_log_ratio(v, d, 1.0),
                   f"{name} must be finite, got {name} = {bad!r}",
                   id=f"ft-log-ratio-v-{v}-delta-{d}")
      for v, d, name, bad in ((math.inf, math.inf, "v", math.inf),
                              (-math.inf, 0.1, "v", -math.inf),
                              (0.1, math.inf, "delta", math.inf),
                              (0.1, -math.inf, "delta", -math.inf))],
    *[pytest.param(build, "must lie in the double range", id=f"{name}-10**400")
      for name, build in _HUGE_REALS.items()],
    # the batched routes take a 1-D array: one entry past the double range is not a real array
    pytest.param(lambda: rate_function([_HUGE], _P), "got x = a list of length 1",
                 id="rate-10**400"),
    pytest.param(lambda: rate_function_numeric([_HUGE], _P), "got x = a list of length 1",
                 id="rate-numeric-10**400"),
    pytest.param(lambda: bloch_coefficients([_HUGE], 1.0), "got t = a list of length 1",
                 id="bloch-coefficients-10**400"),
    # an int past Python's 4300-digit string limit is echoed by its length, not its digits
    pytest.param(lambda: rate_function_numeric([10**5000], _P), "got x = a list of length 1",
                 id="rate-numeric-list-with-5001-digit-int"),
    pytest.param(lambda: sample_walk(-10**5000, 1, 0, _P),
                 "n must be an integer >= 0, got an int of 5001 digits",
                 id="sample-5001-digit-negative-n"),
    # each window argument is refused under its own name
    pytest.param(lambda: LatticeWindow.for_dynamics("a", 0, 3, 1.0),
                 "k_lo must be an integer, got 'a'", id="dynamics-window-string-k-lo"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, "a", 3, 1.0),
                 "k_hi must be an integer, got 'a'", id="dynamics-window-string-k-hi"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, "a", 1.0),
                 "steps must be an integer >= 0, got 'a'", id="dynamics-window-string-steps"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, -1, 1.0),
                 "steps must be an integer >= 0, got -1", id="dynamics-window-negative-steps"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, 3, 1.0, margin=2.5),
                 "margin must be an integer >= 0, got 2.5", id="dynamics-window-fractional-margin"),
    pytest.param(lambda: LatticeWindow.for_dynamics(0, 0, 3, 1.0, margin=-1),
                 "margin must be an integer >= 0, got -1", id="dynamics-window-negative-margin"),
    # the unitary takes one real time and returns one matrix
    pytest.param(lambda: oracle_unitary(1j, _P, _W), "t must be a real number, got t = 1j",
                 id="oracle-unitary-complex-time"),
    pytest.param(lambda: oracle_unitary([1.0, 2.0], _P, _W), "got t = [1.0, 2.0]",
                 id="oracle-unitary-list-time"),
    # the batched routes take a 1-D array: a bare number, a 0-d array and two axes are
    # refused, naming the argument
    pytest.param(lambda: bloch_coefficients(1j, 1.0), "got t = 1j", id="bloch-complex-time"),
    pytest.param(lambda: bloch_coefficients(np.zeros((2, 2)), 1.0), "t of shape (2, 2)",
                 id="bloch-2d-time"),
    *[pytest.param(lambda route=route, value=value: route(value), message, id=f"{name}-{kind}")
      for name, route, message in (
          ("rate", lambda v: rate_function(v, _P), "x of shape ()"),
          ("rate-numeric", lambda v: rate_function_numeric(v, _P), "x of shape ()"),
          ("position-cgf-oracle", lambda v: position_cgf_oracle(2, v, _RHO, _P),
           "eta of shape ()"),
          ("bloch", lambda v: bloch_coefficients(v, 1.0), "t of shape ()"))
      for kind, value in (("float", 0.5), ("0d", np.array(0.5)))],
])
def test_bad_arguments_raise_config_error(build, message):
    with pytest.raises(ConfigError) as refused:
        build()
    assert message in str(refused.value)


def test_nan_state_fails_the_leakage_test():
    # a NaN pmf leaks NaN mass, which the leakage budget refuses; the constructor refuses
    # a NaN state, so one is forced past it here
    window = LatticeWindow.for_dynamics(0, 0, steps=1, F=1.0)
    nan_state = ParticleDensityMatrix.eigenstate(window, 0)
    object.__setattr__(nan_state, "coeffs", np.full((window.n_k, window.n_k), math.nan))
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
    assert np.array_equal(run_energy_fcs(ReservoirConfig(params=_P, n=three)).law,
                          run_energy_fcs(ReservoirConfig(params=_P, n=3)).law)
    assert np.array_equal(bessel_j_array(2.0, three), bessel_j_array(2.0, 3))
    assert energy_cgf(three, 0.5, _P) == energy_cgf(3, 0.5, _P)
    assert position_cgf(three, 0.5, _P) == position_cgf(3, 0.5, _P)
    assert np.array_equal(run_position_fcs(three, _RHO, _P).pmf,
                          run_position_fcs(3, _RHO, _P).pmf)


# the occupied-range rule of state.py

@pytest.mark.parametrize("pad", [0, 1, 6, 20])
@pytest.mark.parametrize("marked", [(), tuple(range(12)), (0,), (11,), (5,), (1, 2), (3, 9)],
                         ids=["empty", "full", "first", "last", "middle", "near-first", "gap"])
def test_span_is_the_marked_indices_widened_by_pad(pad, marked):
    # every index within pad of a marked one, clamped to the mask, as a slice; with
    # none marked, the first two indices (one sector); pads 6 and 20 are the widths
    # of a convolution kernel, the second wider than the mask
    mask = np.zeros(12, dtype=bool)
    mask[list(marked)] = True
    reach = [i for i in range(12) if any(abs(i - j) <= pad for j in marked)]
    expected = slice(reach[0], reach[-1] + 1) if reach else slice(0, 2)
    assert _span(mask, pad) == expected
    if pad == 1:
        assert _span(mask, pad) == widened_sites(mask)


def crop_cases(window: LatticeWindow, atoms: int) -> list[np.ndarray]:
    """Seeded operators on n_k sites per atom block: interior states of different
    supports, coherences that clamp the range at the first site, at the last site and
    at both, and the zero operator."""
    rng = np.random.default_rng(33 + atoms)
    n, size = window.n_k, atoms * window.n_k
    if atoms == 1:
        cases = [random_density(rng, window, half, center).coeffs
                 for half, center in ((0, 0), (3, -5), (6, 2))]
    else:
        atom = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        cases = [JointDensityMatrix.product(random_density(rng, window, 2, -4), atom).coeffs,
                 random_joint(rng, window, 3).coeffs]
    for edges, inner in (((0,), 4), ((n - 1,), n - 6), ((0, n - 1), n // 2)):
        A = np.zeros((size, size), dtype=complex)
        A[inner, inner] = 1.0
        for e in edges:    # the edge site in the last atom block, the excited one
            i = e + (atoms - 1) * n
            A[i, inner], A[inner, i] = 0.3 - 0.2j, 0.3 + 0.2j
        cases.append(A)
    return cases + [np.zeros((size, size), dtype=complex)]


@pytest.mark.parametrize("atoms", [1, 2])
def test_crop_and_uncrop_are_the_reference_rules(atoms):
    # _support reduces over leading axes as _trace_norm's mask did; _crop takes the
    # range widened by one site of every atom block, clamped to the window, and
    # _uncrop puts it back
    window = LatticeWindow(-16, 15, -16, 15)
    n = window.n_k
    cases = crop_cases(window, atoms)
    stacked = np.stack(cases)
    assert _span(_support(stacked), 0) == stacked_support_square(stacked)
    ranges = []
    for A in [*cases, stacked]:
        sub, ks = _crop(A, atoms)
        nz = (A.reshape((-1,) + A.shape[-2:]) != 0).any(axis=0)
        assert ks == widened_sites((nz.any(axis=0) | nz.any(axis=1)).reshape(atoms, n).any(axis=0))
        if atoms == 2 and A.ndim == 2:
            assert same_bits(sub, crop_joint(A, ks))
            assert same_bits(_uncrop(sub, ks, n, atoms), scatter_joint(sub, ks, n))
        assert same_bits(_uncrop(sub, ks, n, atoms), A)
        ranges.append((ks.start, ks.stop))
    assert {0, n} <= {k for r in ranges for k in r} and (0, 2) in ranges
