import math

import numpy as np
import pytest
from scipy.linalg import expm

from starkwalk import (
    TOL,
    BudgetError,
    ConfigError,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    ReservoirConfig,
    WindowError,
    apply_channel,
    bessel_halfwidth,
    bessel_j_array,
    energy_cgf,
    environment_reduced_map,
    free_dressing_weights,
    free_kernel,
    position_cgf,
    position_cgf_oracle,
    repeated_interaction_propagator,
    run_energy_fcs,
    run_position_fcs,
    theta,
    transform_matrix,
    transport_coefficients,
    walk_pmf_exact,
)
from starkwalk.fcs import environment_weights

from conftest import direct_step_hamiltonian, random_density


@pytest.fixture
def window():
    return LatticeWindow(-16, 15, -16, 15)


@pytest.fixture
def cfg(params, window):
    return ReservoirConfig(params=params, M=3, n=3, window=window)


def test_budget_enforced(params):
    big = LatticeWindow(-64, 63, -64, 63)
    with pytest.raises(BudgetError):
        ReservoirConfig(params=params, M=2, n=2, window=big)
    small = LatticeWindow(-8, 7, -8, 7)
    with pytest.raises(BudgetError):
        ReservoirConfig(params=params, M=5, n=2, window=small)
    with pytest.raises(ValueError):
        ReservoirConfig(params=params, M=2, n=3, window=small)


def test_propagator_trivial_cases(params, window):
    cfg0 = ReservoirConfig(params=params, M=2, n=0, window=window)
    assert np.array_equal(repeated_interaction_propagator(cfg0), np.eye(cfg0.dim))

    free = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    cfg1 = ReservoirConfig(params=free, M=2, n=2, window=window)
    U = repeated_interaction_propagator(cfg1)
    K = window.n_k
    Ek = 2.0 - free.F * window.k_values.astype(float)
    phases = []
    for bits in range(4):
        exc = bin(bits).count("1")
        phases.append(np.exp(-1j * cfg1.n * free.tau * (Ek + free.E * exc)))
    expected = np.diag(np.concatenate(phases))
    assert np.max(np.abs(U - expected)) <= 1e-12


def test_conserved_quantity_commutes(params, window):
    # beta* H_p + beta H_env commutes with every step, so with U after each of them
    cfg = ReservoirConfig(params=params, M=2, n=2, window=window)
    K = window.n_k
    beta_star = params.beta * params.E / params.F
    Ek = 2.0 - params.F * window.k_values.astype(float)
    Hp = np.kron(np.eye(1 << cfg.M), np.diag(Ek))
    pops = np.array([bin(b).count("1") for b in range(1 << cfg.M)])
    Henv = np.kron(np.diag(params.E * pops.astype(float)), np.eye(K))
    Q = beta_star * Hp + params.beta * Henv
    for n in range(1, cfg.M + 1):
        U = repeated_interaction_propagator(ReservoirConfig(params=params, M=cfg.M, n=n,
                                                            window=window))
        comm = Q @ U - U @ Q
        assert np.max(np.abs(comm)) <= 1e-12


def test_reduction_to_channel_powers(params, window):
    rng = np.random.default_rng(40)
    rho = random_density(rng, window, 5)
    for M, n in ((2, 2), (3, 3)):
        cfg = ReservoirConfig(params=params, M=M, n=n, window=window)
        for alpha in (0.0, 0.3, 1.0):
            reduced = environment_reduced_map(cfg, rho.coeffs, alpha)
            dm = rho
            for _ in range(n):
                dm = apply_channel(dm, alpha, params)
            assert np.linalg.norm(reduced - dm.coeffs, "nuc") <= 1e-10


def test_energy_fcs_normalization_and_support(params, cfg, window):
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    result = run_energy_fcs(cfg, rho)
    assert result.law.shape == (2 * window.n_k - 1, 2 * cfg.M + 1)
    assert abs(result.law.sum() - 1.0) <= 1e-10
    assert result.off_diagonal_mass() <= 1e-12
    law, K, n = result.walk_law(), window.n_k, cfg.n
    assert law.n == n and abs(law.pmf.sum() - 1.0) <= 1e-10
    # the rows |k - k'| <= n carry the whole marginal, its ends included
    rows = result.law.sum(axis=1)
    assert not rows[:K - 1 - n].any() and not rows[K + n:].any()
    assert law.pmf[0] > 0.0 and law.pmf[-1] > 0.0


def full_propagator_law(cfg, rho):
    """The joint law of (k - k', m - m') from every column of the full U, each
    cell summed over (final bits, final k, initial bits, initial k) in turn."""
    K, M, B = cfg.window.n_k, cfg.M, 1 << cfg.M
    pops = np.array([bin(b).count("1") for b in range(B)])
    W2 = (np.abs(repeated_interaction_propagator(cfg)) ** 2).reshape(B, K, B, K)
    start = environment_weights(cfg)[:, None] * np.diagonal(rho.coeffs).real[None, :]
    ki = np.arange(K)
    law = np.zeros((2 * K - 1, 2 * M + 1))
    for a in range(B):
        for kf in range(K):
            # the cells (k - k' + K - 1, m - m' + M) of every initial (bits, k)
            cells = (ki[None, :] - kf + K - 1, pops[:, None] - pops[a] + M)
            np.add.at(law, cells, W2[a, kf] * start)
    return law


@pytest.mark.parametrize("M", [1, 2, 3])
def test_energy_fcs_starting_columns_equal_full_propagator(params, window, M):
    rng = np.random.default_rng(41)
    cfg = ReservoirConfig(params=params, M=M, n=M, window=window)
    mixed = random_density(rng, window, 3)
    for rho in (ParticleDensityMatrix.eigenstate(window, 0),
                ParticleDensityMatrix.eigenstate(window, 2), mixed):
        assert np.array_equal(run_energy_fcs(cfg, rho).law, full_propagator_law(cfg, rho))


def test_energy_fcs_cgf_identity(params, window):
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    for n in (1, 2, 3):
        cfg = ReservoirConfig(params=params, M=3, n=n, window=window)
        result = run_energy_fcs(cfg, rho)
        law = result.walk_law()
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert abs(law.mgf(-alpha * result.beta_E) / theta(alpha, params) ** n - 1.0) <= 1e-8
        assert abs(energy_cgf(n, 0.7, params) - n * math.log(theta(0.7, params))) <= 1e-14


def test_energy_cgf_symmetry_and_variance(params):
    tc = transport_coefficients(params)
    be = params.beta * params.E
    n = 7
    for alpha in (-0.5, 0.2, 0.9):
        assert abs(energy_cgf(n, 1.0 - alpha, params) - energy_cgf(n, alpha, params)) <= 1e-12
    h = 1e-4
    second = (energy_cgf(n, h, params) - 2.0 * energy_cgf(n, 0.0, params)
              + energy_cgf(n, -h, params)) / h**2
    target = be**2 * 2.0 * tc.D * params.tau * n
    assert abs(second / target - 1.0) <= 1e-5


# beta E = 1e308 * 2 overflows, yet every ModelParams check passes
_HOT = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1e308)


@pytest.mark.parametrize("value,want", [
    # gamma = (alpha beta) E = inf = beta E: the fold of log theta is inf - inf
    (lambda: theta(1.0, _HOT), None),
    # gamma = 1e308 is finite: r = e^{-gamma} underflows and theta = 1 - p
    (lambda: energy_cgf(3, 0.5, _HOT), lambda: 3.0 * math.log1p(-_HOT.p)),
    # n log theta = 3e308 leaves the double range
    (lambda: energy_cgf(3, -0.5, _HOT), None),
    # gamma = (0 beta) E = 0, as theta forms it, not 0 * inf = NaN
    (lambda: energy_cgf(3, 0.0, _HOT), lambda: 0.0),
], ids=["theta-one", "energy-cgf-half", "energy-cgf-minus-half", "energy-cgf-zero"])
def test_energy_cgf_at_infinite_beta_e(value, want):
    if want is None:
        with pytest.raises(NumericsError, match="not a finite double|undefined"):
            value()
    else:
        assert value() == want()


def test_energy_fcs_moments(params, cfg, window):
    tc = transport_coefficients(params)
    be = params.beta * params.E
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    result = run_energy_fcs(cfg, rho)
    law = result.walk_law()
    assert abs(-be * law.mean() / cfg.n - (-be * tc.v_d * params.tau)) <= 1e-8
    assert abs(be**2 * law.variance() / cfg.n - be**2 * 2.0 * tc.D * params.tau) <= 1e-8


def test_energy_fcs_transient_ft(params, cfg, window):
    be = params.beta * params.E
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    result = run_energy_fcs(cfg, rho)
    pmf, n = result.walk_law().pmf, cfg.n
    # P[dS = -sigma] = e^{sigma} P[dS = sigma] with dS = -beta E S_n
    for j in range(1, n + 1):
        assert abs(pmf[n + j] / (math.exp(be * j) * pmf[n - j]) - 1.0) <= 1e-10


def test_energy_fcs_reservoir_size_independent(params, window):
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    r3 = run_energy_fcs(ReservoirConfig(params=params, M=3, n=3, window=window), rho)
    r4 = run_energy_fcs(ReservoirConfig(params=params, M=4, n=3, window=window), rho)
    l3, l4 = r3.walk_law(), r4.walk_law()
    assert l3.n == l4.n == 3
    assert np.max(np.abs(l3.pmf - l4.pmf)) <= 1e-12


@pytest.mark.parametrize("M,n", [(3, 1), (3, 2), (4, 2), (4, 4)])
def test_energy_walk_law_is_the_walk_law(params, window, M, n):
    # the reservoir counts the walk's own increments: law[dk, dm] = delta P_n(-dk)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    law = run_energy_fcs(ReservoirConfig(params=params, M=M, n=n, window=window), rho).walk_law()
    exact = walk_pmf_exact(n, params)
    assert law.n == n and law.first == exact.first and law.pmf.size == exact.pmf.size
    assert law.oracle_gap(exact) <= TOL.walk_law_rel


def test_energy_fcs_dephasing_automatic(params, cfg, window):
    rng = np.random.default_rng(41)
    rho = random_density(rng, window, 4)
    dephased = ParticleDensityMatrix.from_diagonal(
        window, np.diagonal(rho.coeffs).real)
    a = run_energy_fcs(cfg, rho)
    b = run_energy_fcs(cfg, dephased)
    assert np.max(np.abs(a.law - b.law)) <= 1e-14


def test_energy_fcs_refuses_a_state_without_weight(cfg, window):
    # an all-zero law would follow, whose walk law has no live entry for its MGF
    empty = ParticleDensityMatrix(window, np.zeros((window.n_k, window.n_k)))
    with pytest.raises(ConfigError, match="trace"):
        run_energy_fcs(cfg, empty)


_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)


@pytest.mark.parametrize("refuse,message", [
    pytest.param(lambda: run_energy_fcs(
        ReservoirConfig(params=_P, M=2, n=2, window=LatticeWindow(-8, 7, -8, 7)),
        ParticleDensityMatrix.eigenstate(LatticeWindow(-9, 8, -9, 8), 0)),
        "rho_p window differs", id="energy-fcs-state-on-another-window"),
    # 30 steps spread the deformed weights past a 40-site x-window
    pytest.param(lambda: position_cgf_oracle(
        30, 0.5, ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -20, 19), 0), _P),
        "leaked .* past the x-window", id="position-cgf-oracle-leak"),
])
def test_a_state_the_window_cannot_hold_is_a_window_error(refuse, message):
    with pytest.raises(WindowError, match=message):
        refuse()


def test_total_energy_rate_and_conservation(params, window):
    tc = transport_coefficients(params)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    cfg = ReservoirConfig(params=params, M=3, n=3, window=window)
    result = run_energy_fcs(cfg, rho)
    expected = (params.E - params.F) * tc.v_d * params.tau
    assert abs(result.total_energy_change_mean() / cfg.n - expected) <= 1e-6

    balanced = ModelParams(E=1.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    cfg_b = ReservoirConfig(params=balanced, M=3, n=3, window=window)
    result_b = run_energy_fcs(cfg_b, rho)
    assert result_b.max_total_energy_change() <= 1e-12

    result_h = run_energy_fcs(ReservoirConfig(params=_HOT, M=2, n=2, window=window), rho)
    assert abs(result_h.walk_law().pmf.sum() - 1.0) <= 1e-10
    with pytest.raises(NumericsError, match="beta E"):
        result_h.beta_E


def test_free_kernel_closed_form(params):
    window = LatticeWindow(-60, 60, -40, 40)
    psi = transform_matrix(window, params.F)
    t = 7.3
    arg = t * params.F * window.k_values
    v = (psi * np.exp(-1j * arg)[None, :]) @ psi.T
    row = np.abs(v[window.x_index(0), :]) ** 2
    d, kernel = free_kernel(t, params)
    center = np.searchsorted(d, 0)
    for dd in range(-25, 26):
        assert abs(row[window.x_index(0) + dd] - kernel[center + dd]) <= 1e-12
    assert abs(kernel.sum() - 1.0) <= 1e-12


def test_free_kernel_degenerate_at_bloch_period(params):
    d, kernel = free_kernel(2.0 * math.pi / params.F, params)
    center = np.searchsorted(d, 0)
    assert abs(kernel[center] - 1.0) <= 1e-12
    assert kernel.sum() <= 1.0 + 1e-12


@pytest.mark.parametrize("F", [1.0, 0.25])
@pytest.mark.parametrize("beta_E", [0.0, 2.0, 30.0])
def test_free_kernel_halfwidth_covers_bessel_tail(F, beta_E):
    # the kernel's last order, past which every J_d(z)^2 rounds to 0, reaches the
    # halfwidth that leaves out 1e-16 of the mass (stricter than the tabulation
    # tolerance) at every z the kernel takes, 0 .. 4/F
    p = ModelParams(E=2.0, F=F, lam=0.5, tau=1.0, beta=beta_E / 2.0)
    for z in np.linspace(0.0, 4.0 / F, 41):
        t = 2.0 * math.asin(min(1.0, z * F / 4.0)) / F
        d, kernel = free_kernel(t, p)
        z_t = abs(4.0 / F * math.sin(0.5 * F * t))
        assert d[-1] >= bessel_halfwidth(z_t)
        assert abs(kernel.sum() - 1.0) <= TOL.bessel_normalization


def test_free_kernel_ends_on_nonzero_orders():
    # at z = 4 the profile runs to order 205; from J_120(4)^2 on every square
    # underflows to an exact 0, which the kernel leaves out
    p = ModelParams(E=30.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    d, kernel = free_kernel(math.pi / p.F, p)   # z = 4
    assert kernel.size == 239 and np.array_equal(d, np.arange(-119, 120))
    assert kernel[0] > 0.0 and kernel[-1] > 0.0


@pytest.mark.parametrize("z", [1e-300, 1e-10, 0.3, 1.0, 4.0, 17.0, 100.0])
def test_free_kernel_keeps_every_representable_entry(z):
    # every J_d(z)^2 past the kernel's last order is an exact 0, at every beta E
    F = min(1.0, 4.0 / z)
    t = 2.0 * math.asin(z * F / 4.0) / F
    p0 = ModelParams(E=2.0, F=F, lam=0.5, tau=1.0, beta=0.0)
    d, kernel = free_kernel(t, p0)
    z_t = abs(4.0 / F * math.sin(0.5 * F * t))
    tail = bessel_j_array(z_t, d[-1] + 200) ** 2
    assert np.all(tail[d[-1] + 1:] == 0.0) and tail[d[-1]] > 0.0
    for beta in (1.0, 15.0, 1e300):
        d_b, kernel_b = free_kernel(t, ModelParams(E=2.0, F=F, lam=0.5, tau=1.0, beta=beta))
        assert np.array_equal(d_b, d) and np.array_equal(kernel_b, kernel)


def test_free_kernel_refuses_past_the_order_budget_at_once():
    # z = (4/F)|sin(F t / 2)| = 4.0e9: the halfwidth scan from z/2 would take
    # ~3e9 steps before the Bessel call refused, so the refusal comes first
    p = ModelParams(E=2.0, F=1e-9, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(BudgetError, match=r"z = \(4/F\)\|sin\(F t / 2\)\| = 3\.98998e\+09"):
        free_kernel(3e9, p)


def test_free_kernel_refuses_below_the_early_bound_without_a_bessel_call(monkeypatch):
    # z = 9.95e5 is within the budget, but the profile's top (~1.004e6) plus the
    # Miller margin is not: refused with the z message before any Bessel value
    # is computed
    def no_bessel(*args):
        raise AssertionError("the Bessel profile was computed")

    monkeypatch.setattr("starkwalk.bessel._profile", no_bessel)
    F = 4.0 / 9.95e5
    p = ModelParams(E=2.0, F=F, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(BudgetError, match=r"z = \(4/F\)\|sin\(F t / 2\)\| = 995000, "):
        free_kernel(math.pi / F, p)


def test_free_dressing_phase_overflow_is_refused():
    # n tau F k overflows before the phases form: refused, not a numpy overflow
    window = LatticeWindow(-8, 7, -8, 7)
    params = ModelParams(E=2.0, F=1e308, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(NumericsError, match="overflows"):
        free_dressing_weights(3, params, window)


@pytest.mark.parametrize("n", [0, 5])
def test_ft_log_ratio_without_mass_is_numerics_error(params, n):
    # at n = 5 the windows [4.45, 4.55] and [-4.55, -4.45] hold no lattice site;
    # at n = 0 the ratio is divided by n
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    dist = run_position_fcs(n, rho, params)
    with pytest.raises(NumericsError, match="log ratio"):
        dist.ft_log_ratio(0.9, 0.01, params.tau)


def test_position_fcs_zero_steps(params):
    small = LatticeWindow(-8, 7, -8, 7)
    rho = ParticleDensityMatrix.eigenstate(small, 0)
    dist = run_position_fcs(0, rho, params, method="reduced")
    center = np.searchsorted(dist.dx, 0)
    assert abs(dist.pmf[center] - 1.0) <= 1e-12


def test_position_fcs_matrix_equals_reduction(params):
    n = 6
    window = LatticeWindow.for_dynamics(0, 0, steps=n, F=params.F, margin=26)
    rho = ParticleDensityMatrix.position_state(window, 0, params.F)
    a = run_position_fcs(n, rho, params, method="matrix")
    b = run_position_fcs(n, rho, params, method="reduced")
    lo, hi = max(a.dx[0], b.dx[0]), min(a.dx[-1], b.dx[-1])
    pa = a.pmf[(a.dx >= lo) & (a.dx <= hi)]
    pb = b.pmf[(b.dx >= lo) & (b.dx <= hi)]
    assert np.max(np.abs(pa - pb)) <= 1e-12


def test_position_fcs_state_independent(params):
    # the increment law does not depend on the dephased initial state
    n = 5
    window = LatticeWindow.for_dynamics(-2, 2, steps=n, F=params.F, margin=26)
    mix = (0.5 * ParticleDensityMatrix.position_state(window, 0, params.F).coeffs
           + 0.3 * ParticleDensityMatrix.position_state(window, 2, params.F).coeffs
           + 0.2 * ParticleDensityMatrix.position_state(window, -1, params.F).coeffs)
    a = run_position_fcs(n, ParticleDensityMatrix(window, mix), params, method="matrix")
    b = run_position_fcs(n, ParticleDensityMatrix.position_state(window, 0, params.F),
                         params, method="matrix")
    assert np.max(np.abs(a.pmf - b.pmf)) <= 1e-12


def test_position_fcs_mean_is_drift(params):
    n = 40
    tc = transport_coefficients(params)
    dist = run_position_fcs(n, ParticleDensityMatrix.eigenstate(
        LatticeWindow(-8, 7, -8, 7), 0), params, method="reduced")
    assert abs(dist.pmf.sum() - 1.0) <= 1e-12
    # the symmetric Bloch kernel leaves the drift untouched ...
    assert abs(dist.mean() / (n * params.tau) - tc.v_d) <= 1e-10
    # ... and adds its own bounded spread to the walk variance
    d, kernel = free_kernel(n * params.tau, params)
    kernel_var = float(np.dot(d.astype(float) ** 2, kernel))
    assert kernel_var <= (4.0 / params.F) ** 2 / 2.0 + 1e-10
    walk_var = n * 2.0 * tc.D * params.tau
    assert abs(dist.variance() - (walk_var + kernel_var)) <= 1e-8
    # per-step variance converges to the transport value
    assert abs(dist.variance() / (n * params.tau) - 2.0 * tc.D) <= kernel_var / n + 1e-10


# the corners and centre of the (E, lam, beta) box of 0.98..1.02 times (2, 0.5, 1)
BOX_PARAMS = [ModelParams(E=2.0 * e, F=1.0, lam=0.5 * lam, tau=1.0, beta=beta)
              for e in (0.98, 1.02) for lam in (0.98, 1.02) for beta in (0.98, 1.02)]
BOX_PARAMS.append(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0))


@pytest.mark.parametrize("n", [500, 20_000, 100_000])
def test_position_fcs_crop_is_the_whole_convolution(n):
    # only the walk's nonzero sites, padded by kernel.size - 1 zeros on each
    # side, are convolved: every output is the same dot product as in the
    # convolution over the whole support, or 0 (without the padding, edge
    # entries near 1e-153 differ in their last bits)
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    for params in BOX_PARAMS:
        dist = run_position_fcs(n, rho, params, method="reduced")
        d, kernel = free_kernel(n * params.tau, params)
        whole = np.convolve(walk_pmf_exact(n, params).pmf, kernel)
        assert np.array_equal(dist.pmf, whole)
        assert np.array_equal(dist.dx, np.arange(-n + d[0], n + d[-1] + 1))


def test_position_cgf_zero_eta(params):
    g = position_cgf(10, 0.0, params)
    assert abs(g.value) <= 1e-10
    assert g.rate_limit == 0.0


@pytest.mark.parametrize("E", [2.0, 0.0], ids=["check", "betaE0"])
@pytest.mark.parametrize("n", [5, 40, 200])
def test_position_cgf_identity(n, E):
    # closed form vs the windowed deformed-channel oracle and vs the exact
    # walk (x) Bloch-kernel distribution
    params = ModelParams(E=E, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    window = LatticeWindow.for_dynamics(0, 0, steps=n + 20, F=params.F)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    dist = run_position_fcs(n, rho, params, method="reduced")
    for eta in (-0.5, 0.3, 1.0):
        g = position_cgf(n, eta, params).value
        assert abs(g - position_cgf_oracle(n, eta, rho, params)) <= TOL.position_cgf_identity
        assert abs(g - dist.log_mgf(eta)) <= TOL.position_cgf_identity


def test_position_cgf_oracle_on_an_array_of_etas_equals_each_float_call(params):
    # one dephasing and one set of dressing weights for all etas
    n = 40
    window = LatticeWindow.for_dynamics(0, 0, steps=n + 20, F=params.F)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    etas = np.array([-0.5, 0.5, 0.0, 1.0])
    values = position_cgf_oracle(n, etas, rho, params)
    assert isinstance(values, np.ndarray) and values.shape == etas.shape
    assert values.tolist() == [position_cgf_oracle(n, eta, rho, params) for eta in etas.tolist()]
    assert isinstance(position_cgf_oracle(n, 0.5, rho, params), float)
    assert position_cgf_oracle(n, (-0.5, 0.5), rho, params).tolist() == values[:2].tolist()


@pytest.mark.parametrize("n", [3, 40])
def test_log_mgf_skips_zero_probabilities(n):
    # at beta E = 30 the law holds exact zeros where p_-^n underflows; any
    # tiny weight standing in for them would dominate at |eta| = 3
    params = ModelParams(E=30.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    dist = run_position_fcs(n, rho, params, method="reduced")
    for eta in (-3.0, -1.0, 1.0, 1.5, 3.0):
        g = position_cgf(n, eta, params).value
        assert abs(dist.log_mgf(eta) - g) <= TOL.position_cgf_identity


def test_position_cgf_overflow_is_numerics_error(params):
    # finite up to |eta| ~ 1420, where sinh(eta / 2) leaves the float range
    assert math.isfinite(position_cgf(7, 1400.0, params).value)
    for eta in (1500.0, -1500.0, math.nan):
        with pytest.raises(NumericsError):
            position_cgf(7, eta, params)


def test_step_unitary_is_unitary_on_interior(params, window):
    # every atom position, and the whole joint space: the edge states of the
    # single-atom propagator are exact phases, so U is unitary after each step
    for n in (1, 2, 3):
        cfg = ReservoirConfig(params=params, M=3, n=n, window=window)
        U = repeated_interaction_propagator(cfg)
        assert np.max(np.abs(U.conj().T @ U - np.eye(cfg.dim))) <= 1e-12


def test_step_unitary_is_exponential_of_step_hamiltonian(params):
    # the propagator after each step against the product of expm of the
    # kron-assembled step Hamiltonians: particle + atom j coupled, the others idle
    window = LatticeWindow(-4, 3, -4, 3)
    M = 3
    direct = np.eye(window.n_k << M)
    for n in (1, 2, 3):
        H = direct_step_hamiltonian(params, window, M, n - 1)
        direct = expm(-1j * params.tau * H) @ direct
        U = repeated_interaction_propagator(ReservoirConfig(params=params, M=M, n=n,
                                                            window=window))
        assert np.max(np.abs(U - direct)) <= 1e-13
