import math
import re

import numpy as np
import pytest

from starkwalk import (
    TOL,
    BudgetError,
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
from starkwalk.fcs import EnergyFcsResult, environment_weights

from conftest import (
    direct_step_hamiltonian,
    environment_reduced_map,
    full_run_leaks,
    random_density,
    same_bits,
)


@pytest.fixture
def window():
    return LatticeWindow(-16, 15, -16, 15)


@pytest.fixture
def cfg(params):
    return ReservoirConfig(params=params, n=3)


def test_budget_enforced(params):
    big = LatticeWindow(-64, 63, -64, 63)
    with pytest.raises(BudgetError):
        repeated_interaction_propagator(ReservoirConfig(params=params, n=2), big)
    with pytest.raises(BudgetError):
        ReservoirConfig(params=params, n=5)


def test_propagator_trivial_cases(params, window):
    cfg0 = ReservoirConfig(params=params, n=0)
    assert np.array_equal(repeated_interaction_propagator(cfg0, window), np.eye(window.n_k))

    free = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    cfg1 = ReservoirConfig(params=free, n=2)
    U = repeated_interaction_propagator(cfg1, window)
    Ek = 2.0 - free.F * window.k_values.astype(float)
    phases = []
    for bits in range(4):
        exc = bin(bits).count("1")
        phases.append(np.exp(-1j * cfg1.n * free.tau * (Ek + free.E * exc)))
    expected = np.diag(np.concatenate(phases))
    assert np.max(np.abs(U - expected)) <= 1e-12


def test_conserved_quantity_commutes(params, window):
    # beta* H_p + beta H_env commutes with every step, so with U on n atoms at each n
    K = window.n_k
    beta_star = params.beta * params.E / params.F
    Ek = 2.0 - params.F * window.k_values.astype(float)
    for n in (1, 2):
        Hp = np.kron(np.eye(1 << n), np.diag(Ek))
        pops = np.array([bin(b).count("1") for b in range(1 << n)])
        Henv = np.kron(np.diag(params.E * pops.astype(float)), np.eye(K))
        Q = beta_star * Hp + params.beta * Henv
        U = repeated_interaction_propagator(ReservoirConfig(params=params, n=n), window)
        comm = Q @ U - U @ Q
        assert np.max(np.abs(comm)) <= 1e-12


def test_reduction_to_channel_powers(params, window):
    rng = np.random.default_rng(40)
    rho = random_density(rng, window, 5)
    for n in (2, 3):
        cfg = ReservoirConfig(params=params, n=n)
        for alpha in (0.0, 0.3, 1.0):
            reduced = environment_reduced_map(cfg, window, rho.coeffs, alpha)
            dm = rho
            for _ in range(n):
                dm = apply_channel(dm, alpha, params)
            assert np.linalg.norm(reduced - dm.coeffs, "nuc") <= 1e-10


def test_energy_fcs_normalization_and_support(cfg):
    result = run_energy_fcs(cfg)
    n = cfg.n
    assert result.law.shape == (2 * n + 1, 2 * n + 1)
    assert abs(result.law.sum() - 1.0) <= 1e-10
    assert result.off_diagonal_mass() <= 1e-12
    law = result.walk_law()
    assert law.n == n and abs(law.pmf.sum() - 1.0) <= 1e-10
    assert law.pmf[0] > 0.0 and law.pmf[-1] > 0.0


def full_propagator_law(cfg, window, rho):
    """The joint law of (k - k', m - m') from every column of the full U on rho's
    window, each starting basis state weighted by the dephased rho, each cell summed
    over (final bits, final k, initial bits, initial k) in turn; as an
    `EnergyFcsResult` of cfg, once the rows |k - k'| > n are seen to be empty."""
    K, n, B = window.n_k, cfg.n, 1 << cfg.n
    pops = np.array([bin(b).count("1") for b in range(B)])
    W2 = (np.abs(repeated_interaction_propagator(cfg, window)) ** 2).reshape(B, K, B, K)
    start = environment_weights(cfg)[:, None] * np.diagonal(rho.coeffs).real[None, :]
    ki = np.arange(K)
    law = np.zeros((2 * K - 1, 2 * n + 1))
    for a in range(B):
        for kf in range(K):
            # the cells (k - k' + K - 1, m - m' + n) of every initial (bits, k)
            cells = (ki[None, :] - kf + K - 1, pops[:, None] - pops[a] + n)
            np.add.at(law, cells, W2[a, kf] * start)
    rows = slice(K - 1 - n, K + n)
    assert not law[:rows.start].any() and not law[rows.stop:].any()
    return EnergyFcsResult(cfg=cfg, law=law[rows])


def _coherent(rng, window, half):
    """A random pure state on k = -half..half, coherent across those sites."""
    psi = np.zeros(window.n_k, dtype=complex)
    i0 = window.k_index(-half)
    psi[i0:i0 + 2 * half + 1] = rng.normal(size=2 * half + 1) + 1j * rng.normal(size=2 * half + 1)
    psi /= np.linalg.norm(psi)
    return ParticleDensityMatrix(window, np.outer(psi, psi.conj()))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_energy_fcs_starting_columns_equal_full_propagator(params, window, n):
    # the law from the k = 0 columns alone is the law from every interior state, each
    # run on the full U of -16..15: the measurement dephases the state, and each sector
    # block depends on k only through a phase
    rng = np.random.default_rng(41)
    cfg = ReservoirConfig(params=params, n=n)
    result = run_energy_fcs(cfg)
    law = result.walk_law()
    for rho in (ParticleDensityMatrix.eigenstate(window, 0),
                ParticleDensityMatrix.eigenstate(window, 2),
                random_density(rng, window, 3), _coherent(rng, window, 3)):
        full = full_propagator_law(cfg, window, rho)
        assert law.oracle_gap(full.walk_law()) <= TOL.walk_law_rel
        # U couples only the pairs that keep k - k' = m - m', so both are exactly 0
        assert result.off_diagonal_mass() == full.off_diagonal_mass() == 0.0
        assert math.isclose(result.total_energy_change_mean(), full.total_energy_change_mean(),
                            rel_tol=TOL.walk_law_rel, abs_tol=TOL.fcs_support)
        assert result.max_total_energy_change() == full.max_total_energy_change()
    # from the k = 0 eigenstate the full U's law has the same bits
    full = full_propagator_law(cfg, window, ParticleDensityMatrix.eigenstate(window, 0))
    assert np.array_equal(result.law, full.law)


def test_energy_fcs_cgf_identity(params):
    for n in (1, 2, 3):
        result = run_energy_fcs(ReservoirConfig(params=params, n=n))
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


def test_energy_fcs_moments(params, cfg):
    tc = transport_coefficients(params)
    be = params.beta * params.E
    law = run_energy_fcs(cfg).walk_law()
    assert abs(-be * law.mean() / cfg.n - (-be * tc.v_d * params.tau)) <= 1e-8
    assert abs(be**2 * law.variance() / cfg.n - be**2 * 2.0 * tc.D * params.tau) <= 1e-8


def test_energy_fcs_transient_ft(params, cfg):
    be = params.beta * params.E
    pmf, n = run_energy_fcs(cfg).walk_law().pmf, cfg.n
    # P[dS = -sigma] = e^{sigma} P[dS = sigma] with dS = -beta E S_n
    for j in range(1, n + 1):
        assert abs(pmf[n + j] / (math.exp(be * j) * pmf[n - j]) - 1.0) <= 1e-10


@pytest.mark.parametrize("k0,n", [(3, 1), (3, 2), (4, 2), (4, 4)])
def test_energy_walk_law_is_the_walk_law(params, window, k0, n):
    # the reservoir counts the walk's own increments: law[dk, dm] = delta P_n(-dk), both
    # from the k = 0 columns and from the eigenstate at k0 through the full U of -16..15
    cfg = ReservoirConfig(params=params, n=n)
    exact = walk_pmf_exact(n, params)
    for law in (run_energy_fcs(cfg).walk_law(),
                full_propagator_law(cfg, window,
                                    ParticleDensityMatrix.eigenstate(window, k0)).walk_law()):
        assert law.n == n and law.first == exact.first and law.pmf.size == exact.pmf.size
        assert law.oracle_gap(exact) <= TOL.walk_law_rel


_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)


@pytest.mark.parametrize("refuse,message", [
    # 30 steps spread the deformed weights past a 40-site x-window
    pytest.param(lambda: position_cgf_oracle(
        30, [0.5], ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -20, 19), 0), _P),
        "leaked .* past the x-window", id="position-cgf-oracle-leak"),
])
def test_a_state_the_window_cannot_hold_is_a_window_error(refuse, message):
    with pytest.raises(WindowError, match=message):
        refuse()


_LEAKY = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -20, 19), 0)


@pytest.mark.parametrize("eta", [0.5, -0.5])
def test_a_window_that_leaks_early_is_refused_early(eta):
    # the 40-site x-window leaks within a few steps; at n = 30000 the refusal comes at
    # the step where it is already certain, not after all 30000 steps
    with pytest.raises(WindowError, match=r"leaked .* past the x-window by step (\d+) of "
                                          r"n = 30000 ") as info:
        position_cgf_oracle(30000, [eta], _LEAKY, _P)
    step = int(re.search(r"by step (\d+) of", str(info.value)).group(1))
    assert 1 <= step <= 30


@pytest.mark.parametrize("eta", [0.5, -0.5, 0.0, 1.5, -3.0])
def test_early_refusal_only_where_the_full_run_refuses(eta):
    # n = 0..45 spans the onset of the leak: the oracle refuses exactly the n at which
    # all n steps leak more than position_cgf_identity of the weight left
    for n in range(46):
        if full_run_leaks(n, eta, _LEAKY, _P):
            with pytest.raises(WindowError, match="past the x-window"):
                position_cgf_oracle(n, [eta], _LEAKY, _P)
        else:
            assert np.isfinite(position_cgf_oracle(n, [eta], _LEAKY, _P)).all()


def test_total_energy_rate_and_conservation(params, cfg):
    tc = transport_coefficients(params)
    result = run_energy_fcs(cfg)
    expected = (params.E - params.F) * tc.v_d * params.tau
    assert abs(result.total_energy_change_mean() / cfg.n - expected) <= 1e-6

    balanced = ModelParams(E=1.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    result_b = run_energy_fcs(ReservoirConfig(params=balanced, n=3))
    assert result_b.max_total_energy_change() <= 1e-12

    result_h = run_energy_fcs(ReservoirConfig(params=_HOT, n=2))
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


@pytest.mark.parametrize("route", [
    lambda p, rho: run_position_fcs(2, rho, p),
    lambda p, rho: position_cgf(2, 0.1, p),
    lambda p, rho: free_dressing_weights(2, p, rho.window),
], ids=["run_position_fcs", "position_cgf", "free_dressing_weights"])
def test_a_computed_time_past_a_double_is_numerics_error(route):
    # n tau = 2e308 is a time the package computed, not an argument: a NumericsError, where
    # free_kernel refuses an infinite argument t with ConfigError
    params = ModelParams(E=1.0, F=1.0, lam=1e-300, tau=1e308, beta=1.0)
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    with pytest.raises(NumericsError, match=re.escape("overflows a double at |t| = inf")):
        route(params, rho)


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("route", [free_kernel, lambda t, p: position_cgf(round(t), 0.1, p)],
                         ids=["free_kernel", "position_cgf"])
def test_a_bloch_reach_past_a_double_is_named(route, t):
    # 4/F is inf at F = 1e-310: the kernel's z would be inf, or inf * 0 = NaN at t = 0
    params = ModelParams(E=2.0, F=1e-310, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(NumericsError, match="the Bloch reach 4/F overflows"):
        route(t, params)


@pytest.mark.parametrize("n", [0, 5])
def test_ft_log_ratio_without_mass_is_numerics_error(params, n):
    # at n = 5 the windows [4.45, 4.55] and [-4.55, -4.45] hold no lattice site;
    # at n = 0 the ratio is divided by n
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    dist = run_position_fcs(n, rho, params)
    with pytest.raises(NumericsError, match="log ratio"):
        dist.ft_log_ratio(0.9, 0.01, params.tau)


@pytest.mark.parametrize("args,message", [
    # n tau = 3e308 overflows, and times v - delta = 0 it was a NaN bound
    ((1e308, 1e308, 1e308), r"n tau overflows a double at n = 3, tau = 1e\+308"),
    ((0.1, 0.02, 1e308), r"n tau overflows a double at n = 3"),
    ((math.nan, 0.1, 1.0), "v is NaN"),
    ((0.1, math.nan, 1.0), "delta is NaN"),
], ids=["overflow-at-zero-width-gap", "overflow", "nan-v", "nan-delta"])
def test_ft_log_ratio_names_the_cause_of_a_nan_bound(params, args, message):
    dist = run_position_fcs(3, ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0),
                            params)
    with pytest.raises(NumericsError, match=message):
        dist.ft_log_ratio(*args)


def test_ft_log_ratio_takes_an_overflowing_bound_as_infinite(params):
    # finite v, delta and n tau whose bounds n tau (v +- delta) overflow: each is the
    # infinite bound it stands for, so both windows are half-lines or the whole line
    dist = run_position_fcs(3, ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0),
                            params)
    assert dist.ft_log_ratio(0.1, 1e308, 1.0) == 0.0
    below, above = dist.window_probability(-math.inf, 0), dist.window_probability(0, math.inf)
    assert dist.ft_log_ratio(1e308, 1e308, 1.0) == (math.log(below) - math.log(above)) / 3


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


@pytest.mark.parametrize("n", [1, 500, 20_000, 100_000])
def test_position_fcs_crop_is_the_whole_convolution(n):
    # only the walk's nonzero sites, padded by kernel.size - 1 zeros on each
    # side, are convolved, and the law holds the sites that convolution reaches:
    # each entry is the same dot product as in the convolution over the whole
    # support, which is exactly 0 at every other site (without the padding, edge
    # entries near 1e-153 differ in their last bits); at n = 1 and 500 the
    # padded span is clamped at both ends of the law
    rho = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    for params in BOX_PARAMS:
        dist = run_position_fcs(n, rho, params, method="reduced")
        d, kernel = free_kernel(n * params.tau, params)
        whole = np.convolve(walk_pmf_exact(n, params).pmf, kernel)
        lo = dist.first - (-n + int(d[0]))
        hi = lo + dist.pmf.size
        assert 0 <= lo < hi <= whole.size
        assert same_bits(dist.pmf, whole[lo:hi])
        assert not whole[:lo].any() and not whole[hi:].any()


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
    etas = (-0.5, 0.3, 1.0)
    for eta, oracle in zip(etas, position_cgf_oracle(n, etas, rho, params).tolist()):
        g = position_cgf(n, eta, params).value
        assert abs(g - oracle) <= TOL.position_cgf_identity
        assert abs(g - dist.log_mgf(eta)) <= TOL.position_cgf_identity


def test_position_cgf_oracle_on_an_array_of_etas_equals_each_one_entry_call(params):
    # one dephasing and one set of dressing weights for all etas
    n = 40
    window = LatticeWindow.for_dynamics(0, 0, steps=n + 20, F=params.F)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    etas = np.array([-0.5, 0.5, 0.0, 1.0])
    values = position_cgf_oracle(n, etas, rho, params)
    assert isinstance(values, np.ndarray) and values.shape == etas.shape
    assert values.tolist() == [position_cgf_oracle(n, [eta], rho, params)[0]
                               for eta in etas.tolist()]
    assert position_cgf_oracle(n, (-0.5, 0.5), rho, params).tolist() == values[:2].tolist()
    assert position_cgf_oracle(n, np.empty(0), rho, params).shape == (0,)


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
        U = repeated_interaction_propagator(ReservoirConfig(params=params, n=n), window)
        assert np.max(np.abs(U.conj().T @ U - np.eye(window.n_k << n))) <= 1e-12


def test_step_unitary_is_exponential_of_step_hamiltonian(params):
    # the propagator after each step against the product of expm of the
    # kron-assembled step Hamiltonians: particle + atom j coupled, the others idle
    expm = pytest.importorskip("scipy.linalg").expm
    window = LatticeWindow(-4, 3, -4, 3)
    for n in (1, 2, 3):
        direct = np.eye(window.n_k << n)
        for j in range(n):
            H = direct_step_hamiltonian(params, window, n, j)
            direct = expm(-1j * params.tau * H) @ direct
        U = repeated_interaction_propagator(ReservoirConfig(params=params, n=n), window)
        assert np.max(np.abs(U - direct)) <= 1e-13
