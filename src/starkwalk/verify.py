"""Self-verification suite: every headline identity at its pinned tolerance.

Each check pits a closed-form object against an independent route
(partial-trace oracle, sector-block exponential, log-space convolution,
brute-force reservoir, finite differences) and reports the measured
error next to the tolerance it must beat.  `run_all` powers both the
acceptance tests and the `verify-all` CLI experiment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fcs as fcs_mod
from .channel import apply_channel, channel_oracle, kraus_weights, theta
from .config import TOL
from .params import ModelParams
from .singleatom import (
    JointDensityMatrix,
    AtomGibbs,
    position_expectation,
    position_motion_bound,
    position_oracle,
    propagate_closed,
    propagate_oracle,
)
from .state import LatticeWindow, ParticleDensityMatrix
from .walk import (
    log_convolve_step,
    log_step_kernel,
    rate_function,
    rate_function_numeric,
    sample_walk,
    transport_coefficients,
    walk_log_pmf,
    walk_pmf_exact,
    walk_pmf_oracle,
)

CHECK_PARAMS = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{status}  {self.name}: measured {self.measured:.3e} "
                f"vs tolerance {self.tolerance:.3e}{extra}")


def _random_state(rng, window: LatticeWindow, half: int, atoms: int = 1) -> np.ndarray:
    """Coefficients of a random full-rank density matrix supported on |k| <= half.

    Over `atoms` atom-major blocks of the window: 1 for a particle state,
    2 for a particle (x) atom state.
    """
    n, s = window.n_k, 2 * half + 1
    g = rng.normal(size=(atoms * s, atoms * s)) + 1j * rng.normal(size=(atoms * s, atoms * s))
    block = g @ g.conj().T
    block /= np.trace(block).real
    i0 = window.k_index(-half)
    idx = (n * np.arange(atoms)[:, None] + np.arange(i0, i0 + s)).ravel()
    coeffs = np.zeros((atoms * n, atoms * n), dtype=complex)
    coeffs[np.ix_(idx, idx)] = block
    return coeffs


def _trace_norm(diffs: np.ndarray) -> float:
    """The largest nuclear norm in a stack of matrices, on the smallest square holding
    the nonzero rows and columns of all of them.

    Zero rows and columns do not change the singular values.
    """
    nz = np.any(diffs != 0.0, axis=tuple(range(diffs.ndim - 2)))    # over the stack
    idx = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    if not idx.size:
        return 0.0
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    crop = diffs[..., lo:hi, lo:hi]
    return float(np.max(np.sum(np.linalg.svd(crop, compute_uv=False), axis=-1)))


def check_channel_oracle() -> CheckResult:
    """1. Kraus route vs the defining partial trace, 20 states x 3 alphas: per state,
    one free evolution and one stacked kick for all alphas, one oracle call, and
    one batched SVD of the three differences."""
    params = CHECK_PARAMS
    window = LatticeWindow(-32, 31, -32, 31)
    rng = np.random.default_rng(11)
    alphas = np.array([0.0, 0.3, 1.0])
    worst = 0.0
    for _ in range(20):
        dm = ParticleDensityMatrix(window, _random_state(rng, window, 10))
        diffs = [a.coeffs - b.coeffs for a, b in zip(apply_channel(dm, alphas, params),
                                                      channel_oracle(dm, alphas, params))]
        worst = max(worst, _trace_norm(np.stack(diffs)))
    return CheckResult("channel vs partial-trace oracle", worst <= TOL.channel_oracle,
                       worst, TOL.channel_oracle, "trace-norm distance")


def check_propagator() -> CheckResult:
    """2. Closed-form propagator vs sector-block exponentials."""
    params = CHECK_PARAMS
    window = LatticeWindow(-24, 23, -24, 23)
    rng = np.random.default_rng(12)
    ts = np.array([0.1, params.tau, 3.0 * params.tau])
    worst = 0.0
    for _ in range(20):
        state = JointDensityMatrix(window, _random_state(rng, window, 8, atoms=2))
        for a, b in zip(propagate_closed(state, ts, params), propagate_oracle(state, ts, params)):
            worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    return CheckResult("closed propagator vs 2x2 oracle", worst <= TOL.propagator_agreement,
                       worst, TOL.propagator_agreement)


def check_theta_identities() -> CheckResult:
    """3. theta(0) = theta(1) = 1, theta(1-a) = theta(a), Kraus identity."""
    params = CHECK_PARAMS
    triple = kraus_weights(params)
    be = params.beta * params.E
    grid = np.arange(-2.0, 3.0001, 0.05)
    worst_sym = max(abs(theta(0.0, params) - 1.0), abs(theta(1.0, params) - 1.0))
    worst_kraus = 0.0
    for a in grid:
        worst_sym = max(worst_sym, abs(theta(1.0 - a, params) - theta(a, params)))
        viak = (math.exp(a * be) * triple.p_minus + triple.p_zero
                + math.exp(-a * be) * triple.p_plus)
        worst_kraus = max(worst_kraus, abs(theta(a, params) - viak))
    passed = worst_sym <= TOL.theta_symmetry and worst_kraus <= TOL.theta_kraus_identity
    return CheckResult("theta symmetry and Kraus identity", passed,
                       max(worst_sym, worst_kraus), TOL.theta_symmetry,
                       f"kraus defect {worst_kraus:.2e} vs {TOL.theta_kraus_identity:.0e}")


def check_transport() -> CheckResult:
    """4. Exact walk moments at n in {1, 50}; Monte Carlo mean within 4 sigma;
    the ratio-recurrence law equal to the convolution power (binary powering,
    `walk_pmf_oracle`) at n = 2000."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    worst = 0.0
    for n in (1, 50):
        law = walk_pmf_exact(n, params)
        mean_err = abs(law.mean() - n * tc.v_d * params.tau) / (n * tc.v_d * params.tau)
        var_err = abs(law.variance() - n * 2.0 * tc.D * params.tau) / (n * 2.0 * tc.D * params.tau)
        worst = max(worst, mean_err, var_err)
    n, trials = 10_000, 100_000
    sample = sample_walk(n, trials, seed=7, params=params)
    dev = abs(sample.mean() / (n * params.tau) - tc.v_d)
    bound = 4.0 * math.sqrt(2.0 * tc.D / (n * params.tau * trials))
    law_gap = walk_pmf_exact(2000, params).oracle_gap(walk_pmf_oracle(2000, params))
    passed = worst <= TOL.walk_moments_rel and dev <= bound and law_gap <= TOL.walk_law_rel
    return CheckResult("transport coefficients vs walk moments", passed, worst,
                       TOL.walk_moments_rel,
                       f"MC deviation {dev:.2e} vs 4-sigma {bound:.2e}; "
                       f"law vs convolution {law_gap:.2e} vs {TOL.walk_law_rel:.0e}")


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2 elementwise, with no cancellation in the lower tail."""
    return 0.5 * _erfc(-z / math.sqrt(2.0)).astype(float)


def check_clt() -> CheckResult:
    """5. Kolmogorov distance of the standardized exact pmf at n = 10^4."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    n = 10_000
    law = walk_pmf_exact(n, params)
    mu = tc.v_d * n * params.tau
    sigma = math.sqrt(2.0 * tc.D * n * params.tau)
    z = (law.dx - mu) / sigma
    cdf = np.cumsum(law.pmf)
    phi = _normal_cdf(z)
    dist = float(np.max(np.maximum(np.abs(cdf - phi),
                                   np.abs(np.concatenate([[0.0], cdf[:-1]]) - phi))))
    return CheckResult("central limit theorem (Kolmogorov)", dist <= TOL.clt_kolmogorov,
                       dist, TOL.clt_kolmogorov)


def check_ldp() -> CheckResult:
    """6. LDP errors at n = 800 small and monotone in n; closed vs numeric rate on a
    401-point grid, the Legendre transforms solved in one lock-step call."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    xs = [-0.3, 0.0, 0.3, tc.v_d * params.tau]
    errs = {}
    laws = {n: walk_pmf_exact(n, params) for n in (200, 400, 800)}
    for n, law in laws.items():
        with np.errstate(divide="ignore"):
            logp = np.log(law.pmf)
        for x in xs:
            k = round(x * n)
            errs[(n, x)] = abs(-logp[k - law.first] / n - rate_function(x, params))
    worst800 = max(errs[(800, x)] for x in xs)
    monotone = all(errs[(200, x)] >= errs[(400, x)] >= errs[(800, x)] for x in xs)
    grid = np.linspace(-0.999, 0.999, 401)
    closed = np.array([rate_function(x, params) for x in grid.tolist()])
    rate_gap = float(np.max(np.abs(closed - rate_function_numeric(grid, params))))
    passed = worst800 <= TOL.ldp_abs and monotone and rate_gap <= TOL.rate_match
    return CheckResult("large deviations rate", passed, worst800, TOL.ldp_abs,
                       f"monotone={monotone}, closed-vs-numeric {rate_gap:.2e}")


def _reservoir_run(params: ModelParams, n: int) -> fcs_mod.EnergyFcsResult:
    """The brute-force reservoir of checks 7, 8 and 11: M = 3 atoms and n interactions,
    from the k = 0 eigenstate on the window -16..15."""
    window = LatticeWindow(-16, 15, -16, 15)
    cfg = fcs_mod.ReservoirConfig(params=params, M=3, n=n, window=window)
    return fcs_mod.run_energy_fcs(cfg, ParticleDensityMatrix.eigenstate(window, 0))


def check_fluctuation() -> CheckResult:
    """7. Exact walk fluctuation symmetry for all n <= 200; energy FT at n <= 3;
    the log walk law equal to the log-space convolution at n = 200."""
    params = CHECK_PARAMS
    be = params.beta * params.E
    logk = log_step_kernel(params)
    logp = np.array([0.0])
    worst = 0.0
    for n in range(1, 201):
        logp = log_convolve_step(logp, logk)
        k = np.arange(1, n + 1)
        defect = np.abs(logp[n - k] - (logp[n + k] - be * k))
        worst = max(worst, float(np.max(defect)))
    log_gap = float(np.max(np.abs(walk_log_pmf(200, params) - logp)
                           / np.maximum(1.0, np.abs(logp))))

    worst_energy = 0.0
    for n in (1, 2, 3):
        law = _reservoir_run(params, n).walk_law()
        # P[dS = -sigma] = e^{sigma} P[dS = sigma], dS = -beta E S_n: the walk's
        # positive displacements dominate
        for j in range(1, n + 1):
            up, down = law.pmf[j - law.first], law.pmf[-j - law.first]
            worst_energy = max(worst_energy, abs(up / (math.exp(be * j) * down) - 1.0))
    passed = (worst <= TOL.fluctuation_rel and worst_energy <= TOL.fluctuation_rel
              and log_gap <= TOL.walk_law_rel)
    return CheckResult("fluctuation identities", passed, max(worst, worst_energy),
                       TOL.fluctuation_rel,
                       f"walk log-defect {worst:.2e}, energy FT {worst_energy:.2e}; "
                       f"log law vs log convolution {log_gap:.2e} vs {TOL.walk_law_rel:.0e}")


def check_energy_fcs() -> CheckResult:
    """8. Brute force M = n = 3: diagonal support, E[e^{a dS}] = theta(a)^n, and the
    reservoir's increment law equal to the walk law."""
    params = CHECK_PARAMS
    result = _reservoir_run(params, 3)
    off = result.off_diagonal_mass()
    law = result.walk_law()
    worst = 0.0
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        target = theta(alpha, params) ** law.n
        worst = max(worst, abs(law.mgf(-alpha * result.beta_E) / target - 1.0))
    law_gap = law.oracle_gap(walk_pmf_exact(law.n, params))
    passed = off <= TOL.fcs_support and worst <= TOL.fcs_mgf_rel and law_gap <= TOL.walk_law_rel
    return CheckResult("energy counting statistics", passed, worst, TOL.fcs_mgf_rel,
                       f"off-diagonal mass {off:.2e}; "
                       f"law vs walk law {law_gap:.2e} vs {TOL.walk_law_rel:.0e}")


def check_position_fcs() -> CheckResult:
    """9. (1/n) g_n within 0.02 of the limit at n = 500; FT ratio bracket;
    closed-form g_n equal to the windowed deformed-channel oracle at n = 40, the
    oracle called once for both etas (one dephasing, one set of dressing weights)."""
    params = CHECK_PARAMS
    n = 500
    worst_gap = 0.0
    for eta in (-0.5, 0.5):
        g = fcs_mod.position_cgf(n, eta, params)
        worst_gap = max(worst_gap, abs(g.value / n - g.rate_limit))

    n_id = 40
    window = LatticeWindow.for_dynamics(0, 0, steps=n_id + 20, F=params.F)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    etas = (-0.5, 0.5)
    oracle = fcs_mod.position_cgf_oracle(n_id, etas, rho, params).tolist()
    identity = max(abs(fcs_mod.position_cgf(n_id, eta, params).value - g)
                   for eta, g in zip(etas, oracle))
    identity_ok = identity <= TOL.position_cgf_identity

    small = LatticeWindow(-8, 7, -8, 7)
    dist = fcs_mod.run_position_fcs(n, ParticleDensityMatrix.eigenstate(small, 0),
                                    params, method="reduced")
    v, delta = 0.1, 0.02
    ratio = dist.ft_log_ratio(v, delta, params.tau)
    be = params.beta * params.E
    in_bracket = -be * (v + delta) <= ratio <= -be * (v - delta)
    passed = worst_gap <= TOL.position_cgf_gap and in_bracket and identity_ok
    return CheckResult("position counting statistics", passed, worst_gap,
                       TOL.position_cgf_gap,
                       f"FT ratio {ratio:.4f} in [{-be*(v+delta):.2f}, {-be*(v-delta):.2f}]: "
                       f"{in_bracket}; oracle defect {identity:.2e} vs "
                       f"{TOL.position_cgf_identity:.0e}: {identity_ok}")


def check_einstein() -> CheckResult:
    """10. Einstein relation D beta / mu = 1 on the E = F line at F = 1e-3."""
    params = ModelParams(E=1e-3, F=1e-3, lam=0.3, tau=1.0, beta=1.0)
    tc = transport_coefficients(params)
    defect = abs(tc.D * params.beta / tc.mobility - 1.0)
    return CheckResult("Einstein relation", defect <= TOL.einstein, defect, TOL.einstein)


def check_energy_bookkeeping() -> CheckResult:
    """11. Total energy: rate (E-F) v_d tau off resonance, exact conservation at E = F."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    result = _reservoir_run(params, 3)
    rate_err = abs(result.total_energy_change_mean() / result.cfg.n
                   - (params.E - params.F) * tc.v_d * params.tau)

    balanced = ModelParams(E=1.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    conins = _reservoir_run(balanced, 3).max_total_energy_change()
    passed = rate_err <= TOL.energy_rate and conins <= TOL.energy_conservation
    return CheckResult("energy bookkeeping", passed, rate_err, TOL.energy_rate,
                       f"E=F conservation defect {conins:.2e}")


def check_boundedness() -> CheckResult:
    """12. Single-atom <X(t)> within the closed-form bound and equal to the oracle."""
    params = CHECK_PARAMS
    window = LatticeWindow(-24, 23, -24, 23)
    n = window.n_k
    # particle state with coherence between neighbouring rungs, atom thermal
    vec = np.zeros(n, dtype=complex)
    vec[window.k_index(0)] = 1.0 / math.sqrt(2.0)
    vec[window.k_index(1)] = 1.0 / math.sqrt(2.0)
    rho_p = ParticleDensityMatrix(window, np.outer(vec, vec.conj()))
    state = JointDensityMatrix.product(rho_p, AtomGibbs.from_params(params).density())

    bound = position_motion_bound(params)
    ts = np.linspace(0.0, 50.0 * params.tau, 201)
    xt = position_expectation(ts, state, params)
    oracle = position_oracle(ts, state, params)
    # ts[0] = 0, so xt[0] is <X(0)>
    worst_dev = float(np.max(np.abs(xt - oracle)))
    worst_excess = float(np.max(np.abs(xt - xt[0]) - bound))
    passed = worst_dev <= TOL.position_oracle and worst_excess <= 0.0
    return CheckResult("single-atom boundedness", passed, worst_dev, TOL.position_oracle,
                       f"max |<X>-<X_0>| - bound = {worst_excess:.3f}")


ALL_CHECKS = [
    ("channel-oracle", check_channel_oracle),
    ("propagator", check_propagator),
    ("theta", check_theta_identities),
    ("transport", check_transport),
    ("clt", check_clt),
    ("ldp", check_ldp),
    ("fluctuation", check_fluctuation),
    ("energy-fcs", check_energy_fcs),
    ("position-fcs", check_position_fcs),
    ("einstein", check_einstein),
    ("energy-bookkeeping", check_energy_bookkeeping),
    ("boundedness", check_boundedness),
]


def run_all() -> list[CheckResult]:
    return [fn() for _, fn in ALL_CHECKS]
