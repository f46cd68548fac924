"""Self-verification suite: every headline identity at its pinned tolerance.

Each check pits a closed-form object against an independent route
(partial-trace oracle, sector-block exponential, log-space convolution,
brute-force reservoir, finite differences) and reports the measured
error next to the tolerance it must beat.  `run_all` powers both the
acceptance tests and the `verify-all` CLI experiment.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fcs as fcs_mod
from .channel import (
    _atom_diagonal,
    _kick,
    _partial_trace_on,
    deformed_weights,
    kraus_weights,
    theta,
)
from .config import TOL
from .params import ModelParams
from .singleatom import (
    _closed_blocks,
    _conjugate_on,
    _oracle_blocks,
    AtomGibbs,
    JointDensityMatrix,
    position_expectation,
    position_motion_bound,
    position_oracle,
)
from .state import LatticeWindow, ParticleDensityMatrix, _free_phases, _span, _support, _uncrop
from .walk import (
    LatticeLaw,
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


def _random_states(rng, window: LatticeWindow, half: int, count: int,
                   atoms: int = 1) -> tuple[np.ndarray, slice]:
    """`count` random full-rank density matrices supported on |k| <= half, drawn one
    after another, as (stack, ks).

    ks is that k-range widened by one site (`_span`), and the stack, shaped
    (count, atoms m, atoms m) for its m sites, holds each state's
    coefficients on it over `atoms` atom-major blocks: 1 for a particle
    state, 2 for a particle (x) atom state.  Everything outside ks is 0.
    """
    s = 2 * half + 1
    i0 = window.k_index(-half)
    occupied = np.zeros(window.n_k, dtype=bool)
    occupied[i0:i0 + s] = True
    ks = _span(occupied, 1)
    # each state's real normals, then its imaginary ones: the order of a draw per state;
    # rebinding g frees the normals before the Gram product
    g = rng.normal(size=(count, 2, atoms * s, atoms * s))
    g = g[:, 0] + 1j * g[:, 1]
    blocks = g @ g.conj().swapaxes(-1, -2)
    blocks /= np.trace(blocks, axis1=-2, axis2=-1).real[:, None, None]
    inner = slice(i0 - ks.start, i0 - ks.start + s)
    return _uncrop(blocks, inner, ks.stop - ks.start, atoms), ks


def _trace_norm(diffs: np.ndarray) -> float:
    """The largest nuclear norm in a stack of matrices, on the smallest square holding
    the nonzero rows and columns of all of them (`_span` with no padding).

    Zero rows and columns do not change the singular values.
    """
    ks = _span(_support(diffs), 0)
    return float(np.max(np.sum(np.linalg.svd(diffs[..., ks, ks], compute_uv=False), axis=-1)))


def check_channel_oracle() -> CheckResult:
    """1. Kraus route vs the defining partial trace, 20 states x 3 alphas: the states
    stacked on their occupied k-range and freely evolved once, then per alpha one
    kick and one partial trace of the whole stack, and one batched SVD of the 20
    differences."""
    params = CHECK_PARAMS
    window = LatticeWindow(-32, 31, -32, 31)
    rng = np.random.default_rng(11)
    rhos, ks = _random_states(rng, window, 10, 20)
    evolved = _free_phases(params.tau, params.F, ks.stop - ks.start) * rhos
    gibbs = AtomGibbs.from_params(params)
    blocks, edges = _oracle_blocks(params.tau, params, window, ks)
    worst = 0.0
    for alpha in (0.0, 0.3, 1.0):
        kicked = _kick(evolved, deformed_weights(alpha * params.beta * params.E, params))
        traced = _partial_trace_on(rhos, _atom_diagonal(gibbs, 1.0 - alpha),
                                   _atom_diagonal(gibbs, alpha), blocks, edges)
        worst = max(worst, _trace_norm(kicked - traced))
    return CheckResult("channel vs partial-trace oracle", worst <= TOL.channel_oracle,
                       worst, TOL.channel_oracle, "trace-norm distance")


def check_propagator() -> CheckResult:
    """2. Closed-form propagator vs sector-block exponentials, 20 states x 3 times: the
    states stacked on their occupied k-range, the blocks of both routes built for the
    sectors of that range alone, and per time each route conjugates the whole stack
    once."""
    params = CHECK_PARAMS
    window = LatticeWindow(-24, 23, -24, 23)
    rng = np.random.default_rng(12)
    ts = np.array([0.1, params.tau, 3.0 * params.tau])
    states, ks = _random_states(rng, window, 8, 20, atoms=2)
    closed, oracle = _closed_blocks(ts, params, window, ks), _oracle_blocks(ts, params, window, ks)
    worst = 0.0
    for i in range(ts.size):
        a = _conjugate_on(closed[0][i], closed[1][i], states)
        b = _conjugate_on(oracle[0][i], oracle[1][i], states)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("closed propagator vs 2x2 oracle", worst <= TOL.propagator_agreement,
                       worst, TOL.propagator_agreement)


def check_theta_identities() -> CheckResult:
    """3. theta(0) = theta(1) = 1, theta(1-a) = theta(a), Kraus identity."""
    params = CHECK_PARAMS
    p_minus, p_zero, p_plus = kraus_weights(params).tolist()
    be = params.beta * params.E
    grid = np.arange(-2.0, 3.0001, 0.05)
    worst_sym = max(abs(theta(0.0, params) - 1.0), abs(theta(1.0, params) - 1.0))
    worst_kraus = 0.0
    for a in grid:
        worst_sym = max(worst_sym, abs(theta(1.0 - a, params) - theta(a, params)))
        viak = math.exp(a * be) * p_minus + p_zero + math.exp(-a * be) * p_plus
        worst_kraus = max(worst_kraus, abs(theta(a, params) - viak))
    passed = worst_sym <= TOL.theta_symmetry and worst_kraus <= TOL.theta_kraus_identity
    return CheckResult("theta symmetry and Kraus identity", passed,
                       max(worst_sym, worst_kraus), TOL.theta_symmetry,
                       f"kraus defect {worst_kraus:.2e} vs {TOL.theta_kraus_identity:.0e}")


def check_transport() -> CheckResult:
    """4. Exact walk moments at n in {1, 50}; Monte Carlo mean within 4 sigma;
    the ratio-recurrence law equal to the convolution power (binary powering,
    `walk_pmf_oracle`) at n = 2000.

    The Monte Carlo part reads only the grand mean of 10^5 walks of 10^4
    steps.  Step counts of independent walks add: the sum of T
    Multinomial(n, p) draws is Multinomial(nT, p), so that grand mean has the
    law of S_N / T with N = nT = 10^9.  One seeded walk of N steps is drawn,
    and S_N / (N tau) is held to v_d within 4 sqrt(2 D / (N tau)): the same
    statistic, null law and bound as the per-trial sample, without drawing
    the per-trial detail the check never reads.
    """
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    worst = 0.0
    for n in (1, 50):
        law = walk_pmf_exact(n, params)
        mean_err = abs(law.mean() - n * tc.v_d * params.tau) / (n * tc.v_d * params.tau)
        var_err = abs(law.variance() - n * 2.0 * tc.D * params.tau) / (n * 2.0 * tc.D * params.tau)
        worst = max(worst, mean_err, var_err)
    steps = 10_000 * 100_000
    sample = sample_walk(steps, 1, seed=7, params=params)
    dev = abs(sample.mean() / (steps * params.tau) - tc.v_d)
    bound = 4.0 * math.sqrt(2.0 * tc.D / (steps * params.tau))
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


def _kolmogorov(law: LatticeLaw, mu: float, sigma: float) -> float:
    """Kolmogorov distance between `law`, standardized by mu and sigma, and the normal
    law.

    Taken on the law's nonzero span widened by one site each side (`_span`)
    and the lattice's last site.  Outside the span the cdf is flat, 0 below
    it and its total above it, and Phi is monotone: below the span no site
    beats the first one of the span, and above it the largest distance is
    at the site past the span or at the last site.  So the distance equals
    the dense one over every site of the law bit for bit: the cumulative sum
    adds exact zeros outside the span, and each Phi is the same elementwise
    value.
    """
    live = _span(law.pmf != 0.0, 1)
    z = (np.append(law.dx[live], law.first + law.pmf.size - 1) - mu) / sigma
    cdf = np.cumsum(law.pmf[live])
    # the cdf at each site and one site below it; at the last site both are the total
    below, cdf = np.concatenate([[0.0], cdf[:-1], cdf[-1:]]), np.append(cdf, cdf[-1])
    phi = _normal_cdf(z)
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(below - phi))))


def check_clt() -> CheckResult:
    """5. Kolmogorov distance of the standardized exact pmf at n = 10^4, on the law's
    nonzero span (`_kolmogorov`)."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    n = 10_000
    law = walk_pmf_exact(n, params)
    dist = _kolmogorov(law, tc.v_d * n * params.tau, math.sqrt(2.0 * tc.D * n * params.tau))
    return CheckResult("central limit theorem (Kolmogorov)", dist <= TOL.clt_kolmogorov,
                       dist, TOL.clt_kolmogorov)


def check_ldp() -> CheckResult:
    """6. LDP errors at n = 800 small and monotone in n; closed vs numeric rate on a
    401-point grid, the Legendre transforms solved in one lock-step call."""
    params = CHECK_PARAMS
    tc = transport_coefficients(params)
    xs = [-0.3, 0.0, 0.3, tc.v_d * params.tau]
    rates = rate_function(xs, params).tolist()
    errs = {}
    laws = {n: walk_pmf_exact(n, params) for n in (200, 400, 800)}
    for n, law in laws.items():
        with np.errstate(divide="ignore"):
            logp = np.log(law.pmf)
        for x, rate in zip(xs, rates):
            k = round(x * n)
            errs[(n, x)] = abs(-logp[k - law.first] / n - rate)
    worst800 = max(errs[(800, x)] for x in xs)
    monotone = all(errs[(200, x)] >= errs[(400, x)] >= errs[(800, x)] for x in xs)
    grid = np.linspace(-0.999, 0.999, 401)
    gap = rate_function(grid, params) - rate_function_numeric(grid, params)
    rate_gap = float(np.max(np.abs(gap)))
    passed = worst800 <= TOL.ldp_abs and monotone and rate_gap <= TOL.rate_match
    return CheckResult("large deviations rate", passed, worst800, TOL.ldp_abs,
                       f"monotone={monotone}, closed-vs-numeric {rate_gap:.2e}")


@functools.cache
def _reservoir_run(params: ModelParams, n: int) -> fcs_mod.EnergyFcsResult:
    """The brute-force reservoir of checks 7, 8 and 11, run once per (params, n)."""
    return fcs_mod.run_energy_fcs(fcs_mod.ReservoirConfig(params=params, n=n))


def _log_convolution_table(logk: np.ndarray, steps: int) -> np.ndarray:
    """The log laws of S_0 .. S_steps by log-space convolution, one row per n.

    Row n holds log P[S_n = d] at column steps + 1 + d, -inf off its support
    and in the two padding columns.  Each step sums the three shifted rows
    above, (d + 1) + log p_-, then d + log p_0, then (d - 1) + log p_+, with
    `np.logaddexp` in the order `np.logaddexp.reduce` takes over a padded
    stack, so each row is the step-by-step log convolution bit for bit.
    """
    c = steps + 1
    table = np.full((steps + 1, 2 * c + 1), -np.inf)
    table[0, c] = 0.0
    for n in range(1, steps + 1):
        prev, row = table[n - 1], table[n, c - n:c + n + 1]
        np.add(prev[c - n + 1:c + n + 2], logk[0], out=row)
        np.logaddexp(row, prev[c - n:c + n + 1] + logk[1], out=row)
        np.logaddexp(row, prev[c - n - 1:c + n] + logk[2], out=row)
    return table


def _walk_fluctuation(params: ModelParams, steps: int) -> tuple[float, float]:
    """(defect, gap) of the walk part of check 7, from one `_log_convolution_table`.

    defect is the largest |log P[S_n = -k] - (log P[S_n = k] - beta E k)| over
    1 <= k <= n <= steps, taken in one masked expression over the table;
    gap is `walk_log_pmf(steps)` against the table's last row,
    relative to max(1, |log P|).
    """
    be = params.beta * params.E
    table = _log_convolution_table(log_step_kernel(params), steps)
    c = steps + 1
    # row n - 1 of down and up holds log P[S_n = -k] and log P[S_n = k] at column k - 1
    down, up = table[1:, c - 1:0:-1], table[1:, c + 1:c + 1 + steps]
    k = np.arange(1, steps + 1)
    below = k <= k[:, None]
    defects = up - be * k
    np.subtract(down, defects, out=defects, where=below)
    defect = float(np.max(np.abs(defects, out=defects), where=below, initial=0.0))
    logp = table[steps, 1:-1]
    gap = float(np.max(np.abs(walk_log_pmf(steps, params) - logp) / np.maximum(1.0, np.abs(logp))))
    return defect, gap


def check_fluctuation() -> CheckResult:
    """7. Exact walk fluctuation symmetry for all n <= 200; energy FT at n <= 3;
    the log walk law equal to the log-space convolution at n = 200.

    The 200 convolution steps fill one table, and the walk's defects of all
    n are read from it at once (`_walk_fluctuation`).
    """
    params = CHECK_PARAMS
    be = params.beta * params.E
    worst, log_gap = _walk_fluctuation(params, 200)

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
    """8. Brute force at n = 3: diagonal support, E[e^{a dS}] = theta(a)^n, and the
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
    """12. Single-atom <X(t)> within the closed-form bound and equal to the oracle,
    `position_oracle` evolving the state with blocks for the sectors of its occupied
    k-range alone (3 of the window's 47)."""
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
