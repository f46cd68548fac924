"""Statistics of the classical trinomial walk driven by the reduced dynamics.

After n interactions the eigenbasis index performs a walk S_n with i.i.d.
steps in {-1, 0, +1} of probabilities (p_-, p_0, p_+).  This module holds
the transport coefficients, the exact law of S_n (linear and log space),
seeded Monte Carlo sampling, the scaled cumulant generating function
(`log_theta` at gamma = -eta) and the closed-form / numerical Legendre pair
of rate functions, both built on the log Kraus weights (`log_step_kernel`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import KrausTriple, kraus_weights, log_theta
from .errors import ConfigError, NumericsError
from .params import ModelParams, derive_params


@dataclass(frozen=True)
class TransportCoefficients:
    """Drift velocity, diffusion constant, and (when E == F) the mobility."""

    v_d: float
    D: float
    mobility: float | None


def transport_coefficients(params: ModelParams) -> TransportCoefficients:
    """v_d = (p/tau) tanh(beta E/2), D = (p/2 tau)(1 - p tanh^2(beta E/2)).

    The mobility beta sin^2(lam tau) / (2 tau) is meaningful only on the
    E == F line (where p = sin^2(lam tau)) and is None otherwise.
    """
    d = derive_params(params)
    th = math.tanh(0.5 * params.beta * params.E)
    v_d = d.p * th / params.tau
    D = 0.5 * d.p * (1.0 - d.p * th**2) / params.tau
    mobility = None
    if params.E == params.F:
        mobility = params.beta * math.sin(params.lam * params.tau) ** 2 / (2.0 * params.tau)
    return TransportCoefficients(v_d=v_d, D=D, mobility=mobility)


@dataclass(frozen=True)
class WalkLaw:
    """Exact law of S_n: pmf[j] = P[S_n = support[j]] on support -n..n."""

    triple: KrausTriple
    n: int
    pmf: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def mean(self) -> float:
        return float(np.dot(self.support, self.pmf))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.pmf))

    def mgf(self, eta: float) -> float:
        return float(np.dot(np.exp(eta * self.support), self.pmf))


def walk_pmf_exact(n: int, params: ModelParams) -> WalkLaw:
    """n-fold convolution of the step law, in plain 64-bit arithmetic.

    All sums are of positive terms, so every representable entry keeps
    relative accuracy; entries beyond the float range underflow to zero
    (below ~1e-308, reached near the support edges once n is a few
    hundred).  Use walk_log_pmf when those tails matter.  Cost is
    O(n^2); n ~ 10^4 stays in the seconds range.
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    triple = kraus_weights(params)
    kernel = triple.as_array()
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, kernel)
    return WalkLaw(triple=triple, n=n, pmf=pmf)


def log_step_kernel(params: ModelParams) -> np.ndarray:
    """log of the step weights (p_-, p_0, p_+); -inf for zero weights.

    l_+ = log p - log1p(e^{-beta E}), l_- = l_+ - beta E, l_0 = log1p(-p):
    exact where the weights underflow (p_- past beta E ~ 745).
    """
    p, be = derive_params(params).p, params.beta * params.E
    l_plus = (math.log(p) if p > 0.0 else -math.inf) - math.log1p(math.exp(-be))
    l_zero = math.log1p(-p) if p < 1.0 else -math.inf
    return np.array([l_plus - be, l_zero, l_plus])


def log_convolve_step(logp: np.ndarray, logk: np.ndarray) -> np.ndarray:
    """One log-space convolution step: support widens by one on each side."""
    m = logp.size
    padded = np.full((3, m + 2), -np.inf)
    for i in range(3):
        padded[i, i:i + m] = logp + logk[i]
    return np.logaddexp.reduce(padded, axis=0)


def walk_log_pmf(n: int, params: ModelParams) -> np.ndarray:
    """log P[S_n = k] on support -n..n, by log-space convolution.

    Exact deep into the tails where the linear pmf underflows; -inf marks
    genuinely impossible values (zero step weights).
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    logk = log_step_kernel(params)
    logp = np.array([0.0])
    for _ in range(n):
        logp = log_convolve_step(logp, logk)
    return logp


@dataclass(frozen=True)
class WalkSample:
    """Empirical summary of sampled walks: bit-reproducible for a fixed seed."""

    n: int
    trials: int
    seed: int
    values: np.ndarray
    counts: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.values, self.counts) / self.trials)

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.values - m) ** 2, self.counts) / self.trials)


def sample_walk(n: int, trials: int, seed: int, params: ModelParams,
                streams: int = 1) -> WalkSample:
    """Monte Carlo sample of S_n over `trials` independent walks.

    Generator: numpy Philox (counter-based), streams separated with
    .jumped(stream index), so output is bit-identical across platforms
    for a fixed (seed, streams).  Each walk is reduced to its step counts
    (N_-, N_0, N_+), a sufficient statistic for S_n = N_+ - N_-.
    """
    if trials <= 0:
        raise ConfigError("trials must be >= 1")
    if n < 0:
        raise ConfigError("n must be >= 0")
    if streams <= 0 or trials % streams != 0:
        raise ConfigError("streams must divide trials")
    pvals = kraus_weights(params).as_array()
    per = trials // streams
    chunks = []
    for j in range(streams):
        rng = np.random.Generator(np.random.Philox(seed).jumped(j))
        counts = rng.multinomial(n, pvals, size=per)
        chunks.append(counts[:, 2] - counts[:, 0])
    s = np.concatenate(chunks)
    values, cnt = np.unique(s, return_counts=True)
    return WalkSample(n=n, trials=trials, seed=seed, values=values, counts=cnt)


def scgf(eta: float, params: ModelParams) -> float:
    """Scaled cumulant generating function e(eta) = log_theta(-eta).

    The log of E[e^{eta S_1}] = e^{-eta} p_- + p_0 + e^{eta} p_+; finite at
    every finite eta (e(eta) -> |eta| + log p_+- as eta -> +-inf), with
    e(0) = 0 and the symmetry e(-beta E - eta) = e(eta).
    """
    return log_theta(-eta, params)


def _tilted_moments(eta: float, params: ModelParams, log_k: list) -> tuple[float, float, float]:
    """(e, e', e'') at eta from the tilted step law q_s = exp(l_s + eta s - e(eta)).

    e' = q_+ - q_-, e'' = q_0 (q_- + q_+) + 4 q_- q_+: no q_s exceeds 1 and
    every term of e'' is positive, so nothing overflows or cancels.
    """
    e = scgf(eta, params)
    l_m, l_0, l_p = log_k
    q_m, q_0, q_p = math.exp(l_m - eta - e), math.exp(l_0 - e), math.exp(l_p + eta - e)
    return e, q_p - q_m, q_0 * (q_m + q_p) + 4.0 * q_m * q_p


def rate_function(x: float, params: ModelParams) -> float:
    """Closed-form large-deviation rate function of S_n / n.

    With the log weights l_s of `log_step_kernel`, a^2 = 4 exp(l_+ + l_- - 2 l_0)
    and R = sqrt(x^2 + a^2 (1-x^2)), on [0, 1) (the first term is 0 at x = 0):

        I(x) = x log((x + R) / (2 (1-x))) - x (l_+ - l_0) - l_0 - log((1 + R) / (1-x^2))

    I(1) = -l_+, I(x) = I(-x) - beta E x for x < 0, +inf outside [-1, 1]: no
    term overflows or cancels at any beta E.  The frozen walk (p = 0) has
    I = 0 at x = 0 only; NumericsError for NaN x and, inside (-1, 1), at p = 1.
    """
    if math.isnan(x):
        raise NumericsError("rate function of NaN")
    if not -1.0 <= x <= 1.0:
        return math.inf
    if x < 0.0:
        return rate_function(-x, params) - params.beta * params.E * x
    l_minus, l_zero, l_plus = log_step_kernel(params).tolist()
    if l_plus == -math.inf:  # p = 0: the walk never moves, S_n = 0 surely
        return 0.0 if x == 0.0 else math.inf
    if x == 1.0:
        return -l_plus
    if l_zero == -math.inf:
        raise NumericsError(f"closed-form rate function needs p < 1 inside (-1, 1), x={x!r}")
    a2 = 4.0 * math.exp(l_plus + l_minus - 2.0 * l_zero)
    R = math.sqrt(x * x + a2 * (1.0 - x * x))
    tilt = x * math.log((x + R) / (2.0 * (1.0 - x))) if x > 0.0 else 0.0
    return tilt - x * (l_plus - l_zero) - l_zero - math.log((1.0 + R) / (1.0 - x * x))


def _legendre_sup(x: float, params: ModelParams, max_iter: int = 200) -> tuple[float, float]:
    """Solve e'(eta) = x by safeguarded Newton; returns (eta*, eta* x - e(eta*)).

    The bracket doubles until it holds x.  Newton stops at rounding level in e',
    or at a step or bracket of a few ulps of eta; it bisects where e'' is subnormal.
    """
    log_k = log_step_kernel(params).tolist()
    lo, hi = -2.0, 2.0
    while not math.isinf(lo) and _tilted_moments(lo, params, log_k)[1] > x:
        lo *= 2.0
    while not math.isinf(hi) and _tilted_moments(hi, params, log_k)[1] < x:
        hi *= 2.0
    if math.isinf(lo) or math.isinf(hi):
        raise NumericsError(f"cannot bracket Legendre sup at x={x}")
    eta = 0.5 * (lo + hi)
    for _ in range(max_iter):
        e0, e1, e2 = _tilted_moments(eta, params, log_k)
        f = e1 - x
        lo, hi = (lo, eta) if f > 0.0 else (eta, hi)
        step = f / e2 if e2 >= sys.float_info.min else math.inf
        if abs(f) <= 1e-14 * (1.0 + abs(x)) or min(abs(step), hi - lo) <= 4.0 * math.ulp(eta):
            return eta, eta * x - e0
        eta = eta - step if lo < eta - step < hi else 0.5 * (lo + hi)
    raise NumericsError(f"Legendre sup did not converge at x={x}")


def rate_function_numeric(x: float, params: ModelParams) -> float:
    """Rate function as the Legendre-Fenchel transform sup_eta [eta x - e(eta)]."""
    if not -1.0 < x < 1.0:
        raise ConfigError("numeric rate function requires x strictly inside (-1, 1)")
    return _legendre_sup(x, params)[1]


def rate_function_entropy(s: float, params: ModelParams) -> float:
    """Rate function of the entropy-like increment per step.

    phi(s) = sup_alpha (alpha s - log theta(alpha)) = I(-s / (beta E));
    evaluated through its own Legendre sup over alpha (substituting
    eta = -alpha beta E), independent of the closed form.  Requires
    beta E > 0; satisfies phi(-s) = phi(s) - s.
    """
    be = params.beta * params.E
    if be <= 0.0:
        raise ConfigError("entropy rate function needs beta E > 0")
    x = -s / be
    if abs(x) >= 1.0:
        # endpoint limits fall back to the closed form; +inf beyond them
        return rate_function(x, params)
    return _legendre_sup(x, params)[1]
