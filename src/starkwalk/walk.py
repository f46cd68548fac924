"""Statistics of the classical trinomial walk driven by the reduced dynamics.

After n interactions the eigenbasis index performs a walk S_n with i.i.d.
steps in {-1, 0, +1} of probabilities (p_-, p_0, p_+).  This module holds
the transport coefficients, the exact law of S_n (linear and log space),
seeded Monte Carlo sampling, the scaled cumulant generating function
(the channel's `log_theta` at gamma = -eta) and the closed-form /
numerical Legendre pair of rate functions.
"""
from __future__ import annotations

import math
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
    """log of the step weights (p_-, p_0, p_+); -inf for zero weights."""
    with np.errstate(divide="ignore"):
        return np.log(kraus_weights(params).as_array())


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


def _scgf_derivatives(eta: float, params: ModelParams) -> tuple[float, float, float]:
    """(e, e', e'') at eta, from the explicit cosh/sinh forms."""
    d = derive_params(params)
    be = params.beta * params.E
    b = d.p / math.cosh(0.5 * be)
    u = 0.5 * be + eta
    den = (1.0 - d.p) + b * math.cosh(u)
    e1 = b * math.sinh(u) / den
    e2 = ((1.0 - d.p) * b * math.cosh(u) + b * b) / den**2
    return math.log(den), e1, e2


def rate_function(x: float, params: ModelParams) -> float:
    """Closed-form large-deviation rate function of S_n / n.

    With a = p / ((1-p) cosh(beta E/2)) and R(x) = sqrt(x^2 + a^2 (1-x^2)):

        I(x) = -x beta E / 2 + x log((x + R) / (a (1 - x)))
               - log((1-p)(1 + R) / (1 - x^2))

    on (-1, 1); +inf outside [-1, 1]; at x = +-1 the continuous limits
    -log p_+ and -log p_- are returned.  Strictly convex, I(v_d tau) = 0,
    and I(x) = -beta E x + I(-x) holds exactly.  NumericsError where doubles
    fail it (p = 1, cosh overflow, x + R cancelling to 0 at x < 0).
    """
    if not -1.0 <= x <= 1.0:
        return math.inf
    triple = kraus_weights(params)
    if abs(x) == 1.0:
        edge = triple.p_plus if x > 0 else triple.p_minus
        return math.inf if edge == 0.0 else -math.log(edge)
    d = derive_params(params)
    if d.p == 0.0:
        # the walk never moves: S_n = 0 surely
        return 0.0 if x == 0.0 else math.inf
    be = params.beta * params.E
    try:
        a = d.p / ((1.0 - d.p) * math.cosh(0.5 * be))
        R = math.sqrt(x * x + a * a * (1.0 - x * x))
        return (-0.5 * be * x
                + x * math.log((x + R) / (a * (1.0 - x)))
                - math.log((1.0 - d.p) * (1.0 + R) / (1.0 - x * x)))
    except (ArithmeticError, ValueError):
        raise NumericsError(f"closed-form rate function fails in doubles at x={x!r} "
                            f"(p = {d.p!r}, beta E = {be!r})") from None


def _legendre_sup(x: float, params: ModelParams, max_iter: int = 200) -> tuple[float, float]:
    """Solve e'(eta) = x by safeguarded Newton; returns (eta*, eta* x - e(eta*))."""
    lo, hi = -2.0, 2.0
    while _scgf_derivatives(lo, params)[1] > x:
        lo *= 2.0
        if lo < -690.0:  # cosh overflows shortly beyond this
            raise NumericsError(f"cannot bracket Legendre sup at x={x}")
    while _scgf_derivatives(hi, params)[1] < x:
        hi *= 2.0
        if hi > 690.0:
            raise NumericsError(f"cannot bracket Legendre sup at x={x}")
    eta = 0.5 * (lo + hi)
    for _ in range(max_iter):
        e0, e1, e2 = _scgf_derivatives(eta, params)
        f = e1 - x
        if abs(f) <= 1e-14 * (1.0 + abs(x)):
            return eta, eta * x - e0
        if f > 0.0:
            hi = eta
        else:
            lo = eta
        step = f / e2
        candidate = eta - step
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        eta = candidate
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
