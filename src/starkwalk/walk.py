"""Statistics of the classical trinomial walk driven by the reduced dynamics.

After n interactions the eigenbasis index performs a walk S_n with i.i.d.
steps in {-1, 0, +1} of probabilities (p_-, p_0, p_+).  This module holds
the transport coefficients, the exact law of S_n (linear and log space, in
O(n) from one ratio recurrence for the coefficients of (p_- + p_0 z + p_+ z^2)^n,
with the n-fold convolutions as its oracles), seeded Monte Carlo sampling,
the scaled cumulant generating function (`log_theta` at gamma = -eta) and
the closed-form / numerical Legendre pair of rate functions, all built on
the log Kraus weights (`log_step_kernel`).
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import _log_theta, kraus_weights, log_theta
from .errors import ConfigError, NumericsError
from .params import ModelParams, _require_count, derive_params


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


def _outward_ratios(n: int, log_k: np.ndarray) -> tuple[slice, np.ndarray, np.ndarray]:
    """The reachable sites of S_n and the log ratios between neighbours, split at the mode.

    Returns (sites, down, up): `sites` indexes the support -n..n; `up[i]` is
    log P[site mode+i+1] / P[site mode+i] and `down[i]` is
    log P[site mode-i-1] / P[site mode-i], so cumulative sums (products of
    exponentials) outward from the mode give the law relative to its mode.

    Miller's power-series recurrence for (p_- + p_0 z + p_+ z^2)^n in ratio
    form: with q = p_+ p_- / p_0^2 and t_{-1} = inf,
    t_j = [(n-j) + (2n-j+1) q / t_{j-1}] / (j+1) for j = 0..n-1, the lower
    half's ratios are t_{s+n} p_0 / p_-, and the upper half's are the same
    numbers mirrored, p_+ / (t_{n-1-s} p_0).  Every term is positive and
    each step damps the relative error it inherits, so each t_j keeps a few
    ulps; the log weights keep the ratios finite where p_- underflows.
    """
    l_minus, l_zero, l_plus = log_k.tolist()
    if l_plus == -math.inf:        # p = 0: S_n = 0 surely
        sites, ratios = slice(n, n + 1), np.empty(0)
    elif l_zero == -math.inf:      # p = 1: a binomial on the sites of the parity of n
        m = np.arange(n)
        sites = slice(0, 2 * n + 1, 2)
        ratios = (np.log(n - m) - np.log(m + 1)) + (l_plus - l_minus)
    else:
        q = math.exp(l_plus + l_minus - 2.0 * l_zero)
        # c = 2n - j + 1 as an exact float, so c q rounds as the integer product did
        t, prev, c = [], math.inf, 2.0 * n + 1.0
        for j in range(n):
            prev = ((n - j) + c * q / prev) / (j + 1)
            t.append(prev)
            c -= 1.0
        log_t = np.log(t)
        sites = slice(0, 2 * n + 1)
        ratios = np.concatenate([log_t + (l_zero - l_minus),
                                 -(log_t[::-1] + (l_zero - l_plus))])
    # their cumulative sums below are log P ratios across the support, up to ~n beta E
    if not math.isfinite(float(np.max(np.abs(ratios), initial=0.0)) * ratios.size):
        raise NumericsError(f"the walk law's log ratios overflow a double over n = {n} steps "
                            f"(log weights {log_k.tolist()})")
    mode = int(np.argmax(np.concatenate([[0.0], np.cumsum(ratios)])))
    return sites, -ratios[:mode][::-1], ratios[mode:]


def _outward_products(ratios: np.ndarray) -> np.ndarray:
    """exp(cumsum(ratios)) with 1 prepended, as cumulative products of exponentials.

    Each parity class of sites takes its own product of two-step ratios, so a
    law that alternates between heavy and light sites (p_0 near 0) never
    passes a heavy site's value through a light neighbour that underflowed.
    """
    steps = np.exp(np.concatenate([ratios[:1], ratios[:-1] + ratios[1:]]))
    out = np.ones(ratios.size + 1)
    out[1::2] = np.cumprod(steps[0::2])
    out[2::2] = np.cumprod(steps[1::2])
    return out


def _place(n: int, sites: slice, values: np.ndarray, fill: float) -> np.ndarray:
    """The law on the support -n..n: `values` on `sites`, `fill` elsewhere."""
    out = np.full(2 * n + 1, fill)
    out[sites] = values
    return out


# Python floats made at a time by `_fsum`: bounds its memory at large n
_FSUM_CHUNK = 1 << 12


def _fsum(x: np.ndarray) -> float:
    """math.fsum of x, fed Python floats chunk by chunk (faster than numpy scalars)."""
    chunks = (x[i:i + _FSUM_CHUNK].tolist() for i in range(0, x.size, _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


# Terms of the law's sum below this cannot change it except near a rounding tie.
# The sum is at least the mode's 1.0, so its ulp is at least 2^-52; the terms
# below 2^-80 add at most (count) 2^-80, i.e. count 2^-28 ulp (1.5e-4 ulp for
# 40,001 sites), which moves the rounded sum only that close to a tie.
_HEAD_FLOOR = 2.0 ** -80


def _law_sum(rel: np.ndarray) -> float:
    """math.fsum(rel) for non-negative rel holding the mode's 1.0, summing the head only.

    The terms below `_HEAD_FLOOR` sum to at most `bound` (a power of two
    times an integer below 2^53, so exact), so the true sum lies in
    [S_head, S_head + bound]; rounding is monotone, so where both ends round
    to the same double that is the sum.  Otherwise (with probability about
    bound / ulp(1)) every term is summed.
    """
    head = rel[rel >= _HEAD_FLOOR]
    s = _fsum(head)
    bound = _HEAD_FLOOR * (rel.size - head.size)
    if bound == 0.0 or _fsum(np.append(head, bound)) == s:
        return s
    return _fsum(rel)


def walk_pmf_exact(n: int, params: ModelParams) -> WalkLaw:
    """Exact law of S_n in 64-bit arithmetic, by a ratio recurrence in O(n).

    P[S_n = s] / P[mode] is the cumulative product of the neighbour ratios
    of `_outward_ratios` outward from the mode, normalised with a
    correctly rounded sum (`_law_sum`: only the terms >= 2^-80 are summed
    where the rest, below 2^-80 each, provably cannot change the rounded
    result; otherwise all of them).  Entries in the normal double range
    keep relative accuracy, their error growing at most linearly with the
    distance from the mode (~1e-13 at n = 2*10^4).  n = 0 and n = 1 are the delta and the
    step law itself; unreachable sites (p = 0, or the wrong parity at p = 1)
    are 0.
    """
    n = _require_count(n, "n")
    if n == 1:
        return WalkLaw(n=n, pmf=kraus_weights(params).as_array())
    sites, down, up = _outward_ratios(n, log_step_kernel(params))
    rel = np.concatenate([_outward_products(down)[:0:-1], _outward_products(up)])
    return WalkLaw(n=n, pmf=_place(n, sites, rel / _law_sum(rel), 0.0))


def walk_pmf_oracle(n: int, params: ModelParams) -> WalkLaw:
    """The law of S_n as n sequential convolutions of the step law.

    The independent route for `walk_pmf_exact`: sums of positive terms, so
    entries in the normal double range keep relative accuracy.  Cost is
    O(n^2); meant for n <= 2000.
    """
    n = _require_count(n, "n")
    kernel = kraus_weights(params).as_array()
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, kernel)
    return WalkLaw(n=n, pmf=pmf)


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
    """log P[S_n = k] on support -n..n, by the ratio recurrence in O(n).

    The cumulative sum of the log neighbour ratios of `_outward_ratios`
    outward from the mode, less the log of the correctly rounded sum of
    its exponentials (`_law_sum`, the same head sum and guard as
    `walk_pmf_exact`): finite and accurate relative to max(1, |log P|) deep
    into the tails where the linear law underflows, and at any beta E.
    -inf marks impossible values (p = 0, or the wrong parity at p = 1).
    n = 1 is `log_step_kernel` itself; `log_convolve_step` is the oracle.
    """
    n = _require_count(n, "n")
    logk = log_step_kernel(params)
    if n == 1:
        return logk
    sites, down, up = _outward_ratios(n, logk)
    rel = np.concatenate([np.cumsum(down)[::-1], [0.0], np.cumsum(up)])
    return _place(n, sites, rel - math.log(_law_sum(np.exp(rel))), -math.inf)


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


def sample_walk(n: int, trials: int, seed: int, params: ModelParams) -> WalkSample:
    """Monte Carlo sample of S_n over `trials` independent walks.

    Generator: numpy Philox (counter-based) seeded with `seed`, so output is
    bit-identical across platforms for a fixed seed.  Each walk is reduced
    to its step counts (N_-, N_0, N_+), a sufficient statistic for
    S_n = N_+ - N_-.
    """
    n, trials = _require_count(n, "n"), _require_count(trials, "trials", 1)
    seed = _require_count(seed, "seed")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(n, kraus_weights(params).as_array(), size=trials)
    s = counts[:, 2] - counts[:, 0]
    # a tally over the sampled range (no sort), nonzero bins in ascending order
    lo = s.min()
    tally = np.bincount(s - lo)
    seen = np.flatnonzero(tally)
    return WalkSample(n=n, trials=trials, seed=seed, values=seen + lo, counts=tally[seen])


def scgf(eta: float, params: ModelParams) -> float:
    """Scaled cumulant generating function e(eta) = log_theta(-eta).

    The log of E[e^{eta S_1}] = e^{-eta} p_- + p_0 + e^{eta} p_+; finite at
    every finite eta (e(eta) -> |eta| + log p_+- as eta -> +-inf), with
    e(0) = 0 and the symmetry e(-beta E - eta) = e(eta).
    """
    return log_theta(-eta, params)


def _tilted_moments(eta: float, p: float, be: float, log_k: list) -> tuple[float, float, float]:
    """(e, e', e'') at eta from the tilted step law q_s = exp(l_s + eta s - e(eta)).

    p and be = beta E are the inputs of `scgf`, computed once by the caller.
    e' = q_+ - q_-, e'' = q_0 (q_- + q_+) + 4 q_- q_+: no q_s exceeds 1 and
    every term of e'' is positive, so nothing overflows or cancels.
    """
    e = _log_theta(-eta, p, be)
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


def _legendre_sup(x: float, params: ModelParams) -> tuple[float, float]:
    """Solve e'(eta) = x by safeguarded Newton; returns (eta*, eta* x - e(eta*)).

    The bracket doubles until it holds x.  Newton stops at rounding level in e',
    or at a step or bracket of a few ulps of eta; it bisects where e'' is subnormal.
    """
    log_k = log_step_kernel(params).tolist()
    p, be = derive_params(params).p, params.beta * params.E
    lo, hi = -2.0, 2.0
    while not math.isinf(lo) and _tilted_moments(lo, p, be, log_k)[1] > x:
        lo *= 2.0
    while not math.isinf(hi) and _tilted_moments(hi, p, be, log_k)[1] < x:
        hi *= 2.0
    if math.isinf(lo) or math.isinf(hi):
        raise NumericsError(f"cannot bracket Legendre sup at x={x}")
    eta = 0.5 * (lo + hi)
    for _ in range(200):
        e0, e1, e2 = _tilted_moments(eta, p, be, log_k)
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

    phi(s) = sup_alpha (alpha s - log theta(alpha)) = I(-s / (beta E)).
    Inside the range it is the Legendre sup over eta = -alpha beta E at
    x = -s / (beta E), the same `_legendre_sup` as `rate_function_numeric`,
    so it is that oracle read on the entropy scale, not a third route; at
    and past the endpoints it is the closed form.  Requires beta E > 0;
    satisfies phi(-s) = phi(s) - s.
    """
    be = params.beta * params.E
    if be <= 0.0:
        raise ConfigError("entropy rate function needs beta E > 0")
    x = -s / be
    if abs(x) >= 1.0:
        # endpoint limits fall back to the closed form; +inf beyond them
        return rate_function(x, params)
    return _legendre_sup(x, params)[1]
