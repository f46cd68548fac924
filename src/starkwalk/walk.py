"""Statistics of the classical trinomial walk driven by the reduced dynamics.

After n interactions the eigenbasis index performs a walk S_n with i.i.d.
steps in {-1, 0, +1} of probabilities (p_-, p_0, p_+).  This module holds
`LatticeLaw`, the one type of the law of an integer increment (S_n here,
its reservoir marginal and the position increment in `fcs`), with the
package's only moment, exponential-moment and law-vs-oracle code; the
transport coefficients, the exact law of S_n (from one ratio recurrence
for the coefficients of (p_- + p_0 z + p_+ z^2)^n: the linear law in
O(live span), with the full recurrence as its oracle, the log law in O(n),
and a convolution power and the log-space convolution as the oracles of
both), seeded Monte Carlo sampling,
the scaled cumulant generating function (`log_theta` at gamma = -eta) and
the closed-form / numerical Legendre pair of rate functions, all built on
the log Kraus weights (`log_step_kernel`).
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .channel import kraus_weights, log_theta
from .config import TOL
from .errors import BudgetError, ConfigError, NumericsError
from .params import (
    ModelParams,
    _echo,
    _require_count,
    _require_finite,
    _require_integer,
    _require_real,
    _require_reals,
    _require_type,
)


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
    _require_type(params, ModelParams, "params")
    th = math.tanh(0.5 * params.beta * params.E)
    v_d = params.p * th / params.tau
    D = 0.5 * params.p * (1.0 - params.p * th**2) / params.tau
    mobility = None
    if params.E == params.F:
        mobility = params.beta * math.sin(params.lam * params.tau) ** 2 / (2.0 * params.tau)
    return TransportCoefficients(v_d=v_d, D=D, mobility=mobility)


@dataclass(frozen=True, eq=False)
class LatticeLaw:
    """Exact law of an integer increment after n interactions: pmf[j] = P[first + j].

    The walk S_n, its reservoir marginal and the position increment dX are all
    this type; only its builders choose `first`, and readers index through it.
    n is an integer >= 0 within the double range, `first` an integer and pmf a 1-D
    array, each refused by name otherwise; the checks are O(1), so pmf's values are
    taken as given.
    """

    n: int
    first: int
    pmf: np.ndarray

    def __post_init__(self):
        n = _require_integer(self.n, "n", 0)
        _require_real(n, "n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "first", _require_integer(self.first, "first"))
        if not isinstance(self.pmf, np.ndarray):
            raise ConfigError(f"pmf must be a 1-D array, got {_echo(self.pmf)}")
        if self.pmf.ndim != 1:
            raise ConfigError(f"pmf of shape {self.pmf.shape}: expected a 1-D array")

    @property
    def dx(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.pmf.size)

    @property
    def probs(self) -> np.ndarray:
        """`pmf` by its old position-law name, for `perfbench/` alone (package and tests
        read `pmf`); it goes when the benchmark is resized (ROADMAP item 1)."""
        return self.pmf

    def mean(self) -> float:
        return float(np.dot(self.dx, self.pmf))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.dx - m) ** 2, self.pmf))

    def log_mgf(self, eta: float) -> float:
        """log E[e^{eta dx}]; NumericsError where it is not a finite double (an
        infinite eta, or a log that overflows).

        Zero probabilities drop out, so an underflowed tail never meets e^{eta s} as
        inf * 0; the largest exponent is factored out, so no term overflows.  eta is
        taken as a float: an int eta times the integer sites could wrap.
        """
        eta = _require_real(eta, "eta")
        live = self.pmf > 0.0
        if not live.any():
            raise NumericsError("the log MGF of a law with no positive probability is -inf")
        with np.errstate(over="ignore", invalid="ignore"):
            expo = eta * self.dx[live] + np.log(self.pmf[live])
            top = float(np.max(expo))
            value = top + math.log(float(np.sum(np.exp(expo - top))))
        if not math.isfinite(value):
            raise NumericsError(f"the log MGF at eta = {eta!r} is not a finite double")
        return value

    def mgf(self, eta: float) -> float:
        """E[e^{eta dx}], the exponential of `log_mgf`; NumericsError where it overflows."""
        try:
            return math.exp(self.log_mgf(eta))
        except OverflowError:
            raise NumericsError(f"the moment generating function E[e^(eta dx)] at eta = {eta!r} "
                                "is not a finite double") from None

    def window_probability(self, lo: float, hi: float) -> float:
        """P[lo <= dx <= hi]; an infinite bound is valid."""
        _require_real(lo, "lo")
        _require_real(hi, "hi")
        return float(np.sum(self.pmf[(self.dx >= lo) & (self.dx <= hi)]))

    def ft_log_ratio(self, v: float, delta: float, tau: float) -> float:
        """(1/n) log Q[dx/(n tau) in [-v-delta, -v+delta]] / Q[... in [v-delta, v+delta]];
        v, delta and tau are finite (`_require_finite`) and tau > 0, else ConfigError;
        NumericsError for an n tau past a double (a bound n tau (v +- delta) may overflow
        to inf)."""
        for value, name in ((v, "v"), (delta, "delta"), (tau, "tau")):
            _require_finite(value, name)
        if not tau > 0.0:
            raise ConfigError(f"tau must be > 0, got tau = {_echo(tau)}")
        scale = self.n * tau
        if not math.isfinite(scale):
            raise NumericsError(f"n tau overflows a double at n = {self.n}, tau = {tau!r}")
        num = self.window_probability(-scale * (v + delta), -scale * (v - delta))
        den = self.window_probability(scale * (v - delta), scale * (v + delta))
        if self.n == 0 or not num > 0.0 or not den > 0.0:
            raise NumericsError(f"log ratio undefined at n = {self.n}: window "
                                f"probabilities {num:.3e} and {den:.3e}")
        return (math.log(num) - math.log(den)) / self.n

    def oracle_gap(self, oracle: LatticeLaw) -> float:
        """max |pmf / oracle.pmf - 1| where the oracle is a normal double (subnormals carry
        no relative accuracy); ConfigError unless the oracle is a law on the same sites."""
        _require_type(oracle, LatticeLaw, "oracle")
        if (self.first, self.pmf.size) != (oracle.first, oracle.pmf.size):
            raise ConfigError("a law and its oracle must weigh the same sites")
        normal = oracle.pmf >= sys.float_info.min
        return float(np.max(np.abs(self.pmf[normal] / oracle.pmf[normal] - 1.0), initial=0.0))


def _ratio_overflow(n: int, log_k: np.ndarray) -> NumericsError:
    return NumericsError(f"the walk law's log ratios overflow a double over n = {n} steps "
                         f"(log weights {log_k.tolist()})")


def _require_finite_ratios(n: int, log_k: np.ndarray) -> None:
    """Refuse, for 0 < p < 1, where 2n times a log ratio's weight term overflows."""
    l_minus, l_zero, l_plus = log_k.tolist()
    if not math.isfinite(max(l_zero - l_minus, abs(l_zero - l_plus)) * (2 * n)):
        raise _ratio_overflow(n, log_k)


def _t_reads(n: int, a: int, b: int) -> tuple[range, range, int, int]:
    """The t_j the ratios between sites a..b read: (below, above, first, last).

    The ratio between sites i and i+1 reads t_i below the centre and
    t_{2n-1-i} above it; `below` and `above` are those j in ratio order
    (`above` reversed), first..last the range that covers both.
    """
    below, above = range(a, min(b, n)), range(2 * n - b, 2 * n - max(a, n))
    first = min((r.start for r in (below, above) if r), default=n)
    last = max((r.stop for r in (below, above) if r), default=n) - 1
    return below, above, first, last


def _mean_site(n: int, log_k: np.ndarray) -> int:
    """The support index nearest the mean n (p_+ - p_-) of S_n."""
    l_minus, _, l_plus = log_k.tolist()
    return n + round(n * (math.exp(l_plus) - math.exp(l_minus)))


def _meeting(n: int, q: float, start: int, first: int) -> tuple[int, float] | None:
    """(j, t_j) at the first j < `first` where the two chains begun at `start` agree.

    Each step t_{j-1} -> t_j = [(n-j) + (2n-j+1) q / t_{j-1}] / (j+1), its
    three roundings included, is non-increasing in t_{j-1}.  The j = 0
    chain's t_{start-1} is at least the step from inf, (n-start+1)/start, and
    at most inf; one chain from each end of that bracket encloses the j = 0
    chain at every step, so where they agree it agrees with them.  None if
    they have not met before `first`.
    """
    hi, lo, c = math.inf, (n - start + 1) / start, 2.0 * n + 1.0 - start
    for j in range(start, first):
        hi = ((n - j) + c * q / hi) / (j + 1)
        lo = ((n - j) + c * q / lo) / (j + 1)
        if hi == lo:
            return j, hi
        c -= 1.0
    return None


def _ratio_recurrence(n: int, q: float, first: int, last: int, start: int = 0) -> list:
    """t_first .. t_last of Miller's recurrence, bit for bit as begun at j = 0.

    A start past 0 is certified by `_meeting`; where its chains have not met
    before `first`, the margin first - start doubles, down to the j = 0 start.
    """
    j0, prev = 0, math.inf
    while start > 0:
        met = _meeting(n, q, start, first)
        if met:
            j0, prev = met[0] + 1, met[1]
            break
        start = max(0, first - 2 * (first - start))
    # c = 2n - j + 1 as an exact float, so c q rounds as the integer product did
    c, out = 2.0 * n + 1.0 - j0, []
    for j in range(j0, first):
        prev = ((n - j) + c * q / prev) / (j + 1)
        c -= 1.0
    for j in range(first, last + 1):
        prev = ((n - j) + c * q / prev) / (j + 1)
        out.append(prev)
        c -= 1.0
    return out


def _restart_index(n: int, q: float, first: int) -> int:
    """Where the recurrence for t_first onward starts: 0, or a restart for `_meeting` to certify.

    A step damps a relative error in t_{j-1} by the log-space contraction
    factor rho_j = (2n-j+1) q / ((j+1) t_j t_{j-1}) = 1 - (n-j) / ((j+1) t_j).
    The margin first - start is the number of steps at rho_first, t taken
    at the recurrence's fixed point there, that damps the bracket's first
    log gap, log(1 + (2n-j+1) q j / ((n-j)(n-j+1))), below 2^-60.  The
    restart is taken only where its two chains over the margin cost less
    than the j = 0 start.  Near p = 1 (q large) rho is within ~1e-8 of 1, and
    the j = 0 start is kept.
    """
    if not 0 < first < n:
        return 0
    j, c = first, 2.0 * n + 1.0 - first
    fixed = ((n - j) + math.sqrt((n - j) ** 2 + 4.0 * (j + 1) * c * q)) / (2.0 * (j + 1))
    damp = min((n - j) / ((j + 1) * fixed), 0.5)      # 1 - rho, at most 1/2 used
    gap = math.log1p(c * q * j / ((n - j) * (n - j + 1)))
    steps = (math.log(max(gap, 2.0 ** -60)) + 60.0 * math.log(2.0)) / -math.log1p(-damp)
    return first - max(1, math.ceil(steps)) if 2.0 * steps < first - 2 else 0


def _outward_ratios(n: int, log_k: np.ndarray,
                    sites: slice | None = None) -> tuple[slice, np.ndarray, np.ndarray]:
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

    By default the ratios cover every reachable site, from the j = 0 start:
    the full recurrence, the oracle of the live span.  For 0 < p < 1,
    `sites` (a contiguous slice holding the mean) limits them to those sites,
    and only the t_j they read are computed, from the restart of
    `_restart_index` (`_ratio_recurrence`, bit-equal to the j = 0 start).
    """
    l_minus, l_zero, l_plus = log_k.tolist()
    anchor = 0                     # the site the mode search sums from
    if l_plus == -math.inf:        # p = 0: S_n = 0 surely
        sites, ratios = slice(n, n + 1), np.empty(0)
    elif l_zero == -math.inf:      # p = 1: a binomial on the sites of the parity of n
        m = np.arange(n)
        sites = slice(0, 2 * n + 1, 2)
        ratios = (np.log(n - m) - np.log(m + 1)) + (l_plus - l_minus)
    else:
        _require_finite_ratios(n, log_k)
        sites = sites or slice(0, 2 * n + 1)
        below, above, first, last = _t_reads(n, sites.start, sites.stop - 1)
        q = math.exp(l_plus + l_minus - 2.0 * l_zero)
        log_t = np.log(_ratio_recurrence(n, q, first, last, _restart_index(n, q, first)))
        low, high = (log_t[r.start - first:r.stop - first] for r in (below, above))
        ratios = np.concatenate([low + (l_zero - l_minus), -(high[::-1] + (l_zero - l_plus))])
        anchor = _mean_site(n, log_k) - sites.start
    # their cumulative sums below are log P ratios across the support, up to ~n beta E
    if not math.isfinite(float(np.max(np.abs(ratios), initial=0.0)) * ratios.size):
        raise _ratio_overflow(n, log_k)
    # the mode: the first largest cumulative log ratio, summed outward from the
    # anchor, so a span holding the anchor finds the whole support's mode
    left = -np.cumsum(ratios[:anchor][::-1])[::-1]
    mode = int(np.argmax(np.concatenate([left, [0.0], np.cumsum(ratios[anchor:])])))
    return sites, -ratios[:mode][::-1], ratios[mode:]


# A site is live where the envelope (2n+1) exp(-n I(k/n)) of P[k] / P[mode]
# is at least 2^-1075, half the smallest subnormal, times a slack of 2^-32.
# Past it the full recurrence's products, whose relative error stays far
# below that slack (with the rounding of n I) while they are normal, are
# subnormal: there a product can stall at 2^-1074 only while its two-step
# ratio exceeds 1/2, a tail that slow holds a sum of at least 2, and
# 2^-1074 / 2 rounds to 0.  So the law is an exact 0 there on both routes.
_LIVE_FLOOR = (1075 + 32) * math.log(2.0)


def _live_span(n: int, log_k: np.ndarray, be: float) -> slice | None:
    """The sites where S_n's law can be nonzero in a double.

    P[k] <= exp(-n I(k/n)) (Chernoff, I the closed-form rate function) and
    P[mode] >= 1/(2n+1), so P[k] / P[mode] <= (2n+1) exp(-n I(k/n)); the
    sites where that is below 2^-1075 times the slack of `_LIVE_FLOOR` are
    exact zeros.  n I(k/n) is convex with its minimum at the mean, so each
    edge is a bisection from the mean site.  Returns None, the whole
    support, at n = 0, at p = 0 or 1, and where n I(+-1), the two ends, are
    under the floor.  The overflow refusal of `_outward_ratios` comes first.
    """
    l_minus, l_zero, l_plus = log_k.tolist()
    if n == 0 or l_plus == -math.inf or l_zero == -math.inf:
        return None
    _require_finite_ratios(n, log_k)
    floor = _LIVE_FLOOR + math.log(2 * n + 1)

    def dead(k: int) -> bool:
        return n * _rate((k - n) / n, (l_minus, l_zero, l_plus), be) > floor

    if not (dead(0) or dead(2 * n)):
        return None
    mean = _mean_site(n, log_k)
    if dead(mean):
        return None
    edges = []
    for live, far in ((mean, 0), (mean, 2 * n)):
        if not dead(far):
            edges.append(far)
            continue
        while abs(far - live) > 1:      # `live` is live, `far` dead
            mid = (live + far) // 2
            if dead(mid):
                far = mid
            else:
                live = mid
        edges.append(live)
    return slice(edges[0], edges[1] + 1)


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


# sites of a law of S_n: its builders store all 2n + 1 of them densely, so an n past
# 134,217,727, whose law would pass 2 GiB, is refused before any work
MAX_LAW_SITES = 1 << 28


def _require_law_sites(n: int) -> int:
    """The count n; BudgetError where its 2n + 1 sites are past `MAX_LAW_SITES`."""
    if 2 * n + 1 > MAX_LAW_SITES:
        raise BudgetError(f"the law of S_n at n = {_echo(n)} has 2n + 1 sites, past the budget "
                          f"of {MAX_LAW_SITES} sites (n <= {(MAX_LAW_SITES - 1) // 2})")
    return n


def walk_pmf_exact(n: int, params: ModelParams) -> LatticeLaw:
    """Exact law of S_n in 64-bit arithmetic, by a ratio recurrence in O(live span).

    P[S_n = s] / P[mode] is the cumulative product of the neighbour ratios
    of `_outward_ratios` outward from the mode, normalised with a
    correctly rounded sum (`_law_sum`: only the terms >= 2^-80 are summed
    where the rest, below 2^-80 each, provably cannot change the rounded
    result; otherwise all of them).  Only the live span (`_live_span`: the
    sites whose Chernoff envelope is not below 2^-1075 by the slack 2^-32)
    is computed, its recurrence from a certified restart
    (`_ratio_recurrence`); every other site is an exact 0.  The result is
    bit-equal to the same law built on the full recurrence from j = 0, its
    oracle.  Entries in the normal double range keep relative accuracy,
    their error growing at most linearly with the distance from the mode
    (~1e-13 at n = 2*10^4).  n = 0 and n = 1 are the delta and the step law
    itself; unreachable sites (p = 0, or the wrong parity at p = 1) are 0.
    BudgetError past `MAX_LAW_SITES` sites.
    """
    n = _require_law_sites(_require_count(n, "n"))
    _require_type(params, ModelParams, "params")
    if n == 1:
        return LatticeLaw(n=n, first=-n, pmf=kraus_weights(params))
    log_k = log_step_kernel(params)
    sites, down, up = _outward_ratios(n, log_k, _live_span(n, log_k, params.beta * params.E))
    rel = np.concatenate([_outward_products(down)[:0:-1], _outward_products(up)])
    return LatticeLaw(n=n, first=-n, pmf=_place(n, sites, rel / _law_sum(rel), 0.0))


def walk_pmf_oracle(n: int, params: ModelParams) -> LatticeLaw:
    """The law of S_n as a convolution power of the step law, by binary powering.

    The independent route for `walk_pmf_exact`: the step law is squared
    about log2(n) times and convolved into the result at the set bits of n.
    Every entry is a sum of positive terms, so entries in the normal double
    range keep relative accuracy.  Cost is O(n^2) in the last squaring and
    convolution, ~log2(n) + popcount(n) calls; meant for n <= a few 10^3.
    Its own oracle, the n sequential convolutions, is in the test suite.
    """
    n = _require_law_sites(_require_count(n, "n"))
    power = kraus_weights(params)
    pmf = np.array([1.0])
    bits = n
    while bits:
        if bits & 1:
            pmf = np.convolve(pmf, power)
        bits >>= 1
        if bits:
            power = np.convolve(power, power)
    return LatticeLaw(n=n, first=-n, pmf=pmf)


def log_step_kernel(params: ModelParams) -> np.ndarray:
    """log of the step weights (p_-, p_0, p_+); -inf for zero weights.

    l_+ = log p - log1p(e^{-beta E}), l_- = l_+ - beta E, l_0 = log1p(-p):
    exact where the weights underflow (p_- past beta E ~ 745).
    """
    p, be = params.p, params.beta * params.E
    l_plus = (math.log(p) if p > 0.0 else -math.inf) - math.log1p(math.exp(-be))
    l_zero = math.log1p(-p) if p < 1.0 else -math.inf
    return np.array([l_plus - be, l_zero, l_plus])


def walk_log_pmf(n: int, params: ModelParams) -> np.ndarray:
    """log P[S_n = k] on support -n..n, by the ratio recurrence in O(n).

    The cumulative sum of the log neighbour ratios of `_outward_ratios`
    outward from the mode, less the log of the correctly rounded sum of
    its exponentials (`_law_sum`, the same head sum and guard as
    `walk_pmf_exact`): finite and accurate relative to max(1, |log P|) deep
    into the tails where the linear law underflows, and at any beta E.
    -inf marks impossible values (p = 0, or the wrong parity at p = 1).
    n = 1 is `log_step_kernel` itself.  Its oracle is the log-space
    convolution table of acceptance check 7.
    """
    n = _require_law_sites(_require_count(n, "n"))
    _require_type(params, ModelParams, "params")
    logk = log_step_kernel(params)
    if n == 1:
        return logk
    sites, down, up = _outward_ratios(n, logk)
    rel = np.concatenate([np.cumsum(down)[::-1], [0.0], np.cumsum(up)])
    return _place(n, sites, rel - math.log(_law_sum(np.exp(rel))), -math.inf)


# trials per `rng.multinomial` call: the sampler holds one chunk of step counts at a time
SAMPLE_CHUNK = 1 << 13
# draws run at ~0.2 us a trial (BTPE), so this many take a few minutes
MAX_TRIALS = 10**9
# sites of the running tally of S_n (8 bytes each), refused before it is allocated
MAX_TALLY_SITES = 1 << 22
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class WalkSample:
    """Empirical summary of sampled walks: bit-reproducible for a fixed seed.

    `values` are the sampled S_n in ascending order and `counts` their
    multiplicities; the chunked draws of `sample_walk` give the same arrays,
    bit for bit, as one `rng.multinomial` call over all trials.
    """

    n: int
    trials: int
    seed: int
    values: np.ndarray
    counts: np.ndarray

    def mean(self) -> float:
        """Mean S_n over the trials, correctly rounded.

        The sum of values times counts is taken in Python ints, since an
        int64 dot wraps silently past 2^63, and int / int rounds once.
        """
        return sum(map(operator.mul, self.values.tolist(), self.counts.tolist())) / self.trials


def sample_walk(n: int, trials: int, seed: int, params: ModelParams) -> WalkSample:
    """Monte Carlo sample of S_n over `trials` independent walks.

    Generator: numpy Philox (counter-based) seeded with `seed`, so output is
    bit-identical across platforms for a fixed seed.  Each walk is reduced
    to its step counts (N_-, N_0, N_+), a sufficient statistic for
    S_n = N_+ - N_-.  The counts are drawn `SAMPLE_CHUNK` trials per call and
    each chunk's S_n is tallied at once into a count over the sites seen so
    far: numpy draws each trial's binomials in order within a call, so the
    chunks consume the stream of one call over all trials, bit for bit, and
    memory is O(SAMPLE_CHUNK + tally span), independent of `trials`.

    Refused before any draw: n past numpy's int64 range (ConfigError) and
    trials past `MAX_TRIALS` (BudgetError).  A tally wider than
    `MAX_TALLY_SITES` is refused (BudgetError) before it is allocated.
    """
    n, trials = _require_count(n, "n"), _require_count(trials, "trials", 1)
    seed = _require_count(seed, "seed")
    if n > _INT64_MAX:
        raise ConfigError(f"n = {_echo(n)} is past numpy's int64 range, n <= 2^63 - 1")
    if trials > MAX_TRIALS:
        raise BudgetError(f"trials = {_echo(trials)} is past the sample budget of "
                          f"{MAX_TRIALS} trials")
    weights = kraus_weights(params)
    rng = np.random.Generator(np.random.Philox(seed))
    # tally[j] counts S_n = lo + j over the sites seen so far
    lo, tally = 0, np.zeros(0, dtype=np.intp)
    for done in range(0, trials, SAMPLE_CHUNK):
        steps = rng.multinomial(n, weights, size=min(SAMPLE_CHUNK, trials - done))
        s = steps[:, 2] - steps[:, 0]
        s_lo, s_hi = int(s.min()), int(s.max())
        span_lo, span_hi = s_lo, s_hi
        if tally.size:
            span_lo, span_hi = min(span_lo, lo), max(span_hi, lo + tally.size - 1)
        if span_hi - span_lo >= MAX_TALLY_SITES:
            raise BudgetError(f"the sampled S_n span {span_hi - span_lo + 1} sites, past the "
                              f"tally budget of {MAX_TALLY_SITES} sites")
        if span_hi - span_lo + 1 > tally.size:
            grown = np.zeros(span_hi - span_lo + 1, dtype=np.intp)
            grown[lo - span_lo:lo - span_lo + tally.size] = tally
            lo, tally = span_lo, grown
        tally[s_lo - lo:s_hi - lo + 1] += np.bincount(s - s_lo)
    # nonzero bins in ascending order
    seen = np.flatnonzero(tally)
    return WalkSample(n=n, trials=trials, seed=seed, values=seen + lo, counts=tally[seen])


def scgf(eta: float, params: ModelParams) -> float:
    """Scaled cumulant generating function e(eta) = log_theta(-eta).

    The log of E[e^{eta S_1}] = e^{-eta} p_- + p_0 + e^{eta} p_+; finite at
    every finite eta (e(eta) -> |eta| + log p_+- as eta -> +-inf), with
    e(0) = 0 and the symmetry e(-beta E - eta) = e(eta).
    """
    _require_real(eta, "eta")
    return log_theta(-eta, params)


def rate_function(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Closed-form large-deviation rate function of S_n / n, one rate per entry of x.

    With the log weights l_s of `log_step_kernel`, a^2 = 4 exp(l_+ + l_- - 2 l_0)
    and R = sqrt(x^2 + a^2 (1-x^2)), on [0, 1) (the first term is 0 at x = 0):

        I(x) = x log((x + R) / (2 (1-x))) - x (l_+ - l_0) - l_0 - log((1 + R) / (1-x^2))

    I(1) = -l_+, I(x) = I(-x) - beta E x for x < 0, +inf outside [-1, 1]: no
    term overflows or cancels at any beta E.  The frozen walk (p = 0) has
    I = 0 at x = 0 only; NumericsError inside (-1, 1) at p = 1.
    """
    xs = _require_reals(x, "x")
    _require_type(params, ModelParams, "params")
    log_k, be = log_step_kernel(params).tolist(), params.beta * params.E
    return np.array([_rate(x, log_k, be) for x in xs.tolist()])


def _rate(x: float, log_k, be: float) -> float:
    """`rate_function` at a non-NaN x from the log weights (l_-, l_0, l_+) and be = beta E."""
    if not -1.0 <= x <= 1.0:
        return math.inf
    if x < 0.0:
        return _rate(-x, log_k, be) - be * x
    l_minus, l_zero, l_plus = log_k
    if l_plus == -math.inf:  # p = 0: the walk never moves, S_n = 0 surely
        return 0.0 if x == 0.0 else math.inf
    if x == 1.0:
        return -l_plus
    if l_zero == -math.inf:
        raise NumericsError(f"closed-form rate function needs p < 1 inside (-1, 1), x={x!r}")
    a2 = 4.0 * math.exp(l_plus + l_minus - 2.0 * l_zero)
    R = math.sqrt(x * x + a2 * (1.0 - x * x))
    tilt = x * math.log((x + R) / (2.0 * (1.0 - x))) if x > 0.0 else 0.0
    # 1 + R drops an R below an ulp of 1, which log1p keeps; at R >= 2^-10 the
    # quotient form is kept, so every rate there keeps its bits
    last = (math.log1p(R) - math.log1p(-x * x) if R < 2.0**-10
            else math.log((1.0 + R) / (1.0 - x * x)))
    return tilt - x * (l_plus - l_zero) - l_zero - last


def rate_function_numeric(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Rate function as the Legendre-Fenchel transform sup_eta [eta x - e(eta)].

    x is a 1-D array, and one rate is returned per entry.  e(eta) is the
    log-sum-exp of the tilted log weights l_s + eta s of `log_step_kernel`,
    and the tilted step law q_s = exp(l_s + eta s - e) gives e' = q_+ - q_-
    and e'' = q_0 (q_- + q_+) + 4 q_- q_+: no q_s exceeds 1 and every term
    of e'' is positive, so nothing overflows or cancels.  l_- - eta is taken as
    l_+ + (-beta E - eta): near eta = -beta E that difference is exact
    (Sterbenz), where l_- - eta would cancel two terms of size beta E.

    Each entry solves e'(eta) = x by safeguarded Newton, all entries in
    lock-step.  Its bracket doubles until it holds x.  Newton stops where
    the step would move I = eta x - e by at most a few ulps of I (about
    |e' - x| times the step): a residual in e' alone would stop early at a
    small jump probability, where e' spans only ~p.  Where e'' is normal it
    also stops once |e' - x| is within four roundings of e' (`moments`'
    fourth value), which no eta resolves: near e' = 0, at a tiny x,
    e' = q_+ - q_- cancels two nearly equal terms, and the I reached is
    within ~(e' - x)^2 / e'' of the sup.  It bisects where e'' is subnormal.
    Where no double is left to try (the Newton step rounds back to eta, or
    the bracket is a few ulps wide; an ulp of eta near -beta E reaches 1 at
    beta E = 2^53) it stops, and raises NumericsError where |e' - x| times
    that step or bracket, about the gap to the sup, passes `rate_match`.
    An entry leaves the iteration once it stops, so no other entry changes
    its value.
    """
    targets = _require_reals(x, "x")
    if not np.all((-1.0 < targets) & (targets < 1.0)):
        raise ConfigError("numeric rate function requires x strictly inside (-1, 1)")
    _require_type(params, ModelParams, "params")
    _, l_zero, l_plus = log_step_kernel(params).tolist()
    be = params.beta * params.E

    def moments(eta: np.ndarray) -> tuple[np.ndarray, ...]:
        """(e, e', e'', the rounding of e') at each eta."""
        logw = np.array([l_plus + (-be - eta), np.full(eta.shape, l_zero), l_plus + eta])
        low, mid, top = np.sort(logw, axis=0)
        e = top + np.log1p(np.exp(low - top) + np.exp(mid - top))
        q = np.exp(logw - e)
        q_m, q_0, q_p = q
        # e' = q_+ - q_-, each q_s = exp(logw_s - e) good to an ulp of each term of its exponent
        noise = np.sum(q[::2] * np.spacing(np.abs(logw[::2]) + np.abs(e) + 1.0), axis=0)
        return e, q_p - q_m, q_0 * (q_m + q_p) + 4.0 * q_m * q_p, noise

    lo, hi = np.full(targets.size, -2.0), np.full(targets.size, 2.0)
    for edge, side in ((lo, 1.0), (hi, -1.0)):
        grow = np.arange(targets.size)
        while grow.size:
            grow = grow[side * (moments(edge[grow])[1] - targets[grow]) > 0.0]
            with np.errstate(over="ignore"):     # a bracket doubled past a double is inf
                edge[grow] *= 2.0
            grow = grow[np.isfinite(edge[grow])]
    stuck = ~(np.isfinite(lo) & np.isfinite(hi))
    if stuck.any():
        raise NumericsError(f"cannot bracket Legendre sup at x={targets[stuck][0].tolist()}")

    out = np.empty(targets.size)
    live, eta = np.arange(targets.size), 0.5 * (lo + hi)
    for _ in range(200):
        if not live.size:
            break
        target = targets[live]
        e0, e1, e2, noise = moments(eta)
        f = e1 - target
        lo, hi = np.where(f > 0.0, lo, eta), np.where(f > 0.0, eta, hi)
        newtonian = e2 >= sys.float_info.min
        step = np.divide(f, e2, out=np.full(f.shape, np.inf), where=newtonian)
        # the step moves I = eta x - e by about f step; inf where e'' is subnormal
        moved = np.multiply(f, step, out=np.full(f.shape, np.inf), where=newtonian)
        rate, newton = eta * target - e0, eta - step
        done = ((np.abs(moved) <= 4.0 * np.spacing(np.abs(rate)))
                | newtonian & (np.abs(f) <= 4.0 * noise))
        # no double left to try: I is then within about |f| times the step or the bracket
        ended = ~done & ((newton == eta) | (hi - lo <= 4.0 * np.spacing(np.abs(eta))))
        gap = np.abs(f[ended]) * np.minimum(np.abs(step[ended]), (hi - lo)[ended])
        wide = target[ended][gap > TOL.rate_match * np.maximum(1.0, np.abs(rate[ended]))]
        if wide.size:
            raise NumericsError(f"the Legendre sup at x={wide[0].tolist()} needs eta finer "
                                "than an ulp")
        done |= ended
        out[live[done]] = rate[done]
        live, lo, hi, newton = (a[~done] for a in (live, lo, hi, newton))
        eta = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
    if live.size:
        raise NumericsError(f"Legendre sup did not converge at x={targets[live[0]].tolist()}")
    return out
