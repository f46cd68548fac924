"""The reduced particle dynamics and its exponential deformations.

One interaction reduces, after tracing out the atom, to a three-term
Kraus map: shift the state down one eigenbasis index with weight p_minus,
leave it with weight p_0 = 1 - p, shift it up with weight p_plus.  The
deformation with exponent gamma (alpha beta E, or -eta for the position
statistics) reweights them to (e^gamma p_-, p_0, e^-gamma p_+); one step
is `np.convolve` with these weights on a classical vector and `_kick` on
a density matrix.  Its trace growth rate, in the one closed form
`log_theta`, is the kernel of all the counting statistics downstream.
Every closed-form step here is cross-checkable against `channel_oracle`,
which evaluates the defining partial trace with the single-atom propagator.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NumericsError
from .params import ModelParams, _require_phase, _require_real, _require_type
from .singleatom import AtomGibbs, _conjugate_on, _oracle_blocks
from .state import (
    ParticleDensityMatrix,
    _crop,
    _free_phases,
    _uncrop,
    require_interior,
)


def kraus_weights(params: ModelParams) -> np.ndarray:
    """The jump weights (p_-, p_0, p_+), p_+- = p e^{-+beta E/2} / (2 cosh(beta E/2)), as one
    1-D array."""
    _require_type(params, ModelParams, "params")
    g = math.exp(-params.beta * params.E)
    return np.array([params.p * g / (1.0 + g), 1.0 - params.p, params.p / (1.0 + g)])


def deformed_weights(gamma: float, params: ModelParams) -> np.ndarray:
    """(e^gamma p_-, p_0, e^-gamma p_+): the (down, stay, up) weights of the deformed map.

    gamma = alpha beta E for the alpha-deformation; gamma = 0 gives the
    Kraus weights bit for bit.  The weights sum to exp(log_theta(gamma)).
    NumericsError for an infinite gamma, where one weight is inf and the other 0
    (so a step would form inf * 0).
    """
    _require_real(gamma, "gamma")
    if not math.isfinite(gamma):
        raise NumericsError(f"deformed weights at gamma = {gamma!r}")
    p_minus, p_zero, p_plus = kraus_weights(params).tolist()
    try:
        return np.array([math.exp(gamma) * p_minus, p_zero, math.exp(-gamma) * p_plus])
    except OverflowError:
        raise NumericsError(f"deformed weights overflow at gamma = {gamma!r}") from None


def _log_r(gamma: float, be: float) -> float:
    """log r, r = cosh(be/2 - gamma)/cosh(be/2), with relative accuracy at every gamma.

    log r is even about gamma = be/2, so gamma folds to g <= be/2 (exactly,
    by Sterbenz's lemma, near the fold).  For |g| <= 1, r - 1 = (cosh g - 1)
    - tanh(be/2) sinh g = 2 sinh^2(g/2) - tanh(be/2) sinh g has no large
    terms to cancel; beyond, log r = -g + log1p(e^{-2(be/2 - g)}) - log1p(e^{-be}),
    where neither exponential overflows.
    """
    a = 0.5 * be
    g = gamma if gamma <= a else be - gamma
    if abs(g) <= 1.0:
        return math.log1p(2.0 * math.sinh(0.5 * g) ** 2 - math.tanh(a) * math.sinh(g))
    return -g + math.log1p(math.exp(-2.0 * (a - g))) - math.log1p(math.exp(-be))


def log_theta(gamma: float, params: ModelParams) -> float:
    """log of the trace growth rate of the deformation with exponent gamma.

    theta = (1 - p) + p r with r = cosh(beta E/2 - gamma)/cosh(beta E/2),
    which equals the sum of `deformed_weights(gamma)` identically and stays
    defined at beta E = 0.  log r is evaluated without subtracting large
    terms, so nothing overflows at any finite gamma.  The one closed form behind
    `theta`, `walk.scgf` and `fcs.energy_cgf`: log_theta(0) = 0 and
    log_theta(gamma) = log_theta(beta E - gamma).  NumericsError where the value
    is undefined (gamma = beta E = inf, whose fold is inf - inf).
    """
    _require_real(gamma, "gamma")
    _require_type(params, ModelParams, "params")
    be = params.beta * params.E
    value = _log_theta(gamma, params.p, be)
    if math.isnan(value):
        raise NumericsError(f"log_theta({gamma!r}) is undefined at beta E = {be!r}")
    return value


def _log_theta(gamma: float, p: float, be: float) -> float:
    """`log_theta` at jump probability p and beta E = be, for a non-NaN gamma.

    log1p(p expm1(log r)) keeps relative accuracy when theta is near 1 (small
    p); where theta <= 1/2 the sum of the two positive terms does, and past
    log r = 709 the larger term is factored out before expm1 overflows.
    There, at a subnormal p, the factored sum p + (1 - p)/r would add two
    subnormals with a few bits each, and theta = 1 + p r may still be near 1.
    So theta is taken from y = log(p r), where nothing is subnormal (1 - p
    rounds to 1): log theta = y + log1p(e^-y) for y > 0, log1p(e^y) otherwise.
    At a normal p, p r > 1.8 there, and a subnormal (1 - p)/r errs by less
    than half an ulp of p, so the factored sum is kept.
    """
    if p == 0.0:
        # the walk never moves; the factored form below would take log(0) far out
        return 0.0
    log_r = _log_r(gamma, be)
    if log_r >= 709.0:
        if p < sys.float_info.min:
            y = math.log(p) + log_r
            return y + math.log1p(math.exp(-y)) if y > 0.0 else math.log1p(math.exp(y))
        return log_r + math.log(p + (1.0 - p) * math.exp(-log_r))
    x = p * math.expm1(log_r)
    if x > -0.5:
        return math.log1p(x)
    return math.log((1.0 - p) + p * math.exp(log_r))


def theta(alpha: float, params: ModelParams) -> float:
    """Trace growth rate exp(log_theta(alpha beta E)); NumericsError past the double range,
    an infinite alpha included, where log_theta is inf."""
    _require_real(alpha, "alpha")
    _require_type(params, ModelParams, "params")
    try:
        value = math.exp(log_theta(alpha * params.beta * params.E, params))
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise NumericsError(f"theta({alpha!r}) overflows a double; use log_theta")


def _shift(coeffs: np.ndarray, direction: int) -> np.ndarray:
    """Conjugation by the translation: both trailing indices move by `direction`."""
    out = np.zeros_like(coeffs)
    if direction == 1:
        out[..., 1:, 1:] = coeffs[..., :-1, :-1]
    else:
        out[..., :-1, :-1] = coeffs[..., 1:, 1:]
    return out


def _kick(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The three weighted translations (down, stay, up) on eigenbasis coefficients.

    coeffs is one matrix or a stack of them along leading (state) axes; w is
    one (down, stay, up) triple.
    """
    a, b, c = w
    return a * _shift(coeffs, -1) + b * coeffs + c * _shift(coeffs, +1)


def apply_channel(dm: ParticleDensityMatrix, alpha: float,
                  params: ModelParams) -> ParticleDensityMatrix:
    """One full reduced step: free evolution over tau, then the deformed kicks.

    Both run on the occupied k-range of dm (`_crop`); `_free_phases` depends
    on k - k' alone.  The free phases are refused where `free_evolve` refuses
    them on the whole window.  Refuses with WindowError when support touches
    the boundary: mass is never silently truncated.
    """
    _require_type(params, ModelParams, "params")
    _require_type(dm, ParticleDensityMatrix, "dm")
    _require_phase(params.tau, params.F * (dm.window.n_k - 1))
    alpha = _require_real(alpha, "alpha")
    require_interior(np.diagonal(dm.coeffs))
    w = deformed_weights(alpha * params.beta * params.E, params)
    sub, ks = _crop(dm.coeffs)
    sub = _free_phases(params.tau, params.F, ks.stop - ks.start) * sub
    return ParticleDensityMatrix(dm.window, _uncrop(_kick(sub, w), ks, dm.window.n_k))


def _atom_diagonal(gibbs: AtomGibbs, a: float) -> np.ndarray:
    """The diagonal of rho_beta^a, shaped (2, 1, 1)."""
    return np.diagonal(gibbs.power(a))[:, None, None]


def _partial_trace_on(rho: np.ndarray, lifted: np.ndarray, weights: np.ndarray,
                      blocks: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The partial-trace evaluation of `channel_oracle` on a k-range ks.

    rho holds particle coefficients on ks, one matrix or a stack of them
    along leading (state) axes, which lead the result; lifted and weights
    are the `_atom_diagonal` of 1 - alpha and of alpha; blocks and edges are
    one interaction's `_oracle_blocks` for the sectors of ks, the occupied
    range of `_crop`.
    """
    m, lead = rho.shape[-1], rho.shape[:-2]
    joint = np.zeros(lead + (2, m, 2, m), dtype=complex)
    joint[..., 0, :, 0, :] = lifted[0] * rho
    joint[..., 1, :, 1, :] = lifted[1] * rho
    evolved = _conjugate_on(blocks, edges, joint.reshape(lead + (2 * m, 2 * m)))
    return weights[0] * evolved[..., :m, :m] + weights[1] * evolved[..., m:, m:]


def channel_oracle(dm: ParticleDensityMatrix, alpha: float,
                   params: ModelParams) -> ParticleDensityMatrix:
    """The defining partial-trace evaluation of the deformed reduced map.

    Builds rho (x) rho_beta^{1-alpha}, conjugates with the sector-block
    propagator over one interaction, multiplies by I (x) rho_beta^{alpha}
    and traces out the atom: the two diagonal atom blocks, each weighted by
    its scalar of rho_beta^{alpha}.  Entirely independent of the Kraus route.

    Everything runs on the occupied k-range of rho (`_crop`), so no
    2n_k x 2n_k array is formed.  The edge refusal reads the particle
    diagonal times the atom weights, the diagonal of the product.
    """
    alpha = _require_real(alpha, "alpha")
    gibbs = AtomGibbs.from_params(params)
    _require_type(dm, ParticleDensityMatrix, "dm")
    lifted = _atom_diagonal(gibbs, 1.0 - alpha)
    # the product's diagonal, shaped (2, n_k)
    require_interior(lifted[..., 0] * np.diagonal(dm.coeffs), band=2)
    sub, ks = _crop(dm.coeffs)
    blocks, edges = _oracle_blocks(params.tau, params, dm.window, ks)
    reduced = _partial_trace_on(sub, lifted, _atom_diagonal(gibbs, alpha), blocks, edges)
    return ParticleDensityMatrix(dm.window, _uncrop(reduced, ks, dm.window.n_k))
