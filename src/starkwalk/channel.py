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
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import NumericsError, WindowError
from .params import ModelParams, derive_params
from .singleatom import AtomGibbs, JointDensityMatrix, propagate_oracle
from .state import LatticeWindow, ParticleDensityMatrix, free_evolve, require_interior


@dataclass(frozen=True)
class KrausTriple:
    """Jump weights of one reduced interaction: (down, stay, up)."""

    p_minus: float
    p_zero: float
    p_plus: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_minus, self.p_zero, self.p_plus])


def kraus_weights(params: ModelParams) -> KrausTriple:
    """Jump weights p_-, p_0, p_+ with p_+- = p e^{-+beta E/2} / (2 cosh(beta E/2))."""
    d = derive_params(params)
    g = math.exp(-params.beta * params.E)
    return KrausTriple(p_minus=d.p * g / (1.0 + g),
                       p_zero=1.0 - d.p,
                       p_plus=d.p / (1.0 + g))


def deformed_weights(gamma: float, params: ModelParams) -> np.ndarray:
    """(e^gamma p_-, p_0, e^-gamma p_+): the (down, stay, up) weights of the deformed map.

    gamma = alpha beta E for the alpha-deformation; gamma = 0 gives the
    Kraus weights bit for bit.  The weights sum to exp(log_theta(gamma)).
    """
    kt = kraus_weights(params)
    try:
        return np.array([math.exp(gamma) * kt.p_minus, kt.p_zero,
                         math.exp(-gamma) * kt.p_plus])
    except OverflowError:
        raise NumericsError(f"deformed weights overflow at gamma = {gamma!r}") from None


def _log_cosh(u: float) -> float:
    """log cosh(u), finite for every finite u."""
    u = abs(u)
    return u + math.log1p(math.exp(-2.0 * u)) - math.log(2.0)


def log_theta(gamma: float, params: ModelParams) -> float:
    """log of the trace growth rate of the deformation with exponent gamma.

    theta = (1 - p) + p r with r = cosh(beta E/2 - gamma)/cosh(beta E/2),
    which equals the sum of `deformed_weights(gamma)` identically and stays
    defined at beta E = 0.  log r comes from log-cosh differences, and the
    larger of the two terms is factored out of the sum, so nothing
    overflows at any finite gamma.  The one closed form behind `theta`,
    `walk.scgf` and `fcs.energy_cgf`: log_theta(0) = 0 and
    log_theta(gamma) = log_theta(beta E - gamma).  NumericsError for NaN.
    """
    if math.isnan(gamma):
        raise NumericsError("log_theta of NaN")
    d = derive_params(params)
    if d.p == 0.0:
        # the walk never moves; the factored form below would take log(0) far out
        return 0.0
    be = params.beta * params.E
    log_r = _log_cosh(0.5 * be - gamma) - _log_cosh(0.5 * be)
    if log_r <= 0.0:
        return math.log((1.0 - d.p) + d.p * math.exp(log_r))
    return log_r + math.log(d.p + (1.0 - d.p) * math.exp(-log_r))


def theta(alpha: float, params: ModelParams) -> float:
    """Trace growth rate exp(log_theta(alpha beta E)); NumericsError past the double range."""
    try:
        return math.exp(log_theta(alpha * params.beta * params.E, params))
    except OverflowError:
        raise NumericsError(f"theta({alpha!r}) overflows a double; use log_theta") from None


def _shift(coeffs: np.ndarray, direction: int) -> np.ndarray:
    """Conjugation by the translation: both indices move by `direction`."""
    out = np.zeros_like(coeffs)
    if direction == 1:
        out[1:, 1:] = coeffs[:-1, :-1]
    else:
        out[:-1, :-1] = coeffs[1:, 1:]
    return out


def _kick(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The three weighted translations (down, stay, up) on eigenbasis coefficients."""
    return w[0] * _shift(coeffs, -1) + w[1] * coeffs + w[2] * _shift(coeffs, +1)


def apply_deformed(dm: ParticleDensityMatrix, alpha: float,
                   params: ModelParams) -> ParticleDensityMatrix:
    """One deformed interaction-picture step (no free evolution).

    Refuses with WindowError when support touches the boundary: mass is
    never silently truncated.
    """
    require_interior(dm, band=1)
    w = deformed_weights(alpha * params.beta * params.E, params)
    return ParticleDensityMatrix(dm.window, _kick(dm.coeffs, w))


def apply_channel(dm: ParticleDensityMatrix, alpha: float,
                  params: ModelParams) -> ParticleDensityMatrix:
    """One full reduced step: free evolution over tau, then the deformed kicks."""
    return apply_deformed(free_evolve(dm, params.tau, params), alpha, params)


def channel_oracle(dm: ParticleDensityMatrix, alpha: float,
                   params: ModelParams) -> ParticleDensityMatrix:
    """The defining partial-trace evaluation of the deformed reduced map.

    Builds rho (x) rho_beta^{1-alpha}, conjugates with the sector-block
    propagator over one interaction, multiplies by I (x) rho_beta^{alpha}
    and traces out the atom.  Entirely independent of the Kraus route.
    """
    gibbs = AtomGibbs.from_params(params)
    joint = JointDensityMatrix.product(dm, gibbs.power(1.0 - alpha))
    evolved = propagate_oracle(joint, params.tau, params)
    weighted = JointDensityMatrix(
        dm.window, np.kron(gibbs.power(alpha), np.eye(dm.window.n_k)) @ evolved.coeffs)
    return weighted.partial_trace_atom()


def adjoint_apply(B: np.ndarray, window: LatticeWindow, alpha: float,
                  params: ModelParams) -> np.ndarray:
    """Heisenberg-picture counterpart: adjoint Kraus step, then inverse free phases.

    On interior entries the identity observable satisfies
    adjoint(I) = theta(alpha) I exactly.
    """
    w = deformed_weights(alpha * params.beta * params.E, params)
    out = _kick(np.asarray(B, dtype=complex), w[::-1])
    u = np.exp(1j * params.tau * params.F * window.k_values)
    return u.conj()[:, None] * out * u[None, :]


def time_reversal_conjugate(A: np.ndarray) -> np.ndarray:
    """Entrywise complex conjugation in the position basis.

    The eigenfunctions are real in the position representation, so the
    induced antilinear map conjugates eigenbasis coefficients entrywise.
    """
    return np.conj(np.asarray(A))


def master_step(pmf: np.ndarray, params: ModelParams) -> np.ndarray:
    """Classical Markov step on eigenbasis-diagonal states.

    p_k -> p_+ p_{k-1} + p_0 p_k + p_- p_{k+1}, one trinomial convolution
    restricted to the window; coincides with the diagonal of apply_channel
    on the matching diagonal density matrix.
    """
    pmf = np.asarray(pmf, dtype=float)
    edge = max(abs(pmf[0]), abs(pmf[-1]))
    if edge > TOL.boundary:
        raise WindowError(f"pmf occupies the window edge (mass {edge:.3e})")
    return np.convolve(pmf, kraus_weights(params).as_array())[1:-1]
