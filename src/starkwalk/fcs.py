"""Two-time measurement statistics of energy and position increments.

Energy: the reservoir energy and the particle energy are measured
projectively before the first and after the n-th interaction, on a
finite reservoir of n atoms simulated brute force (joint unitary
product, no channel shortcut).  Both energies are ladders, so the
outcome is the joint law of two integer increments: the particle's
ladder index k - k' and the reservoir's excitation number m - m'.  The
entropy-like increments dS_p = (beta E / F)(E_p' - E_p) = beta E (k - k')
and dS_env = -beta (E_env' - E_env) = beta E (m - m') coincide with
probability one (the law lives on the diagonal k - k' = m - m'), their
cumulant generating function is n log theta(alpha), and the transient
fluctuation theorem holds exactly at every n, from every initial state.
The law is the walk law of `walk_pmf_exact` reversed; the `fcs-energy`
experiment reads it there, and the reservoir is its oracle in
`verify-all` and the tests.

Position: the position is measured at time 0 and time n tau.  The
first measurement dephases the state in the position basis; each
conditional position eigenstate then evolves with n reduced channel
steps.  Iterating the channel on position eigenprojectors is exactly a
trinomial walk followed by the free Bloch kernel J_d(z_n)^2 (the free
evolutions commute with the kicks and collect at the end), which is how
the `reduced` method evaluates the protocol with relative accuracy deep
in the tails; the `matrix` method iterates the channel literally and is
used to cross-check the reduction at small n.  Neumann's addition
theorem sums the kernel's exponential moment, so the cumulant generating
function of the increment has the closed form
n e(eta) + log I_0(2 z_n sinh(eta/2)) for every state; the windowed
deformed-channel route stays as its oracle.

Both increment laws are `walk.LatticeLaw`s: the reservoir's marginal
`EnergyFcsResult.walk_law()` on -n..n, and the law of dX from
`run_position_fcs` on the sites each route reaches (O(sqrt n) for `reduced`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import bessel_squares
from .channel import apply_channel, deformed_weights, log_theta
from .config import TOL
from .errors import BudgetError, ConfigError, NumericsError, WindowError
from .params import (
    ModelParams,
    _beta_E,
    _require_count,
    _require_finite,
    _require_phase,
    _require_real,
    _require_reals,
    _require_type,
)
from .singleatom import AtomGibbs, _apply_rows, _oracle_blocks
from .state import (
    LatticeWindow,
    ParticleDensityMatrix,
    _bloch_reach,
    _span,
    position_distribution,
    transform_matrix,
)
from .walk import LatticeLaw, scgf, walk_pmf_exact

MAX_WINDOW = 64
MAX_ATOMS = 4
# starting positions of at most this weight are not evolved by the matrix route
_PRUNE = 1e-12


@dataclass(frozen=True)
class ReservoirConfig:
    """Brute-force reservoir: n interactions, one atom each."""

    params: ModelParams
    n: int

    def __post_init__(self):
        _require_type(self.params, ModelParams, "params")
        _require_count(self.n, "n")
        if self.n > MAX_ATOMS:
            raise BudgetError(
                f"brute-force budget is n <= {MAX_ATOMS} atoms (got {self.n}); the energy law "
                "at any n is the walk law walk_pmf_exact(n) reversed, as fcs-energy prints it"
            )

    @property
    def window(self) -> LatticeWindow:
        """k = -(n+1)..n+1: the sites the k = 0 start reaches in n steps, and one spare."""
        edge = self.n + 1
        return LatticeWindow(-edge, edge, -edge, edge)

    @property
    def dim(self) -> int:
        return self.window.n_k << self.n


def _occupations(M: int) -> np.ndarray:
    """occ[bits, j] = 1 if atom j is excited in configuration `bits` (atom 0 leads)."""
    return (np.arange(1 << M)[:, None] >> np.arange(M - 1, -1, -1)) & 1


def _evolve(cfg: ReservoirConfig, window: LatticeWindow, X: np.ndarray) -> np.ndarray:
    """U(n tau, 0) @ X on the joint space of the n atoms and the window.

    Step j applies the single-atom propagator to the (atom j, particle)
    rows, into which the rows of X split as (atoms before j, atom j, atoms
    after j, particle), and a free phase e^{-i tau E} for each other
    excited atom.
    """
    p, K, n, cols = cfg.params, window.n_k, cfg.n, X.shape[1]
    W = _oracle_blocks(p.tau, p, window)
    occ = _occupations(n)
    _require_phase(p.tau, p.E)
    idle_phase = np.exp(-1j * p.tau * p.E)
    for j in range(n):
        before, after = 1 << j, 1 << (n - 1 - j)
        rows = X.reshape(before, 2, after, K, cols).swapaxes(1, 2)
        stepped = _apply_rows(*W, rows.reshape(before, after, 2 * K, cols))
        stepped = stepped.reshape(before, after, 2, K, cols).swapaxes(1, 2).reshape(X.shape)
        idle = np.repeat(occ.sum(axis=1) - occ[:, j], K)
        X = idle_phase ** idle[:, None] * stepped
    return X


def repeated_interaction_propagator(cfg: ReservoirConfig, window: LatticeWindow) -> np.ndarray:
    """U(n tau, 0) = e^{-i tau H_n} ... e^{-i tau H_1} on the joint space of the n atoms
    and `window`; BudgetError past `MAX_WINDOW` sites."""
    _require_type(cfg, ReservoirConfig, "cfg")
    _require_type(window, LatticeWindow, "window")
    if window.n_k > MAX_WINDOW:
        raise BudgetError(f"the dense propagator's budget is window <= {MAX_WINDOW} "
                          f"(got {window.n_k})")
    return _evolve(cfg, window, np.eye(window.n_k << cfg.n, dtype=complex))


def environment_weights(cfg: ReservoirConfig) -> np.ndarray:
    """Diagonal of rho_beta^{(x)n} over the atom-bit configurations."""
    gibbs = AtomGibbs.from_params(cfg.params)
    return np.prod(np.where(_occupations(cfg.n), gibbs.w_excited, gibbs.w_ground), axis=1)


@dataclass(frozen=True, eq=False)
class EnergyFcsResult:
    """Joint law of the two integer increments of the two-time energy measurement.

    law[i, j] is the probability that the particle's ladder index fell by
    k - k' = i - n and the reservoir lost m - m' = j - n excitations, where
    (k, m) is the first outcome and (k', m') the second.  The zero increment
    sits at the centre of each axis, and the conservation law is the
    diagonal k - k' = m - m'.  `run_energy_fcs` makes `law` read-only.
    """

    cfg: ReservoirConfig
    law: np.ndarray

    @property
    def beta_E(self) -> float:
        return _beta_E(self.cfg.params)

    def _increments(self) -> tuple[np.ndarray, np.ndarray]:
        """The index column k - k' and the index row m - m' of `law`."""
        steps = np.arange(-self.cfg.n, self.cfg.n + 1)
        return steps[:, None], steps[None, :]

    def off_diagonal_mass(self) -> float:
        dk, dm = self._increments()
        return float(np.sum(self.law[dk != dm]))

    def walk_law(self) -> LatticeLaw:
        """The law of the ladder displacement S_n = k' - k, the marginal of `law`.

        dS_n = beta E (k - k') = -beta E S_n, so E[e^{alpha dS_n}] is
        `.mgf(-alpha beta E)`, its mean -beta E `.mean()` and its variance
        beta E^2 `.variance()`.
        """
        n = self.cfg.n
        return LatticeLaw(n=n, first=-n, pmf=self.law.sum(axis=1)[::-1])

    def total_energy_change_mean(self) -> float:
        """Mean of (E_p' + E_env') - (E_p + E_env) = F (k - k') - E (m - m')."""
        dk, dm = self._increments()
        E, F = self.cfg.params.E, self.cfg.params.F
        return float(np.sum(self.law * (F * dk - E * dm)))

    def max_total_energy_change(self) -> float:
        """Largest |energy change| carried by any outcome with real weight."""
        dk, dm = self._increments()
        E, F = self.cfg.params.E, self.cfg.params.F
        return float(np.max(np.where(self.law > TOL.fcs_support, np.abs(F * dk - E * dm), 0.0)))


def run_energy_fcs(cfg: ReservoirConfig) -> EnergyFcsResult:
    """Exact two-time energy measurement statistics on the n-atom reservoir.

    The particle energy projections are the eigenbasis projectors (the
    ladder is nondegenerate for F > 0); reservoir levels are grouped by
    total excitation number.  The first measurement dephases any particle
    state in the eigenbasis, and each sector block depends on k only
    through a phase, so the law is the same from every interior state; the
    pair steps evolve the 2^n unit columns of k = 0, one per atom
    configuration, without forming U.
    Only |U|^2 enters: each (final, initial) pair of basis states adds its
    weight to the cell of its two increments.
    """
    _require_type(cfg, ReservoirConfig, "cfg")
    n, K, B, side = cfg.n, cfg.window.n_k, 1 << cfg.n, 2 * cfg.n + 1
    pops = _occupations(n).sum(axis=1)
    starts = np.zeros((B, K, B), dtype=complex)
    starts[:, n + 1] = np.eye(B)
    W2 = np.abs(_evolve(cfg, cfg.window, starts.reshape(cfg.dim, B))) ** 2
    # axes (final bits, final k', initial bits), k' = n..-n so that row i of law is
    # k - k' = i - n; the spare sites k' = +-(n + 1) are never reached
    terms = W2.reshape(B, K, B)[:, -2:0:-1] * environment_weights(cfg)
    cell = np.arange(side)[:, None] * side + pops[None, None, :] - pops[:, None, None] + n
    law = np.bincount(cell.ravel(), weights=terms.ravel(), minlength=side * side)
    law.setflags(write=False)
    return EnergyFcsResult(cfg=cfg, law=law.reshape(side, side))


def energy_cgf(n: int, alpha: float, params: ModelParams) -> float:
    """Cumulant generating function of dS_n: exactly n log theta(alpha).

    The exponent is formed as `theta` forms it, (alpha beta) E; NumericsError
    where n log theta is not a finite double.
    """
    n = _require_count(n, "n")
    _require_real(n, "n")
    _require_real(alpha, "alpha")
    _require_type(params, ModelParams, "params")
    value = n * log_theta(alpha * params.beta * params.E, params)
    if not math.isfinite(value):
        raise NumericsError(f"the energy CGF n log theta({alpha!r}) at n = {n} "
                            "is not a finite double")
    return value


def _kernel_argument(t: float, params: ModelParams) -> float:
    """z = |(4/F) sin(F t / 2)|, the argument of the free Bloch kernel at time t, a finite
    real number or a time n tau its caller computed; NumericsError where 4/F overflows."""
    _require_phase(t, params.F)
    return abs(_bloch_reach(params.F) * math.sin(0.5 * params.F * t))


def free_kernel(t: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """|<x+d| e^{-i t H_p} |x>|^2 = J_d((4/F) sin(F t / 2))^2, on `bessel_squares`' orders.

    The free propagator is translation covariant up to phases, so the
    kernel depends only on the displacement d; the closed form follows
    from the generating function of the Bessel profile and is verified
    against the windowed transform in the test suite.
    """
    _require_finite(t, "t")
    _require_type(params, ModelParams, "params")
    return bessel_squares(_kernel_argument(t, params), f"the free kernel at t = {t!r} needs "
                          "J_d(z) at z = (4/F)|sin(F t / 2)|")


def run_position_fcs(n: int, rho_p: ParticleDensityMatrix, params: ModelParams,
                     method: str = "reduced") -> LatticeLaw:
    """Distribution of the two-time position increment dX = x' - x.

    The first measurement dephases rho_p in the position basis; each
    conditional state |x><x| then evolves through n channel steps.  By
    translation covariance of the channel the conditional increment law
    does not depend on x, so dX is independent of the initial state
    (which is the content of the protocol's insensitivity to
    localization).

    method='reduced' (the default) evaluates the conditional evolution
    exactly at every n: the kicks keep position eigenprojectors diagonal,
    giving the trinomial walk, and the deferred free evolutions
    contribute the Bloch kernel; the two laws convolve over the walk's
    nonzero sites only, and the law is returned on the sites they reach
    (O(live span x kernel); each entry is the whole convolution's bit for
    bit, and it is 0 elsewhere).  The tails keep relative accuracy, which
    direct matrix evolution cannot provide.
    method='matrix' iterates apply_channel literally on the conditional
    states on rho_p's window (small n; used to validate the reduction),
    skipping the starting positions of weight at most 1e-12.
    """
    n = _require_count(n, "n")
    _require_type(rho_p, ParticleDensityMatrix, "rho_p")
    _require_type(params, ModelParams, "params")
    if method == "reduced":
        walk = walk_pmf_exact(n, params)
        # n tau past the double range is a NumericsError, not free_kernel's ConfigError
        _require_phase(n * params.tau, params.F)
        d, kernel = free_kernel(n * params.tau, params)
        live = _span(walk.pmf != 0.0, kernel.size - 1)
        return LatticeLaw(n=n, first=int(walk.first + d[0]) + live.start,
                          pmf=np.convolve(walk.pmf[live], kernel))
    if method != "matrix":
        raise ConfigError(f"unknown method {method!r}")

    window = rho_p.window
    xs, q = position_distribution(rho_p, params.F)
    span = window.n_x - 1
    probs = np.zeros(2 * span + 1)
    skipped = 0.0
    for xi, qx in enumerate(q):
        if qx <= _PRUNE:
            # conditional states too light to evolve on this window;
            # accounted for and bounded by the leakage budget below
            skipped += max(qx, 0.0)
            continue
        cond = ParticleDensityMatrix.position_state(window, int(xs[xi]), params.F)
        for _ in range(n):
            cond = apply_channel(cond, 0.0, params)
        _, pmf = position_distribution(cond, params.F)
        # pmf index x' contributes to dX = x' - x
        probs[span - xi: 2 * span + 1 - xi] += qx * pmf
    if skipped > TOL.leakage:
        raise WindowError(
            f"pruned conditional weight {skipped:.3e} exceeds the leakage "
            f"budget {TOL.leakage:.1e}; enlarge the window"
        )
    return LatticeLaw(n=n, first=-span, pmf=probs)


# Below 1.5, log I_0(x) = log1p(sum_{k >= 1} y^k / (k!)^2) with y = x^2 / 4,
# the sum in Horner form: np.i0 rounds I_0 near 1 to an ulp of 1, which costs
# log I_0 ~ x^2/4 up to 45 ulps there.  At 1.5 the first term left out, the
# 13th, is 2e-23 of the sum; from 1.5 up np.i0 keeps log I_0 within 4 ulps.
_LOG_I0_SMALL = 1.5
_LOG_I0_SMALL_TERMS = 12
# np.i0 overflows a double past x ~ 713, so past 700 log I_0 takes the
# asymptotic series of sqrt(2 pi x) e^{-x} I_0(x) in 1/x instead.  Five terms:
# at x = 700 the sixth is 5e-18, 4e-5 of an ulp of log I_0(700) = 695.6.
_LOG_I0_SERIES_FROM = 700.0
# c_k = prod_{j <= k} (2j - 1)^2 / (8j), the coefficients of that series
_LOG_I0_SERIES = tuple(math.prod((2 * j - 1) ** 2 / (8 * j) for j in range(1, k + 1))
                       for k in range(1, 6))


def _log_i0(x: float) -> float:
    """log I_0(x) for finite x; it cannot overflow."""
    x = abs(x)
    if x < _LOG_I0_SMALL:
        y, t = 0.25 * x * x, 1.0
        for k in range(_LOG_I0_SMALL_TERMS, 1, -1):
            t = 1.0 + t * y / (k * k)
        return math.log1p(y * t)
    if x <= _LOG_I0_SERIES_FROM:
        return math.log(float(np.i0(x)))
    u, tail = 1.0 / x, 0.0
    for c in reversed(_LOG_I0_SERIES):      # Horner in 1/x: x**k would overflow
        tail = (tail + c) * u
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log1p(tail)


class PositionCgf(NamedTuple):
    """Exact finite-n cumulant generating function and its per-step limit."""

    value: float        # g_n(eta) = log E[e^{eta dX_n}]
    rate_limit: float   # log theta(-eta / beta E) = lim g_n / n


def position_cgf(n: int, eta: float, params: ModelParams) -> PositionCgf:
    """g_n(eta) = log E[e^{eta dX_n}] in closed form, the same for every state.

    dX_n is the trinomial walk plus an independent displacement d drawn
    from the free Bloch kernel J_d(z_n)^2, z_n = |(4/F) sin(F n tau / 2)|.
    The walk contributes n e(eta); Neumann's addition theorem
    sum_d J_d(z)^2 e^{eta d} = I_0(2 z sinh(eta/2)) sums the kernel, so

        g_n(eta) = n e(eta) + log I_0(2 z_n sinh(eta/2)),

    with log I_0(x) evaluated by `_log_i0` so that it cannot overflow.
    Checked against `position_cgf_oracle` and against the
    exact distribution of `run_position_fcs`.
    """
    n = _require_count(n, "n")
    _require_real(n, "n")
    _require_real(eta, "eta")
    _require_type(params, ModelParams, "params")
    z = _kernel_argument(n * params.tau, params)
    try:
        x = 2.0 * z * math.sinh(0.5 * eta)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise NumericsError(f"position CGF overflows at eta = {eta!r} (n = {n})")
    rate = scgf(eta, params)
    return PositionCgf(value=n * rate + _log_i0(x), rate_limit=rate)


def free_dressing_weights(n: int, params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """|<x| e^{i n tau H_p} |z>|^2 over the x-window, for the oracle's dressing.

    The transform is real, so the complex propagator splits into two real
    matrix products.
    """
    n = _require_count(n, "n")
    _require_real(n, "n")
    _require_type(params, ModelParams, "params")
    psi = transform_matrix(window, params.F)
    _require_phase(n * params.tau * params.F, window.k_values)
    arg = n * params.tau * params.F * window.k_values
    v_re = (psi * np.cos(arg)[None, :]) @ psi.T
    v_im = (psi * np.sin(arg)[None, :]) @ psi.T
    return v_re**2 + v_im**2


def _leak_limit(n: int, weights: np.ndarray, q: np.ndarray) -> float:
    """A leaked weight past which `position_cgf_oracle` must refuse after n steps.

    A step moves each site's weight by the deformed weights (a, b, c) to
    the sites below, at and above it, or out of the window.  So for a tilt
    u_i = s^(i - i0) >= 1 on the N sites, i0 the end where it is least, the
    sum of u_i w_i grows by at most a/s + b + c s per step, and it lies
    between the mass and s^(N - 1) times the mass (s^(1 - N) for s < 1).
    s = 1 bounds the weight left after n steps by theta^n times the mass of
    q; s = sqrt(a/c), the least rate b + 2 sqrt(ac) (theta at beta E / 2,
    at most 1), by that rate^n (a/c)^(+-(N - 1)/2) times it.  The lesser
    bound, times `TOL.position_cgf_identity` and widened by a few ulps per
    step and site for rounding, is the limit; at least the least normal
    double, and none where q holds no weight.
    """
    a, b, c = weights.tolist()
    mass = float(np.sum(q[q > 0.0]))
    if mass == 0.0:
        return math.inf
    growth = n * math.log(a + b + c)
    if a > 0.0 and c > 0.0:
        growth = min(growth, n * math.log(b + 2.0 * math.sqrt(a) * math.sqrt(c))
                     + 0.5 * (q.size - 1) * abs(math.log(a) - math.log(c)))
    cap = math.log(TOL.position_cgf_identity) + math.log(mass) + growth
    cap += 8.0 * sys.float_info.epsilon * (n + q.size) + 1e-12 * (1.0 + abs(cap))
    if cap > 709.0:
        return math.inf
    return max(math.exp(cap), sys.float_info.min)


def position_cgf_oracle(n: int, eta: np.ndarray, rho_p: ParticleDensityMatrix,
                        params: ModelParams) -> np.ndarray:
    """g_n(eta) evaluated on rho_p's window through the deformed channel.

    Sandwiching the kicks between e^{+-eta X/2} turns the interaction-
    picture map into its deformation with exponent -eta, so

        g_n(eta) = log Tr[ Ldef^n(q) * Q_n(eta) ],

    where q is the position-dephased diagonal of rho_p (a classical
    weight vector, since the kicks preserve position diagonality) and
    Q_n(eta) = e^{-eta X/2} e^{i n tau H_p} e^{eta X} e^{-i n tau H_p} e^{-eta X/2}
    is the uniformly bounded free dressing, whose diagonal is summed over
    the whole window from the windowed transform.  Independent of the
    Bessel-kernel reduction behind `position_cgf`; costs O(n_x^2 n_k).
    eta is a 1-D array, and one g_n is returned per entry: the dephasing and
    the dressing weights are computed once for all of them.  Refuses with
    WindowError when the deformed weights that leave the window exceed
    `TOL.position_cgf_identity` of the total; at the first step where the
    weight leaked so far already exceeds that share of a bound on the
    total (`_leak_limit`), so a window that leaks early is refused early.
    """
    n = _require_count(n, "n")
    etas = _require_reals(eta, "eta")
    _require_type(params, ModelParams, "params")
    _require_type(rho_p, ParticleDensityMatrix, "rho_p")
    window = rho_p.window
    xs, q = position_distribution(rho_p, params.F)

    walks = []
    for e in etas.tolist():
        weights = deformed_weights(-e, params)
        limit = _leak_limit(n, weights, q)
        w = q
        lost = 0.0
        for j in range(1, n + 1):
            out = np.convolve(w, weights)
            lost += out[0] + out[-1]
            w = out[1:-1]
            if lost > limit:
                raise WindowError(
                    f"deformed weights leaked {lost:.3e} past the x-window by step {j} of "
                    f"n = {n} at eta = {e!r}, more than {TOL.position_cgf_identity:.0e} of "
                    f"any total left at step n; enlarge the window"
                )
        total = float(np.sum(w))
        if lost > TOL.position_cgf_identity * total:
            raise WindowError(
                f"deformed weights leaked {lost:.3e} past the x-window "
                f"(total {total:.3e}) by step {n} at eta = {e!r}; enlarge the window for n = {n}"
            )
        walks.append((e, w))

    W2 = free_dressing_weights(n, params, window)
    # sum_z e^{eta (z - x)} |V_xz|^2 over the window
    gaps = xs[None, :] - xs[:, None]
    return np.array([math.log(float(np.dot(w, np.sum(W2 * np.exp(e * gaps), axis=1))))
                     for e, w in walks])
