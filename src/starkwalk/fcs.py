"""Two-time measurement statistics of energy and position increments.

Energy: the reservoir energy and the particle energy are measured
projectively before the first and after the n-th interaction, on a
finite reservoir of M >= n atoms simulated brute force (joint unitary
product, no channel shortcut).  Both energies are ladders, so the
outcome is the joint law of two integer increments: the particle's
ladder index k - k' and the reservoir's excitation number m - m'.  The
entropy-like increments dS_p = (beta E / F)(E_p' - E_p) = beta E (k - k')
and dS_env = -beta (E_env' - E_env) = beta E (m - m') coincide with
probability one (the law lives on the diagonal k - k' = m - m'), their
cumulant generating function is n log theta(alpha), and the transient
fluctuation theorem holds exactly at every n.  The law is the walk law of
`walk_pmf_exact` reversed, at every n and M >= n; the `fcs-energy`
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
`run_position_fcs` on the sites each route reaches.
"""
from __future__ import annotations

import math
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
    _require_atoms,
    _require_count,
    _require_phase,
    _require_real,
    _require_reals,
)
from .singleatom import AtomGibbs, _apply_rows, _oracle_blocks
from .state import (
    LatticeWindow,
    ParticleDensityMatrix,
    position_distribution,
    require_interior,
    transform_matrix,
)
from .walk import LatticeLaw, scgf, walk_pmf_exact

MAX_WINDOW = 64
MAX_ATOMS = 4
# starting positions of at most this weight are not evolved by the matrix route
_PRUNE = 1e-12


@dataclass(frozen=True)
class ReservoirConfig:
    """Brute-force reservoir: M atoms, n <= M interactions, particle window."""

    params: ModelParams
    M: int
    n: int
    window: LatticeWindow

    def __post_init__(self):
        _require_count(self.n, "n")
        _require_count(self.M, "M", 1)
        _require_atoms(self.n, self.M)
        if self.window.n_k > MAX_WINDOW or self.M > MAX_ATOMS:
            raise BudgetError(
                f"brute-force budget is window <= {MAX_WINDOW}, M <= {MAX_ATOMS} "
                f"(got {self.window.n_k}, {self.M}); the energy law at any n is the walk "
                "law walk_pmf_exact(n) reversed, as fcs-energy prints it"
            )

    @property
    def dim(self) -> int:
        return self.window.n_k << self.M


def _occupations(M: int) -> np.ndarray:
    """occ[bits, j] = 1 if atom j is excited in configuration `bits` (atom 0 leads)."""
    return (np.arange(1 << M)[:, None] >> np.arange(M - 1, -1, -1)) & 1


def _evolve(cfg: ReservoirConfig, X: np.ndarray) -> np.ndarray:
    """U(n tau, 0) @ X: the n pair steps applied to the columns of X.

    Step j applies the single-atom propagator to the (atom j, particle)
    rows, into which the rows of X split as (atoms before j, atom j, atoms
    after j, particle), and a free phase e^{-i tau E} for each other
    excited atom.
    """
    p, K, M, cols = cfg.params, cfg.window.n_k, cfg.M, X.shape[1]
    W = _oracle_blocks(p.tau, p, cfg.window)
    occ = _occupations(M)
    _require_phase(p.tau, p.E)
    idle_phase = np.exp(-1j * p.tau * p.E)
    for j in range(cfg.n):
        before, after = 1 << j, 1 << (M - 1 - j)
        rows = X.reshape(before, 2, after, K, cols).swapaxes(1, 2)
        stepped = _apply_rows(*W, rows.reshape(before, after, 2 * K, cols))
        stepped = stepped.reshape(before, after, 2, K, cols).swapaxes(1, 2).reshape(X.shape)
        idle = np.repeat(occ.sum(axis=1) - occ[:, j], K)
        X = idle_phase ** idle[:, None] * stepped
    return X


def repeated_interaction_propagator(cfg: ReservoirConfig) -> np.ndarray:
    """U(n tau, 0) = e^{-i tau H_n} ... e^{-i tau H_1} on the joint space."""
    return _evolve(cfg, np.eye(cfg.dim, dtype=complex))


def environment_weights(cfg: ReservoirConfig) -> np.ndarray:
    """Diagonal of rho_beta^{(x)M} over the atom-bit configurations."""
    gibbs = AtomGibbs.from_params(cfg.params)
    return np.prod(np.where(_occupations(cfg.M), gibbs.w_excited, gibbs.w_ground), axis=1)


def environment_reduced_map(cfg: ReservoirConfig, A: np.ndarray,
                            alpha: float = 0.0) -> np.ndarray:
    """Brute-force deformed reduction: trace the reservoir out of U (A x rho^{1-a}) U*.

    For alpha = 0 this is the reduced Schroedinger dynamics after n
    interactions; for general alpha it must agree with n applications of
    the deformed channel.  NumericsError for NaN alpha.
    """
    _require_real(alpha, "alpha")
    if math.isnan(alpha):
        raise NumericsError("deformed reduction at alpha = NaN")
    K = cfg.window.n_k
    # rho_beta^{1-alpha} and rho_beta^{alpha} are diagonal over bit configurations
    w = environment_weights(cfg)
    U = repeated_interaction_propagator(cfg)
    joint = np.kron(np.diag((w ** (1.0 - alpha)).astype(complex)), np.asarray(A, dtype=complex))
    evolved = (U @ joint @ U.conj().T).reshape(1 << cfg.M, K, 1 << cfg.M, K)
    return np.einsum("b,bkbl->kl", w ** alpha, evolved)


@dataclass(frozen=True)
class EnergyFcsResult:
    """Joint law of the two integer increments of the two-time energy measurement.

    law[i, j] is the probability that the particle's ladder index fell by
    k - k' = i - (n_k - 1) and the reservoir lost m - m' = j - M excitations,
    where (k, m) is the first outcome and (k', m') the second; k indices
    refer to window.k_values.  The zero increment sits at the centre of each
    axis, and the conservation law is the diagonal k - k' = m - m'.
    """

    cfg: ReservoirConfig
    law: np.ndarray

    @property
    def beta_E(self) -> float:
        return _beta_E(self.cfg.params)

    def _increments(self) -> tuple[np.ndarray, np.ndarray]:
        """The index column k - k' and the index row m - m' of `law`."""
        K, M = self.cfg.window.n_k, self.cfg.M
        return np.arange(1 - K, K)[:, None], np.arange(-M, M + 1)[None, :]

    def off_diagonal_mass(self) -> float:
        dk, dm = self._increments()
        return float(np.sum(self.law[dk != dm]))

    def walk_law(self) -> LatticeLaw:
        """The law of the ladder displacement S_n = k' - k, the marginal of `law`.

        dS_n = beta E (k - k') = -beta E S_n, so E[e^{alpha dS_n}] is
        `.mgf(-alpha beta E)`, its mean -beta E `.mean()` and its variance
        beta E^2 `.variance()`.  Each step moves k by at most one, so the
        rows |k - k'| <= n carry the whole marginal.
        """
        K, n = self.cfg.window.n_k, self.cfg.n
        return LatticeLaw(n=n, first=-n, pmf=self.law.sum(axis=1)[K - 1 - n:K + n][::-1])

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


def run_energy_fcs(cfg: ReservoirConfig, rho_p: ParticleDensityMatrix) -> EnergyFcsResult:
    """Exact two-time energy measurement statistics on the finite reservoir.

    The particle energy projections are the eigenbasis projectors (the
    ladder is nondegenerate for F > 0); reservoir levels are grouped by
    total excitation number.  The first measurement dephases rho_p in the
    eigenbasis; conditional states are diagonal, so only |U|^2 enters, and
    only on the columns where diag(rho_p) is nonzero: 2^M columns for an
    eigenstate, which the pair steps evolve without forming U.  Each
    (final, initial) pair of basis states adds its weight to the cell of
    its two increments.
    """
    if rho_p.window != cfg.window:
        raise WindowError("rho_p window differs from the reservoir window")
    rho_p.check_density()
    require_interior(np.diagonal(rho_p.coeffs), band=cfg.n + 1)
    K, M = cfg.window.n_k, cfg.M
    pops = _occupations(M).sum(axis=1)
    qk = np.diagonal(rho_p.coeffs).real

    # evolve only the identity columns (bits, k) of the k that rho_p occupies
    live = np.flatnonzero(qk)
    cols = (K * np.arange(1 << M)[:, None] + live[None, :]).ravel()
    start_cols = np.zeros((cfg.dim, cols.size), dtype=complex)
    start_cols[cols, np.arange(cols.size)] = 1.0
    # starting states are diagonal, so outcome probabilities only mix |U|^2;
    # axes (final bits, final k, initial bits, initial k)
    W2 = (np.abs(_evolve(cfg, start_cols)) ** 2).reshape(1 << M, K, 1 << M, live.size)
    terms = W2 * (environment_weights(cfg)[:, None] * qk[None, live])
    cell = ((live - np.arange(K)[:, None, None] + K - 1) * (2 * M + 1)
            + pops[:, None] - pops[:, None, None, None] + M)
    law = np.bincount(cell.ravel(), weights=terms.ravel(), minlength=(2 * K - 1) * (2 * M + 1))
    return EnergyFcsResult(cfg=cfg, law=law.reshape(2 * K - 1, 2 * M + 1))


def energy_cgf(n: int, alpha: float, params: ModelParams) -> float:
    """Cumulant generating function of dS_n: exactly n log theta(alpha).

    The exponent is formed as `theta` forms it, (alpha beta) E; NumericsError
    where n log theta is not a finite double.
    """
    n = _require_count(n, "n")
    _require_real(alpha, "alpha")
    value = n * log_theta(alpha * params.beta * params.E, params)
    if not math.isfinite(value):
        raise NumericsError(f"the energy CGF n log theta({alpha!r}) at n = {n} "
                            "is not a finite double")
    return value


def _kernel_argument(t: float, params: ModelParams) -> float:
    """z = |(4/F) sin(F t / 2)|, the argument of the free Bloch kernel at time t."""
    _require_real(t, "t")
    _require_phase(t, params.F)
    return abs(4.0 / params.F * math.sin(0.5 * params.F * t))


def free_kernel(t: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """|<x+d| e^{-i t H_p} |x>|^2 = J_d((4/F) sin(F t / 2))^2, on `bessel_squares`' orders.

    The free propagator is translation covariant up to phases, so the
    kernel depends only on the displacement d; the closed form follows
    from the generating function of the Bessel profile and is verified
    against the windowed transform in the test suite.
    """
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
    contribute the Bloch kernel; the two laws convolve, over the walk's
    nonzero sites only (O(live span x kernel), bit-equal to the whole
    convolution).  The tails keep relative accuracy, which direct matrix
    evolution cannot provide.
    method='matrix' iterates apply_channel literally on the conditional
    states on rho_p's window (small n; used to validate the reduction),
    skipping the starting positions of weight at most 1e-12.
    """
    n = _require_count(n, "n")
    if method == "reduced":
        walk = walk_pmf_exact(n, params)
        d, kernel = free_kernel(n * params.tau, params)
        probs = np.zeros(walk.pmf.size + kernel.size - 1)
        # the walk's nonzero sites padded by kernel.size - 1 zeros: every output
        # touching them is the same full-length dot product as in the whole
        # convolution, and every other output is 0
        live, pad = walk.pmf != 0.0, kernel.size - 1
        a = max(int(live.argmax()) - pad, 0)
        b = min(live.size - int(live[::-1].argmax()) + pad, live.size)
        probs[a:b + kernel.size - 1] = np.convolve(walk.pmf[a:b], kernel)
        return LatticeLaw(n=n, first=int(walk.first + d[0]), pmf=probs)
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
    _require_real(eta, "eta")
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
    psi = transform_matrix(window, params.F)
    _require_phase(n * params.tau * params.F, window.k_values)
    arg = n * params.tau * params.F * window.k_values
    v_re = (psi * np.cos(arg)[None, :]) @ psi.T
    v_im = (psi * np.sin(arg)[None, :]) @ psi.T
    return v_re**2 + v_im**2


def position_cgf_oracle(n: int, eta: float | np.ndarray, rho_p: ParticleDensityMatrix,
                        params: ModelParams) -> float | np.ndarray:
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
    eta is a float (a float is returned) or a 1-D array (an array, each
    entry equal to the float call): the dephasing and the dressing weights
    are computed once for all of them.  Refuses with WindowError when the
    deformed weights that leave the window exceed
    `TOL.position_cgf_identity` of the total.
    """
    n = _require_count(n, "n")
    etas = _require_reals(eta, "eta")
    window = rho_p.window
    xs, q = position_distribution(rho_p, params.F)

    walks = []
    for e in etas.reshape(-1).tolist():
        weights = deformed_weights(-e, params)
        w = q
        lost = 0.0
        for _ in range(n):
            out = np.convolve(w, weights)
            lost += out[0] + out[-1]
            w = out[1:-1]
        total = float(np.sum(w))
        if lost > TOL.position_cgf_identity * total:
            raise WindowError(
                f"deformed weights leaked {lost:.3e} past the x-window "
                f"(total {total:.3e}) at eta = {e!r}; enlarge the window for n = {n}"
            )
        walks.append((e, w))

    W2 = free_dressing_weights(n, params, window)
    # sum_z e^{eta (z - x)} |V_xz|^2 over the window
    values = [math.log(float(np.dot(w, np.sum(W2 * np.exp(e * (xs[None, :] - xs[:, None])),
                                              axis=1))))
              for e, w in walks]
    return values[0] if etas.ndim == 0 else np.array(values)
