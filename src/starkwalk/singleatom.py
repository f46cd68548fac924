"""Exact dynamics of the particle coupled to one thermal two-level atom.

The joint Hamiltonian commutes with a number operator, so it decomposes
into 2x2 sectors spanned by (psi_k (x) ground, psi_{k+1} (x) excited).
Two independent propagator routes are provided: a closed form obtained by
conjugating diagonal phases with a real rotation built from the mixing
angle, and an oracle that exponentiates every sector block spectrally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .params import (
    ModelParams,
    _require_finite,
    _require_finites,
    _require_phase,
    _require_real,
    _require_type,
)
from .state import (
    LatticeWindow,
    ParticleDensityMatrix,
    _bloch_reach,
    _crop,
    _frozen_coeffs,
    _uncrop,
    bloch_coefficients,
    position_operator,
    require_interior,
)


@dataclass(frozen=True)
class AtomGibbs:
    """Thermal weights of one atom: (w_ground, w_excited) = (1, e^{-beta E}) / Z."""

    w_ground: float
    w_excited: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "AtomGibbs":
        _require_type(params, ModelParams, "params")
        g = math.exp(-params.beta * params.E)
        return cls(w_ground=1.0 / (1.0 + g), w_excited=g / (1.0 + g))

    def density(self) -> np.ndarray:
        return np.diag([self.w_ground, self.w_excited])

    def power(self, a: float) -> np.ndarray:
        """rho_beta^a; NumericsError where a weight's power is not a finite double.

        That is 0^a for a < 0 (w_excited rounds to 0 past beta E ~ 745), or a
        power past the double range (|a| ~ 2000 at beta E = 2).
        """
        a = _require_real(a, "a")
        try:
            powers = [self.w_ground**a, self.w_excited**a]
            if all(map(math.isfinite, powers)):
                return np.diag(powers)
        except (ZeroDivisionError, OverflowError):
            pass
        raise NumericsError(f"rho_beta^a at exponent a = {a!r} is not a finite double "
                            f"(atom weights {self.w_ground!r}, {self.w_excited!r})")


@dataclass(frozen=True, eq=False)
class JointDensityMatrix:
    """Operator on particle (x) atom; atom-major layout, index = a * n_k + k_index."""

    window: LatticeWindow
    coeffs: np.ndarray

    def __post_init__(self):
        _require_type(self.window, LatticeWindow, "window")
        coeffs = _frozen_coeffs(self.coeffs, 2 * self.window.n_k, "joint ")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def product(cls, dm: ParticleDensityMatrix, atom: np.ndarray) -> "JointDensityMatrix":
        _require_type(dm, ParticleDensityMatrix, "dm")
        return cls(dm.window, np.kron(np.asarray(atom, dtype=complex), dm.coeffs))

    def trace(self) -> float:
        return float(np.trace(self.coeffs).real)


def _ladder(params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """E_k = 2 - F k on the window, refused where the energies of H overflow a double.

    The bound covers every entry of H, each sector's centre E_k + (E - F)/2
    and its half Rabi splitting omega0/2 <= (E + F)/2 + |lam|.
    """
    k_top = max(abs(window.k_min), abs(window.k_max))
    if not math.isfinite(2.0 + params.F * (k_top + 1) + params.E + abs(params.lam)):
        raise NumericsError(f"the energies of H overflow a double at F k = {params.F!r} * {k_top}")
    return 2.0 - params.F * window.k_values.astype(float)


def hamiltonian_blocks(params: ModelParams,
                       window: LatticeWindow) -> tuple[np.ndarray, np.ndarray]:
    """Sector decomposition of H = H_p + H_a + lam (T b* + T* b) on the window.

    Returns (blocks, edges).  blocks[i], shape (n_k - 1, 2, 2), is H on the
    sector ((ground, k_i), (excited, k_{i+1})); edges are the energies of
    the two states the truncation leaves unpaired, (ground, k_max) and
    (excited, k_min).
    """
    _require_type(params, ModelParams, "params")
    _require_type(window, LatticeWindow, "window")
    Ek = _ladder(params, window)
    blocks = np.empty((window.n_k - 1, 2, 2))
    blocks[:, 0, 0] = Ek[:-1]
    blocks[:, 0, 1] = blocks[:, 1, 0] = params.lam
    blocks[:, 1, 1] = Ek[1:] + params.E
    return blocks, np.array([Ek[-1], Ek[0] + params.E])


def _scatter(blocks: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Dense atom-major 2n_k x 2n_k operator from sector blocks and edge entries."""
    n = blocks.shape[0] + 1
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(blocks, edges))
    ground = np.arange(n - 1)
    idx = np.stack([ground, ground + n + 1], axis=1)
    out[idx[:, :, None], idx[:, None, :]] = blocks
    out[n - 1, n - 1], out[n, n] = edges
    return out


def half_angle(params: ModelParams) -> tuple[float, float]:
    """(cos theta, sin theta) from the doubled angle, stable at the lam -> 0 edges."""
    cos_t = math.sqrt(0.5 * (1.0 + params.cos2theta))
    if cos_t > 0.0:
        sin_t = params.sin2theta / (2.0 * cos_t)
    else:
        # cos2theta == -1: lam == 0 with E < F; any unit sin works since sin2theta == 0
        sin_t = 1.0
    return cos_t, sin_t


def _sectors(window: LatticeWindow, ks: slice | None) -> slice:
    """The sectors of the k-range ks, a slice of window indices: the first site of each
    lies in ks, the last site of ks excluded.  The whole window where ks is None."""
    return slice(0, window.n_k - 1) if ks is None else slice(ks.start, ks.stop - 1)


def _closed_blocks(t: float | np.ndarray, params: ModelParams, window: LatticeWindow,
                   ks: slice | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, edges) of e^{-itH} from the closed form.

    t is a float or an array of times, which leads the shapes of both outputs.
    blocks holds the sectors of the k-range ks (`_sectors`), the whole window
    by default; each block is an elementwise formula in its sector, so it is
    the whole-window block bit for bit.  The phase refusal reads the energies
    of the whole window, with no time axis.
    """
    cos_t, sin_t = half_angle(params)
    R = np.array([[cos_t, sin_t], [-sin_t, cos_t]])
    Ek = _ladder(params, window)
    sector, bare = Ek[:-1] + 0.5 * (params.E - params.F), np.array([Ek[-1], Ek[0] + params.E])
    _require_phase(t, params.omega0, sector, bare)
    sector = sector[_sectors(window, ks)]
    t = np.asarray(t, dtype=float)[..., None]
    dressed = (R * np.exp(0.5j * t[..., None] * params.omega0 * np.array([1.0, -1.0]))) @ R.T
    phase, edges = np.exp(-1j * t * sector), np.exp(-1j * t * bare)
    return phase[..., None, None] * dressed[..., None, :, :], edges


def _oracle_blocks(t: float | np.ndarray, params: ModelParams, window: LatticeWindow,
                   ks: slice | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, edges) of e^{-itH} from the spectral formula; see `oracle_unitary`.

    t is a float or an array of times, which leads the shapes of both outputs.
    blocks holds the sectors of the k-range ks, as in `_closed_blocks`.
    """
    blocks, edges = hamiltonian_blocks(params, window)
    e1, e2, lam = blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1]
    # each energy halved first, so the sum cannot overflow; halving is exact, so mu
    # is (e1 + e2) / 2 to the bit wherever that sum is finite
    mu, delta = 0.5 * e1 + 0.5 * e2, 0.5 * (e1 - e2)
    r = np.hypot(delta, lam)
    _require_phase(t, r, mu, edges)
    sectors = _sectors(window, ks)
    mu, delta, lam, r = mu[sectors], delta[sectors], lam[sectors], r[sectors]
    t = np.asarray(t, dtype=float)[..., None]
    c, s = np.cos(r * t), np.sin(r * t)
    # sin(rt) = 0 where r = 0, so a unit divisor there leaves the identity block
    r_safe = np.where(r > 0.0, r, 1.0)
    diag, off = 1j * (s * delta / r_safe), -1j * (s * lam / r_safe)
    W = np.stack([np.stack([c - diag, off], axis=-1),
                  np.stack([off, c + diag], axis=-1)], axis=-2)
    return np.exp(-1j * t * mu)[..., None, None] * W, np.exp(-1j * t * edges)


def oracle_unitary(t: float, params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """e^{-itH} from the 2x2 spectral formula applied to every sector block at once.

    A block mu + [[delta, lam], [lam, -delta]] exponentiates to
    e^{-it mu} (cos(rt) - i sin(rt) [[delta, lam], [lam, -delta]] / r), r = hypot(delta, lam).
    t is one finite real time: the result is one matrix.
    """
    t = _require_finite(t, "t")
    _require_type(params, ModelParams, "params")
    return _scatter(*_oracle_blocks(t, params, window))


def _apply_rows(blocks: np.ndarray, edges: np.ndarray, A: np.ndarray) -> np.ndarray:
    """W @ A for W = _scatter(blocks, edges), by slices in O(n_k) per column.

    The sector pairs are rows [:n_k - 1] (ground, k_i) and [n_k + 1:]
    (excited, k_{i+1}); rows n_k - 1 and n_k are the two edge states.
    Leading (time) axes of blocks and edges broadcast against those of A.
    """
    n = blocks.shape[-3] + 1
    ground, excited = A[..., :n - 1, :], A[..., n + 1:, :]
    shape = np.broadcast_shapes(blocks.shape[:-3], A.shape[:-2]) + A.shape[-2:]
    out = np.empty(shape, dtype=np.result_type(blocks, A))
    out[..., :n - 1, :] = blocks[..., 0, 0, None] * ground + blocks[..., 0, 1, None] * excited
    out[..., n + 1:, :] = blocks[..., 1, 0, None] * ground + blocks[..., 1, 1, None] * excited
    out[..., n - 1, :] = edges[..., 0, None] * A[..., n - 1, :]
    out[..., n, :] = edges[..., 1, None] * A[..., n, :]
    return out


def _dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _conjugate_on(blocks: np.ndarray, edges: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """W A W^dagger on the k-range ks of `_crop`, from sub = A on ks and the blocks of
    the sectors of ks (the builders' `ks` argument), in O(m^2) for m sites.

    The sub-window's two unpaired rows take the window's edge phases: where
    the range is clamped they are the real edge states, and elsewhere their
    rows and columns are zero.  Leading (time) axes of blocks and edges, and
    leading axes of sub, lead the result.
    """
    return _dagger(_apply_rows(blocks, edges, _dagger(_apply_rows(blocks, edges, sub))))


def _conjugate(builder, t, params: ModelParams, window: LatticeWindow,
               A: np.ndarray) -> np.ndarray:
    """W A W^dagger as (W (W A)^dagger)^dagger on the occupied range of A, zero elsewhere,
    with W the blocks `builder` forms on that range at time t."""
    sub, ks = _crop(A, atoms=2)
    return _uncrop(_conjugate_on(*builder(t, params, window, ks), sub), ks, window.n_k, atoms=2)


def _propagate(builder, state: JointDensityMatrix, t: float,
               params: ModelParams) -> JointDensityMatrix:
    """Evolve state by the blocks `builder` forms for one real, finite time t, on the
    occupied k-range of the state."""
    t = _require_finite(t, "t")
    _require_type(params, ModelParams, "params")
    _require_type(state, JointDensityMatrix, "state")
    require_interior(np.diagonal(state.coeffs).reshape(2, -1), band=2)
    return JointDensityMatrix(state.window,
                              _conjugate(builder, t, params, state.window, state.coeffs))


def propagate_closed(state: JointDensityMatrix, t: float,
                     params: ModelParams) -> JointDensityMatrix:
    """Evolve by time t using the closed-form propagator (rotation + phases)."""
    return _propagate(_closed_blocks, state, t, params)


def propagate_oracle(state: JointDensityMatrix, t: float,
                     params: ModelParams) -> JointDensityMatrix:
    """Evolve by time t exponentiating each 2x2 sector block spectrally."""
    return _propagate(_oracle_blocks, state, t, params)


def position_motion_bound(params: ModelParams) -> float:
    """Uniform bound on |<X(t)> - <X(0)>| for the single-atom evolution."""
    _require_type(params, ModelParams, "params")
    s2 = abs(params.sin2theta)
    return _bloch_reach(params.F) + s2**2 + s2 * abs(params.cos2theta) + s2


def position_expectation(t: np.ndarray, initial: JointDensityMatrix,
                         params: ModelParams) -> np.ndarray:
    """<X(t)> from the closed-form Heisenberg evolution of the position.

    X(t) = I (x) (X + B(t)) + s^2 st2 (b*b - bb*)
           + s c st2 (b* (x) S + b (x) S^T) - (i/2) s sin(omega0 t) (b* (x) S - b (x) S^T),
    with s, c = sin 2theta, cos 2theta and st2 = sin^2(omega0 t / 2).  Its
    trace against rho reads only three diagonals of the atom blocks:
    Tr(S R) = sum R[i, i+1] and Tr(S^T R) = sum R[i+1, i].  The result is a
    trigonometric polynomial in the Bloch frequency F and the Rabi
    frequency omega0; the motion stays within position_motion_bound of its
    starting point for all t.  t is a 1-D array of times, and one <X(t)> is
    returned per time: the state is read once, and each time costs O(1).
    """
    times = _require_finites(t, "t")
    _require_type(params, ModelParams, "params")
    _require_phase(times, params.omega0)
    _require_type(initial, JointDensityMatrix, "initial")
    n = initial.window.n_k
    c = initial.coeffs
    gg, ee, ge, eg = c[:n, :n], c[n:, n:], c[:n, n:], c[n:, :n]
    # the particle part against R = gg + ee: Tr(diag(k) R), Tr(S R), Tr(S^T R)
    k_mean = np.dot(initial.window.k_values, np.diagonal(gg) + np.diagonal(ee))
    s_up = np.sum(np.diagonal(gg, 1)) + np.sum(np.diagonal(ee, 1))
    s_down = np.sum(np.diagonal(gg, -1)) + np.sum(np.diagonal(ee, -1))
    # X + B(t) = diag(k) + (c_- - 1/F) S + (c_+ - 1/F) S^T
    bloch = bloch_coefficients(times, params.F)
    free = (k_mean + (bloch.c_minus - 1.0 / params.F) * s_up
            + (bloch.c_plus - 1.0 / params.F) * s_down)
    # b* (x) S pairs with Tr(S R_ge), b (x) S^T with Tr(S^T R_eg); s = 0 when omega0 = 0
    up, down = np.sum(np.diagonal(ge, 1)), np.sum(np.diagonal(eg, -1))
    st2 = np.sin(0.5 * params.omega0 * times) ** 2
    atom = ((params.sin2theta**2) * st2 * (np.trace(gg) - np.trace(ee))
            + (params.sin2theta * params.cos2theta) * st2 * (up + down)
            - 0.5j * params.sin2theta * np.sin(params.omega0 * times) * (up - down))
    return (free + atom).real


# complex entries per time batch of `position_oracle`, which bounds its memory
_BATCH_ENTRIES = 1 << 18


def position_oracle(t: np.ndarray, initial: JointDensityMatrix,
                    params: ModelParams) -> np.ndarray:
    """<X(t)> = Tr[(I (x) X) W rho W^dagger] with W the spectral sector exponentials.

    The single-atom position oracle: the state evolves through
    `_oracle_blocks`, as in `propagate_oracle`, on its occupied k-range,
    with blocks for the sectors of that range alone, and the trace against
    the lattice position is taken entrywise on that range, with no
    Heisenberg algebra.  t is a 1-D array of times, evolved in batches, and
    one <X(t)> is returned per time.
    """
    times = _require_finites(t, "t")
    _require_type(params, ModelParams, "params")
    _require_type(initial, JointDensityMatrix, "initial")
    require_interior(np.diagonal(initial.coeffs).reshape(2, -1), band=2)
    window = initial.window
    sub, ks = _crop(initial.coeffs, atoms=2)
    m = ks.stop - ks.start
    X = position_operator(window, params.F)[ks, ks]
    out = np.empty(times.shape)
    step = max(1, _BATCH_ENTRIES // (4 * m + 4 * m * m))
    for i in range(0, times.size, step):
        evolved = _conjugate_on(*_oracle_blocks(times[i:i + step], params, window, ks), sub)
        out[i:i + step] = np.sum(X.T * (evolved[..., :m, :m] + evolved[..., m:, m:]),
                                 axis=(-2, -1)).real
    return out
