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

from .config import TOL
from .errors import ConfigError, WindowError
from .params import DerivedParams, ModelParams, derive_params
from .state import (
    LatticeWindow,
    ParticleDensityMatrix,
    bloch_coefficients,
    bloch_matrix,
    position_operator,
    shift_matrix,
)

# atom operators in the (ground, excited) basis
B_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]])
B_CREATE = B_ANNIHILATE.T
N_ATOM = np.diag([0.0, 1.0])


@dataclass(frozen=True)
class AtomGibbs:
    """Thermal weights of one atom: (w_ground, w_excited) = (1, e^{-beta E}) / Z."""

    beta_E: float
    w_ground: float
    w_excited: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "AtomGibbs":
        z = 1.0 + math.exp(-params.beta * params.E)
        return cls(beta_E=params.beta * params.E,
                   w_ground=1.0 / z,
                   w_excited=math.exp(-params.beta * params.E) / z)

    def density(self) -> np.ndarray:
        return np.diag([self.w_ground, self.w_excited])

    def power(self, a: float) -> np.ndarray:
        return np.diag([self.w_ground**a, self.w_excited**a])


@dataclass(frozen=True)
class JointDensityMatrix:
    """Operator on particle (x) atom; atom-major layout, index = a * n_k + k_index."""

    window: LatticeWindow
    coeffs: np.ndarray

    def __post_init__(self):
        n = 2 * self.window.n_k
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (n, n):
            raise ConfigError(f"joint coefficient shape {arr.shape}, expected {(n, n)}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def product(cls, dm: ParticleDensityMatrix, atom: np.ndarray) -> "JointDensityMatrix":
        return cls(dm.window, np.kron(np.asarray(atom, dtype=complex), dm.coeffs))

    def trace(self) -> float:
        return float(np.trace(self.coeffs).real)

    def partial_trace_atom(self) -> ParticleDensityMatrix:
        n = self.window.n_k
        return ParticleDensityMatrix(
            self.window, self.coeffs[:n, :n] + self.coeffs[n:, n:])

    def partial_trace_particle(self) -> np.ndarray:
        n = self.window.n_k
        blocks = self.coeffs.reshape(2, n, 2, n)
        return np.einsum("akbk->ab", blocks)

    def boundary_mass(self, band: int = 1) -> float:
        n = self.window.n_k
        d = np.abs(np.diagonal(self.coeffs))
        edges = np.concatenate([d[:band], d[n - band:n], d[n:n + band], d[-band:]])
        return float(np.max(edges))


def _require_interior(state: JointDensityMatrix, band: int = 2) -> None:
    mass = state.boundary_mass(band)
    if mass > TOL.boundary:
        raise WindowError(
            f"joint support within {band} sites of the window edge "
            f"(occupancy {mass:.3e}); enlarge the window"
        )


@dataclass(frozen=True)
class SectorBlock:
    """One invariant sector: basis labels ((atom, k), ...) and the Hamiltonian block."""

    labels: tuple
    h: np.ndarray
    edge: bool


def hamiltonian_blocks(params: ModelParams, window: LatticeWindow) -> list[SectorBlock]:
    """Sector decomposition of H = H_p + H_a + lam (T b* + T* b) on the window.

    Interior sectors pair (ground, k) with (excited, k+1); the two states
    left unpaired by the truncation become 1x1 edge blocks.
    """
    blocks = []
    Ek = 2.0 - params.F * window.k_values.astype(float)
    for i in range(window.n_k - 1):
        h = np.array([[Ek[i], params.lam],
                      [params.lam, Ek[i + 1] + params.E]])
        blocks.append(SectorBlock(labels=((0, i), (1, i + 1)), h=h, edge=False))
    blocks.append(SectorBlock(labels=((0, window.n_k - 1),),
                              h=np.array([[Ek[-1]]]), edge=True))
    blocks.append(SectorBlock(labels=((1, 0),),
                              h=np.array([[Ek[0] + params.E]]), edge=True))
    return blocks


def joint_hamiltonian(params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """Dense H on the joint space, assembled from the sector blocks."""
    n = window.n_k
    H = np.zeros((2 * n, 2 * n))
    for blk in hamiltonian_blocks(params, window):
        idx = [a * n + i for a, i in blk.labels]
        H[np.ix_(idx, idx)] = blk.h
    return H


def half_angle(derived: DerivedParams) -> tuple[float, float]:
    """(cos theta, sin theta) from the doubled angle, stable at the lam -> 0 edges."""
    c2 = derived.cos2theta
    cos_t = math.sqrt(0.5 * (1.0 + c2))
    if cos_t > 0.0:
        sin_t = derived.sin2theta / (2.0 * cos_t)
    else:
        # c2 == -1: lam == 0 with E < F; any unit sin works since sin2theta == 0
        sin_t = 1.0
    return cos_t, sin_t


def rotation_matrix(params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """The real rotation U with U (psi_k, ground) = cos |k,g> - sin |k+1,e>, etc.

    Columns at the window edge are truncated; propagation therefore
    requires interior support with a two-site margin.
    """
    n = window.n_k
    cos_t, sin_t = half_angle(derive_params(params))
    U = np.zeros((2 * n, 2 * n))
    for i in range(n):
        U[i, i] = cos_t                      # (g,k) <- (g,k)
        if i + 1 < n:
            U[n + i + 1, i] = -sin_t         # (e,k+1) <- (g,k)
            U[n + i + 1, n + i] = cos_t      # (e,k+1) <- (e,k)
        U[i, n + i] = sin_t                  # (g,k) <- (e,k)
    return U


def closed_unitary(t: float, params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """e^{-itH} from the closed form: rotation, diagonal phases, rotation back."""
    d = derive_params(params)
    if d.omega0 == 0.0:
        # lam == 0 and E == F: H is diagonal in the product basis
        Ek = 2.0 - params.F * window.k_values.astype(float)
        phases = np.concatenate([Ek, Ek + params.E])
        return np.diag(np.exp(-1j * t * phases))
    U = rotation_matrix(params, window)
    Ek = 2.0 - params.F * window.k_values.astype(float)
    shift = 0.5 * (params.E - params.F)
    diag = np.concatenate([Ek + shift - 0.5 * d.omega0,
                           Ek + shift + 0.5 * d.omega0])
    return (U * np.exp(-1j * t * diag)[None, :]) @ U.T


def oracle_unitary(t: float, params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """e^{-itH} assembled sector by sector from 2x2 spectral decompositions."""
    n = window.n_k
    W = np.zeros((2 * n, 2 * n), dtype=complex)
    for blk in hamiltonian_blocks(params, window):
        idx = [a * n + i for a, i in blk.labels]
        if len(idx) == 1:
            W[idx[0], idx[0]] = np.exp(-1j * t * blk.h[0, 0])
            continue
        e1, e2, lam = blk.h[0, 0], blk.h[1, 1], blk.h[0, 1]
        mu, delta = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
        r = math.hypot(delta, lam)
        phase = np.exp(-1j * t * mu)
        if r == 0.0:
            W[np.ix_(idx, idx)] = phase * np.eye(2)
            continue
        c, s = math.cos(r * t), math.sin(r * t)
        W[np.ix_(idx, idx)] = phase * np.array(
            [[c - 1j * s * delta / r, -1j * s * lam / r],
             [-1j * s * lam / r, c + 1j * s * delta / r]])
    return W


def propagate_closed(state: JointDensityMatrix, t: float,
                     params: ModelParams) -> JointDensityMatrix:
    """Evolve by time t using the closed-form propagator (rotation + phases)."""
    _require_interior(state)
    W = closed_unitary(t, params, state.window)
    return JointDensityMatrix(state.window, W @ state.coeffs @ W.conj().T)


def propagate_oracle(state: JointDensityMatrix, t: float,
                     params: ModelParams) -> JointDensityMatrix:
    """Evolve by time t exponentiating each 2x2 sector block spectrally."""
    _require_interior(state)
    W = oracle_unitary(t, params, state.window)
    return JointDensityMatrix(state.window, W @ state.coeffs @ W.conj().T)


def _free_conjugate(A: np.ndarray, t: float, params: ModelParams,
                    window: LatticeWindow) -> np.ndarray:
    u = np.exp(1j * t * params.F * window.k_values)
    return u[:, None] * A * u.conj()[None, :]


def heisenberg_maps(A: np.ndarray, t: float, params: ModelParams,
                    window: LatticeWindow):
    """Decompose e^{-itH} (A (x) rho_beta) e^{itH} over the atom operators.

    Returns (A_comp, B_comp, Bstar_comp, C_comp) with the joint operator
    equal to A_comp (x) b*b + B_comp (x) b + Bstar_comp (x) b* + C_comp (x) bb*,
    where Bstar_comp is the adjoint of the B-map applied to A*.
    """
    d = derive_params(params)
    gibbs = AtomGibbs.from_params(params)
    At = _free_conjugate(np.asarray(A, dtype=complex), t, params, window)
    S = shift_matrix(window.n_k)
    if d.omega0 > 0.0:
        st = math.sin(0.5 * d.omega0 * t)
        pt = (d.sin2theta * st) ** 2
        bfac = d.sin2theta * (0.5j * math.sin(d.omega0 * t) - d.cos2theta * st**2) / d.zbeta
    else:
        pt, bfac = 0.0, 0.0j

    def bmap(M):
        return bfac * (M @ S.T - math.exp(-gibbs.beta_E) * S.T @ M)

    a_comp = gibbs.w_excited * (1.0 - pt) * At + gibbs.w_ground * pt * (S @ At @ S.T)
    c_comp = gibbs.w_ground * (1.0 - pt) * At + gibbs.w_excited * pt * (S.T @ At @ S)
    b_comp = bmap(At)
    bstar_comp = bmap(At.conj().T).conj().T
    return a_comp, b_comp, bstar_comp, c_comp


def assemble_joint(a_comp, b_comp, bstar_comp, c_comp) -> np.ndarray:
    """Joint matrix from atom-operator components (atom-major blocks)."""
    return np.block([[c_comp, b_comp], [bstar_comp, a_comp]])


def position_motion_bound(params: ModelParams) -> float:
    """Uniform bound on |<X(t)> - <X(0)>| for the single-atom evolution."""
    d = derive_params(params)
    s2 = abs(d.sin2theta)
    return 4.0 / params.F + s2**2 + s2 * abs(d.cos2theta) + s2


def position_expectation(t: float, initial: JointDensityMatrix,
                         params: ModelParams) -> float:
    """<X(t)> from the closed-form Heisenberg evolution of the position.

    The result is a trigonometric polynomial in the Bloch frequency F and
    the Rabi frequency omega0; the motion stays within
    position_motion_bound of its starting point for all t.
    """
    d = derive_params(params)
    window = initial.window
    n = window.n_k
    I2 = np.eye(2)
    S = shift_matrix(n)
    Xfree = np.kron(I2, position_operator(window, params.F)
                    + bloch_matrix(bloch_coefficients(t, params.F), n))
    op = Xfree.astype(complex)
    if d.omega0 > 0.0:
        st2 = math.sin(0.5 * d.omega0 * t) ** 2
        op += (d.sin2theta**2) * st2 * np.kron(np.diag([1.0, -1.0]), np.eye(n))
        op += (d.sin2theta * d.cos2theta) * st2 * (
            np.kron(B_CREATE, S) + np.kron(B_ANNIHILATE, S.T))
        op += -0.5j * d.sin2theta * math.sin(d.omega0 * t) * (
            np.kron(B_CREATE, S) - np.kron(B_ANNIHILATE, S.T))
    return float(np.trace(op @ initial.coeffs).real)
