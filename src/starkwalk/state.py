"""Truncated lattice window, particle states, and eigenbasis transforms.

Particle states are kept as matrices in the tilted-band eigenbasis
{psi_k}: the one-step translation acts there as an exact index shift and
the free Hamiltonian is diagonal with eigenvalues E_k = 2 - F k, so
channel steps and free evolution are exact on the window.  Position-space
quantities are recovered through the (real, orthogonal) transform
psi_k(x) = J_{k-x}(2/F).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import BesselTable, bessel_halfwidth
from .config import TOL
from .errors import ConfigError, WindowError
from .params import ModelParams


@dataclass(frozen=True)
class LatticeWindow:
    """Index bounds of the truncation: eigenbasis k range and position x range."""

    k_min: int
    k_max: int
    x_min: int
    x_max: int

    def __post_init__(self):
        if self.k_max <= self.k_min or self.x_max <= self.x_min:
            raise ConfigError("window bounds must satisfy k_min < k_max, x_min < x_max")

    @property
    def n_k(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def n_x(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def x_values(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1)

    def k_index(self, k: int) -> int:
        if not self.k_min <= k <= self.k_max:
            raise WindowError(f"eigenbasis index {k} outside window [{self.k_min}, {self.k_max}]")
        return k - self.k_min

    def x_index(self, x: int) -> int:
        if not self.x_min <= x <= self.x_max:
            raise WindowError(f"position {x} outside window [{self.x_min}, {self.x_max}]")
        return x - self.x_min

    @classmethod
    def for_dynamics(cls, k_lo: int, k_hi: int, steps: int, F: float,
                     margin: int = 8, x_pad: int | None = None) -> "LatticeWindow":
        """Window for a state supported on [k_lo, k_hi] evolving for `steps` kicks.

        Each kick moves eigenbasis support by at most one site, so
        [k_lo - steps - margin, k_hi + steps + margin] keeps the support
        strictly interior; the position range pads further by the spread
        of the Bessel profile.
        """
        if x_pad is None:
            x_pad = bessel_halfwidth(2.0 / F) + 8
        k_min = k_lo - steps - margin
        k_max = k_hi + steps + margin
        return cls(k_min=k_min, k_max=k_max, x_min=k_min - x_pad, x_max=k_max + x_pad)


def required_order(window: LatticeWindow) -> int:
    """Bessel order range needed to evaluate psi_k(x) across the window."""
    return max(abs(window.k_max - window.x_min), abs(window.x_max - window.k_min))


def transform_matrix(window: LatticeWindow, table: BesselTable) -> np.ndarray:
    """Psi[x, k] = psi_k(x) = J_{k-x}(2/F) over the window (real)."""
    if table.order_max < required_order(window):
        raise WindowError(
            f"Bessel table range {table.order_max} cannot span the window "
            f"(needs {required_order(window)})"
        )
    nu = window.k_values[None, :] - window.x_values[:, None]
    return table.values[nu + table.order_max]


def shift_matrix(n: int) -> np.ndarray:
    """Matrix of the translation T in the eigenbasis: T psi_k = psi_{k+1}."""
    return np.eye(n, k=-1)


def position_operator(window: LatticeWindow, F: float) -> np.ndarray:
    """Lattice position X in the eigenbasis: k on the diagonal, -1/F beside it."""
    n = window.n_k
    X = np.diag(window.k_values.astype(float))
    off = np.full(n - 1, -1.0 / F)
    X += np.diag(off, 1) + np.diag(off, -1)
    return X


class BlochCoefficients(NamedTuple):
    """B(t) = c_plus e^{i xi} + c_minus e^{-i xi} on the Brillouin zone."""

    c_plus: complex
    c_minus: complex

    @property
    def sup_norm(self) -> float:
        return abs(self.c_plus) + abs(self.c_minus)


def bloch_coefficients(t: float, F: float) -> BlochCoefficients:
    """Fourier coefficients of the free position offset (4/F) sin(Ft/2) sin(xi + Ft/2)."""
    amp = (4.0 / F) * math.sin(0.5 * F * t)
    phase = 0.5 * F * t
    c_plus = amp * np.exp(1j * phase) / 2j
    return BlochCoefficients(c_plus=complex(c_plus), c_minus=complex(np.conj(c_plus)))


def bloch_offset(n: int, params: ModelParams) -> BlochCoefficients:
    """Free position offset after n kicks, B_n, as Brillouin-zone coefficients."""
    return bloch_coefficients(n * params.tau, params.F)


def bloch_matrix(coeffs: BlochCoefficients, n_k: int) -> np.ndarray:
    """B(t) as an eigenbasis matrix: e^{i xi} shifts k down, e^{-i xi} shifts up."""
    S = shift_matrix(n_k)
    return coeffs.c_plus * S.T + coeffs.c_minus * S


@dataclass(frozen=True)
class ParticleDensityMatrix:
    """rho = sum rho_{kk'} |psi_k><psi_{k'}| on the window (eigenbasis coefficients)."""

    window: LatticeWindow
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (self.window.n_k, self.window.n_k):
            raise ConfigError(f"coefficient shape {arr.shape} does not match window size {self.window.n_k}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def eigenstate(cls, window: LatticeWindow, k: int) -> "ParticleDensityMatrix":
        c = np.zeros((window.n_k, window.n_k), dtype=complex)
        i = window.k_index(k)
        c[i, i] = 1.0
        return cls(window, c)

    @classmethod
    def from_diagonal(cls, window: LatticeWindow, weights: np.ndarray) -> "ParticleDensityMatrix":
        w = np.asarray(weights, dtype=float)
        if w.shape != (window.n_k,):
            raise ConfigError("diagonal weight vector does not match window size")
        return cls(window, np.diag(w.astype(complex)))

    @classmethod
    def position_state(cls, window: LatticeWindow, x: int,
                       table: BesselTable) -> "ParticleDensityMatrix":
        """|x><x| expressed in the eigenbasis (trace < 1 only by window truncation)."""
        psi = transform_matrix(window, table)[window.x_index(x)]
        return cls(window, np.outer(psi, psi).astype(complex))

    def trace(self) -> float:
        return float(np.trace(self.coeffs).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs - self.coeffs.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.coeffs + self.coeffs.conj().T))[0])

    def boundary_mass(self, band: int = 1) -> float:
        """Largest diagonal occupancy within `band` sites of the window edge."""
        d = np.abs(np.diagonal(self.coeffs))
        return float(max(np.max(d[:band]), np.max(d[-band:])))

    def check_density(self, tol=TOL) -> None:
        if self.hermiticity_defect() > tol.hermiticity:
            raise ConfigError(f"not Hermitian: defect {self.hermiticity_defect():.3e}")
        if abs(self.trace() - 1.0) > tol.trace:
            raise ConfigError(f"trace {self.trace():.12f} != 1")
        if self.min_eigenvalue() < tol.psd_min_eig:
            raise ConfigError(f"not PSD: min eigenvalue {self.min_eigenvalue():.3e}")


def require_interior(dm: ParticleDensityMatrix, band: int = 1, tol: float | None = None) -> None:
    """Refuse (rather than truncate) when support reaches the window edge."""
    limit = TOL.boundary if tol is None else tol
    mass = dm.boundary_mass(band)
    if mass > limit:
        raise WindowError(
            f"support within {band} sites of the window edge "
            f"(occupancy {mass:.3e} > {limit:.1e}); enlarge the window"
        )


def free_evolve(dm: ParticleDensityMatrix, t: float, params: ModelParams) -> ParticleDensityMatrix:
    """Free evolution for time t: rho_{kk'} -> e^{-i t (E_k - E_k')} rho_{kk'}.

    E_k - E_k' = -F (k - k'), so this is an exact phase map; trace,
    Hermiticity and spectrum are preserved, and eigenbasis-diagonal
    states are exact fixed points (the phase is built from the integer
    index difference, so the diagonal factor is exactly one).
    """
    k = dm.window.k_values
    phase = np.exp(1j * t * params.F * (k[:, None] - k[None, :]))
    return ParticleDensityMatrix(dm.window, phase * dm.coeffs)


def position_distribution(dm: ParticleDensityMatrix, table: BesselTable,
                          check_leakage: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Position pmf over the window: pmf(x) = sum_{kk'} psi_k(x) rho_{kk'} psi_k'(x)."""
    psi = transform_matrix(dm.window, table)
    pmf = np.einsum("xk,kl,xl->x", psi, dm.coeffs, psi).real
    if check_leakage:
        leak = abs(float(np.sum(pmf)) - dm.trace())
        if leak > TOL.leakage:
            raise WindowError(
                f"position mass {leak:.3e} outside the x-window exceeds the "
                f"leakage budget {TOL.leakage:.1e}"
            )
    return dm.window.x_values, pmf


def position_mean(dm: ParticleDensityMatrix, table: BesselTable) -> float:
    x, pmf = position_distribution(dm, table)
    return float(np.dot(x, pmf))
