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

from .bessel import bessel_halfwidth, bessel_table
from .config import TOL
from .errors import ConfigError, NumericsError, WindowError
from .params import (
    ModelParams,
    _echo,
    _require_finite,
    _require_finites,
    _require_integer,
    _require_phase,
    _require_tilt,
    _require_type,
)


@dataclass(frozen=True)
class LatticeWindow:
    """Index bounds of the truncation: eigenbasis k range and position x range."""

    k_min: int
    k_max: int
    x_min: int
    x_max: int

    def __post_init__(self):
        for name in ("k_min", "k_max", "x_min", "x_max"):
            object.__setattr__(self, name, _require_integer(getattr(self, name), name))
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
        if not self.k_min <= _require_integer(k, "k") <= self.k_max:
            raise WindowError(f"eigenbasis index {k} outside window [{self.k_min}, {self.k_max}]")
        return k - self.k_min

    def x_index(self, x: int) -> int:
        if not self.x_min <= _require_integer(x, "x") <= self.x_max:
            raise WindowError(f"position {x} outside window [{self.x_min}, {self.x_max}]")
        return x - self.x_min

    @classmethod
    def for_dynamics(cls, k_lo: int, k_hi: int, steps: int, F: float,
                     margin: int = 8) -> "LatticeWindow":
        """Window for a state supported on [k_lo, k_hi] evolving for `steps` kicks.

        Each kick moves eigenbasis support by at most one site, so
        [k_lo - steps - margin, k_hi + steps + margin] keeps the support
        strictly interior; the position range pads further by the spread
        of the Bessel profile.  Each bound, `steps` (>= 0) and `margin` (>= 0)
        is an integer, refused under its own name.
        """
        k_lo, k_hi = _require_integer(k_lo, "k_lo"), _require_integer(k_hi, "k_hi")
        steps, margin = _require_integer(steps, "steps", 0), _require_integer(margin, "margin", 0)
        _require_tilt(F)
        x_pad = bessel_halfwidth(2.0 / F) + 8
        k_min = k_lo - steps - margin
        k_max = k_hi + steps + margin
        return cls(k_min=k_min, k_max=k_max, x_min=k_min - x_pad, x_max=k_max + x_pad)


def required_order(window: LatticeWindow) -> int:
    """Bessel order range needed to evaluate psi_k(x) across the window."""
    _require_type(window, LatticeWindow, "window")
    return max(abs(window.k_max - window.x_min), abs(window.x_max - window.k_min))


def transform_matrix(window: LatticeWindow, F: float) -> np.ndarray:
    """Psi[x, k] = psi_k(x) = J_{k-x}(2/F) over the window (real)."""
    order = required_order(window)
    nu = window.k_values[None, :] - window.x_values[:, None]
    return bessel_table(F, order)[nu + order]


def _bloch_reach(F: float) -> float:
    """4/F, the reach of the free Bloch oscillation, for a tilt that `_require_tilt`
    accepts; NumericsError where it overflows a double.

    Every position route reads 4/F or 1/F, so each refuses such a tilt here
    rather than return an inf or a NaN.
    """
    _require_tilt(F)
    reach = 4.0 / F
    if not math.isfinite(reach):
        raise NumericsError(f"the Bloch reach 4/F overflows a double at F = {F!r}")
    return reach


def position_operator(window: LatticeWindow, F: float) -> np.ndarray:
    """Lattice position X in the eigenbasis: k on the diagonal, -1/F beside it."""
    _require_type(window, LatticeWindow, "window")
    _bloch_reach(F)
    n = window.n_k
    X = np.diag(window.k_values.astype(float))
    off = np.full(n - 1, -1.0 / F)
    X += np.diag(off, 1) + np.diag(off, -1)
    return X


class BlochCoefficients(NamedTuple):
    """B(t) = c_plus e^{i xi} + c_minus e^{-i xi} on the Brillouin zone."""

    c_plus: np.ndarray
    c_minus: np.ndarray


def bloch_coefficients(t: np.ndarray, F: float) -> BlochCoefficients:
    """Fourier coefficients of the free position offset (4/F) sin(Ft/2) sin(xi + Ft/2),
    one complex entry per time of the 1-D array t."""
    F = _require_tilt(F)
    reach = _bloch_reach(F)
    t = _require_finites(t, "t")
    _require_phase(t, F)
    amp = reach * np.sin(0.5 * F * t)
    phase = 0.5 * F * t
    c_plus = amp * np.exp(1j * phase) / 2j
    return BlochCoefficients(c_plus=c_plus, c_minus=np.conj(c_plus))


def _frozen_coeffs(coeffs, n: int, kind: str) -> np.ndarray:
    """coeffs as a read-only complex n x n copy; ConfigError for another shape or for an
    entry that is not a finite number.  kind ("", "joint ") names the operator."""
    try:
        arr = np.array(coeffs, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{kind}coefficients must be finite numbers, "
                          f"got {_echo(coeffs)}") from None
    if arr.shape != (n, n):
        raise ConfigError(f"{kind}coefficient shape {arr.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{kind}coefficients must be finite numbers")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParticleDensityMatrix:
    """rho = sum rho_{kk'} |psi_k><psi_{k'}| on the window (eigenbasis coefficients)."""

    window: LatticeWindow
    coeffs: np.ndarray

    def __post_init__(self):
        _require_type(self.window, LatticeWindow, "window")
        object.__setattr__(self, "coeffs", _frozen_coeffs(self.coeffs, self.window.n_k, ""))

    @classmethod
    def eigenstate(cls, window: LatticeWindow, k: int) -> "ParticleDensityMatrix":
        _require_type(window, LatticeWindow, "window")
        c = np.zeros((window.n_k, window.n_k), dtype=complex)
        i = window.k_index(k)
        c[i, i] = 1.0
        return cls(window, c)

    @classmethod
    def position_state(cls, window: LatticeWindow, x: int, F: float) -> "ParticleDensityMatrix":
        """|x><x| expressed in the eigenbasis (trace < 1 only by window truncation)."""
        psi = transform_matrix(window, F)[window.x_index(x)]
        return cls(window, np.outer(psi, psi).astype(complex))

    def trace(self) -> float:
        return float(np.trace(self.coeffs).real)


def require_interior(diagonal: np.ndarray, band: int = 1) -> None:
    """Refuse (rather than truncate) a state whose occupancy reaches the window edge.

    `diagonal` is a particle diagonal over the window's k-range, or a stack
    of them along leading axes (an atom-major joint diagonal reshaped to
    (2, n_k)); the occupancy is the largest |entry| within `band` sites of
    either end of any of them.  The one window-edge refusal of the package:
    the channel steps read band 1, the single-atom and channel-oracle routes
    band 2; the energy reservoir derives a window that holds its reach.
    """
    d = np.abs(diagonal)
    mass = float(max(np.max(d[..., :band], initial=0.0), np.max(d[..., -band:], initial=0.0)))
    if mass > TOL.boundary:
        raise WindowError(
            f"support within {band} sites of the window edge "
            f"(occupancy {mass:.3e} > {TOL.boundary:.1e}); enlarge the window"
        )


def _support(A: np.ndarray) -> np.ndarray:
    """Mask of the indices i at which row i or column i of A, or of any matrix stacked
    along A's leading axes, has a nonzero entry."""
    # real and imaginary parts side by side: column j of A is float columns 2j, 2j + 1
    nz = np.ascontiguousarray(A, dtype=complex).view(np.float64) != 0.0
    nz = nz.reshape((-1,) + nz.shape[-2:]).any(axis=0)
    return nz.any(axis=1) | nz.any(axis=0).reshape(-1, 2).any(axis=1)


def _span(mask: np.ndarray, pad: int) -> slice:
    """The indices marked in `mask`, widened by `pad` on each side and clamped to it,
    as a slice; with none marked, the first two (one sector).

    The occupied-range rule of the package: each kick moves the eigenbasis
    index by at most one site, and each sector block pairs a site with its
    neighbour, so a crop widened by one site holds every entry a kick or a
    sector block can reach from the occupied sites, and each entry on it is
    the whole-window one bit for bit.  Outside it every entry is exactly 0.
    The same holds for a convolution with a kernel of width pad + 1.
    """
    k = np.flatnonzero(mask)
    if not k.size:
        return slice(0, 2)
    return slice(max(int(k[0]) - pad, 0), min(int(k[-1]) + pad + 1, mask.size))


def _crop(A: np.ndarray, atoms: int = 1) -> tuple[np.ndarray, slice]:
    """(sub, ks): A on its occupied k-range ks, `_span` of `_support` padded by one site.

    A is a particle operator (atoms = 1) or an atom-major joint operator
    (atoms = 2), n_k sites per atom block, and sub holds every atom block on
    ks; leading (state) axes of A lead sub, and ks holds the sites of all.
    """
    n, lead = A.shape[-1] // atoms, A.shape[:-2]
    ks = _span(_support(A).reshape(atoms, n).any(axis=0), 1)
    m = ks.stop - ks.start
    sub = A.reshape(lead + (atoms, n, atoms, n))[..., :, ks, :, ks]
    return sub.reshape(lead + (atoms * m, atoms * m)), ks


def _uncrop(sub: np.ndarray, ks: slice, n_k: int, atoms: int = 1) -> np.ndarray:
    """The operator on n_k sites per atom block that is `sub` on the k-range ks and 0
    elsewhere: the inverse of `_crop`, leading axes of sub included."""
    lead, m = sub.shape[:-2], ks.stop - ks.start
    out = np.zeros(lead + (atoms, n_k, atoms, n_k), dtype=sub.dtype)
    out[..., :, ks, :, ks] = sub.reshape(lead + (atoms, m, atoms, m))
    return out.reshape(lead + (atoms * n_k, atoms * n_k))


def free_evolve(dm: ParticleDensityMatrix, t: float, params: ModelParams) -> ParticleDensityMatrix:
    """Free evolution for time t: rho_{kk'} -> e^{-i t (E_k - E_k')} rho_{kk'}.

    E_k - E_k' = -F (k - k'), so this is an exact phase map; trace,
    Hermiticity and spectrum are preserved, and eigenbasis-diagonal
    states are exact fixed points (the phase is built from the integer
    index difference, so the diagonal factor is exactly one).
    """
    _require_finite(t, "t")
    _require_type(params, ModelParams, "params")
    _require_type(dm, ParticleDensityMatrix, "dm")
    n = dm.window.n_k
    _require_phase(t, params.F * (n - 1))
    return ParticleDensityMatrix(dm.window, _free_phases(t, params.F, n) * dm.coeffs)


def _free_phases(t: float, F: float, m: int) -> np.ndarray:
    """The m x m phases e^{i t F (k - k')} of `free_evolve` on m consecutive sites.

    One exponential per index difference d = k - k', gathered onto the
    matrix, so each entry depends on d alone: the phases of any k-range
    equal the window's on it bit for bit, and they broadcast over leading
    (state) axes of the coefficients they multiply.
    """
    d = np.arange(m)
    return np.exp(1j * t * F * np.arange(1 - m, m))[d[:, None] - d[None, :] + m - 1]


def position_distribution(dm: ParticleDensityMatrix, F: float) -> tuple[np.ndarray, np.ndarray]:
    """Position pmf over the window: pmf(x) = sum_{kk'} psi_k(x) rho_{kk'} psi_k'(x).

    The sums run over the state's occupied k-range alone (`_crop`), O(n_x m^2)
    for m occupied sites, plus the O(n_x n_k) gather of the transform: the
    terms left out are exact zeros.  For an eigenstate each entry is the
    whole-window sum bit for bit; otherwise the summation order differs (tests).
    """
    _require_type(dm, ParticleDensityMatrix, "dm")
    sub, ks = _crop(dm.coeffs)
    psi = transform_matrix(dm.window, F)[:, ks]
    pmf = np.sum((psi @ sub) * psi, axis=1).real
    leak = abs(float(np.sum(pmf)) - dm.trace())
    # written so that a NaN leak (a non-finite state) fails it too
    if not leak <= TOL.leakage:
        raise WindowError(
            f"position mass {leak:.3e} outside the x-window exceeds the "
            f"leakage budget {TOL.leakage:.1e}"
        )
    return dm.window.x_values, pmf
