"""Integer-order Bessel functions J_nu by Miller's downward recurrence.

The lattice eigenfunctions are psi_k(x) = J_{k-x}(2/F), so the whole
package needs J_nu(z) for integer nu on a symmetric range, with relative
accuracy preserved deep into the decaying tail (tail values enter
probability bookkeeping multiplicatively).  Downward recurrence
normalized with sum_nu J_nu^2 = 1 gives exactly that; the overall sign is
fixed with the linear sum J_0 + 2 sum J_{2m} = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import AccuracyError, ConfigError

# kept low enough that squaring any entry during normalization cannot overflow
_RESCALE = 1e130


def _miller_start(z: float, nmax: int) -> int:
    # Start far enough past the turning point nu ~ z that the admixture of
    # the growing solution decays below double precision before order nmax.
    extra = 16 + int(14.0 * max(z, 1.0) ** (1.0 / 3.0))
    return max(nmax, int(math.ceil(z))) + extra


def bessel_j_array(z: float, nmax: int) -> np.ndarray:
    """J_0(z) .. J_nmax(z) for z >= 0, by normalized downward recurrence."""
    if z < 0.0:
        raise ConfigError("bessel_j_array needs z >= 0; use J_nu(-z) = (-1)^nu J_nu(z)")
    if nmax < 0:
        raise ConfigError("nmax must be >= 0")
    if z == 0.0:
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out

    start = _miller_start(z, nmax)
    raw = np.zeros(start + 2)
    raw[start] = 1e-30
    for m in range(start, 0, -1):
        raw[m - 1] = (2.0 * m / z) * raw[m] - raw[m + 1]
        if abs(raw[m - 1]) > _RESCALE:
            raw[m - 1:] /= _RESCALE
    # quadratic norm fixes the magnitude, linear (alternating-free) sum the sign
    quad = raw[0] ** 2 + 2.0 * np.sum(raw[1:] ** 2)
    lin = raw[0] + 2.0 * np.sum(raw[2::2])
    scale = math.copysign(1.0 / math.sqrt(quad), lin)
    return raw[: nmax + 1] * scale


def bessel_halfwidth(z: float, tail: float = 1e-16) -> int:
    """Smallest w such that the mass sum_{|nu|>w} J_nu(z)^2 is below `tail`."""
    probe = bessel_j_array(z, _miller_start(z, 0))
    mass = 2.0 * np.cumsum(probe[::-1] ** 2)[::-1]
    above = np.nonzero(mass > tail)[0]
    return int(above[-1]) if above.size else 0


@dataclass(frozen=True)
class BesselTable:
    """J_nu(2/F) on the symmetric order range |nu| <= order_max.

    values[nu + order_max] holds J_nu; negative orders satisfy
    J_{-nu} = (-1)^nu J_nu exactly by construction.  psi(k, x) is the
    eigenfunction value J_{k-x}(argument).
    """

    argument: float
    order_max: int
    values: np.ndarray

    def j(self, nu: int) -> float:
        if abs(nu) > self.order_max:
            raise IndexError(f"order {nu} outside table range {self.order_max}")
        return float(self.values[nu + self.order_max])

    def psi(self, k: int, x: int) -> float:
        return self.j(k - x)

    def normalization_defect(self) -> float:
        return abs(float(np.sum(self.values**2)) - 1.0)


def bessel_table(F: float, order_max: int) -> BesselTable:
    """Tabulate the eigenfunction profile J_nu(2/F) for |nu| <= order_max.

    Raises AccuracyError when the requested range does not capture the
    full quadratic mass to within the tabulation tolerance, since such a
    table cannot support faithful basis transforms.
    """
    if F <= 0.0:
        raise ConfigError("F must be > 0")
    z = 2.0 / F
    half = bessel_j_array(z, order_max)
    captured = half[0] ** 2 + 2.0 * np.sum(half[1:] ** 2)
    if 1.0 - captured > TOL.bessel_normalization:
        raise AccuracyError(
            f"order range {order_max} too small for argument {z:.6g}: "
            f"captured quadratic mass 1 - {1.0 - captured:.3e}; "
            f"need at least {bessel_halfwidth(z)}"
        )
    values = np.empty(2 * order_max + 1)
    values[order_max:] = half
    signs = np.where(np.arange(1, order_max + 1) % 2 == 0, 1.0, -1.0)
    values[:order_max] = (signs * half[1:])[::-1]
    values.setflags(write=False)
    return BesselTable(argument=z, order_max=order_max, values=values)
