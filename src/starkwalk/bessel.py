"""Integer-order Bessel functions J_nu by Miller's downward recurrence.

The lattice eigenfunctions are psi_k(x) = J_{k-x}(2/F), so the whole
package needs J_nu(z) for integer nu on a symmetric range, with relative
accuracy preserved deep into the decaying tail (tail values enter
probability bookkeeping multiplicatively).  Downward recurrence
normalized with sum_nu J_nu^2 = 1 gives exactly that; the overall sign is
fixed with the linear sum J_0 + 2 sum J_{2m} = 1.

Every rule on which orders are needed lives here: the recurrence's start
and its order budget, the mass halfwidth, the tabulated profile J_nu(2/F)
behind the position transform, and the squared profile J_d(z)^2 of the
free Bloch kernel.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import TOL
from .errors import AccuracyError, BudgetError, ConfigError
from .params import _require_count

# kept low enough that squaring any entry during normalization cannot overflow
_RESCALE = 1e130
# below this z, J_nu(z) is (z/2)^nu / nu! to half an ulp: the next series term
# is (z/2)^2 / (nu + 1) < 2^-54 of it, and the recurrence would overflow at 2 m / z
_SERIES_BELOW = 2.0**-26
# Highest order the downward recurrence may start from: 8 MB of doubles and
# ~1 s of scalar loop.  The start order grows as z = 2/F, so this admits
# tilts F down to ~2e-6.
MAX_MILLER_ORDER = 10**6
# the mass of J_nu(z)^2 that `bessel_halfwidth` leaves outside its range
_HALFWIDTH_TAIL = 1e-16


def _miller_start(z: float, nmax: int) -> int:
    # Start far enough past the turning point nu ~ z that the admixture of
    # the growing solution decays below double precision before order nmax.
    if not math.isfinite(z) or z < 0.0:
        raise ConfigError(f"J_nu(z) needs finite z >= 0, got z = {z!r}; "
                          "use J_nu(-z) = (-1)^nu J_nu(z)")
    extra = 16 + int(14.0 * max(z, 1.0) ** (1.0 / 3.0))
    return max(nmax, int(math.ceil(z))) + extra


def bessel_j_array(z: float, nmax: int) -> np.ndarray:
    """J_0(z) .. J_nmax(z) for z >= 0, by normalized downward recurrence (series below 2^-26)."""
    nmax = _require_count(nmax, "nmax")
    start = _miller_start(z, nmax)
    if start > MAX_MILLER_ORDER:
        raise BudgetError(
            f"J_nu({z:.6g}) up to order {nmax} needs the recurrence to start at "
            f"order {start}, past the budget of {MAX_MILLER_ORDER}; the argument "
            f"2/F grows as the tilt F shrinks"
        )
    if z < _SERIES_BELOW:
        # the leading term as a running product, one rounding per order
        out = np.ones(nmax + 1)
        out[1:] = np.cumprod(0.5 * z / np.arange(1, nmax + 1))
        return out

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


def bessel_halfwidth(z: float) -> int:
    """Smallest w such that the mass sum_{|nu|>w} J_nu(z)^2 is below 1e-16."""
    probe = bessel_j_array(z, _miller_start(z, 0))
    mass = 2.0 * np.cumsum(probe[::-1] ** 2)[::-1]
    above = np.nonzero(mass > _HALFWIDTH_TAIL)[0]
    return int(above[-1]) if above.size else 0


@functools.lru_cache(maxsize=1)
def bessel_table(F: float, order_max: int) -> np.ndarray:
    """The eigenfunction profile J_nu(2/F) for |nu| <= order_max, read-only.

    Entry nu + order_max holds J_nu; negative orders satisfy
    J_{-nu} = (-1)^nu J_nu exactly by construction.  The last table is
    kept, so the transforms of one window share one recurrence.

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
    return values


# log of 2^-537.5: a J_d(z) below it squares to under half the smallest subnormal
_LOG_KERNEL_TAIL = -537.5 * math.log(2.0)


def _kernel_top(z: float) -> int:
    """The first order d >= z/2 at which d log(z/2) - lgamma(d + 1) < `_LOG_KERNEL_TAIL`.

    From z/2 on the bound decreases with d (each step adds log(z/2) - log(d + 1)
    < 0), so doubling the step until it is crossed, then bisecting, finds the
    same order as a scan from z/2 in O(log z) evaluations.  It is 0 where z/2
    rounds to 0: there J_1(z)^2 <= (z/2)^2 is 0 too.
    """
    half_z = 0.5 * z
    if half_z == 0.0:
        return 0
    lo = math.ceil(half_z)

    def above(d: int) -> bool:
        return d * math.log(half_z) - math.lgamma(d + 1.0) >= _LOG_KERNEL_TAIL

    if not above(lo):
        return lo
    # above(lo) holds and above(hi) does not
    step, hi = 1, lo + 1
    while above(hi):
        lo, step = hi, 2 * step
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def bessel_squares(z: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The orders d and J_d(z)^2 at every d whose square is representable.

    The orders run to the first d >= z/2 at which the bound J_d(z) <= (z/2)^d / d!
    is below 2^-537.5; from z/2 on the bound decreases, so J_d(z)^2 rounds to 0
    there and past it, and trailing zero squares are trimmed.  That order is found
    in O(log z) steps (`_kernel_top`).  A z whose recurrence would start past
    `MAX_MILLER_ORDER` to reach it, or an inf or NaN z, is refused before any
    Bessel value is computed, with a BudgetError that reads "{what} = z, ...".
    """
    if not z <= MAX_MILLER_ORDER or _miller_start(z, top := _kernel_top(z)) > MAX_MILLER_ORDER:
        raise BudgetError(f"{what} = {z:.6g}, whose recurrence starts past the order "
                          f"budget of {MAX_MILLER_ORDER}")
    half = np.trim_zeros(bessel_j_array(z, top) ** 2, "b")
    return np.arange(1 - half.size, half.size), np.concatenate([half[:0:-1], half])
