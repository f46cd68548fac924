"""Integer-order Bessel functions J_nu by Miller's downward recurrence.

The lattice eigenfunctions are psi_k(x) = J_{k-x}(2/F), so the whole
package needs J_nu(z) for integer nu on a symmetric range, with relative
accuracy preserved deep into the decaying tail (tail values enter
probability bookkeeping multiplicatively).  Downward recurrence
normalized with sum_nu J_nu^2 = 1 gives exactly that; the overall sign is
fixed with the linear sum J_0 + 2 sum J_{2m} = 1.

Each z has one profile J_0(z) .. J_{top-1}(z), cut where Kapteyn's bound
puts every later order below half the smallest subnormal; it is computed
once and cached, and every table, halfwidth and squared kernel is a prefix
of it.  So an order's bits do not depend on the range a caller asks for,
and every rule on which orders are needed lives here.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import TOL
from .errors import AccuracyError, BudgetError, ConfigError
from .params import _require_count, _require_finite, _require_real, _require_tilt

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
# log of 2^-1075: a J_nu(z) below it rounds to an exact 0 in a double
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


def _profile_top(z: float) -> int:
    """The first order nu >= z at which Kapteyn's bound on |J_nu(z)| is below 2^-1075.

    The bound (DLMF 10.14.5) is exp(nu (sqrt(1 - x^2) - arccosh(1/x))) at
    x = z/nu <= 1.  Its log has derivative -arccosh(nu/z) < 0 in nu past z,
    so doubling the step until the bound is crossed, then bisecting, finds
    the same order as a scan from z in O(log z) evaluations.  It is 1 at
    z = 0, where J_0 = 1 is the only nonzero order.
    """
    def above(nu: int) -> bool:
        s = math.sqrt(1.0 - (z / nu) ** 2)
        return z > 0.0 and nu * (s - math.log1p(s) + math.log(z) - math.log(nu)) >= _LOG_UNDERFLOW

    lo = max(1, math.ceil(z))
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


def _miller_start(z: float, what: str = "J_nu(z) at z") -> int:
    """The profile's top plus a margin past which the growing solution's admixture
    has decayed below double precision; refuses a z that is not finite (`_require_finite`)
    and >= 0, and a start past `MAX_MILLER_ORDER` (before any Bessel value is computed)."""
    z = _require_finite(z, "z")
    if z < 0.0:
        raise ConfigError(f"z must be >= 0, got z = {z!r}; use J_nu(-z) = (-1)^nu J_nu(z)")
    # the top is past z, so a z past the budget is refused without the search
    if z <= MAX_MILLER_ORDER:
        start = _profile_top(z) + 16 + int(14.0 * max(z, 1.0) ** (1.0 / 3.0))
        if start <= MAX_MILLER_ORDER:
            return start
    raise BudgetError(f"{what} = {z:.6g}, whose recurrence starts past the order budget "
                      f"of {MAX_MILLER_ORDER}")


@functools.lru_cache(maxsize=1)
def _profile(z: float) -> np.ndarray:
    """J_0(z) .. J_{top-1}(z), read-only: every order from `_profile_top(z)` on is an exact 0."""
    start = _miller_start(z)
    top = _profile_top(z)
    if z < _SERIES_BELOW:
        # the leading term as a running product, one rounding per order
        out = np.ones(top)
        out[1:] = np.cumprod(0.5 * z / np.arange(1, top))
    else:
        raw = np.zeros(start + 2)
        raw[start] = 1e-30
        for m in range(start, 0, -1):
            raw[m - 1] = (2.0 * m / z) * raw[m] - raw[m + 1]
            if abs(raw[m - 1]) > _RESCALE:
                raw[m - 1:] /= _RESCALE
        # quadratic norm fixes the magnitude, linear (alternating-free) sum the sign
        quad = raw[0] ** 2 + 2.0 * np.sum(raw[1:] ** 2)
        lin = raw[0] + 2.0 * np.sum(raw[2::2])
        out = raw[:top] * math.copysign(1.0 / math.sqrt(quad), lin)
    out.setflags(write=False)
    return out


def bessel_j_array(z: float, nmax: int) -> np.ndarray:
    """J_0(z) .. J_nmax(z) for z >= 0: a prefix of the cached profile, padded with exact 0s."""
    # z is checked before the profile's cache hashes it
    _require_real(z, "z")
    nmax = _require_count(nmax, "nmax")
    if nmax > MAX_MILLER_ORDER:
        raise BudgetError(f"J_nu up to order {nmax} is past the order budget of {MAX_MILLER_ORDER}")
    profile = _profile(z)
    out = np.zeros(nmax + 1)
    out[:profile.size] = profile[:nmax + 1]
    return out


def bessel_halfwidth(z: float) -> int:
    """Smallest w such that the mass sum_{|nu|>w} J_nu(z)^2 is below 1e-16."""
    _require_real(z, "z")
    mass = 2.0 * np.cumsum(_profile(z)[::-1] ** 2)[::-1]
    above = np.nonzero(mass > _HALFWIDTH_TAIL)[0]
    return int(above[-1]) if above.size else 0


def bessel_table(F: float, order_max: int) -> np.ndarray:
    """The eigenfunction profile J_nu(2/F) for |nu| <= order_max, read-only.

    Entry nu + order_max holds J_nu; negative orders satisfy
    J_{-nu} = (-1)^nu J_nu exactly by construction.  Every table at one F
    slices the same cached profile, so an order has the same bits in all.

    Raises AccuracyError when the requested range does not capture the
    full quadratic mass to within the tabulation tolerance, since such a
    table cannot support faithful basis transforms.
    """
    _require_tilt(F)
    order_max = _require_count(order_max, "order_max")
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


def bessel_squares(z: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The orders d and J_d(z)^2 at every d whose square is representable.

    The squared profile with its trailing zero squares trimmed: past the
    profile's top, Kapteyn's bound puts J_d(z) below 2^-1075, so every square
    there is an exact 0.  A z that is not finite and >= 0, or whose recurrence
    would start past `MAX_MILLER_ORDER`, is refused before any Bessel value is
    computed, with an error that reads "{what} = z, ...".
    """
    _miller_start(z, what)
    half = np.trim_zeros(_profile(z) ** 2, "b")
    return np.arange(1 - half.size, half.size), np.concatenate([half[:0:-1], half])
