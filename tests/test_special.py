"""The runtime's own special functions, log I_0 in the position CGF and the
normal CDF of the CLT check, against 60-digit mpmath and against
scipy.special.  Without either oracle the module is skipped.
"""
import math

import numpy as np
import pytest

from starkwalk.fcs import _log_i0
from starkwalk.verify import _normal_cdf

mp = pytest.importorskip("mpmath")
special = pytest.importorskip("scipy.special")

# 300 and 750 sit where a lower split would truncate the series too early and
# where a higher one would overflow np.i0
LOG_I0_POINTS = [0.0, 1e-8, 1e-3, 0.5, 1.0, 8.0, 50.0, 300.0, 699.0, 700.0, 701.0,
                 750.0, 1e3, 1e5, 1e10, 1e100, 1e300]
LOG_I0_REL = 4e-16      # relative to max(1, |log I_0|)


def log_i0_reference(x: float) -> float:
    with mp.workdps(60):
        return float(mp.log(mp.besseli(0, mp.mpf(x))))


@pytest.mark.parametrize("x", LOG_I0_POINTS + [-x for x in LOG_I0_POINTS[1:]])
def test_log_i0_matches_mpmath(x):
    ref = log_i0_reference(x)
    assert abs(_log_i0(x) - ref) <= LOG_I0_REL * max(1.0, abs(ref))


@pytest.mark.parametrize("x", LOG_I0_POINTS + [-x for x in LOG_I0_POINTS[1:]])
def test_log_i0_matches_scipy(x):
    # the scaled Bessel function of scipy cannot overflow either
    ref = math.log(special.i0e(x)) + abs(x)
    assert abs(_log_i0(x) - ref) <= LOG_I0_REL * max(1.0, abs(ref))


def test_log_i0_small_argument_sweep():
    # log I_0(x) ~ x^2/4 keeps relative accuracy down to x = 1e-10, where
    # log(np.i0(x)) is left with the rounding of I_0 to an ulp of 1, and
    # across the hand-over to np.i0 at 1.5
    for x in np.geomspace(1e-10, 3.0, 601):
        with mp.workdps(60):
            ref = mp.log(mp.besseli(0, mp.mpf(x)))
            err = float(abs(mp.mpf(_log_i0(x)) - ref))
        assert err <= 4.0 * math.ulp(float(ref)), x
        assert _log_i0(-x) == _log_i0(x)


Z = np.linspace(-40.0, 40.0, 801)
TINY = np.finfo(float).tiny


def assert_normal_cdf_close(phi, ref, rel):
    # Phi(z) ~ phi(z) / |z| in the lower tail amplifies the rounding of
    # z / sqrt 2 by z^2; below the normal range only absolute accuracy is left
    normal = ref >= TINY
    assert np.all(np.abs(phi - ref)[normal] <= rel * (1.0 + Z[normal] ** 2) * ref[normal])
    assert np.all(np.abs(phi - ref)[~normal] <= TINY)


def test_normal_cdf_matches_mpmath():
    with mp.workdps(60):
        ref = np.array([float(mp.ncdf(mp.mpf(float(z)))) for z in Z])
    assert_normal_cdf_close(_normal_cdf(Z), ref, 4e-16)


def test_normal_cdf_matches_scipy():
    assert_normal_cdf_close(_normal_cdf(Z), special.ndtr(Z), 8e-16)

