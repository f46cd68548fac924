import math

import numpy as np
import pytest

from starkwalk import ConfigError, LatticeWindow, ModelParams, NumericsError, ParticleDensityMatrix
from starkwalk.fcs import free_kernel
from starkwalk.params import _echo, _int_digits
from starkwalk.state import bloch_coefficients, free_evolve


def test_reference_point_derived_scalars(params):
    assert abs(params.omega0 - math.sqrt(2.0)) < 1e-15
    # frozen from 40-digit evaluation of (4 lam^2/omega0^2) sin^2(omega0 tau/2)
    assert abs(params.p - 0.21101407630865638) < 1e-15
    # second expression tree for the same quantity
    omega0 = params.omega0
    p_again = (2.0 * params.lam / omega0) ** 2 * 0.5 * (1.0 - math.cos(omega0 * params.tau))
    assert abs(params.p - p_again) < 1e-14
    assert abs(params.cos2theta**2 + params.sin2theta**2 - 1.0) < 1e-14
    assert params.p > 0.0


def test_equal_frequencies_reduce_to_sine():
    p = ModelParams(E=1.3, F=1.3, lam=0.7, tau=0.9, beta=0.5)
    assert abs(p.omega0 - 2.0 * abs(p.lam)) < 1e-15
    assert abs(p.p - math.sin(p.lam * p.tau) ** 2) < 1e-15


def test_zero_coupling_is_resonant():
    d = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    assert d.p == 0.0
    assert d.sin2theta == 0.0


def test_probability_stays_in_range():
    for lam in (0.1, 0.5, 3.0, -2.0):
        for tau in (0.3, 1.0, 7.0):
            d = ModelParams(E=2.0, F=0.7, lam=lam, tau=tau, beta=1.0)
            assert 0.0 <= d.p <= 1.0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ModelParams(E=2.0, F=0.0, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(E=2.0, F=-1.0, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(E=2.0, F=1.0, lam=0.5, tau=0.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(E=-0.1, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=-0.5)
    # non-finite or non-real inputs are refused by name
    for field in ("E", "F", "lam", "tau", "beta"):
        for bad in (math.nan, math.inf, "2"):
            values = {"E": 2.0, "F": 1.0, "lam": 0.5, "tau": 1.0, "beta": 1.0, field: bad}
            with pytest.raises(ConfigError, match=field):
                ModelParams(**values)


def test_omega0_zero_corner():
    d = ModelParams(E=1.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    assert d.omega0 == 0.0
    assert d.p == 0.0
    assert d.cos2theta == 1.0 and d.sin2theta == 0.0


@pytest.mark.parametrize("E, lam, tau", [(1e308, 0.5, 10.0), (2.0, 1e308, 1.0), (2.0, 0.5, 1e20)])
def test_overflowing_rabi_phase_is_numerics_error(E, lam, tau):
    # omega0 tau / 2 (or omega0 itself, past 2 lam) leaves the double range; or it
    # is finite but at or past 2^52, where sin(omega0 tau / 2) keeps no digit
    finite = math.isfinite(0.5 * math.hypot(E - 1.0, 2.0 * lam) * tau)
    with pytest.raises(NumericsError, match=r"2\^52" if finite else "overflows"):
        ModelParams(E=E, F=1.0, lam=lam, tau=tau, beta=1.0).p


def test_a_nan_time_is_a_nan_phase():
    # a NaN time makes every phase t * energy NaN: that is what the refusal says, not
    # an overflow, through each route that reaches the phase check with it
    params = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    dm = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    for refuse in (lambda: bloch_coefficients([math.nan], params.F),
                   lambda: bloch_coefficients(np.array([0.5, math.nan]), params.F),
                   lambda: free_evolve(dm, math.nan, params),
                   lambda: free_kernel(math.nan, params)):
        with pytest.raises(NumericsError, match=r"phase t \* energy is NaN") as info:
            refuse()
        assert "overflows" not in str(info.value)


def test_derived_scalars_leave_equality_and_hash_alone():
    # the cached derived scalars sit beside the five inputs, which alone decide == and hash
    read = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    assert read.p > 0.0
    fresh = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    assert read == fresh and hash(read) == hash(fresh)


def test_overflowing_rabi_frequency_is_refused_by_every_angle():
    # 2 lam overflows: omega0 is refused, so the mixing angle is never inf / inf
    params = ModelParams(E=2.0, F=1.0, lam=1e308, tau=1.0, beta=1.0)
    for name in ("omega0", "cos2theta", "sin2theta", "p"):
        with pytest.raises(NumericsError, match="overflows"):
            getattr(params, name)


def test_refusals_echo_a_bounded_description():
    # the digit count of an int, exact on both sides of each power of ten, with no str()
    assert all(_int_digits(v) == len(str(abs(v)))
               for k in range(400) for v in (10**k - 1, 10**k, -(10**k)) if v)
    assert _echo(-(10**5000)) == "an int of 5001 digits"
    assert _echo(10**30 - 1) == repr(10**30 - 1) and _echo(2.5) == "2.5"
    assert _echo([10**5000]) == "a list of length 1"
    assert _echo(np.zeros(1000)) == "an array of shape (1000,)"
    assert _echo("a" * 500) == "a str of length 500"
