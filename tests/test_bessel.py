import math
import sys

import numpy as np
import pytest

from starkwalk import (
    AccuracyError,
    BudgetError,
    ConfigError,
    LatticeWindow,
    NumericsError,
    StarkwalkError,
    bessel_halfwidth,
    bessel_j_array,
    bessel_squares,
    bessel_table,
    transform_matrix,
)
from starkwalk.bessel import MAX_MILLER_ORDER, _profile, _profile_top

from conftest import TEST_TOL, bessel_series

# frozen from the power-series oracle at 50 digits
J0_AT_2 = 0.22389077914123567
J1_AT_2 = 0.57672480775687338


def _normalization_defect(table):
    return abs(float(np.sum(table**2)) - 1.0)


def test_j0_at_argument_two():
    table = bessel_table(F=1.0, order_max=60)
    assert abs(table[60] - J0_AT_2) < 1e-15
    assert abs(table[60] - bessel_series(0, 2.0)) < 1e-15


def test_negative_order_parity_exact():
    table = bessel_table(F=1.0, order_max=40)
    assert table.shape == (81,)
    assert table[39] == -table[41]
    assert abs(table[39] + J1_AT_2) < 1e-15
    for nu in range(41):
        assert table[40 - nu] == (-1.0) ** nu * table[40 + nu]


def test_table_is_read_only():
    table = bessel_table(F=1.0, order_max=10)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[10] = 0.0


def test_last_profile_is_kept():
    # the profile is cached on z, not the table on (F, order_max): tables of any
    # range at one F slice one recurrence
    _profile.cache_clear()
    a = bessel_table(F=0.5, order_max=30)
    assert bessel_table(F=0.5, order_max=31).shape == (63,)
    assert bessel_table(F=0.5, order_max=30) is not a
    assert _profile.cache_info().misses == 1


@pytest.mark.parametrize("F", [0.05, 0.5, 1.0])
def test_table_is_the_centre_of_any_wider_table(F):
    # an order has the same bits in every table, also past the profile's top
    z = 2.0 / F
    narrow = bessel_halfwidth(z) + 1
    for order in (narrow, narrow + 1, narrow + 37, _profile_top(z) + 25):
        wide = bessel_table(F, order)
        assert np.array_equal(bessel_table(F, narrow), wide[order - narrow:order + narrow + 1])
    if F == 0.5:
        assert np.array_equal(bessel_table(F, 30), bessel_table(F, 31)[1:-1])


def scanned_profile_top(z):
    """The profile's top found by scanning up from z, one order at a time, on
    Kapteyn's bound |J_nu(nu x)| <= x^nu e^{nu s} / (1 + s)^nu, s = sqrt(1 - x^2)."""
    top = max(1, math.ceil(z))
    while True:
        x = z / top
        s = math.sqrt(1.0 - x * x)
        if top * (math.log(x) + s - math.log(1.0 + s)) < -1075.0 * math.log(2.0):
            return top
        top += 1


def test_profile_top_equals_the_order_by_order_scan():
    # the bisection pins the same last order as the scan
    zs = [1e-300, 1e-10, 0.3, 1.0, 2.0, 4.0, 17.0, 100.0, 2.0 * 10**5]
    zs += np.logspace(-6, 5, 221).tolist() + np.linspace(0.01, 60.0, 400).tolist()
    for z in zs:
        assert _profile_top(z) == scanned_profile_top(z), z
    # J_0(0) = 1 is the only nonzero order; at the smallest subnormal z the bound
    # on J_1 is z e / 2, above 2^-1075
    assert _profile_top(0.0) == 1 and _profile_top(5e-324) == 2


@pytest.mark.parametrize("z", [1e-10, 0.3, 2.0, 4.0, 40.0])
def test_every_order_from_the_top_on_is_exact_zero(z):
    # the top's J rounds to 0 in a double (50-digit series), and so does every
    # later order by Kapteyn's bound; the arrays hold exact 0s there
    top = _profile_top(z)
    assert bessel_series(top, z) == 0.0
    values = bessel_j_array(z, top + 50)
    assert _profile(z).size == top and np.all(values[top:] == 0.0)
    assert np.array_equal(values[:top], _profile(z))


def test_window_transform_and_halfwidth_share_one_recurrence():
    _profile.cache_clear()
    window = LatticeWindow.for_dynamics(-3, 3, 5, F=0.2)
    transform_matrix(window, 0.2)
    bessel_halfwidth(2.0 / 0.2)
    assert _profile.cache_info().misses == 1


@pytest.mark.parametrize("F", [2.0, 1.0, 0.5, 0.2])
def test_quadratic_normalization(F):
    table = bessel_table(F, order_max=bessel_halfwidth(2.0 / F) + 10)
    assert _normalization_defect(table) <= 1e-12


@pytest.mark.parametrize("z", [1.0, 4.0, 10.0])
def test_against_power_series_sweep(z):
    values = bessel_j_array(z, 40)
    worst = max(abs(values[nu] - bessel_series(nu, z)) for nu in range(41))
    assert worst <= TEST_TOL.bessel_vs_series


@pytest.mark.parametrize("z", [1e-10, 1e-300])
def test_tiny_argument_is_leading_series_term(z):
    # below 2^-26 J_nu(z) is (z/2)^nu / nu!; the downward recurrence would
    # overflow at 2 m / z.  Where the oracle is subnormal both round below it.
    values = bessel_j_array(z, 40)
    for nu in range(41):
        oracle = bessel_series(nu, z)
        if abs(oracle) >= sys.float_info.min:
            assert abs(values[nu] / oracle - 1.0) <= TEST_TOL.bessel_vs_series
        else:
            assert abs(values[nu]) < 2.0 * sys.float_info.min


def test_series_relative_accuracy_in_decay_tail():
    # downward recurrence keeps relative accuracy far below the normal scale
    values = bessel_j_array(2.0, 80)
    for nu in (40, 60, 80):
        oracle = bessel_series(nu, 2.0)
        assert abs(values[nu] / oracle - 1.0) < 1e-12


def test_large_argument_normalization():
    table = bessel_table(F=1e-3, order_max=2400)
    assert _normalization_defect(table) <= 1e-12


def test_squared_profile_at_the_smallest_tilt_has_trace_one_and_variance_z_squared_over_two():
    # z = 2/F = 8e5 (F = 2.5e-6): the profile stops at its Kapteyn top, inside the order
    # budget, and its squares sum to 1 with second moment z^2 / 2 = 2/F^2 = 3.2e11
    z = 8e5
    xs, law = bessel_squares(z, "z")
    assert _profile(z).size == _profile_top(z) < MAX_MILLER_ORDER and law[-1] > 0.0
    assert abs(float(law.sum()) - 1.0) <= 1e-12
    assert abs(float(np.dot(xs**2, law)) / (z * z / 2.0) - 1.0) <= 1e-10


def test_range_too_small_is_an_error():
    with pytest.raises(AccuracyError):
        bessel_table(F=0.05, order_max=20)   # argument 40 needs far more range


@pytest.mark.parametrize("z,nmax", [(2e9, 0), (1.0, MAX_MILLER_ORDER + 1),
                                    (0.0, MAX_MILLER_ORDER + 1)])
def test_recurrence_past_budget_is_budget_error(z, nmax):
    # refused before the start-order array is allocated
    with pytest.raises(BudgetError, match="budget"):
        bessel_j_array(z, nmax)


@pytest.mark.parametrize("z,refusal", [
    pytest.param(-1.0, ConfigError, id="-1.0"),
    pytest.param(math.inf, ConfigError, id="inf"),
    # a NaN is no value to compute with: refused by name as every NaN real argument is
    pytest.param(math.nan, NumericsError, id="nan"),
])
def test_bad_argument_is_config_error(z, refusal):
    with pytest.raises(StarkwalkError) as refused:
        bessel_j_array(z, 4)
    assert type(refused.value) is refusal and str(refused.value).startswith("z ")


def test_halfwidth_captures_mass():
    z = 8.0
    w = bessel_halfwidth(z)
    values = bessel_j_array(z, w + 200)
    tail = 2.0 * np.sum(values[w + 1:] ** 2)
    assert tail <= 1e-16


def test_zero_argument():
    values = bessel_j_array(0.0, 5)
    assert values[0] == 1.0
    assert np.all(values[1:] == 0.0)
