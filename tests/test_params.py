import functools
import inspect
import math

import numpy as np
import pytest

import starkwalk
from starkwalk import (
    AtomGibbs,
    ConfigError,
    JointDensityMatrix,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    StarkwalkError,
)
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
    # a NaN time is refused as NaN by name before any phase t * energy is formed, not
    # called an overflow
    params = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    dm = ParticleDensityMatrix.eigenstate(LatticeWindow(-8, 7, -8, 7), 0)
    for refuse in (lambda: bloch_coefficients([math.nan], params.F),
                   lambda: bloch_coefficients(np.array([0.5, math.nan]), params.F),
                   lambda: free_evolve(dm, math.nan, params),
                   lambda: free_kernel(math.nan, params)):
        with pytest.raises(NumericsError, match=r"^t (is|holds a) NaN") as info:
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


# the table of the one rule for an argument that must be finite, and of the one params
# rule: every public entry of the package (each function, class and classmethod that
# `starkwalk` exports) whose signature has the argument joins its table by itself
_WINDOW = LatticeWindow(-12, 12, -12, 12)
_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
_DM = ParticleDensityMatrix.eigenstate(_WINDOW, 0)
_JOINT = JointDensityMatrix.product(_DM, AtomGibbs.from_params(_P).density())
# a valid value for each argument, by name, then by annotation
_VALID = {"params": _P, "window": _WINDOW, "dm": _DM, "rho_p": _DM, "state": _JOINT,
          "initial": _JOINT}
_BY_ANNOTATION = {"float": 0.5, "int": 3, "np.ndarray": [0.5]}


def public_entries() -> dict:
    """name -> callable for each public function, class and classmethod `starkwalk` exports."""
    entries = {}
    for name, obj in vars(starkwalk).items():
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            entries.update({f"{name}.{attr}": getattr(obj, attr) for attr in vars(obj)
                            if not attr.startswith("_") and inspect.ismethod(getattr(obj, attr))})
        entries[name] = obj
    return entries


def entries_taking(argument: str) -> dict:
    """name -> (callable, signature) for each public entry with a parameter `argument`."""
    taking = {}
    for name, entry in public_entries().items():
        try:
            signature = inspect.signature(entry)
        except (TypeError, ValueError):
            continue
        if argument in signature.parameters:
            taking[name] = (entry, signature)
    return taking


def call_with(entry, signature, argument: str, value):
    """entry called with `value` for `argument` and a valid value for each other required
    parameter."""
    args = {}
    for parameter in signature.parameters.values():
        if parameter.name == argument:
            args[parameter.name] = value
        elif parameter.default is inspect.Parameter.empty:
            args[parameter.name] = _VALID.get(parameter.name,
                                              _BY_ANNOTATION.get(parameter.annotation))
    return entry(**args)


_LAW = starkwalk.run_position_fcs(3, _DM, _P)
_TIME_ENTRIES = entries_taking("t")
_PARAMS_ENTRIES = entries_taking("params")
_FINITE_ROWS = {
    **{f"{name}-t": (functools.partial(call_with, entry, signature, "t"), "t",
                     signature.parameters["t"].annotation == "np.ndarray")
       for name, (entry, signature) in _TIME_ENTRIES.items()},
    "ft_log_ratio-v": (lambda v: _LAW.ft_log_ratio(v, 0.1, 1.0), "v", False),
    "ft_log_ratio-delta": (lambda v: _LAW.ft_log_ratio(0.1, v, 1.0), "delta", False),
    "ft_log_ratio-tau": (lambda v: _LAW.ft_log_ratio(0.1, 0.1, v), "tau", False),
}


def test_the_tables_find_the_known_entries():
    # the tables read signatures, so a route renamed away from `t` or `params` would
    # leave them silently
    assert {"oracle_unitary", "free_evolve", "free_kernel", "propagate_closed",
            "propagate_oracle", "position_expectation", "position_oracle",
            "bloch_coefficients"} <= set(_TIME_ENTRIES)
    assert {"ReservoirConfig", "AtomGibbs.from_params", "walk_pmf_exact",
            "kraus_weights", "theta"} <= set(_PARAMS_ENTRIES)


@pytest.mark.parametrize("bad,refusal", [(math.nan, NumericsError), (math.inf, ConfigError),
                                         (-math.inf, ConfigError)], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", _FINITE_ROWS.values(), ids=_FINITE_ROWS)
def test_an_argument_that_must_be_finite_follows_one_rule(row, bad, refusal):
    # NaN is a NumericsError and +-inf a ConfigError, each naming the argument: a time
    # batch carries its bad value as one entry of a 1-D array
    route, name, batched = row
    with pytest.raises(StarkwalkError) as refused:
        route(np.array([0.0, 0.5, bad]) if batched else bad)
    assert type(refused.value) is refusal
    assert str(refused.value).startswith(f"{name} ")


@pytest.mark.parametrize("bad", ["a", None], ids=["string", "none"])
@pytest.mark.parametrize("name", _PARAMS_ENTRIES)
def test_a_wrong_type_params_is_config_error(name, bad):
    # refused by name before any attribute is read, not a bare AttributeError
    entry, signature = _PARAMS_ENTRIES[name]
    with pytest.raises(ConfigError,
                       match=f"^params must be a ModelParams, got params = {bad!r}$"):
        call_with(entry, signature, "params", bad)
