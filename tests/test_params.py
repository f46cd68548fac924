import dataclasses
import functools
import inspect
import math
import re

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
    ReservoirConfig,
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
    # non-finite or non-real inputs are refused by name: NaN as no value to compute with
    for field in ("E", "F", "lam", "tau", "beta"):
        for bad, refusal in ((math.nan, NumericsError), (math.inf, ConfigError),
                             ("2", ConfigError), (True, ConfigError)):
            values = {"E": 2.0, "F": 1.0, "lam": 0.5, "tau": 1.0, "beta": 1.0, field: bad}
            with pytest.raises(refusal, match=f"^{field} "):
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


# the tables of the one gate for a real argument, of the one rule for an argument that
# must be finite, and of the one gate for an argument of a package type (a record): every
# public entry of the package
# (each function, class, classmethod and instance method that `starkwalk` exports) whose
# signature has the argument joins its table by itself
_WINDOW = LatticeWindow(-12, 12, -12, 12)
_P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
_DM = ParticleDensityMatrix.eigenstate(_WINDOW, 0)
_GIBBS = AtomGibbs.from_params(_P)
_JOINT = JointDensityMatrix.product(_DM, _GIBBS.density())
_LAW = starkwalk.run_position_fcs(3, _DM, _P)
# a valid value for each argument, by name, then by annotation
_VALID = {"params": _P, "window": _WINDOW, "dm": _DM, "rho_p": _DM, "state": _JOINT,
          "initial": _JOINT, "cfg": ReservoirConfig(_P, 1), "oracle": _LAW}
_BY_ANNOTATION = {"float": 0.5, "int": 3, "np.ndarray": [0.5]}
# the instance whose methods join the tables, for each exported class that has some
_INSTANCES = {AtomGibbs: _GIBBS, JointDensityMatrix: _JOINT, LatticeWindow: _WINDOW,
              ParticleDensityMatrix: _DM, starkwalk.LatticeLaw: _LAW,
              starkwalk.WalkSample: starkwalk.sample_walk(3, 10, 0, _P),
              starkwalk.EnergyFcsResult: starkwalk.run_energy_fcs(_VALID["cfg"])}


def public_entries() -> dict:
    """name -> callable for each public function, class and classmethod `starkwalk` exports,
    and each public instance method of an exported class, bound to its `_INSTANCES` entry."""
    entries = {}
    for name, obj in vars(starkwalk).items():
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.ismethod(getattr(obj, attr)):
                    entries[f"{name}.{attr}"] = getattr(obj, attr)
                elif inspect.isfunction(member):
                    entries[f"{name}.{attr}"] = getattr(_INSTANCES[obj], attr)
        entries[name] = obj
    return entries


def public_signatures() -> dict:
    """name -> (callable, signature) for each public entry that has a signature."""
    signed = {}
    for name, entry in public_entries().items():
        try:
            signed[name] = (entry, inspect.signature(entry))
        except (TypeError, ValueError):
            continue
    return signed


def entries_taking(argument: str) -> dict:
    """name -> (callable, signature) for each public entry with a parameter `argument`."""
    return {name: (entry, signature) for name, (entry, signature) in public_signatures().items()
            if argument in signature.parameters}


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


_TIME_ENTRIES = entries_taking("t")
_PARAMS_ENTRIES = entries_taking("params")
# EnergyFcsResult holds its cfg as given, as it holds its law
_CFG_ENTRIES = {name: row for name, row in entries_taking("cfg").items()
                if name != "EnergyFcsResult"}
# the six records the paper's objects reach the API as, each with a valid record of
# another of the six types, which a parameter annotated with the first must refuse
_OTHER_RECORD = {ModelParams: _VALID["cfg"], ReservoirConfig: _P, LatticeWindow: _LAW,
                 starkwalk.LatticeLaw: _WINDOW, ParticleDensityMatrix: _JOINT,
                 JointDensityMatrix: _DM}
# Real parameters that do not pass the real gate.  Records hold their values as given:
# every field of Tolerances and TransportCoefficients, AtomGibbs' w_ground and w_excited,
# WalkSample's values and counts, EnergyFcsResult's law, LatticeLaw's pmf (its type and
# shape are checked, not its values), PositionCgf's value and rate_limit and
# BlochCoefficients' c_plus and c_minus.  Density coefficients, the coeffs of both density
# matrices and the atom matrix that JointDensityMatrix.product takes, keep
# `_frozen_coeffs`' ConfigError "coefficients must be finite numbers" for NaN, inf and a
# non-number alike.
_NOT_GATED = {
    "Tolerances": tuple(field.name for field in dataclasses.fields(starkwalk.Tolerances)),
    "TransportCoefficients": ("v_d", "D", "mobility"),
    "AtomGibbs": ("w_ground", "w_excited"),
    "WalkSample": ("values", "counts"),
    "EnergyFcsResult": ("law",),
    "LatticeLaw": ("pmf",),
    "PositionCgf": ("value", "rate_limit"),
    "BlochCoefficients": ("c_plus", "c_minus"),
    "ParticleDensityMatrix": ("coeffs",),
    "JointDensityMatrix": ("coeffs",),
    "JointDensityMatrix.product": ("atom",),
}


def _annotation(parameter: inspect.Parameter) -> str:
    """The annotation of a parameter as its source text (a NamedTuple's is a ForwardRef)."""
    return getattr(parameter.annotation, "__forward_arg__", parameter.annotation)


def real_parameters() -> dict:
    """"entry-argument" -> (callable, signature, argument, batched) for each public parameter
    annotated float (a real) or np.ndarray (a 1-D array of reals, batched), except those
    named in `_NOT_GATED`."""
    rows = {}
    for name, (entry, signature) in public_signatures().items():
        for parameter in signature.parameters.values():
            kind = _annotation(parameter)
            if kind in ("float", "np.ndarray") and parameter.name not in _NOT_GATED.get(name, ()):
                rows[f"{name}-{parameter.name}"] = (entry, signature, parameter.name,
                                                    kind == "np.ndarray")
    return rows


def record_parameters() -> dict:
    """"entry-argument" -> (callable, signature, argument, record) for each public parameter
    annotated with one of the six records of `_OTHER_RECORD`, except EnergyFcsResult's cfg:
    a record holds its fields as given."""
    records = {record.__name__: record for record in _OTHER_RECORD}
    rows = {}
    for name, (entry, signature) in public_signatures().items():
        for parameter in signature.parameters.values():
            row = f"{name}-{parameter.name}"
            if _annotation(parameter) in records and row != "EnergyFcsResult-cfg":
                rows[row] = (entry, signature, parameter.name, records[_annotation(parameter)])
    return rows


_REAL_ROWS = real_parameters()
_RECORD_ROWS = record_parameters()
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
    assert set(_CFG_ENTRIES) == {"run_energy_fcs", "repeated_interaction_propagator"}
    assert {"transform_matrix-window", "ParticleDensityMatrix-window",
            "ParticleDensityMatrix.eigenstate-window", "JointDensityMatrix-window",
            "JointDensityMatrix.product-dm", "position_distribution-dm", "apply_channel-dm",
            "propagate_closed-state", "position_oracle-initial", "run_position_fcs-rho_p",
            "position_cgf_oracle-rho_p", "repeated_interaction_propagator-window",
            "LatticeLaw.oracle_gap-oracle"} <= set(_RECORD_ROWS)
    assert {record for _, _, _, record in _RECORD_ROWS.values()} == set(_OTHER_RECORD)
    assert {"z", "F", "alpha", "gamma", "eta", "x", "t", "E", "lam", "tau", "beta", "lo",
            "hi", "a", "v", "delta"} <= {argument for _, _, argument, _ in _REAL_ROWS.values()}
    assert {"LatticeLaw.log_mgf-eta", "LatticeLaw.mgf-eta", "LatticeLaw.window_probability-lo",
            "LatticeLaw.ft_log_ratio-tau", "AtomGibbs.power-a"} <= set(_REAL_ROWS)
    # each skip the comment on `_NOT_GATED` names is a real parameter of its entry
    signed = public_signatures()
    for name, skipped in _NOT_GATED.items():
        parameters = signed[name][1].parameters
        assert all(_annotation(parameters[field]).startswith(("float", "np.ndarray"))
                   for field in skipped)


# a NaN and a bool for every real parameter, which an array parameter carries as its one
# entry, and for an array parameter a bool among numbers, which numpy would read as 1.0
_REAL_CASES = [pytest.param(row, [bad] if row[3] else bad, refusal, id=f"{name}-{kind}")
               for name, row in _REAL_ROWS.items()
               for kind, bad, refusal in (("nan", math.nan, NumericsError),
                                          ("bool", True, ConfigError))]
_REAL_CASES += [pytest.param(row, [0.5, True], ConfigError, id=f"{name}-bool-among-numbers")
                for name, row in _REAL_ROWS.items() if row[3]]


@pytest.mark.parametrize("row,bad,refusal", _REAL_CASES)
def test_a_real_argument_passes_one_gate(row, bad, refusal):
    # NaN is a NumericsError and a bool a ConfigError, each naming the argument
    entry, signature, name, _ = row
    with pytest.raises(StarkwalkError) as refused:
        call_with(entry, signature, name, bad)
    assert type(refused.value) is refusal
    assert str(refused.value).startswith((f"{name} is NaN", f"{name} holds a NaN")
                                         if refusal is NumericsError else f"{name} must be")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["a", None, 3, (1, 2, 3, 4), _OTHER_RECORD],
                         ids=["string", "none", "int", "tuple", "record"])
@pytest.mark.parametrize("row", _RECORD_ROWS.values(), ids=_RECORD_ROWS)
def test_a_wrong_type_record_is_config_error(row, bad):
    # refused by one ConfigError that names the argument, before any attribute is read:
    # never a bare AttributeError or ValueError; "record" is a record of another type
    entry, signature, name, record = row
    bad = _OTHER_RECORD[record] if bad is _OTHER_RECORD else bad
    text = f"{name} must be a {record.__name__}, got {name} = {_echo(bad)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        call_with(entry, signature, name, bad)


# the params and cfg rows of the record table for "a" and None, under the names that
# pinned these two texts first
@pytest.mark.parametrize("bad", ["a", None], ids=["string", "none"])
@pytest.mark.parametrize("name", _PARAMS_ENTRIES)
def test_a_wrong_type_params_is_config_error(name, bad):
    # refused by name before any attribute is read, not a bare AttributeError
    entry, signature = _PARAMS_ENTRIES[name]
    with pytest.raises(ConfigError,
                       match=f"^params must be a ModelParams, got params = {bad!r}$"):
        call_with(entry, signature, "params", bad)


@pytest.mark.parametrize("bad", ["a", None], ids=["string", "none"])
@pytest.mark.parametrize("name", _CFG_ENTRIES)
def test_a_wrong_type_cfg_is_config_error(name, bad):
    # refused by name before any attribute is read, not a bare AttributeError
    entry, signature = _CFG_ENTRIES[name]
    with pytest.raises(ConfigError,
                       match=f"^cfg must be a ReservoirConfig, got cfg = {bad!r}$"):
        call_with(entry, signature, "cfg", bad)
