"""Physical inputs and the scalar constants derived from them."""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class ModelParams:
    """The five inputs of the model, and the scalars derived from them.

    E    -- Bohr frequency of the two-level atoms (energy, >= 0)
    F    -- static tilt force on the lattice (energy, > 0)
    lam  -- particle-atom coupling constant (energy, real)
    tau  -- duration of one interaction (inverse energy, > 0)
    beta -- inverse temperature of the atoms (inverse energy, >= 0)

    The derived scalars omega0, cos2theta, sin2theta (from E, F, lam) and p
    (from those and tau) are cached properties: each is computed on first
    use, and equality and hashing read the five inputs alone.  The thermal
    weights of the atom live in `singleatom.AtomGibbs`.
    """

    E: float
    F: float
    lam: float
    tau: float
    beta: float

    def __post_init__(self):
        for name in ("E", "F", "lam", "tau", "beta"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        _require_tilt(self.F)
        if not self.tau > 0.0:
            raise ConfigError("tau must be > 0")
        if self.E < 0.0:
            raise ConfigError("E must be >= 0")
        if self.beta < 0.0:
            raise ConfigError("beta must be >= 0")

    @functools.cached_property
    def omega0(self) -> float:
        """Rabi frequency hypot(E - F, 2 lam) of every sector; NumericsError past a double."""
        omega0 = math.hypot(self.E - self.F, 2.0 * self.lam)
        if not math.isfinite(omega0):
            raise NumericsError(f"the Rabi frequency omega0 = hypot(E - F, 2 lam) overflows a "
                                f"double at E - F = {self.E - self.F!r}, lam = {self.lam!r}")
        return omega0

    @functools.cached_property
    def cos2theta(self) -> float:
        """(E - F)/omega0, the cosine of the doubled mixing angle; 1 when omega0 == 0."""
        return (self.E - self.F) / self.omega0 if self.omega0 > 0.0 else 1.0

    @functools.cached_property
    def sin2theta(self) -> float:
        """2 lam/omega0, the sine of the doubled mixing angle; 0 when omega0 == 0."""
        return 2.0 * self.lam / self.omega0 if self.omega0 > 0.0 else 0.0

    @functools.cached_property
    def p(self) -> float:
        """Jump probability per interaction, (sin 2theta sin(omega0 tau / 2))^2 in [0, 1].

        The only derived scalar that reads tau; NumericsError where the phase
        omega0 tau / 2 overflows or reaches 2^52.
        """
        if self.omega0 == 0.0:
            # lam == 0 and E == F: the coupling vanishes and H is diagonal
            return 0.0
        half_turn = 0.5 * self.omega0 * self.tau
        if not math.isfinite(half_turn):
            raise NumericsError(
                f"phase omega0 tau / 2 overflows a double (omega0 = {self.omega0:.6g})")
        if half_turn >= 2.0 ** 52:
            raise NumericsError(f"phase omega0 tau / 2 = {half_turn:.6g} reaches 2^52 at omega0 = "
                                f"{self.omega0:.6g}; a double keeps no fractional digit of it")
        # p = (4 lam^2/omega0^2) sin^2(omega0 tau/2); this grouping keeps p <= 1 exactly
        return (self.sin2theta * math.sin(half_turn)) ** 2


# a refusal echoes an int of more digits than this by its length, and any other
# value whose repr is longer than _ECHO_CHARS by its type and size (an array always
# by its shape)
_ECHO_DIGITS = 30
_ECHO_CHARS = 120


def _int_digits(value: int) -> int:
    """The number of decimal digits of |value|, without converting it to a string
    (past 4300 digits Python refuses that conversion)."""
    value = abs(value)
    digits = max(1, int((value.bit_length() - 1) * math.log10(2.0)) + 1)
    if value >= 10 ** digits:
        return digits + 1
    return digits - 1 if digits > 1 and value < 10 ** (digits - 1) else digits


def _echo(value) -> str:
    """A bounded, one-line description of an argument for a refusal: an array by its
    shape; "an int of N digits" for an integer past `_ECHO_DIGITS` digits; its repr
    where that is short; else its type and size.  Never the str() of an int past
    Python's digit limit, which would turn the refusal itself into a bare ValueError."""
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape}"
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        digits = _int_digits(int(value))
        if digits > _ECHO_DIGITS:
            return f"an int of {digits} digits"
    try:
        text = repr(value)
    except ValueError:          # a container holding an int past the digit limit
        text = None
    if text is not None and len(text) <= _ECHO_CHARS:
        return text
    if hasattr(value, "__len__"):
        return f"a {type(value).__name__} of length {len(value)}"
    return f"a value of type {type(value).__name__}"


def _require_real(value, name: str) -> float:
    """float(value), the one gate for a real argument (inf passes): ConfigError for a
    non-`numbers.Real`, a bool or an int past 2^1024, NumericsError for a NaN."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {name} = {_echo(value)}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must lie in the double range, |{name}| < 2^1024") from None
    if math.isnan(x):
        raise NumericsError(f"{name} is NaN")
    return x


def _require_type(value, cls: type, name: str) -> None:
    """ConfigError unless value is a cls, the one gate for an argument of a package type
    (`ModelParams`, `LatticeWindow`, a density matrix, `ReservoirConfig`, `LatticeLaw`):
    each public entry calls it before it first reads the argument, or first hands it to
    an entry that does."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {name} = {_echo(value)}")


def _require_reals(value, name: str) -> np.ndarray:
    """value as a 1-D float array, from a sequence or 1-D array of real numbers (empty
    is valid); ConfigError otherwise, naming the argument: a bare number, a 0-d array,
    a bool entry or an array of two or more axes is refused.  NumericsError where an
    entry is NaN."""
    try:
        real = np.asarray(value).dtype.kind in "iuf"
        # numpy reads a bool among numbers as 0 or 1, so a sequence is read entry by entry
        if real and not isinstance(value, np.ndarray):
            real = not any(isinstance(v, (bool, np.bool_))
                           for v in np.asarray(value, dtype=object).flat)
        values = np.asarray(value, dtype=float) if real else None
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None:
        raise ConfigError(f"{name} must be a 1-D array of real numbers, "
                          f"got {name} = {_echo(value)}")
    if values.ndim != 1:
        raise ConfigError(f"{name} of shape {values.shape}: expected a 1-D array "
                          "of real numbers")
    if np.isnan(values).any():
        raise NumericsError(f"{name} holds a NaN, got {name} = {_echo(value)}")
    return values


def _require_finite(value, name: str) -> float:
    """`_require_real`, and ConfigError for an infinite value: the one rule for an
    argument that must be finite, such as a time.  A value the package computes
    past the double range is its caller's NumericsError."""
    x = _require_real(value, name)
    if math.isinf(x):
        raise ConfigError(f"{name} must be finite, got {name} = {_echo(value)}")
    return x


def _require_finites(value, name: str) -> np.ndarray:
    """`_require_finite` for a 1-D array of real numbers (`_require_reals`)."""
    values = _require_reals(value, name)
    if np.isinf(values).any():
        raise ConfigError(f"{name} must be finite, got {name} = {_echo(value)}")
    return values


def _require_integer(value, name: str, low: int | None = None) -> int:
    """int(value); ConfigError unless value is an integer, and >= low where low is
    given (a bool or float is not an integer)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or low is not None and value < low):
        floor = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{floor}, got {_echo(value)}")
    return int(value)


def _require_count(value, name: str, low: int = 0) -> int:
    """A count such as n, M, trials or a seed: an integer >= low."""
    return _require_integer(value, name, low)


def _require_atoms(n: int, M: int) -> None:
    """ConfigError where n interactions exceed the M atoms of a reservoir."""
    if n > M:
        raise ConfigError(f"n = {n} interactions exceed the M = {M} atoms")


def _beta_E(params: ModelParams, jumps: int = 1) -> float:
    """beta E, the entropy change of one jump; NumericsError where that of `jumps`
    jumps (at least one), jumps * beta E, overflows a double."""
    be, jumps = params.beta * params.E, max(jumps, 1)
    if not math.isfinite(be * jumps):
        raise NumericsError(f"the entropy change {jumps} beta E of {jumps} jump(s) overflows "
                            f"a double at beta = {params.beta!r}, E = {params.E!r}")
    return be


def _require_tilt(F: float) -> float:
    """float(F); ConfigError unless the tilt F is finite (`_require_finite`) and > 0."""
    tilt = _require_finite(F, "F")
    if not tilt > 0.0:
        raise ConfigError(f"F must be > 0, got F = {_echo(F)}: the untilted (F = 0) band has "
                          "continuous spectrum and is outside the scope of this package")
    return tilt


def _require_phase(t, *energies) -> None:
    """Refuse with NumericsError a finite time t at which a phase t * energy overflows,
    or reaches 2^52, where a double keeps no fractional bit of it.

    t is a real number or a 1-D float array that its caller has already
    checked (`_require_finite`, `_require_finites`), or a time it computed.
    Rounding is monotone, so max |t| times max |energy| bounds every such
    phase; it is taken in Python floats, which overflow to inf without a
    warning.
    """
    span = abs(t) if isinstance(t, float) else float(np.max(np.abs(t), initial=0.0))
    top = max(float(np.abs(e).max()) for e in energies)
    phase = span * top
    if not math.isfinite(phase):
        raise NumericsError(f"phase t * energy overflows a double at |t| = {span:.6g}")
    if phase >= 2.0 ** 52:
        raise NumericsError(f"phase t * energy = {phase:.6g} reaches 2^52 at |t| = {span:.6g}; "
                            "a double keeps no fractional digit of it")
