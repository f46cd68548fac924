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
            value = getattr(self, name)
            _require_real(value, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if not self.F > 0.0:
            raise ConfigError(
                "F must be > 0: the untilted (F=0) band has continuous "
                "spectrum and is outside the scope of this package"
            )
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


def _require_real(value, name: str) -> float:
    """float(value); ConfigError unless value is a real number (a `numbers.Real`; NaN
    and inf pass) within the double range: an int past 2^1024 is refused."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {name} = {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must lie in the double range, |{name}| < 2^1024") from None


def _require_reals(value, name: str) -> np.ndarray:
    """value as a float array of at most one axis: a real number (a 0-d array) or a
    sequence or 1-D array of them; ConfigError otherwise, naming the argument."""
    if isinstance(value, numbers.Real):
        return np.asarray(_require_real(value, name))
    try:
        real = np.asarray(value).dtype.kind in "biuf"
        values = np.asarray(value, dtype=float) if real else None
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None:
        raise ConfigError(f"{name} must be a real number or a 1-D array of them, "
                          f"got {name} = {value!r}")
    if values.ndim > 1:
        raise ConfigError(f"{name} of shape {values.shape}: expected a real number "
                          "or a 1-D array of them")
    return values


def _require_integer(value, name: str, low: int | None = None) -> int:
    """int(value); ConfigError unless value is an integer, and >= low where low is
    given (a bool or float is not an integer)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or low is not None and value < low):
        floor = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")
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


def _require_tilt(F: float) -> None:
    """ConfigError unless the tilt F is a finite real number > 0."""
    _require_real(F, "F")
    if not 0.0 < F < math.inf:
        raise ConfigError(f"the tilt F must be finite and > 0, got F = {F!r}")


def _require_phase(t, *energies) -> None:
    """Refuse with NumericsError a time t (number or array) at which a phase t * energy
    overflows or reaches 2^52, where a double keeps no fractional bit of it.

    Rounding is monotone, so max |t| times max |energy| bounds every such phase;
    it is taken in Python floats, which overflow to inf without a warning.  A t
    that is not a number or an array of them, or is past the double range, is
    refused with ConfigError.
    """
    try:
        span = abs(t) if isinstance(t, float) else float(np.max(np.abs(t), initial=0.0))
    except TypeError:
        raise ConfigError(f"time t must be a real number or an array of them, "
                          f"got t = {t!r}") from None
    except OverflowError:
        raise ConfigError("time t must lie in the double range, |t| < 2^1024") from None
    top = max(float(np.abs(e).max()) for e in energies)
    phase = span * top
    if not math.isfinite(phase):
        raise NumericsError(f"phase t * energy overflows a double at |t| = {span:.6g}")
    if phase >= 2.0 ** 52:
        raise NumericsError(f"phase t * energy = {phase:.6g} reaches 2^52 at |t| = {span:.6g}; "
                            "a double keeps no fractional digit of it")
