"""Physical inputs and the scalar constants derived from them."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class ModelParams:
    """The five inputs of the model.

    E    -- Bohr frequency of the two-level atoms (energy, >= 0)
    F    -- static tilt force on the lattice (energy, > 0)
    lam  -- particle-atom coupling constant (energy, real)
    tau  -- duration of one interaction (inverse energy, > 0)
    beta -- inverse temperature of the atoms (inverse energy, >= 0)
    """

    E: float
    F: float
    lam: float
    tau: float
    beta: float

    def __post_init__(self):
        for name in ("E", "F", "lam", "tau", "beta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
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


@dataclass(frozen=True)
class DerivedParams:
    """Scalars derived from ModelParams.

    omega0    -- Rabi frequency sqrt((E-F)^2 + 4 lam^2)
    p         -- jump probability per interaction, in [0, 1]
    cos2theta -- (E-F)/omega0 (mixing angle), 1 when omega0 == 0
    sin2theta -- 2 lam/omega0, 0 when omega0 == 0

    The thermal weights of the atom live in `singleatom.AtomGibbs`.
    """

    omega0: float
    p: float
    cos2theta: float
    sin2theta: float


def rabi_frequency(raw: ModelParams) -> float:
    """omega0 = hypot(E - F, 2 lam), the Rabi frequency of every sector; no time enters it."""
    return math.hypot(raw.E - raw.F, 2.0 * raw.lam)


def derive_params(raw: ModelParams) -> DerivedParams:
    """Evaluate all derived scalars for a valid ModelParams."""
    delta = raw.E - raw.F
    omega0 = rabi_frequency(raw)
    if omega0 > 0.0:
        cos2 = delta / omega0
        sin2 = 2.0 * raw.lam / omega0
        half_turn = 0.5 * omega0 * raw.tau
        if not math.isfinite(half_turn):
            raise NumericsError(f"phase omega0 tau / 2 overflows a double (omega0 = {omega0:.6g})")
        if half_turn >= 2.0 ** 52:
            raise NumericsError(f"phase omega0 tau / 2 = {half_turn:.6g} reaches 2^52 at omega0 = "
                                f"{omega0:.6g}; a double keeps no fractional digit of it")
        # p = (4 lam^2/omega0^2) sin^2(omega0 tau/2); this grouping keeps p <= 1 exactly
        p = (sin2 * math.sin(half_turn)) ** 2
    else:
        # lam == 0 and E == F: the coupling vanishes and H is diagonal
        cos2, sin2, p = 1.0, 0.0, 0.0
    return DerivedParams(omega0=omega0, p=p, cos2theta=cos2, sin2theta=sin2)


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


def _require_tilt(F: float) -> None:
    """ConfigError unless the tilt F is a finite real number > 0."""
    if not isinstance(F, numbers.Real) or not 0.0 < F < math.inf:
        raise ConfigError(f"the tilt F must be finite and > 0, got F = {F!r}")


def _require_phase(t, *energies) -> None:
    """Refuse with NumericsError a time t (number or array) at which a phase t * energy
    overflows or reaches 2^52, where a double keeps no fractional bit of it.

    Rounding is monotone, so max |t| times max |energy| bounds every such phase;
    it is taken in Python floats, which overflow to inf without a warning.
    """
    span = abs(t) if isinstance(t, float) else float(np.max(np.abs(t), initial=0.0))
    top = max(float(np.abs(e).max()) for e in energies)
    phase = span * top
    if not math.isfinite(phase):
        raise NumericsError(f"phase t * energy overflows a double at |t| = {span:.6g}")
    if phase >= 2.0 ** 52:
        raise NumericsError(f"phase t * energy = {phase:.6g} reaches 2^52 at |t| = {span:.6g}; "
                            "a double keeps no fractional digit of it")
