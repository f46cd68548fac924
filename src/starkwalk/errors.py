"""Exception types shared across the package."""


class StarkwalkError(Exception):
    """Base class for package errors."""


class WindowError(StarkwalkError):
    """State support reached the truncation boundary, or leakage exceeded budget."""


class AccuracyError(StarkwalkError):
    """A requested numerical accuracy cannot be met with the given ranges."""


class BudgetError(StarkwalkError):
    """A brute-force computation exceeds the fixed size budget."""


class NumericsError(StarkwalkError):
    """An iterative numerical routine failed to converge."""


class ConfigError(StarkwalkError, ValueError):
    """Invalid or incomplete run configuration, or an argument out of range."""
