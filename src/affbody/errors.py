"""Exception types and the `readonly` helper shared across the package."""


class AffbodyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AffbodyError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NumericalError(AffbodyError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class CapacityError(AffbodyError, RuntimeError):
    """A requested computation exceeds the configured resource budget."""


class UsageError(AffbodyError, ValueError):
    """Malformed or inconsistent run configuration."""


def readonly(a):
    """a itself, marked read-only."""
    a.flags.writeable = False
    return a
