"""Exception types and the text-file target helper shared across the package."""

import os
from contextlib import contextmanager


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


@contextmanager
def text_file(target, mode: str):
    """Open a path (str, bytes or os.PathLike) as UTF-8 text, or pass a handle through.

    A file opened here is closed on exit; a handle passed in is left open.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target
