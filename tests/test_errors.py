"""Tests for the exception types and the shared helper `readonly`."""

import numpy as np
import pytest

from affbody.errors import (
    AffbodyError,
    CapacityError,
    DomainError,
    NumericalError,
    UsageError,
    readonly,
)


@pytest.mark.parametrize(
    "cls,builtin",
    [
        (DomainError, ValueError),
        (NumericalError, RuntimeError),
        (CapacityError, RuntimeError),
        (UsageError, ValueError),
    ],
)
def test_error_is_caught_as_affbody_error_and_as_its_builtin(cls, builtin):
    for base in (AffbodyError, builtin):
        with pytest.raises(base, match="message"):
            raise cls("message")


def test_readonly_marks_the_same_array():
    a = np.arange(4.0)
    assert readonly(a) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1.0
