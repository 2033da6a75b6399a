"""Tests for the exception types and the shared helpers `text_file` and `readonly`."""

import io
import os

import numpy as np
import pytest

from affbody.errors import (
    AffbodyError,
    CapacityError,
    DomainError,
    NumericalError,
    UsageError,
    readonly,
    text_file,
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


TEXT = "# model channel\naff-aff 2 2 ψ 1.0e+00\n"


class TestTextFile:
    @pytest.mark.parametrize("kind", ["str", "bytes", "path"])
    def test_each_path_type_writes_the_same_bytes(self, tmp_path, kind):
        path = tmp_path / "out.txt"
        target = {"str": str(path), "bytes": os.fsencode(path), "path": path}[kind]
        with text_file(target, "w") as fh:
            fh.write(TEXT)
        assert path.read_bytes() == TEXT.encode("utf-8")

    @pytest.mark.parametrize("kind", ["str", "path"])
    def test_read_mode_returns_the_text(self, tmp_path, kind):
        path = tmp_path / "in.txt"
        path.write_bytes(TEXT.encode("utf-8"))
        with text_file(str(path) if kind == "str" else path, "r") as fh:
            assert fh.read() == TEXT

    def test_file_opened_here_is_closed_on_exit(self, tmp_path):
        with text_file(tmp_path / "out.txt", "w") as fh:
            assert not fh.closed
        assert fh.closed

    def test_file_opened_here_is_closed_when_the_body_raises(self, tmp_path):
        with pytest.raises(DomainError):
            with text_file(tmp_path / "out.txt", "w") as fh:
                fh.write(TEXT)
                raise DomainError("stop")
        assert fh.closed
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == TEXT

    def test_handle_passed_in_is_yielded_and_left_open(self):
        buf = io.StringIO()
        with text_file(buf, "w") as fh:
            assert fh is buf
            fh.write(TEXT)
        assert not buf.closed
        assert buf.getvalue() == TEXT


def test_readonly_marks_the_same_array():
    a = np.arange(4.0)
    assert readonly(a) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1.0
