"""Property tests of the two-polar decomposition and the radial weights.

reconstruct(two_polar_decompose(phi)) gives phi back for every n = 2 or 3
configuration with positive determinant, including the badly scaled,
nearly singular and degenerate ones that Gaussian draws rarely reach, and
the same configurations scaled by up to 10^(+-120), where det(phi) leaves
the float range.  A configuration whose smallest singular value is lost to
rounding has no finite invariant q and is refused with DomainError
instead.  Each weight is a finite float >= 0 or a DomainError.  The
examples are derandomized and their number fixed, as in
tests/test_config_properties.py.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from affbody.errors import DomainError  # noqa: E402
from affbody.group_geometry import (  # noqa: E402
    reconstruct,
    two_polar_decompose,
    weight_l,
    weight_lambda,
)

entries = st.floats(-1e3, 1e3, allow_subnormal=False) | st.sampled_from([0.0, 1.0, -1.0])


@st.composite
def positive_determinant(draw):
    n = draw(st.sampled_from([2, 3]))
    phi = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    det = np.linalg.det(phi)
    assume(det != 0.0)
    if det < 0.0:
        phi[0] = -phi[0]
    return phi


def check_roundtrip(phi):
    try:
        config = two_polar_decompose(phi)
    except DomainError:
        s = np.linalg.svd(phi, compute_uv=False)
        assert s[-1] <= 10 * np.finfo(float).eps * s[0]
        return
    back = reconstruct(config)
    assert np.linalg.norm(back - phi) <= 1e-12 * np.linalg.norm(phi)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(positive_determinant())
def test_two_polar_roundtrip(phi):
    check_roundtrip(phi)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(positive_determinant(), st.integers(-120, 120))
def test_two_polar_roundtrip_at_every_scale(phi, e):
    # det(phi) underflows or overflows here, while q stays finite
    check_roundtrip(10.0**e * phi)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(entries, min_size=2, max_size=3), st.sampled_from([weight_lambda, weight_l]))
def test_weight_is_finite_or_refused(q, weight):
    # sinh overflows past |q^a - q^b| of about 710
    try:
        w = weight(q)
    except DomainError:
        return
    assert isinstance(w, float) and np.isfinite(w) and w >= 0.0
