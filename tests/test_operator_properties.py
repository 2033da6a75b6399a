"""Property test of the n=3 channel operator's Klein blocks.

For parameters inside the well-posedness gates, spins of equal halfness up
to (2, 2) and grids of at most 5 nodes per axis, every block that solve_nd
builds is symmetric, and the blocks together cover the whole field: the
block sizes, each counted as often as its eigenvalues count, add up to
N^3 d.  The examples are derandomized and their number fixed, as in
tests/test_config_properties.py.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from affbody.errors import DomainError  # noqa: E402
from affbody.hamiltonians import (  # noqa: E402
    GridND,
    ModelKind,
    ModelParams,
    assemble_nd_channel,
    check_gates,
    klein_bases,
)

inertia = st.floats(-4.0, 4.0, allow_subnormal=False) | st.sampled_from([0.0, 0.5, 1.0, 2.0])
spins = st.sampled_from([0, 0.5, 1, 1.5, 2])


@st.composite
def gated_params(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    params = ModelParams(I=draw(inertia), A=draw(inertia), B=draw(inertia), n=3)
    try:
        check_gates(kind, params)
    except DomainError:
        assume(False)
    return kind, params


@st.composite
def equal_halfness(draw):
    s = draw(spins)
    j = draw(spins.filter(lambda v: (2 * v - 2 * s) % 2 == 0))
    return s, j


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(gated_params(), equal_halfness(), st.integers(3, 5))
def test_solved_blocks_are_symmetric_and_cover_the_field(model, labels, N):
    kind, params = model
    q_min = 0.0 if kind is ModelKind.DALEMBERT else -1.5
    op = assemble_nd_channel(kind, params, labels, GridND(N, q_min, q_min + 3.0))
    widths = [V.shape[1] for V in klein_bases(op.labels)]
    d = op.shape[3] * op.shape[4]
    covered = 0
    for k, copies in enumerate(op.block_copies):
        if not copies:
            continue
        A = op.block_matrix(k)
        assert A.shape == (N**3 * widths[k],) * 2
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
        covered += copies * A.shape[0]
    assert covered == N**3 * d
    assert N**3 * sum(widths) == N**3 * d
