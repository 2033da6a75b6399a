"""Property tests of the channel operators.

For parameters inside the well-posedness gates, spins of equal halfness up
to (2, 2) and grids of at most 5 nodes per axis, every block of the n=3
operator that solve_nd builds is symmetric, and the blocks together cover
the whole field: the block sizes, each counted as often as its eigenvalues
count, add up to N^3 d.

Planar label twins, channels in [-6, 6]^2 with equal `shear_label_terms`
and equal (n + m)^2 (which dalembert's q-sector reads), assemble
bitwise-equal operators: the x-sector and q-sector tridiagonals and the
thresholds agree to the last bit, under zero and harmonic potentials,
for all four models.  Channels with equal `shear_label_terms`
(in dalembert, equal |n - m|) agree so in the x-sector.

Along a refinement chain, a level's 2h grid is the level before it:
`solve_1d` given the previous level's eigenvalues returns, field for
field and bit for bit, what it returns when it solves the 2h grid itself,
for both operator forms and zero, harmonic and finite-well potentials.

The examples are derandomized and their number fixed, as in
tests/test_config_properties.py.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from affbody.errors import AffbodyError, DomainError  # noqa: E402
from affbody.hamiltonians import (  # noqa: E402
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    PotentialSpec,
    assemble_2d_channel,
    assemble_nd_channel,
    assemble_q_sector,
    check_gates,
    klein_bases,
    shear_label_terms,
    symmetrize,
)
from affbody.spectra import SpectrumResult, nested_grids, solve_1d  # noqa: E402

inertia = st.floats(-4.0, 4.0, allow_subnormal=False) | st.sampled_from([0.0, 0.5, 1.0, 2.0])
spins = st.sampled_from([0, 0.5, 1, 1.5, 2])


@st.composite
def gated_params(draw, n=3):
    kind = draw(st.sampled_from(list(ModelKind)))
    params = ModelParams(I=draw(inertia), A=draw(inertia), B=draw(inertia), n=n)
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


PLANAR_LABELS = [(m, n) for m in range(-6, 7) for n in range(-6, 7)]
planar_potentials = st.just(PotentialSpec.zero()) | st.builds(
    PotentialSpec.harmonic, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.0, 1.5])
)


def planar_terms(kind, channel):
    """The label terms of both planar sectors."""
    return (*shear_label_terms(kind, channel), sum(channel) ** 2)


@st.composite
def planar_twins(draw, terms_of=planar_terms):
    """Gated planar parameters, a channel, and a channel with its terms_of."""
    kind, params = draw(gated_params(n=2))
    channel = draw(st.sampled_from(PLANAR_LABELS))
    terms = terms_of(kind, channel)
    twin = draw(st.sampled_from([c for c in PLANAR_LABELS if terms_of(kind, c) == terms]))
    return kind, params, channel, twin


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(planar_twins(), planar_potentials, planar_potentials, st.integers(5, 40))
def test_planar_twins_assemble_bitwise_equal_operators(model, dil, shear, npoints):
    kind, params, channel, twin = model
    grid = Grid1D.from_spec(12.0, npoints)
    a, b = (assemble_2d_channel(kind, params, ch, grid, dil, shear) for ch in (channel, twin))
    qa, qb = (assemble_q_sector(op.q_sector, grid) for op in (a, b))
    for x, y in ((a, b), (qa, qb)):
        for u, v in zip(x.symmetric_tridiagonal(), y.symmetric_tridiagonal()):
            assert u.tobytes() == v.tobytes()
        assert np.float64(x.threshold).tobytes() == np.float64(y.threshold).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(planar_twins(shear_label_terms), planar_potentials, st.integers(5, 40))
def test_shear_twins_assemble_bitwise_equal_x_sectors(model, shear, npoints):
    kind, params, channel, twin = model
    grid = Grid1D.from_spec(12.0, npoints)
    a, b = (
        assemble_2d_channel(kind, params, ch, grid, shear_potential=shear) for ch in (channel, twin)
    )
    for u, v in zip(a.symmetric_tridiagonal(), b.symmetric_tridiagonal()):
        assert u.tobytes() == v.tobytes()
    assert np.float64(a.threshold).tobytes() == np.float64(b.threshold).tobytes()


chain_potentials = planar_potentials | st.builds(
    PotentialSpec.finite_well, st.sampled_from([0.5, 3.0]), st.sampled_from([1.0, 4.0])
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    gated_params(n=2),
    st.sampled_from(PLANAR_LABELS),
    st.booleans(),
    chain_potentials,
    st.integers(3, 300),
    st.data(),
)
def test_previous_level_is_the_margin_grid(model, channel, sym, shear, npoints, data):
    kind, params = model
    count = data.draw(st.integers(1, npoints), label="count")
    ops = [
        assemble_2d_channel(kind, params, channel, g, shear_potential=shear)
        for g in nested_grids(Grid1D.from_spec(12.0, npoints), 3)
    ]
    if sym:
        ops = [symmetrize(op) for op in ops]
    cold = [outcome(solve_1d, op, count) for op in ops]
    for k in (1, 2):
        if isinstance(cold[k - 1], SpectrumResult):  # else the chain stops at k - 1
            chained = outcome(solve_1d, ops[k], count, cold[k - 1].eigenvalues)
            assert_same_outcome(chained, cold[k])


def outcome(solve, *args):
    """solve(*args), or the message of the AffbodyError it raised."""
    try:
        return solve(*args)
    except AffbodyError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcome(a, b):
    """The same message, or every SpectrumResult field equal, arrays bit for bit."""
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    for field in dataclasses.fields(SpectrumResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, (float, np.ndarray)):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name
        else:
            assert x == y, field.name
