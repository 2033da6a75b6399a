import contextlib
import dataclasses
import io
import math
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import affbody.spectra
from affbody.errors import DomainError, NumericalError
from affbody.hamiltonians import (
    ChannelOperator1D,
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    PotentialKind,
    PotentialSpec,
    WeightKind1D,
    _spin_blocks,
    assemble_2d_channel,
    assemble_nd_channel,
    assemble_q_sector,
    symmetrize,
)
from affbody.spectra import (
    SpectralClass,
    classify_channel,
    convergence_study,
    nested_grids,
    node_counts,
    richardson,
    solve_1d,
    solve_nd,
    write_spectrum_table,
)


def flat_box(c=1.0, L=1.0, npoints=99, diag=None, threshold=math.nan):
    g = Grid1D(0.0, L, npoints)
    d = np.zeros(npoints) if diag is None else diag(g.points)
    return ChannelOperator1D(
        kind=ModelKind.AFF_AFF,
        channel=(0, 0),
        grid=g,
        weight_kind=WeightKind1D.FLAT,
        kinetic_coeff=c,
        diag_potential=d,
        constant_shift=0.0,
        threshold=threshold,
    )


def box_eigenvalue(c, L, npoints, k):
    # exact eigenvalue of the discrete Dirichlet Laplacian
    h = L / (npoints + 1)
    return (4.0 * c / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2


P2 = lambda **kw: ModelParams(n=2, **kw)


class TestClassify:
    def test_reference_cases(self):
        assert classify_channel((2, 2)) is SpectralClass.DISCRETE_CAPABLE
        assert classify_channel((1, -1)) is SpectralClass.CONTINUOUS_ONLY
        assert classify_channel((1, 0)) is SpectralClass.MARGINAL

    def test_symmetries(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m, n = rng.integers(-6, 7, size=2)
            cls = classify_channel((m, n))
            assert classify_channel((n, m)) is cls
            assert classify_channel((-m, -n)) is cls


class TestSolve1D:
    def test_box_against_exact_discrete_values(self):
        c, L, npts = 0.7, 3.0, 121
        res = solve_1d(flat_box(c, L, npts), 5)
        exact = [box_eigenvalue(c, L, npts, k) for k in range(1, 6)]
        np.testing.assert_allclose(res.eigenvalues, exact, rtol=1e-12)
        # and the continuum limit within discretization error
        assert res.eigenvalues[0] == pytest.approx(c * math.pi**2 / L**2, rel=1e-3)

    def test_sturm_node_counts(self):
        assert node_counts(flat_box(npoints=201), 6) == (0, 1, 2, 3, 4, 5)

    def test_harmonic_ladder(self):
        # -u''/2 + x^2/2 on a large box: energies n + 1/2
        g = Grid1D(-12.0, 12.0, 1201)
        op = ChannelOperator1D(
            kind=ModelKind.AFF_AFF, channel=(0, 0), grid=g,
            weight_kind=WeightKind1D.FLAT, kinetic_coeff=0.5,
            diag_potential=0.5 * g.points**2, constant_shift=0.0,
            threshold=math.nan,
        )
        res = solve_1d(op, 4)
        np.testing.assert_allclose(res.eigenvalues, [0.5, 1.5, 2.5, 3.5], rtol=5e-4)
        assert node_counts(op, 4) == (0, 1, 2, 3)

    def test_q_sector_harmonic(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 2), Grid1D.from_spec(10.0, 30),
            dil_potential=PotentialSpec(PotentialKind.HARMONIC, k=2.0),
        )
        qop = assemble_q_sector(op.q_sector, Grid1D(-12.0, 12.0, 1201))
        res = solve_1d(qop, 3)
        # -c u'' + q^2 u with c = 1/4: ladder (2n+1) sqrt(c*2/2)... = (2n+1)/2
        np.testing.assert_allclose(res.eigenvalues, [0.5, 1.5, 2.5], rtol=5e-4)

    def test_bound_state_below_threshold(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (2, 2), Grid1D.from_spec(40.0, 999)
        )
        res = solve_1d(op, 3)
        assert res.threshold == pytest.approx(0.25)
        assert res.bound_count >= 1
        assert res.eigenvalues[0] < 0.25

    def test_continuous_channel_has_no_bound_state(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (2, -2), Grid1D.from_spec(40.0, 999)
        )
        res = solve_1d(op, 5)
        assert res.bound_count == 0
        assert np.all(res.eigenvalues > res.threshold - 1e-8)

    def test_margins_and_determinism(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (2, 2), Grid1D.from_spec(40.0, 999)
        )
        a = solve_1d(op, 3)
        b = solve_1d(op, 3)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        assert np.all(np.isfinite(a.margins))
        assert np.all(a.margins >= 0.0)
        assert a.h == op.grid.step
        assert a.x_max == 40.0

    def test_symmetrized_form_accepted(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 3), Grid1D.from_spec(30.0, 499)
        )
        res = solve_1d(symmetrize(op), 3)
        ref = solve_1d(op, 3)
        np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, atol=1e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_1d(flat_box(npoints=9), 0)
        with pytest.raises(DomainError):
            solve_1d(flat_box(npoints=9), 50)
        with pytest.raises(DomainError):
            solve_1d(object(), 1)
        with pytest.raises(DomainError, match="coarse"):  # margin values of another count
            solve_1d(flat_box(npoints=9), 3, np.zeros(2))

    def test_overflowing_operator_raises_numerical_error(self):
        # a gated but tiny A overflows the kinetic coefficients to inf
        params = P2(I=0.0, A=5.2830752812468663e-303, B=0.0)
        op = assemble_2d_channel(ModelKind.AFF_AFF, params, (-6, -6), Grid1D.from_spec(12.0, 34))
        with pytest.warns(RuntimeWarning, match="overflow encountered in divide"):
            with pytest.raises(NumericalError, match="infs or NaNs"):
                solve_1d(op, 1)

    @staticmethod
    def aff_aff(A, channel):
        """Tridiagonal entries scale as 1/A, so A times the levels is A-free."""
        return assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=0.0, A=A, B=0.0), channel, Grid1D(0.0, 40.0, 3999)
        )

    def test_entries_past_the_limit_scale_by_powers_of_two_exactly(self):
        # A = 2^k puts the largest entry near 3e4 * 2^-k, from 6.5e154 up to
        # 2.8e287: all past sqrt(float max), where stebz alone fails
        want = solve_1d(self.aff_aff(1.0, (4, 2)), 4).eigenvalues
        for k in range(-500, -941, -20):
            A = 2.0**k
            assert np.array_equal(solve_1d(self.aff_aff(A, (4, 2)), 4).eigenvalues * A, want), k

    @pytest.mark.parametrize(
        "kind,channel,grid",
        [
            (ModelKind.AFF_AFF, (4, 2), Grid1D(0.0, 40.0, 3999)),
            (ModelKind.MET_AFF, (2, 1), Grid1D(0.0, 20.0, 1999)),
            (ModelKind.AFF_MET, (1, 2), Grid1D(0.0, 20.0, 1999)),
            (ModelKind.DALEMBERT, (1, 3), Grid1D(0.5, 20.0, 1999)),
        ],
    )
    def test_levels_scale_as_hbar_squared_past_the_limit(self, kind, channel, grid):
        # hbar = 2^300 scales every entry by 2^600, to about 1e184
        params = ModelParams(I=2.0, A=1.0, B=0.0)
        big = dataclasses.replace(params, hbar=2.0**300)
        op = assemble_2d_channel(kind, big, channel, grid)
        assert max(np.max(np.abs(part)) for part in op.symmetric_tridiagonal()) > 1e180
        want = solve_1d(assemble_2d_channel(kind, params, channel, grid), 4).eigenvalues
        assert np.array_equal(np.ldexp(solve_1d(op, 4).eigenvalues, -600), want)

    @pytest.mark.parametrize("channel", [(2, 2), (4, 2)])
    def test_node_counts_past_the_limit(self, channel):
        # the eigenvector path scales the same way as the eigenvalue path
        want = node_counts(self.aff_aff(1.0, channel), 3)
        assert want == (0, 1, 2)
        assert node_counts(self.aff_aff(2.0**-600, channel), 3) == want

    @pytest.mark.parametrize("channel", [(1, 1), (4, 2)])
    def test_largest_entry_at_2e154_keeps_the_levels(self, channel):
        op = self.aff_aff(1.0, channel)
        A = max(np.max(np.abs(part)) for part in op.symmetric_tridiagonal()) / 2e154
        want = solve_1d(op, 5).eigenvalues
        got = solve_1d(self.aff_aff(A, channel), 5).eigenvalues * A
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "kind,channel,grid,shear",
        [
            (ModelKind.AFF_AFF, (2, 1), Grid1D(0.0, 40.0, 999), None),
            (ModelKind.AFF_AFF, (1, 3), Grid1D(0.0, 40.0, 1999), None),
            (ModelKind.MET_AFF, (0, 2), Grid1D(-2.0, 7.5, 21), PotentialSpec(PotentialKind.HARMONIC, k=1.5, q0=0.5)),
            (
                ModelKind.DALEMBERT, (0, 2), Grid1D(0.5, 10.0, 7),
                PotentialSpec(PotentialKind.FINITE_WELL, depth=2, width=3),
            ),
        ],
    )
    def test_margin_grid_of_an_odd_grid_keeps_every_second_node(self, kind, channel, grid, shear):
        # every coarse node is a fine node, so the coarse diagonal is a slice
        op = assemble_2d_channel(
            kind, P2(I=2, A=1, B=0), channel, grid,
            shear_potential=shear or PotentialSpec(PotentialKind.ZERO),
        )
        res = solve_1d(op, 3)
        coarse = dataclasses.replace(
            op, grid=grid.coarsen(), diag_potential=op.diag_potential[1::2]
        )
        want = np.abs(res.eigenvalues - solve_1d(coarse, 3).eigenvalues)
        assert res.margins.tobytes() == want.tobytes()

    def test_margin_grid_of_an_even_grid_interpolates_the_diagonal(self):
        # a linear diagonal is interpolated exactly onto the coarse nodes
        res = solve_1d(flat_box(npoints=20, diag=lambda x: 30.0 * x - 4.0), 3)
        coarse = solve_1d(flat_box(npoints=9, diag=lambda x: 30.0 * x - 4.0), 3)
        np.testing.assert_allclose(
            res.margins, np.abs(res.eigenvalues - coarse.eigenvalues), rtol=0, atol=1e-10
        )
        assert np.all(res.margins > 0.0)


def ground_energies(kind, params, channels, grid):
    ops = (assemble_2d_channel(kind, params, ch, grid) for ch in channels)
    return [solve_1d(op, 1).eigenvalues[0] for op in ops]


class TestPlanarGroundEnergies:
    def test_aff_aff_unbounded_trend(self):
        energies = ground_energies(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0),
            [(k, k) for k in range(1, 7)], Grid1D.from_spec(40.0, 799),
        )
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_met_aff_bounded(self):
        energies = ground_energies(
            ModelKind.MET_AFF, P2(I=2, A=1, B=0),
            [(k, k) for k in range(1, 7)], Grid1D.from_spec(40.0, 799),
        )
        assert all(e > 0.0 for e in energies)

    def test_trivial_channel_nonnegative(self):
        (energy,) = ground_energies(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), [(0, 0)], Grid1D.from_spec(40.0, 499)
        )
        assert energy >= -1e-8


def bessel_zeros(nu, count):
    """The first `count` positive zeros of J_nu, bracketed on a step of 0.5."""
    import scipy.optimize
    import scipy.special

    x = np.arange(0.5, 4.0 * count + 10.0, 0.5)
    f = scipy.special.jv(nu, x)
    brackets = [(a, b) for a, b, fa, fb in zip(x, x[1:], f, f[1:]) if fa * fb < 0.0]
    return np.array(
        [scipy.optimize.brentq(lambda t: scipy.special.jv(nu, t), a, b, xtol=1e-15)
         for a, b in brackets[:count]]
    )


class TestExactPlanarLevels:
    """Exactly solvable channels with kappa = |n - m|/2 >= 1.  Only the solution that
    vanishes as x^kappa is square integrable at x = 0 there, so the grid's Dirichlet
    zero at x = 0 costs nothing and the chain converges at order 2."""

    @pytest.mark.parametrize(
        "kind,I,channel,exact",
        [
            (ModelKind.AFF_AFF, 1, (4, 2), 0.0),
            (ModelKind.AFF_AFF, 1, (5, 3), -0.75),
            (ModelKind.AFF_AFF, 1, (7, 3), -0.75),
            (ModelKind.MET_AFF, 2, (6, 2), 24.0),
            (ModelKind.AFF_MET, 2, (2, 6), 24.0),
        ],
    )
    def test_poeschl_teller_ground_level(self, kind, I, channel, exact):
        # in the flat form and y = x/2 the x-sector is (c/4)(-d^2/dy^2 + k(k-1)/sh^2 y
        # - l(l-1)/ch^2 y) + c/4 + shift, k = (|n-m|+1)/2, l = (|n+m|+1)/2, c = hbar^2/A
        # (alpha for met-aff and aff-met), whose ground level is
        # c/4 (1 - (l - k - 1)^2) + shift (Poeschl & Teller, Z. Phys. 83 (1933) 143)
        params = P2(I=I, A=1, B=0)
        study = convergence_study(
            lambda g: assemble_2d_channel(kind, params, channel, g),
            Grid1D(0.0, 40.0, 999), levels=4, count=1,
        )
        assert abs(study.eigenvalues[-1, 0] - exact) <= 1e-5
        assert 1.9 <= study.orders[0] <= 2.1

    @pytest.mark.parametrize("channel,nu", [((0, 2), 1.0), ((0, 3), 1.5)])
    def test_dalembert_bessel_levels(self, channel, nu):
        # -(hbar^2/I)(u'' + u'/x - nu^2 u/x^2), nu = |n-m|/2, vanishing at x = 10:
        # E_k = (hbar^2/I)(j_(nu,k)/10)^2
        params = P2(I=2, A=1, B=0)
        study = convergence_study(
            lambda g: assemble_2d_channel(ModelKind.DALEMBERT, params, channel, g),
            Grid1D(0.0, 10.0, 399), levels=4, count=3,
        )
        exact = 0.5 * (bessel_zeros(nu, 3) / 10.0) ** 2
        np.testing.assert_allclose(study.eigenvalues[-1], exact, rtol=2e-6, atol=0.0)
        assert np.all((1.9 <= study.orders) & (study.orders <= 2.1))


class FlatBoxND:
    """Minimal 3D Dirichlet Laplacian used as an eigensolver oracle."""

    def __init__(self, c, npoints, L, multiplicity=1):
        self.kind = ModelKind.AFF_AFF
        self.labels = (0, 0)
        self.grid = GridND(npoints, 0.0, L)
        self.c = c
        self.multiplicity = multiplicity

    def symmetric_matrix(self):
        # Kronecker sum of three 1D second differences, times the identity
        # on the amplitude components
        N = self.grid.npoints
        lap = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(N, N))
        box = scipy.sparse.kronsum(scipy.sparse.kronsum(lap, lap), lap)
        eye = scipy.sparse.eye_array(self.multiplicity)
        return (self.c / self.grid.step**2) * scipy.sparse.kron(box, eye, format="csr")

    # one block holding the whole matrix, solved once
    block_copies = (1,)

    def block_matrix(self, k):
        return self.symmetric_matrix()


class BlockStub(FlatBoxND):
    """An operator whose blocks are the given matrices, each counted once."""

    def __init__(self, *blocks):
        super().__init__(1.0, 4, 1.0)
        self.blocks = blocks
        self.block_copies = (1,) * len(blocks)

    def block_matrix(self, k):
        return self.blocks[k]


def counted_eigsh(monkeypatch):
    """Patch scipy's eigsh to record (k, tol, dimension) of each run; returns the record."""
    import scipy.sparse.linalg

    calls, eigsh = [], scipy.sparse.linalg.eigsh

    def counted(M, **kwargs):
        calls.append((kwargs["k"], kwargs["tol"], M.shape[0]))
        return eigsh(M, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


def random_symmetric(size, seed):
    rng = np.random.default_rng(seed)
    M = np.where(rng.random((size, size)) < 0.05, rng.standard_normal((size, size)), 0.0)
    return scipy.sparse.csr_array(M + M.T + np.diag(np.arange(size, dtype=float)))


class TestSolveND:
    def test_flat_box_exact_discrete_values(self):
        c, N, L = 1.0, 5, 1.0
        op = FlatBoxND(c, N, L)
        res = solve_nd(op, 4)
        s = [box_eigenvalue(c, L, N, k) for k in range(1, 3)]
        exact = sorted([3 * s[0], 2 * s[0] + s[1], 2 * s[0] + s[1], 2 * s[0] + s[1]])
        np.testing.assert_allclose(res.eigenvalues, exact, rtol=1e-9)

    def test_degenerate_multiplicity_recovered(self):
        # the (2,1,1) level is threefold; deflation must find all copies
        op = FlatBoxND(1.0, 4, 1.0)
        res = solve_nd(op, 5)
        assert res.eigenvalues[1] == pytest.approx(res.eigenvalues[2], rel=1e-10)
        assert res.eigenvalues[2] == pytest.approx(res.eigenvalues[3], rel=1e-10)

    def test_against_dense_diagonalization(self):
        op = assemble_nd_channel(
            ModelKind.AFF_AFF, ModelParams(I=3, A=1, B=1, n=3), (0.5, 0.5),
            GridND(3, -1.0, 1.0),
        )
        size = int(np.prod(op.shape))
        H = np.zeros((size, size), dtype=complex)
        for col in range(size):
            e = np.zeros(op.shape, dtype=complex)
            e.reshape(-1)[col] = 1.0
            H[:, col] = op.apply(e).reshape(-1)
        W = np.repeat(op.weight.reshape(-1), 4)
        dense = np.sort(scipy.linalg.eigh(W[:, None] * H, np.diag(W), eigvals_only=True))
        res = solve_nd(op, 5)
        np.testing.assert_allclose(res.eigenvalues, dense[:5], rtol=1e-8, atol=1e-10)

    def test_double_ground_level_against_dense_matrix(self):
        # an exactly double ground level, one copy from each of the twin Klein
        # blocks 1 and 3
        op = assemble_nd_channel(
            ModelKind.MET_AFF, ModelParams(I=2, A=1, B=0.5, n=3), (1, 0), GridND(5, -3.0, 3.0)
        )
        A = op.symmetric_matrix()
        assert A.shape == (375, 375)
        dense = scipy.linalg.eigvalsh(A.toarray())
        assert dense[1] - dense[0] < 1e-12 * dense[0]
        res = solve_nd(op, 4)
        np.testing.assert_allclose(res.eigenvalues, dense[:4], rtol=1e-9)

    def test_blocks_without_twin_against_dense_matrix(self):
        # dalembert has no twin blocks: all four Klein blocks are solved
        op = assemble_nd_channel(
            ModelKind.DALEMBERT, ModelParams(I=2, A=1, B=0.5, n=3), (1, 1), GridND(4, 0.5, 3.0)
        )
        assert op.block_copies == (1, 1, 1, 1)
        dense = scipy.linalg.eigvalsh(op.symmetric_matrix().toarray())
        res = solve_nd(op, 6)
        np.testing.assert_allclose(res.eigenvalues, dense[:6], rtol=1e-9)

    @pytest.mark.parametrize(
        "kind,labels,grid,count,solved",
        [
            # block 0 is empty; block 1 holds the double ground level, block 2 two more
            (ModelKind.MET_AFF, (1, 0), GridND(5, -3.0, 3.0), 4, [125, 125]),
            # no twins, and every one of the four blocks holds one of the lowest six
            (ModelKind.DALEMBERT, (1, 1), GridND(4, 0.5, 3.0), 6, [192, 128, 128, 128]),
        ],
    )
    def test_blocks_holding_levels_are_solved(self, monkeypatch, kind, labels, grid, count, solved):
        op = assemble_nd_channel(kind, ModelParams(I=2, A=1, B=0.5, n=3), labels, grid)
        dense = scipy.linalg.eigvalsh(op.symmetric_matrix().toarray())
        sizes, lowest_block = [], affbody.spectra._lowest_block
        monkeypatch.setattr(
            affbody.spectra,
            "_lowest_block",
            lambda A, *args: sizes.append(A.shape[0]) or lowest_block(A, *args),
        )
        res = solve_nd(op, count)
        np.testing.assert_allclose(res.eigenvalues, dense[:count], rtol=1e-9)
        assert sizes == solved

    @pytest.mark.parametrize("copies", [(1, 1), (1, 2)])
    def test_block_whose_lowest_value_ties_the_count_th(self, copies):
        # block 1's lowest value equals block 0's third, once or twice: the lowest three
        # are the same whether block 1 is skipped or solved
        first = scipy.sparse.diags_array(np.arange(1.0, 41.0), format="csr")
        op = BlockStub(first, scipy.sparse.diags_array(np.arange(3.0, 33.0), format="csr"))
        op.block_copies = copies
        np.testing.assert_allclose(solve_nd(op, 3).eigenvalues, [1.0, 2.0, 3.0], rtol=1e-12)
        # just below it, block 1's lowest value takes the third place
        op.blocks = (first, scipy.sparse.diags_array(np.arange(3.0 - 1e-6, 33.0), format="csr"))
        np.testing.assert_allclose(solve_nd(op, 3).eigenvalues, [1.0, 2.0, 3.0 - 1e-6], rtol=1e-12)

    def test_unsymmetric_block_is_refused_before_its_skip_run(self, monkeypatch):
        # block 1 lies far above block 0's levels, so it would be skipped; its check comes first
        calls = counted_eigsh(monkeypatch)
        first = scipy.sparse.diags_array(np.arange(1.0, 41.0), format="csr")
        skewed = scipy.sparse.diags_array(np.arange(100.0, 130.0), format="lil")
        skewed[0, 1] = 1.0
        with pytest.raises(DomainError, match="symmetric"):
            solve_nd(BlockStub(first, skewed.tocsr()), 3)
        assert all(size == 40 for _, _, size in calls)

    def test_blocks_are_built_per_solve_and_not_kept(self, monkeypatch):
        op = assemble_nd_channel(
            ModelKind.MET_AFF, ModelParams(I=2, A=1, B=0.5, n=3), (1, 1), GridND(5, -3.0, 3.0)
        )
        built, widths = [], []
        block_matrix, assemble = type(op).block_matrix, type(op)._assemble
        monkeypatch.setattr(
            type(op), "block_matrix", lambda self, k: built.append(k) or block_matrix(self, k)
        )
        monkeypatch.setattr(
            type(op),
            "_assemble",
            lambda self, k: widths.append(
                _spin_blocks(self.labels, self.params.hbar)[k][0].shape[-1]
            )
            or assemble(self, k),
        )
        solve_nd(op, 4)
        assert built == [0, 1, 2]  # block 3 is block 1's twin
        # the full matrix, V with all d = 9 columns, is never formed
        assert len(widths) == 3 and 0 < max(widths) < 9

    def test_solve_path_reaches_no_wigner_code(self, monkeypatch):
        # the Klein bases are read off the ladder basis, so with every Wigner entry
        # point broken and the spin caches emptied the channel solves to the same bits
        import affbody.hamiltonians
        import affbody.representations

        def solve():
            op = assemble_nd_channel(
                ModelKind.MET_AFF, ModelParams(I=2, A=1, B=0.5, n=3), (1, 1), GridND(4, -3, 3)
            )
            return solve_nd(op, 4).eigenvalues

        def broken(*args, **kwargs):
            raise AssertionError("the n=3 solve path reached Wigner code")

        want = solve()
        monkeypatch.setattr(affbody.hamiltonians, "wigner_D", broken)
        monkeypatch.setattr(affbody.hamiltonians, "rotation_vector_from_matrix", broken)
        monkeypatch.setattr(affbody.representations, "wigner_D_batch", broken)
        affbody.hamiltonians._klein_bases.cache_clear()
        _spin_blocks.cache_clear()
        assert solve().tobytes() == want.tobytes()

    def test_degeneracy_inside_one_block_takes_the_tight_rerun(self, monkeypatch):
        # every level of the box doubled inside the one block: one Krylov
        # space finds one copy, so the loose check must fall through to a
        # tight rerun for the other
        import scipy.sparse.linalg

        op = FlatBoxND(1.0, 6, 1.0, multiplicity=2)
        dense = scipy.linalg.eigvalsh(op.symmetric_matrix().toarray())
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counted(*args, **kwargs):
            calls.append((kwargs["k"], kwargs["tol"]))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        res = solve_nd(op, 4)
        np.testing.assert_allclose(res.eigenvalues, dense[:4], rtol=1e-9)
        assert (1, 1e-9) in calls

    def test_refinement_converges(self):
        # the scheme approaches a limit from below here (the Laplacian part
        # dominates), so successive refinements must contract, not drop
        par = ModelParams(I=3, A=1, B=0, n=3)
        vals = []
        for N in (5, 11, 23):
            op = assemble_nd_channel(ModelKind.AFF_AFF, par, (0, 0), GridND(N, -1.0, 1.0))
            vals.append(solve_nd(op, 1).eigenvalues[0])
        d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
        assert abs(d2) < abs(d1)
        assert d1 * d2 > 0.0  # steady approach, no oscillation

    def test_determinism_and_metadata(self):
        op = assemble_nd_channel(
            ModelKind.AFF_AFF, ModelParams(I=3, A=1, B=1, n=3), (0.5, 0.5),
            GridND(4, -1.0, 1.0),
        )
        a = solve_nd(op, 2)
        b = solve_nd(op, 2)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        assert a.channel == (0.5, 0.5)
        assert math.isnan(a.threshold)
        assert a.bound_count == 0

    def test_validation(self):
        op = FlatBoxND(1.0, 4, 1.0)
        with pytest.raises(DomainError):
            solve_nd(op, 11)
        with pytest.raises(DomainError):
            solve_nd(op, 0)


@pytest.fixture(scope="module")
def spin1_channel_n13():
    # a spin-1 channel large enough that ARPACK needs several restarts
    return assemble_nd_channel(
        ModelKind.MET_AFF, ModelParams(I=2, A=1, B=0.5, n=3), (1, 1), GridND(13, -3.0, 3.0)
    )


@pytest.fixture(scope="module")
def spin1_values_n13(spin1_channel_n13):
    return solve_nd(spin1_channel_n13, 4, seed=1).eigenvalues


class TestSolveNDMatrixChannel:
    # lowest values of sqrt(P) H sqrt(P)^-1 from an independent eigsh run at tol 1e-12
    N13_REFERENCE = [1.283688325682036, 1.3137877507419338, 1.3285152786978665, 1.3590939981398864]

    def test_spin1_n13_solves(self, spin1_values_n13):
        vals = spin1_values_n13
        assert len(vals) == 4 and np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) >= 0.0)
        np.testing.assert_allclose(vals, self.N13_REFERENCE, rtol=1e-8)

    def test_eigsh_runs_of_a_channel_held_by_block_0(self, spin1_channel_n13, monkeypatch):
        # all four values lie in block 0: its solve and lift check, then one loose
        # skip run on each of blocks 1 and 2 (block 3 is block 1's twin)
        calls = counted_eigsh(monkeypatch)
        vals = solve_nd(spin1_channel_n13, 4, seed=1).eigenvalues
        np.testing.assert_allclose(vals, self.N13_REFERENCE, rtol=1e-8)
        assert [c[:2] for c in calls] == [(4, 1e-9), (1, 1e-4), (1, 1e-4), (1, 1e-4)]

    def test_seeds_agree(self, spin1_channel_n13, spin1_values_n13):
        other = solve_nd(spin1_channel_n13, 4, seed=2).eigenvalues
        np.testing.assert_allclose(other, spin1_values_n13, rtol=1e-9)

    def test_restart_limit_raises_numerical_error(self, spin1_channel_n13, monkeypatch):
        monkeypatch.setattr(affbody.spectra, "ND_MAXITER", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            solve_nd(spin1_channel_n13, 4)

    def test_any_arpack_error_raises_numerical_error(self, monkeypatch):
        import scipy.sparse.linalg

        def broken(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", broken)
        with pytest.raises(NumericalError, match="eigsh failed"):
            solve_nd(FlatBoxND(1.0, 4, 1.0), 2)

    def test_count_at_least_the_block_size_rejected(self):
        class ThreeRows(FlatBoxND):
            def block_matrix(self, k):
                return scipy.sparse.diags_array([1.0, 2.0, 3.0], format="csr")

        with pytest.raises(DomainError, match="exceeds the problem dimension 3"):
            solve_nd(ThreeRows(1.0, 4, 1.0), 3)

    def test_overflowing_block_refused_before_arpack(self, monkeypatch):
        import scipy.sparse.linalg

        calls = []
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **k: calls.append(k))
        op = assemble_nd_channel(
            ModelKind.AFF_AFF, ModelParams(I=0.0, A=1e-305, B=0.0, n=3), (0, 0), GridND(5, -3, 3)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                solve_nd(op, 1)
        assert calls == []

    def test_complex_action_rejected(self):
        class Twisted(FlatBoxND):
            def symmetric_matrix(self):
                return (1.0 + 1e-3j) * super().symmetric_matrix()

        with pytest.raises(DomainError):
            solve_nd(Twisted(1.0, 4, 1.0), 2)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, 2.0**1000])
    def test_symmetry_probe_is_scale_free(self, monkeypatch, scale):
        # unscaled, the probe's squared norms underflow or overflow at the ends and pass any matrix
        import scipy.sparse.linalg

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", reached)
        A = random_symmetric(300, 5) * scale
        with pytest.raises(Reached):
            solve_nd(BlockStub(A), 2)
        A = A.tolil()
        A[3, 7] = A[7, 3] + scale
        with pytest.raises(DomainError, match="symmetric"):
            solve_nd(BlockStub(A.tocsr()), 2)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_loose_check_is_scale_free(self, monkeypatch, scale):
        # unscaled, the loose check's residual norm overflows past about 1e154 and its
        # Ritz pair can never settle a block, which then always takes a tight rerun
        calls = counted_eigsh(monkeypatch)
        A = random_symmetric(300, 5)
        unscaled = solve_nd(BlockStub(A), 2).eigenvalues
        runs = [c[:2] for c in calls]
        assert runs == [(2, 1e-9), (1, 1e-4)]
        calls.clear()
        scaled = solve_nd(BlockStub(A * scale), 2).eigenvalues
        assert [c[:2] for c in calls] == runs
        np.testing.assert_allclose(scaled / scale, unscaled, rtol=1e-9)

    def test_unsymmetric_matrix_rejected(self):
        class Skewed(FlatBoxND):
            def symmetric_matrix(self):
                m = super().symmetric_matrix()
                return m @ scipy.sparse.diags_array(np.linspace(1.0, 2.0, m.shape[0]))

        with pytest.raises(DomainError, match="symmetric"):
            solve_nd(Skewed(1.0, 4, 1.0), 2)


class TestConvergence:
    def test_box_order_two(self):
        study = convergence_study(lambda g: flat_box(1.0, 2.0, g.npoints), Grid1D(0.0, 2.0, 49))
        assert np.all(study.orders > 1.7) and np.all(study.orders < 2.3)
        exact = math.pi**2 / 4.0
        assert abs(study.extrapolated[0] - exact) < abs(study.eigenvalues[-1, 0] - exact)
        assert study.extrapolated[0] == pytest.approx(exact, rel=1e-6)

    def test_smooth_channel_order(self):
        make = lambda g: assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 3), g
        )
        study = convergence_study(make, Grid1D.from_spec(30.0, 199), count=3)
        assert np.all(study.orders > 1.7) and np.all(study.orders < 2.3)

    def test_critical_channel_reports_reduced_order(self):
        # the equal-label channel has kappa = |n - m|/2 = 0, so its amplitude is
        # nonzero at x = 0, where the grid puts its Dirichlet zero (the exact
        # Poeschl-Teller level is 0); the study must report the order loss
        # rather than hide it
        make = lambda g: assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (2, 2), g
        )
        study = convergence_study(make, Grid1D.from_spec(40.0, 199), count=1)
        order = study.orders[0]
        assert math.isnan(order) or order < 1.7

    def test_levels_validation(self):
        with pytest.raises(DomainError):
            convergence_study(lambda g: flat_box(npoints=g.npoints), Grid1D(0, 1, 9), levels=2)

    @pytest.mark.parametrize(
        "grid,npoints", [(Grid1D(0.0, 2.0, 9), [9, 19, 39]), (GridND(3, -1.0, 1.0), [3, 7, 15])]
    )
    def test_nested_grids_halve_the_step(self, grid, npoints):
        grids = nested_grids(grid, 3)
        assert grids[0] is grid
        assert [g.npoints for g in grids] == npoints
        assert [g.step for g in grids] == [grid.step, grid.step / 2, grid.step / 4]
        assert nested_grids(grid, 1) == [grid]


class TestRichardson:
    def test_recovers_clean_power_law(self):
        for p in (1.0, 2.0, 3.0):
            e = [1.0 + 0.1 * (0.5**p) ** k for k in range(3)]
            limit, order = richardson(*e)
            assert limit == pytest.approx(1.0, abs=1e-12)
            assert order == pytest.approx(p, abs=1e-9)

    def test_noise_floor_keeps_finest(self):
        limit, order = richardson(1.0, 1.0, 1.0)
        assert limit == 1.0 and math.isnan(order)

    def test_non_monotone_keeps_finest(self):
        limit, order = richardson(1.0, 1.2, 1.1)
        assert limit == 1.1 and math.isnan(order)


class TestWriteTable:
    def test_format_and_determinism(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (2, 2), Grid1D.from_spec(40.0, 499)
        )
        res = solve_1d(op, 3)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_spectrum_table(buf, [res])
            assert not buf.closed  # a handle passed in is left open
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        lines = bufs[0].splitlines()
        assert lines[0].startswith("# model")
        assert len(lines) == 4
        cols = lines[1].split()
        assert cols[0] == "aff-aff"
        assert cols[3] == "0"
        assert float(cols[4]) == pytest.approx(res.eigenvalues[0])
        assert "e" in cols[4]  # %.14e rendering

    # a file opened here is closed on exit, also when the body raises on a
    # result that is not a SpectrumResult, after writing the rows before it
    @pytest.mark.parametrize("tail", [[], [None]], ids=["returns", "body-raises"])
    def test_file_target(self, tmp_path, monkeypatch, tail):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(affbody.spectra, "open", recording_open, raising=False)
        res = solve_1d(flat_box(npoints=19), 2)
        path = tmp_path / "spec.txt"
        with pytest.raises(AttributeError) if tail else contextlib.nullcontext():
            write_spectrum_table(str(path), [res] + tail)
        assert len(opened) == 1 and opened[0].closed
        assert len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize("kind", ["path", "bytes"])
    def test_pathlike_target_gives_same_bytes_as_str(self, tmp_path, kind):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (0, 2), Grid1D(0.0, 10.0, 19)
        )
        path = tmp_path / "other.txt"
        write_spectrum_table(str(tmp_path / "str.txt"), [solve_1d(op, 2)])
        write_spectrum_table(path if kind == "path" else os.fsencode(path), [solve_1d(op, 2)])
        assert path.read_bytes() == (tmp_path / "str.txt").read_bytes()
