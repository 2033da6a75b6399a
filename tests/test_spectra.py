import dataclasses
import io
import math

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
    PotentialSpec,
    WeightKind1D,
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
            dil_potential=PotentialSpec.harmonic(2.0),
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
        with pytest.raises(NumericalError, match="infs or NaNs"):
            solve_1d(op, 1)

    @pytest.mark.parametrize(
        "kind,channel,grid,shear",
        [
            (ModelKind.AFF_AFF, (2, 1), Grid1D(0.0, 40.0, 999), None),
            (ModelKind.AFF_AFF, (1, 3), Grid1D(0.0, 40.0, 1999), None),
            (ModelKind.MET_AFF, (0, 2), Grid1D(-2.0, 7.5, 21), PotentialSpec.harmonic(1.5, 0.5)),
            (ModelKind.DALEMBERT, (0, 2), Grid1D(0.5, 10.0, 7), PotentialSpec.finite_well(2, 3)),
        ],
    )
    def test_margin_grid_of_an_odd_grid_keeps_every_second_node(self, kind, channel, grid, shear):
        # every coarse node is a fine node, so the coarse diagonal is a slice
        op = assemble_2d_channel(
            kind, P2(I=2, A=1, B=0), channel, grid, shear_potential=shear or PotentialSpec.zero()
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
            type(op), "_assemble", lambda self, V: widths.append(V.shape[1]) or assemble(self, V)
        )
        solve_nd(op, 4)
        assert built == [0, 1, 2]  # block 3 is block 1's twin
        # the full matrix, V with all d = 9 columns, is never formed
        assert len(widths) == 3 and 0 < max(widths) < 9

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

    def test_complex_action_rejected(self):
        class Twisted(FlatBoxND):
            def symmetric_matrix(self):
                return (1.0 + 1e-3j) * super().symmetric_matrix()

        with pytest.raises(DomainError):
            solve_nd(Twisted(1.0, 4, 1.0), 2)

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
        # the equal-label channel carries the critical core; the study must
        # report the order loss rather than hide it
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

    def test_file_target(self, tmp_path):
        res = solve_1d(flat_box(npoints=19), 2)
        path = tmp_path / "spec.txt"
        write_spectrum_table(str(path), [res])
        assert len(path.read_text().splitlines()) == 3
