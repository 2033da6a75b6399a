import dataclasses
import io
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

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
    SpectrumResult,
    boundedness_scan,
    classify_channel,
    convergence_study,
    nested_grids,
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
        res = solve_1d(flat_box(npoints=201), 6)
        assert res.node_counts == (0, 1, 2, 3, 4, 5)

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
        assert res.node_counts == (0, 1, 2, 3)

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


def assert_same_result(a, b):
    """Every SpectrumResult field equal, floats and arrays bit for bit."""
    for field in dataclasses.fields(SpectrumResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, (float, np.ndarray)):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name
        else:
            assert x == y, field.name


def count_tridiagonal_solves(monkeypatch) -> list:
    calls = []
    original = scipy.linalg.eigh_tridiagonal
    monkeypatch.setattr(
        scipy.linalg,
        "eigh_tridiagonal",
        lambda *a, **k: calls.append(1) or original(*a, **k),
    )
    return calls


MEMO_CASES = [
    (ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 3), False),
    (ModelKind.MET_AFF, P2(I=2, A=1, B=0), (0, 3), False),
    (ModelKind.AFF_MET, P2(I=2, A=1, B=0), (0, 2), False),
    (ModelKind.DALEMBERT, P2(I=2, A=1, B=0), (0, 2), False),
    (ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 3), True),
]


class TestSolve1DMemo:
    @pytest.mark.parametrize("kind,params,channel,sym", MEMO_CASES)
    def test_memo_matches_cold_solve_bitwise(self, kind, params, channel, sym, monkeypatch):
        op = assemble_2d_channel(kind, params, channel, Grid1D.from_spec(30.0, 199))
        if sym:
            op = symmetrize(op)
        cold = solve_1d(op, 4)
        memo = {}
        assert_same_result(solve_1d(op, 4, memo), cold)
        assert len(memo) == 2  # the solve itself and its margin grid
        calls = count_tridiagonal_solves(monkeypatch)
        assert_same_result(solve_1d(op, 4, memo), cold)
        assert calls == []

    def test_eigenvalue_only_entry_does_not_serve_node_counts(self):
        grid = Grid1D.from_spec(30.0, 199)

        def make(g):
            return assemble_2d_channel(ModelKind.AFF_AFF, P2(I=1, A=1, B=0), (1, 3), g)

        memo = {}
        convergence_study(make, grid, levels=3, count=3, memo=memo)
        assert_same_result(solve_1d(make(grid), 3, memo), solve_1d(make(grid), 3))


class TestBoundednessScan:
    def test_aff_aff_unbounded_trend(self):
        rows = boundedness_scan(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0),
            [(k, k) for k in range(1, 7)], grid=Grid1D.from_spec(40.0, 799),
        )
        energies = [r.energy for r in rows]
        assert all(e is not None for e in energies)
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_met_aff_bounded(self):
        rows = boundedness_scan(
            ModelKind.MET_AFF, P2(I=2, A=1, B=0),
            [(k, k) for k in range(1, 7)], grid=Grid1D.from_spec(40.0, 799),
        )
        assert all(r.energy is not None and r.energy > 0.0 for r in rows)

    def test_trivial_channel_nonnegative(self):
        rows = boundedness_scan(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), [(0, 0)],
            grid=Grid1D.from_spec(40.0, 499),
        )
        assert rows[0].energy >= -1e-8

    def test_partial_results_and_ordering(self):
        rows = boundedness_scan(
            ModelKind.AFF_AFF, P2(I=1, A=1, B=0), [(2, 0), (0.5, 0), (0, 1)],
            grid=Grid1D.from_spec(20.0, 199),
        )
        assert [r.channel for r in rows] == [(0, 1), (0.5, 0), (2, 0)]
        bad = [r for r in rows if r.error is not None]
        assert len(bad) == 1 and bad[0].channel == (0.5, 0)
        assert bad[0].energy is None

    def test_empty_channels_rejected(self):
        with pytest.raises(DomainError):
            boundedness_scan(ModelKind.AFF_AFF, P2(I=1, A=1, B=0), [])

    def test_label_twins_solved_once_per_scan(self, monkeypatch):
        # aff-aff (m, n), (n, m), (-m, -n), (-n, -m) share one operator
        twins = [(1, 3), (3, 1), (-1, -3), (-3, -1)]
        grid = Grid1D.from_spec(30.0, 199)
        params = P2(I=1, A=1, B=0)
        cold = [
            solve_1d(assemble_2d_channel(ModelKind.AFF_AFF, params, ch, grid), 2)
            for ch in sorted(twins)
        ]
        calls = count_tridiagonal_solves(monkeypatch)
        for _ in range(2):  # nothing is kept from one scan to the next
            calls.clear()
            rows = boundedness_scan(ModelKind.AFF_AFF, params, twins, count=2, grid=grid)
            assert len(calls) == 2  # the grid and its margin grid
            for row, ref in zip(rows, cold):
                assert_same_result(row.result, ref)


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

    def test_double_ground_level_against_dense_matrix(self, monkeypatch):
        # an exactly double ground level: one Krylov space finds one copy, so
        # the loose check must fall through to a tight rerun for the other
        import scipy.sparse.linalg

        op = assemble_nd_channel(
            ModelKind.MET_AFF, ModelParams(I=2, A=1, B=0.5, n=3), (1, 0), GridND(5, -3.0, 3.0)
        )
        A = op.symmetric_matrix()
        assert A.shape == (375, 375)
        dense = scipy.linalg.eigvalsh(A.toarray())
        assert dense[1] - dense[0] < 1e-12 * dense[0]
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
        assert a.node_counts == ()
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

    def test_restart_limit_raises_numerical_error(self, spin1_channel_n13):
        with pytest.raises(NumericalError, match="did not converge"):
            solve_nd(spin1_channel_n13, 4, maxiter=1)

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
