import math

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.transform import Rotation

from affbody.errors import CapacityError, DomainError
from affbody.representations import RepLabel, casimir, generators
from affbody.hamiltonians import (
    KLEIN_ROTATIONS,
    MAX_FIELD_ELEMENTS,
    TWIN_ROTATION,
    ChannelOperator1D,
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    NDChannelOperator,
    PotentialKind,
    PotentialSpec,
    WeightKind1D,
    ZERO_POTENTIAL,
    _spin_blocks,
    assemble_2d_channel,
    assemble_nd_channel,
    assemble_q_sector,
    check_gates,
    check_grid_start,
    derived_constants,
    effective_weight_potential,
    entry_scale,
    klein_bases,
    largest_weight,
    planar_labels,
    potential,
    spatial_labels,
    spin_action,
    symmetrize,
    symmetry_defect,
)


def params2(I=2.0, A=1.0, B=0.0, hbar=1.0):
    return ModelParams(I=I, A=A, B=B, hbar=hbar, n=2)


def params3(I=3.0, A=1.0, B=1.0, hbar=1.0):
    return ModelParams(I=I, A=A, B=B, hbar=hbar, n=3)


class TestDerivedConstants:
    def test_reference_values_n2(self):
        cons = derived_constants(params2(I=2, A=1, B=0))
        assert cons.alpha == 3.0
        assert math.isinf(cons.beta)
        assert cons.mu == pytest.approx(1.5)
        assert cons.beta_tilde == pytest.approx(6.0)

    def test_reference_values_n3(self):
        cons = derived_constants(params3(I=3, A=1, B=1))
        assert cons.alpha == 4.0
        assert cons.beta == pytest.approx(-28.0)
        assert cons.mu == pytest.approx(8.0 / 3.0)
        assert cons.beta_tilde == pytest.approx(21.0)

    def test_degenerate_mu(self):
        cons = derived_constants(params2(I=1, A=1))
        assert cons.mu == 0.0
        assert math.isinf(derived_constants(params2(I=0, A=1)).mu)

    def test_beta_tilde_identity(self):
        # 1/(n alpha) + 1/beta = 1/beta~ ties the three constants together
        rng = np.random.default_rng(7)
        for _ in range(20):
            I, A = rng.uniform(0.5, 3.0, size=2)
            B = rng.uniform(-0.1, 2.0)
            if B == 0.0:
                continue
            for n in (2, 3):
                cons = derived_constants(ModelParams(I=I, A=A, B=B, n=n))
                lhs = 1.0 / (n * cons.alpha) + 1.0 / cons.beta
                assert lhs == pytest.approx(1.0 / cons.beta_tilde, rel=1e-12)

    def test_unpacks_as_four_tuple(self):
        alpha, beta, mu, beta_tilde = derived_constants(params2())
        assert (alpha, mu) == (3.0, 1.5)


class TestGates:
    def test_aff_aff_gates(self):
        with pytest.raises(DomainError, match="A"):
            check_gates(ModelKind.AFF_AFF, params2(A=-1.0))
        with pytest.raises(DomainError, match="A \\+ nB"):
            check_gates(ModelKind.AFF_AFF, params2(A=1.0, B=-1.0))
        check_gates(ModelKind.AFF_AFF, params2(A=1.0, B=10.0))

    def test_mixed_model_gates(self):
        with pytest.raises(DomainError, match="I"):
            check_gates(ModelKind.MET_AFF, params2(I=-2.0))
        with pytest.raises(DomainError, match="alpha"):
            check_gates(ModelKind.MET_AFF, params2(I=1.0, A=-2.0))
        with pytest.raises(DomainError, match="beta_tilde"):
            check_gates(ModelKind.AFF_MET, ModelParams(I=1, A=1, B=-1, n=3))
        with pytest.raises(DomainError, match="mu"):
            check_gates(ModelKind.MET_AFF, params2(I=1.0, A=1.0))

    def test_dalembert_gate(self):
        with pytest.raises(DomainError, match="I"):
            check_gates(ModelKind.DALEMBERT, params2(I=0.0))
        check_gates(ModelKind.DALEMBERT, params2(I=2.0, A=-5.0, B=-5.0))


class TestPotentials:
    def test_harmonic(self):
        spec = PotentialSpec(PotentialKind.HARMONIC, k=2.0)
        assert potential(spec, 1.0) == pytest.approx(1.0)
        assert potential(PotentialSpec(PotentialKind.HARMONIC, k=2.0, q0=1.0), 1.0) == 0.0
        vals = potential(spec, np.array([0.0, 2.0]))
        assert vals == pytest.approx([0.0, 4.0])

    def test_finite_well(self):
        spec = PotentialSpec(PotentialKind.FINITE_WELL, depth=5.0, width=2.0)
        assert potential(spec, 0.0) == -5.0
        assert potential(spec, 0.99) == -5.0
        assert potential(spec, 1.0) == -5.0
        assert potential(spec, 3.0) == 0.0

    def test_zero(self):
        assert potential(ZERO_POTENTIAL, 17.0) == 0.0
        assert np.all(potential(ZERO_POTENTIAL, np.linspace(0, 1, 5)) == 0.0)

    def test_negative_width_rejected(self):
        with pytest.raises(DomainError, match="width"):
            PotentialSpec(PotentialKind.FINITE_WELL, depth=5.0, width=-1.0)


class TestGrid1D:
    def test_points_and_step(self):
        g = Grid1D.from_spec(5.0, 4)
        assert g.step == pytest.approx(1.0)
        assert g.points == pytest.approx([1.0, 2.0, 3.0, 4.0])
        assert g.midpoints == pytest.approx([0.5, 1.5, 2.5, 3.5, 4.5])

    def test_refine_halves_step_and_nests(self):
        g = Grid1D.from_spec(8.0, 15)
        f = g.refine()
        assert f.step == pytest.approx(g.step / 2.0)
        fine = set(np.round(f.points, 12))
        assert all(np.round(x, 12) in fine for x in g.points)
        assert f.coarsen() == g

    def test_shifted_box(self):
        g = Grid1D(-3.0, 3.0, 5)
        assert g.points == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            Grid1D(1.0, 1.0, 5)

    def test_capacity_refused_before_any_array(self):
        assert Grid1D(0.0, 1.0, MAX_FIELD_ELEMENTS).npoints == MAX_FIELD_ELEMENTS
        with pytest.raises(CapacityError, match=str(MAX_FIELD_ELEMENTS + 1)):
            Grid1D(0.0, 1.0, MAX_FIELD_ELEMENTS + 1)
        with pytest.raises(CapacityError):
            Grid1D(0.0, 1.0, MAX_FIELD_ELEMENTS // 2).refine()


def sinh_operator(grid=Grid1D(-1.0, 1.0, 3), diag=(0.0, 0.0, 0.0), c=1.0):
    """A sinh-weighted operator; on [-1, 1] with 3 nodes its weight vanishes at 0."""
    return ChannelOperator1D(ModelKind.AFF_AFF, (0, 0), grid, WeightKind1D.SINH, c, diag, 0.0, 0.0)


class TestValidation:
    """The constructors and forms of this module refuse what they cannot represent."""

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: ModelParams(I=1.0, A=math.nan, B=0.0), "A must be finite"),
            (lambda: ModelParams(I=1.0, A=1.0, B=0.0, n=4), "spatial dimension"),
            (lambda: ModelParams(I=1.0, A=1.0, B=0.0, hbar=0.0), "hbar"),
            (lambda: ModelParams(I=1.0, A=1.0, B=0.0, hbar=-1.0), "hbar"),
            # hbar**2 would overflow to inf, or underflow to 0
            (lambda: ModelParams(I=1.0, A=1.0, B=0.0, hbar=1e200), "hbar"),
            (lambda: ModelParams(I=1.0, A=1.0, B=0.0, hbar=1e-200), "hbar"),
            (lambda: GridND(5, 1.0, 1.0), "q_max > q_min"),
            (lambda: sinh_operator(diag=np.zeros(4)), "does not match the grid"),
            (lambda: sinh_operator(c=0.0), "kinetic coefficient"),
            (lambda: sinh_operator().tridiagonal_weighted(), "weight must be positive"),
            (lambda: symmetrize(sinh_operator()), "weight vanishes"),
        ],
        ids=[
            "params-non-finite",
            "params-n",
            "hbar-zero",
            "hbar-negative",
            "hbar-square-overflows",
            "hbar-square-underflows",
            "gridnd-empty-box",
            "diag-length",
            "kinetic-coeff",
            "weighted-form-weight",
            "symmetrize-weight",
        ],
    )
    def test_domain_error(self, build, match):
        with pytest.raises(DomainError, match=match):
            build()

    def test_hbar_with_a_normal_square_accepted(self):
        for hbar in (1e150, 1e-150):
            assert ModelParams(I=1.0, A=1.0, B=0.0, hbar=hbar).hbar == hbar


def hyperbolic_diag(op, sh, ch, shift=0.0):
    """sh/sh^2(x/2) - ch/ch^2(x/2) + shift on the operator's nodes."""
    half = 0.5 * op.grid.points
    return sh / np.sinh(half) ** 2 - ch / np.cosh(half) ** 2 + shift


class TestAssemble2D:
    def test_trivial_channel_is_pure_laplacian(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0, B=0.0), (0, 0), Grid1D.from_spec(10.0, 20)
        )
        assert op.kinetic_coeff == pytest.approx(1.0)
        assert np.all(op.diag_potential == 0.0)
        assert op.weight_kind is WeightKind1D.SINH
        assert op.q_sector.coeff == pytest.approx(0.25)
        assert op.threshold == pytest.approx(0.25)

    def test_equal_label_channel_has_no_repulsive_core(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0), (1, 1), Grid1D.from_spec(10.0, 20)
        )
        np.testing.assert_allclose(op.diag_potential, hyperbolic_diag(op, 0.0, 0.25), rtol=1e-14)
        # purely attractive ch^-2 well on top of the weight
        assert np.all(op.diag_potential < 0.0)

    def test_met_aff_21_coefficients(self):
        op = assemble_2d_channel(
            ModelKind.MET_AFF, params2(I=2, A=1, B=0), (2, 1), Grid1D.from_spec(10.0, 20)
        )
        assert op.constant_shift == pytest.approx(8.0 / 3.0)
        np.testing.assert_allclose(
            op.diag_potential, hyperbolic_diag(op, 1.0 / 48.0, 9.0 / 48.0, 8.0 / 3.0), rtol=1e-14
        )
        assert op.kinetic_coeff == pytest.approx(1.0 / 3.0)
        assert op.q_sector.coeff == pytest.approx(1.0 / 12.0)
        assert op.threshold == pytest.approx(8.0 / 3.0 + 1.0 / 12.0)

    def test_aff_met_swaps_the_gyration_label(self):
        op = assemble_2d_channel(
            ModelKind.AFF_MET, params2(I=2, A=1, B=0), (2, 1), Grid1D.from_spec(10.0, 20)
        )
        assert op.constant_shift == pytest.approx(2.0 / 3.0)

    def test_label_swap_leaves_x_sector_unchanged(self):
        g = Grid1D.from_spec(12.0, 25)
        a = assemble_2d_channel(ModelKind.AFF_AFF, params2(A=1.5, B=0.5), (3, 1), g)
        b = assemble_2d_channel(ModelKind.AFF_AFF, params2(A=1.5, B=0.5), (1, 3), g)
        # (n - m)^2 / 16A = 1/6 and (n + m)^2 / 16A = 2/3 for both
        np.testing.assert_allclose(a.diag_potential, hyperbolic_diag(a, 1 / 6, 2 / 3), rtol=1e-14)
        assert a.diag_potential.tobytes() == b.diag_potential.tobytes()

    def test_dilatational_coefficient_reconciliation(self):
        # -1/(4A) + B/(2A(A+2B)) collapses to -1/(4(A+2B)) identically
        rng = np.random.default_rng(3)
        for _ in range(25):
            A = rng.uniform(0.2, 3.0)
            B = rng.uniform(-0.05, 2.0)
            lhs = -1.0 / (4.0 * A) + B / (2.0 * A * (A + 2.0 * B))
            assert lhs == pytest.approx(-1.0 / (4.0 * (A + 2.0 * B)), rel=1e-12)

    def test_dalembert_channel(self):
        op = assemble_2d_channel(
            ModelKind.DALEMBERT, params2(I=2.0), (2, 1), Grid1D.from_spec(10.0, 20)
        )
        assert op.weight_kind is WeightKind1D.LINEAR
        assert op.kinetic_coeff == pytest.approx(0.5)
        x = op.grid.points
        np.testing.assert_allclose(op.diag_potential, (1.0 / 8.0) / x**2, rtol=1e-14)
        assert op.q_sector.inv_sq_coeff == pytest.approx(9.0 / 8.0)
        assert op.q_sector.weight_kind is WeightKind1D.LINEAR
        assert op.threshold == 0.0
        with pytest.raises(DomainError):
            assemble_2d_channel(
                ModelKind.DALEMBERT, params2(), (2, 1), Grid1D(-1.0, 1.0, 5)
            )

    def test_shear_potential_enters_diagonal(self):
        g = Grid1D.from_spec(10.0, 20)
        bare = assemble_2d_channel(ModelKind.AFF_AFF, params2(A=1.0), (0, 0), g)
        well = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0), (0, 0), g,
            shear_potential=PotentialSpec(PotentialKind.FINITE_WELL, depth=5.0, width=2.0),
        )
        np.testing.assert_allclose(
            well.diag_potential - bare.diag_potential,
            np.where(np.abs(g.points) <= 1.0, -5.0, 0.0),
        )

    def test_bad_inputs(self):
        g = Grid1D.from_spec(10.0, 20)
        with pytest.raises(DomainError):
            assemble_2d_channel(ModelKind.AFF_AFF, params2(), (0.5, 0), g)
        with pytest.raises(DomainError):
            assemble_2d_channel(ModelKind.AFF_AFF, params3(), (0, 0), g)


class TestLabelRules:
    """One rule per dimension, shared by the assemblers and the config parser."""

    @pytest.mark.parametrize(
        "channel", [(0.5, 0), (1e300, 0), (0, 2**53 + 1), (math.nan, 1), (1, -math.inf)]
    )
    def test_planar_rule_rejects(self, channel):
        with pytest.raises(DomainError, match="integers within 2\\*\\*53"):
            planar_labels(channel)
        with pytest.raises(DomainError, match="integers within 2\\*\\*53"):
            assemble_2d_channel(ModelKind.AFF_AFF, params2(), channel, Grid1D.from_spec(10.0, 20))

    def test_planar_rule_accepts_integers_up_to_2_53(self):
        assert planar_labels((3.0, -(2**53))) == (3, -(2**53))
        assert type(planar_labels((3.0, 2))[0]) is int
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(), (2**53, -(2**53)), Grid1D.from_spec(10.0, 20)
        )
        assert np.all(np.isfinite(op.diag_potential))

    @pytest.mark.parametrize("labels", [(-0.5, 0), (0.3, 0), (math.nan, 0), (0, math.inf)])
    def test_spatial_rule_rejects(self, labels):
        with pytest.raises(DomainError, match="half-integers"):
            spatial_labels(labels)
        with pytest.raises(DomainError, match="half-integers"):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), labels, GridND(4, -1, 1))

    def test_spatial_rule_caps_the_spin(self):
        assert spatial_labels((10, 9.5)) == (10, 9.5)
        with pytest.raises(CapacityError):
            spatial_labels((10.5, 0))


class TestQSector:
    def test_flat_sector_materialization(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0, B=0.0), (1, 0), Grid1D.from_spec(10.0, 20),
            dil_potential=PotentialSpec(PotentialKind.HARMONIC, k=2.0),
        )
        qop = assemble_q_sector(op.q_sector, Grid1D(-6.0, 6.0, 11))
        assert qop.weight_kind is WeightKind1D.FLAT
        assert qop.kinetic_coeff == pytest.approx(0.25)
        np.testing.assert_allclose(qop.diag_potential, qop.grid.points**2)

    def test_linear_sector_needs_positive_axis(self):
        op = assemble_2d_channel(
            ModelKind.DALEMBERT, params2(I=2.0), (2, 1), Grid1D.from_spec(10.0, 20)
        )
        qop = assemble_q_sector(op.q_sector, Grid1D.from_spec(10.0, 20))
        x = qop.grid.points
        np.testing.assert_allclose(qop.diag_potential, (9.0 / 8.0) / x**2)
        with pytest.raises(DomainError):
            assemble_q_sector(op.q_sector, Grid1D(-1.0, 1.0, 5))

    def test_every_dalembert_assembler_checks_the_grid_start(self):
        # one rule for the x-sector, the q-sector and the n=3 operator
        op = assemble_2d_channel(ModelKind.DALEMBERT, params2(), (2, 1), Grid1D(0.0, 1.0, 5))
        below = Grid1D(-1.0, 1.0, 5)
        for call in (
            lambda: assemble_2d_channel(ModelKind.DALEMBERT, params2(), (2, 1), below),
            lambda: assemble_q_sector(op.q_sector, below),
            lambda: assemble_nd_channel(ModelKind.DALEMBERT, params3(), (0, 0), GridND(3, -1, 1)),
        ):
            with pytest.raises(DomainError, match="isotropic model lives on positive coordinates"):
                call()
        check_grid_start(ModelKind.DALEMBERT, 0.0)
        check_grid_start(ModelKind.AFF_AFF, -1.0)


class TestWeightedForm:
    def test_weighted_symmetry(self):
        op = assemble_2d_channel(
            ModelKind.MET_AFF, params2(I=2, A=1, B=0), (2, 1), Grid1D.from_spec(15.0, 40)
        )
        kdiag, koff, P = op.tridiagonal_weighted()
        K = np.diag(kdiag) + np.diag(koff, 1) + np.diag(koff, -1)
        H = K / P[:, None]  # action of the operator itself
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.normal(size=op.grid.npoints) + 1j * rng.normal(size=op.grid.npoints)
            v = rng.normal(size=op.grid.npoints) + 1j * rng.normal(size=op.grid.npoints)
            a = np.sum(u.conj() * (H @ v) * P)
            b = np.sum(v.conj() * (H @ u) * P)
            assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(a))

    def test_symmetric_tridiagonal_matches_generalized_problem(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0, B=0.5), (2, 0), Grid1D.from_spec(12.0, 60)
        )
        kdiag, koff, P = op.tridiagonal_weighted()
        K = np.diag(kdiag) + np.diag(koff, 1) + np.diag(koff, -1)
        ref = scipy.linalg.eigh(K, np.diag(P), eigvals_only=True)
        d, e = op.symmetric_tridiagonal()
        got = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_weight_values(self):
        g = Grid1D.from_spec(3.0, 5)
        op = assemble_2d_channel(ModelKind.AFF_AFF, params2(A=1.0), (0, 0), g)
        np.testing.assert_allclose(op.weight, np.abs(np.sinh(g.points)))
        np.testing.assert_allclose(op.weight_mid, np.abs(np.sinh(g.midpoints)))


class TestSymmetrize:
    def test_sinh_effective_potential(self):
        x = np.array([0.5, 1.0, 3.0, 50.0])
        u = effective_weight_potential(WeightKind1D.SINH, 2.0, x)
        np.testing.assert_allclose(u, 2.0 * (0.25 - 0.25 / np.sinh(x) ** 2))
        assert u[-1] == pytest.approx(0.5)  # c/4 plateau at large x

    def test_linear_effective_potential(self):
        x = np.array([0.5, 2.0])
        u = effective_weight_potential(WeightKind1D.LINEAR, 1.0, x)
        np.testing.assert_allclose(u, [-1.0, -1.0 / 16.0])

    def test_flat_unchanged(self):
        x = np.linspace(1.0, 5.0, 7)
        assert np.all(effective_weight_potential(WeightKind1D.FLAT, 3.0, x) == 0.0)

    def test_symmetrize_adds_u_eff(self):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0), (1, 1), Grid1D.from_spec(20.0, 50)
        )
        flat = symmetrize(op)
        u = effective_weight_potential(WeightKind1D.SINH, op.kinetic_coeff, op.grid.points)
        np.testing.assert_allclose(flat.diag_potential, op.diag_potential + u)
        assert flat.threshold == op.threshold

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_flat_form_is_the_three_point_form(self, kind):
        # bit for bit 2c/h^2 + diag and -c/h^2, for the x-sector and the q-sector
        grid = Grid1D.from_spec(20.0, 99)
        op = assemble_2d_channel(kind, params2(B=0.5), (1, 3), grid)
        for sector in (op, assemble_q_sector(op.q_sector, grid)):
            flat = symmetrize(sector)
            h2, c = grid.step**2, flat.kinetic_coeff
            diag, off = flat.symmetric_tridiagonal()
            assert diag.tobytes() == (2.0 * c / h2 + flat.diag_potential).tobytes()
            assert off.tobytes() == np.full(grid.npoints - 1, -c / h2).tobytes()

    def test_spectra_agree_between_forms(self):
        # same operator in weighted and flat guise; the discretizations
        # differ, so only O(h^2) agreement is expected at fixed grid
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, params2(A=1.0), (1, 3), Grid1D.from_spec(30.0, 500)
        )
        dw, ew = op.symmetric_tridiagonal()
        df, ef = symmetrize(op).symmetric_tridiagonal()
        a = scipy.linalg.eigh_tridiagonal(dw, ew, select="i", select_range=(0, 2))[0]
        b = scipy.linalg.eigh_tridiagonal(df, ef, select="i", select_range=(0, 2))[0]
        np.testing.assert_allclose(a, b, atol=1e-4)


def dense_nd(op):
    """Materialize the matrix-free operator column by column."""
    size = int(np.prod(op.shape))
    H = np.zeros((size, size), dtype=complex)
    for col in range(size):
        e = np.zeros(op.shape, dtype=complex)
        e.reshape(-1)[col] = 1.0
        H[:, col] = op.apply(e).reshape(-1)
    return H


def reference_apply(op, f):
    """H f term by term in complex arithmetic, with one einsum per generator
    product; the reference for the operator's real-arithmetic action."""
    from affbody.representations import RepLabel, generators

    h2 = op.grid.step**2
    P = op.weight[..., None, None]
    out = np.zeros(op.shape, dtype=complex)
    for a in range(3):
        lo = tuple(slice(None, -1) if d == a else slice(None) for d in range(5))
        hi = tuple(slice(1, None) if d == a else slice(None) for d in range(5))
        mid = op._flux[a][..., None, None]
        m_low, m_upp = mid[lo], mid[hi]
        div = (m_low + m_upp) * f
        div[hi] -= m_low[hi] * f[lo]
        div[lo] -= m_upp[lo] * f[hi]
        out += (op.kinetic_coeff / h2) * div / P
    diag = -2.0 * f.astype(complex)
    core, back = (slice(1, None),) * 3, (slice(None, -1),) * 3
    diag[core] += f[back]
    diag[back] += f[core]
    out += (op.q2_coeff / h2) * diag + op.casimir_shift * f
    gs = generators(RepLabel.su2(op.labels[0]), op.params.hbar)
    gj = generators(RepLabel.su2(op.labels[1]), op.params.hbar)
    axes = op.grid.axes
    for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        qa = axes[a].reshape([-1 if d == a else 1 for d in range(3)])
        qb = axes[b].reshape([-1 if d == b else 1 for d in range(3)])
        S, J = gs[c], gj[c]
        S2f = np.einsum("ab,...bk->...ak", S @ S, f)
        fJ2 = np.einsum("...ak,kl->...al", f, J @ J)
        SfJ = np.einsum("ab,...bk,kl->...al", S, f, J)
        if op.kind is ModelKind.DALEMBERT:
            minus, plus = 1.0 / (qa - qb) ** 2, 1.0 / (qa + qb) ** 2
        else:
            minus = 1.0 / np.sinh(0.5 * (qa - qb)) ** 2
            plus = -1.0 / np.cosh(0.5 * (qa - qb)) ** 2
        out += op.pair_coeff * (
            minus[..., None, None] * (S2f + fJ2 - 2.0 * SfJ)
            + plus[..., None, None] * (S2f + fJ2 + 2.0 * SfJ)
        )
    return out


ALL_MODELS = [
    (ModelKind.AFF_AFF, GridND(5, -1.5, 1.5)),
    (ModelKind.MET_AFF, GridND(5, -1.5, 1.5)),
    (ModelKind.AFF_MET, GridND(5, -1.5, 1.5)),
    (ModelKind.DALEMBERT, GridND(5, 0.0, 3.0)),
]
LABELS = [(0, 0), (0.5, 0), (0, 1), (0.5, 0.5), (1, 1), (1.5, 0.5), (2, 1)]


class TestApplyArithmetic:
    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    @pytest.mark.parametrize("labels", LABELS)
    def test_matches_complex_reference(self, kind, grid, labels):
        op = assemble_nd_channel(kind, params3(I=3, A=1, B=1), labels, grid)
        f = np.random.default_rng(21).normal(size=op.shape)
        want = reference_apply(op, f)
        assert np.max(np.abs(want.imag)) == 0.0
        got = op.apply(f)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want.real)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    @pytest.mark.parametrize("labels", LABELS)
    def test_complex_input_is_linear(self, kind, grid, labels):
        op = assemble_nd_channel(kind, params3(I=3, A=1, B=1), labels, grid)
        rng = np.random.default_rng(22)
        g = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        got = op.apply(g)
        split = op.apply(g.real) + 1j * op.apply(g.imag)
        assert np.max(np.abs(got - split)) <= 1e-14 * np.max(np.abs(split))


class TestSymmetricMatrix:
    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    @pytest.mark.parametrize("labels", LABELS)
    def test_is_the_sqrt_weight_similarity_of_apply(self, kind, grid, labels):
        grid = GridND(4, grid.q_min, grid.q_max)
        op = assemble_nd_channel(kind, params3(I=3, A=1, B=1), labels, grid)
        root = np.repeat(np.sqrt(op.weight).reshape(-1), op.shape[3] * op.shape[4])
        want = np.stack(
            [root * op.apply((e / root).reshape(op.shape)).reshape(-1) for e in np.eye(len(root))],
            axis=1,
        )
        got = op.symmetric_matrix().toarray()
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(got - got.T)) <= 1e-14 * np.max(np.abs(got))

    def test_assembly_memory_is_a_small_multiple_of_the_matrix(self):
        import tracemalloc

        par = ModelParams(I=2, A=1, B=0.5, n=3)
        assemble_nd_channel(ModelKind.MET_AFF, par, (1, 1), GridND(3, -3, 3)).symmetric_matrix()
        # the whole matrix, and block 0 as solve_nd builds it, each on a fresh operator
        for build in (lambda op: op.symmetric_matrix(), lambda op: op.block_matrix(0)):
            op = assemble_nd_channel(ModelKind.MET_AFF, par, (1, 1), GridND(9, -3, 3))
            op._flux
            tracemalloc.start()
            try:
                A = build(op)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert A.indices.dtype == A.indptr.dtype == np.int32
            assert peak <= 3 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

    def test_capacity_counts_nonzeros_before_assembly(self):
        # the amplitude field alone fits; the matrix's nonzeros do not
        grid = GridND(40, -1, 1)
        assert grid.npoints**3 * 21 * 21 <= MAX_FIELD_ELEMENTS
        with pytest.raises(CapacityError, match="nonzeros"):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), (10, 10), grid)

    def test_capacity_bounds_the_largest_solved_block(self, monkeypatch):
        # about 190M nonzeros in all and 48M in the largest Klein block:
        # solve_nd can build every block, the whole matrix is refused
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(), (10, 10), GridND(30, -1, 1))
        calls, built = [], []
        assemble = type(op)._assemble
        monkeypatch.setattr(
            type(op),
            "_assemble",
            lambda self, k: calls.append(
                _spin_blocks(self.labels, self.params.hbar)[k][0].shape[-1]
            )
            or built.append(assemble(self, k)),
        )
        with pytest.raises(CapacityError, match="nonzeros") as refused:
            op.symmetric_matrix()
        assert 1.8e8 < int(str(refused.value).split()[2]) < 2.0e8
        assert calls == [21 * 21] and built == []
        assert "_lattice" not in vars(op)  # refused before even K was built


EQUAL_HALFNESS = [v for v in LABELS if (2 * v[0] - 2 * v[1]) % 2 == 0]
TWIN_MODELS = [ModelKind.AFF_AFF, ModelKind.MET_AFF, ModelKind.AFF_MET]


def reference_projectors(labels) -> tuple:
    """P_k = 1/4 sum over K4 of chi_k(W) U(W), for k = 0..3, with U from `spin_action`.

    chi_0 is the trivial character and chi_(1+a) the one that is +1 on the
    rotation about axis a.  They project onto the Klein blocks only for
    labels of equal halfness; otherwise the lifts of K4 do not commute.
    """
    Us = [spin_action(labels, W) for W in KLEIN_ROTATIONS]
    eye = np.eye(len(Us[0]))
    return tuple(
        (eye + sum((1.0 if k in (0, 1 + a) else -1.0) * U for a, U in enumerate(Us))) / 4.0
        for k in range(4)
    )


def rotation_matrix(k):
    # a writeable copy, as scipy's Rotation refuses a read-only buffer
    return Rotation.from_rotvec(np.array(k)).as_matrix()


class TestKleinBlocks:
    @pytest.mark.parametrize("labels", LABELS)
    def test_spin_action_at_the_identity_is_the_identity(self, labels):
        U = spin_action(labels, np.zeros(3))
        d = int(2 * labels[0] + 1) * int(2 * labels[1] + 1)
        assert U.shape == (d, d)
        assert np.max(np.abs(U - np.eye(d))) <= 1e-14

    @pytest.mark.parametrize("labels", LABELS)
    def test_spin_action_multiplies_as_the_klein_rotations(self, labels):
        # W0 W1 = W1 W0 = W2; the lifts U(W0), U(W1) commute only for labels of equal
        # halfness, and anticommute otherwise
        W0, W1, W2 = (rotation_matrix(k) for k in KLEIN_ROTATIONS)
        assert np.max(np.abs(W0 @ W1 - W2)) <= 1e-15 and np.max(np.abs(W1 @ W0 - W2)) <= 1e-15
        U0, U1, U2 = (spin_action(labels, W) for W in KLEIN_ROTATIONS)
        assert np.max(np.abs(U0 @ U1 - U2)) <= 1e-14
        sign = 1.0 if labels in EQUAL_HALFNESS else -1.0
        assert np.max(np.abs(U1 @ U0 - sign * U2)) <= 1e-14

    @pytest.mark.parametrize("labels", LABELS)
    def test_spin_action_is_unitary(self, labels):
        for W in KLEIN_ROTATIONS + (TWIN_ROTATION,):
            U = spin_action(labels, W)
            assert np.max(np.abs(U @ U.conj().T - np.eye(len(U)))) <= 1e-14

    @pytest.mark.parametrize("labels", LABELS)
    def test_twin_rotation_squares_to_the_klein_rotation_about_axis_1(self, labels):
        # T is the quarter turn about axis 1, so T^2 = W1; its lift squares to U(W1) for
        # labels of equal halfness and to -U(W1) otherwise, the sign of the Klein lifts'
        # commutator
        T, W1 = rotation_matrix(TWIN_ROTATION), rotation_matrix(KLEIN_ROTATIONS[1])
        assert np.max(np.abs(T @ T - W1)) <= 1e-15
        U = spin_action(labels, TWIN_ROTATION)
        sign = 1.0 if labels in EQUAL_HALFNESS else -1.0
        assert np.max(np.abs(U @ U - sign * spin_action(labels, KLEIN_ROTATIONS[1]))) <= 1e-14

    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    @pytest.mark.parametrize("labels", EQUAL_HALFNESS)
    def test_klein_action_commutes(self, kind, grid, labels):
        op = assemble_nd_channel(kind, params3(), labels, GridND(4, grid.q_min, grid.q_max))
        for W in KLEIN_ROTATIONS:
            assert symmetry_defect(op, W) <= 1e-14

    @pytest.mark.parametrize("kind", TWIN_MODELS)
    @pytest.mark.parametrize("box", [(-3.0, 3.0), (-1.0, 5.0)])
    @pytest.mark.parametrize("labels", EQUAL_HALFNESS)
    def test_twin_map_commutes(self, kind, box, labels):
        op = assemble_nd_channel(kind, params3(), labels, GridND(4, *box))
        assert symmetry_defect(op, TWIN_ROTATION) <= 1e-14

    @pytest.mark.parametrize("labels", EQUAL_HALFNESS)
    def test_twin_map_carries_block_1_onto_block_3(self, labels):
        U = spin_action(labels, TWIN_ROTATION)
        P = reference_projectors(labels)
        assert np.max(np.abs(U @ P[1] @ U.conj().T - P[3])) <= 1e-14

    @pytest.mark.parametrize("labels", EQUAL_HALFNESS)
    def test_twin_map_breaks_dalembert(self, labels):
        # dalembert's barriers hold q^a + q^b, which q -> -q does not keep, so
        # its blocks 1 and 3 are both solved
        op = assemble_nd_channel(ModelKind.DALEMBERT, params3(), labels, GridND(4, 0.0, 3.0))
        assert symmetry_defect(op, TWIN_ROTATION) > 1e-3
        assert 2 not in op.block_copies

    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    @pytest.mark.parametrize("labels", EQUAL_HALFNESS)
    def test_block_is_the_projected_matrix(self, kind, grid, labels):
        op = assemble_nd_channel(kind, params3(), labels, GridND(4, grid.q_min, grid.q_max))
        A = op.symmetric_matrix().toarray()
        bases = klein_bases(labels)
        projectors = reference_projectors(labels)
        assert len(bases) == 4
        assert sum(V.shape[1] for V in bases) == A.shape[0] // 64
        for k, (V, P) in enumerate(zip(bases, projectors)):
            assert np.max(np.abs(P.imag)) <= 1e-14
            assert np.max(np.abs(V @ V.T - P.real), initial=0.0) <= 1e-14
            assert np.max(np.abs(V.T @ V - np.eye(V.shape[1])), initial=0.0) <= 1e-14
            if V.shape[1]:
                E = np.kron(np.eye(64), V)
                want = E.T @ A @ E
                got = op.block_matrix(k).toarray()
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "kind,labels,copies",
        [
            (ModelKind.MET_AFF, (0, 0), (1, 0, 0, 0)),
            (ModelKind.MET_AFF, (1, 0), (0, 2, 1, 0)),
            (ModelKind.AFF_AFF, (1, 1), (1, 2, 1, 0)),
            (ModelKind.DALEMBERT, (1, 1), (1, 1, 1, 1)),
            (ModelKind.AFF_MET, (0.5, 0), (1,)),
        ],
    )
    def test_block_copies(self, kind, labels, copies):
        grid = GridND(3, 0.0, 3.0)
        assert assemble_nd_channel(kind, params3(), labels, grid).block_copies == copies

    def test_empty_block_is_an_empty_matrix(self):
        # (1, 0) has no component in block 0; solve_nd skips it, building it still works
        op = assemble_nd_channel(ModelKind.MET_AFF, params3(), (1, 0), GridND(3, -1.0, 1.0))
        assert op.block_copies[0] == 0
        assert op.block_matrix(0).shape == (0, 0)

    def test_unequal_halfness_is_one_full_block(self):
        # the lifts of K4 do not commute here, so its "projectors" are not
        # real projectors at all, and the one block is the whole matrix
        P = reference_projectors((0.5, 0))
        assert np.max(np.abs(P[1].imag)) > 0.1
        assert np.max(np.abs(P[1] @ P[1] - P[1])) > 0.1
        op = assemble_nd_channel(ModelKind.MET_AFF, params3(), (0.5, 0), GridND(4, -1.5, 1.5))
        assert op.block_copies == (1,)
        block, A = op.block_matrix(0), op.symmetric_matrix()
        assert block is not A
        assert (block != A).nnz == 0

    def test_symmetry_defect_rejects_other_elements(self):
        op = assemble_nd_channel(ModelKind.MET_AFF, params3(), (1, 1), GridND(3, -1.0, 1.0))
        with pytest.raises(DomainError):
            symmetry_defect(op, np.eye(3))

    @pytest.mark.parametrize("twice_s", range(7))
    @pytest.mark.parametrize("twice_j", range(7))
    def test_klein_bases_are_exact(self, twice_s, twice_j):
        # the closed form holds only 0, +-1 and +-1/sqrt(2), and spans the blocks of the
        # projectors that spin_action's Wigner matrices give
        labels = (twice_s / 2, twice_j / 2)
        bases = klein_bases(labels)
        half = 1.0 / math.sqrt(2.0)
        for V in bases:
            assert set(np.unique(V)) <= {0.0, 1.0, -1.0, half, -half}
            assert np.max(np.abs(V.T @ V - np.eye(V.shape[1])), initial=0.0) <= 1e-15
        if (twice_s - twice_j) % 2:
            assert len(bases) == 1 and np.array_equal(bases[0], np.eye(len(bases[0])))
            return
        assert len(bases) == 4
        for V, P in zip(bases, reference_projectors(labels)):
            assert np.max(np.abs(V @ V.T - P)) <= 1e-15

    def test_klein_bases_are_cached_per_label_pair(self):
        bases = klein_bases((1, 1))
        again = klein_bases([1.0, 1.0])  # a list and floats name the same pair
        assert len(again) == len(bases)
        assert all(V is W for V, W in zip(bases, again))
        assert not any(V.flags.writeable for V in bases)

    def test_spin_terms_are_cached_per_labels_and_hbar(self):
        # the spin matrices and each block's projection and pattern do not depend on the
        # grid, so operators of one pair and hbar share them; the capacity stays per grid
        small = assemble_nd_channel(ModelKind.AFF_AFF, params3(), (10, 10), GridND(3, -1, 1))
        with pytest.raises(CapacityError, match="nonzeros"):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), [10.0, 10.0], GridND(40, -1, 1))
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(), (10, 10), GridND(5, -2, 2))
        spin = _spin_blocks(op.labels, op.params.hbar)[-1][0]
        assert spin is _spin_blocks(small.labels, small.params.hbar)[-1][0]
        assert not spin.flags.writeable
        for ours, theirs in zip(op._projected_pattern(0), small._projected_pattern(0)):
            assert ours is theirs and not ours.flags.writeable
        # another hbar has its own: Q scales as hbar^2, and so does X
        half = assemble_nd_channel(ModelKind.AFF_AFF, params3(hbar=0.5), (10, 10), GridND(3, -1, 1))
        half_spin = _spin_blocks(half.labels, half.params.hbar)[-1][0]
        assert half_spin is not spin
        np.testing.assert_array_equal(4.0 * half_spin, spin)


def loop_weight_nd(kind, axes):
    """Pair product on a mesh, pairs (0, 1), (0, 2), (1, 2), starting from ones."""
    g = np.meshgrid(*axes, indexing="ij")
    out = np.ones_like(g[0])
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if kind is ModelKind.DALEMBERT:
            out = out * np.abs((g[a] + g[b]) * (g[a] - g[b]))
        else:
            out = out * np.abs(np.sinh(g[a] - g[b]))
    return out


class TestWeightND:
    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    def test_weight_and_flux_match_loop_reference_bitwise(self, kind, grid):
        op = assemble_nd_channel(kind, params3(), (1, 1), grid)
        assert op.weight.tobytes() == loop_weight_nd(kind, grid.axes).tobytes()
        h = grid.step
        for a in range(3):
            axes = list(grid.axes)
            axes[a] = np.concatenate(([axes[a][0] - h], axes[a])) + 0.5 * h
            want = loop_weight_nd(kind, axes)
            assert op._flux[a].shape == want.shape
            assert op._flux[a].tobytes() == want.tobytes()


# per model: parameters off every special case (B != 0 where the gates allow it)
SCALE_PARAMS = {
    ModelKind.AFF_AFF: dict(I=0.0, A=1.0, B=0.5),
    ModelKind.MET_AFF: dict(I=2.0, A=1.0, B=0.5),
    ModelKind.AFF_MET: dict(I=2.0, A=1.0, B=0.5),
    ModelKind.DALEMBERT: dict(I=1.0, A=1.0, B=0.0),
}


class TestEntryScale:
    """entry_scale reads the assembler's coefficients, so it tracks the assembled entries."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "grid", [Grid1D(0.0, 10.0, 49), Grid1D(0.0, 40.0, 399), Grid1D(0.5, 8.0, 99)], ids=str
    )
    def test_planar_bound_tracks_the_largest_entry(self, kind, grid):
        par = ModelParams(n=2, **SCALE_PARAMS[kind])
        for ch in [(m, n) for m in range(-3, 4) for n in range(-3, 4)]:
            d, e = assemble_2d_channel(kind, par, ch, grid).symmetric_tridiagonal()
            largest = max(np.abs(d).max(), np.abs(e).max())
            assert 0.5 <= entry_scale(kind, par, ch, grid.step) / largest <= 50.0, ch

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "grid", [GridND(5, 0.0, 2.0), GridND(7, 0.5, 6.5), GridND(4, 0.0, 1.0)], ids=str
    )
    def test_nd_bound_tracks_the_largest_entry(self, kind, grid):
        par = ModelParams(n=3, **SCALE_PARAMS[kind])
        for labels in [(s / 2, j / 2) for s in range(7) for j in range(3)]:
            A = assemble_nd_channel(kind, par, labels, grid).symmetric_matrix()
            ratio = entry_scale(kind, par, labels, grid.step) / np.abs(A.data).max()
            assert 0.5 <= ratio <= 50.0, labels

    def test_gates_and_labels_are_checked_as_in_the_assembler(self):
        with pytest.raises(DomainError, match="gate violated"):
            entry_scale(ModelKind.AFF_AFF, params2(A=-1.0), (0, 0), 0.1)
        with pytest.raises(DomainError, match="integers"):
            entry_scale(ModelKind.AFF_AFF, params2(), (0.5, 0), 0.1)
        with pytest.raises(DomainError, match="half-integers"):
            entry_scale(ModelKind.MET_AFF, params3(), (0.25, 0), 0.1)


class TestLargestWeight:
    @pytest.mark.parametrize(
        "kind,grid",
        [
            (ModelKind.AFF_AFF, Grid1D(0.0, 10.0, 49)),
            (ModelKind.MET_AFF, Grid1D(-7.0, 3.0, 20)),
            (ModelKind.DALEMBERT, Grid1D(0.5, 8.0, 99)),
        ],
    )
    def test_planar_is_the_largest_over_nodes_and_midpoints(self, kind, grid):
        op = assemble_2d_channel(kind, params2(), (0, 2), grid)
        want = max(op.weight.max(), op.weight_mid.max())
        assert largest_weight(kind, grid) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind,grid", ALL_MODELS)
    def test_nd_is_the_largest_over_nodes_and_flux_midpoints(self, kind, grid):
        op = assemble_nd_channel(kind, params3(), (1, 1), grid)
        want = max(op.weight.max(), *(f.max() for f in op._flux))
        assert largest_weight(kind, grid) == want

    def test_overflow_reads_inf_without_a_warning(self, recwarn):
        assert largest_weight(ModelKind.AFF_AFF, Grid1D(0.0, 800.0, 999)) == math.inf
        assert largest_weight(ModelKind.MET_AFF, GridND(5, -300.0, 300.0)) == math.inf
        assert len(recwarn) == 0


class TestAssembleND:
    def test_shapes_and_weight_positivity(self):
        grid = GridND(5, -1.0, 1.0)
        for kind, par, gmin in (
            (ModelKind.AFF_AFF, params3(), None),
            (ModelKind.DALEMBERT, params3(), 0.0),
        ):
            g = grid if gmin is None else GridND(5, gmin, 2.0)
            op = assemble_nd_channel(kind, par, (0.5, 0.5), g)
            assert op.shape == (5, 5, 5, 2, 2)
            assert np.min(op.weight) > 0.0
            for a in range(3):
                assert np.min(op._flux[a]) > 0.0

    def test_offsets_avoid_coincidence(self):
        axes = GridND(8, -2.0, 2.0).axes
        for a in range(3):
            for b in range(a + 1, 3):
                d = np.abs(axes[a][:, None] - axes[b][None, :])
                assert d.min() > 1e-12

    def test_assembled_coefficients(self):
        g = GridND(4, -1.0, 1.0)
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(A=1.0, B=1.0), (1, 1), g)
        assert op.kinetic_coeff == pytest.approx(0.5)
        assert op.q2_coeff == pytest.approx(1.0 / 8.0)
        assert op.pair_coeff == pytest.approx(1.0 / 16.0)
        assert op.casimir_shift == 0.0

        op = assemble_nd_channel(ModelKind.MET_AFF, params3(I=3, A=1, B=1), (1, 0), g)
        assert op.kinetic_coeff == pytest.approx(1.0 / 8.0)
        assert op.q2_coeff == pytest.approx(1.0 / 56.0)  # -1/(2 beta), beta = -28
        assert op.casimir_shift == pytest.approx(2.0 / (2.0 * 8.0 / 3.0))

        op = assemble_nd_channel(ModelKind.AFF_MET, params3(I=3, A=1, B=0), (1, 0.5), g)
        assert op.q2_coeff == 0.0  # B = 0 drops the dilatational correction
        mu = derived_constants(params3(I=3, A=1, B=0)).mu
        assert op.casimir_shift == pytest.approx(0.5 * 1.5 / (2.0 * mu))

        op = assemble_nd_channel(ModelKind.DALEMBERT, params3(I=2.0), (1, 1), GridND(4, 0.0, 2.0))
        assert op.kinetic_coeff == pytest.approx(0.25)
        assert op.pair_coeff == pytest.approx(1.0 / 8.0)

    @pytest.mark.parametrize(
        "kind,labels",
        [
            (ModelKind.AFF_AFF, (0.0, 0.0)),
            (ModelKind.AFF_AFF, (0.5, 0.5)),
            (ModelKind.MET_AFF, (1.0, 1.0)),
            (ModelKind.AFF_MET, (0.5, 1.5)),
        ],
    )
    def test_weighted_hermiticity(self, kind, labels):
        op = assemble_nd_channel(kind, params3(I=3, A=1, B=1), labels, GridND(5, -1.5, 1.5))
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
            g = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
            a = op.weighted_inner(f, op.apply(g))
            b = op.weighted_inner(g, op.apply(f))
            assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(a))

    def test_weighted_hermiticity_dalembert(self):
        op = assemble_nd_channel(
            ModelKind.DALEMBERT, params3(I=2.0), (1.0, 0.0), GridND(5, 0.0, 3.0)
        )
        rng = np.random.default_rng(6)
        f = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        g = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        a = op.weighted_inner(f, op.apply(g))
        b = op.weighted_inner(g, op.apply(f))
        assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(a))

    def test_dense_symmetry_under_weight(self):
        op = assemble_nd_channel(
            ModelKind.AFF_AFF, params3(), (0.5, 0.5), GridND(3, -1.0, 1.0)
        )
        H = dense_nd(op)
        W = np.repeat(op.weight.reshape(-1), 4)
        M = W[:, None] * H
        assert np.max(np.abs(M - M.conj().T)) < 1e-12 * np.max(np.abs(M))

    def test_pair_terms_against_direct_formula(self):
        # delta-supported amplitude isolates the generator barriers at one node
        grid = GridND(4, -1.0, 1.0)
        par = params3()
        op = NDChannelOperator(
            ModelKind.AFF_AFF, par, (0.5, 0.5), grid,
            kinetic_coeff=0.0, q2_coeff=0.0, casimir_shift=0.0, pair_coeff=1.0 / 16.0,
        )
        # use the package's generator matrices, but rebuild the pair sum
        # from scratch: dual-axis lookup, sinh/cosh denominators, 1/16
        from affbody.representations import RepLabel, generators

        S = generators(RepLabel.su2(0.5), par.hbar)
        rng = np.random.default_rng(9)
        f = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        mask = np.zeros(op.shape)
        mask[1, 2, 0] = 1.0
        f = f * mask
        got = op.apply(f)[1, 2, 0]
        axes = grid.axes
        q = np.array([axes[0][1], axes[1][2], axes[2][0]])
        expected = np.zeros((2, 2), dtype=complex)
        block = f[1, 2, 0]
        for (a, b, c) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            sm = S[c] @ S[c] @ block + block @ S[c] @ S[c] - 2 * S[c] @ block @ S[c]
            sp = S[c] @ S[c] @ block + block @ S[c] @ S[c] + 2 * S[c] @ block @ S[c]
            x = q[a] - q[b]
            expected += (1.0 / 16.0) * (
                sm / np.sinh(0.5 * x) ** 2 - sp / np.cosh(0.5 * x) ** 2
            )
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_scalar_channel_has_no_barriers(self):
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(B=0.0), (0, 0), GridND(4, -1, 1))
        rng = np.random.default_rng(13)
        f = rng.normal(size=op.shape)
        lap_only = NDChannelOperator(
            ModelKind.AFF_AFF, params3(B=0.0), (0, 0), op.grid,
            kinetic_coeff=op.kinetic_coeff, q2_coeff=0.0, casimir_shift=0.0, pair_coeff=0.0,
        )
        np.testing.assert_allclose(op.apply(f), lap_only.apply(f), atol=1e-14)

    def test_capacity_and_validation(self):
        with pytest.raises(CapacityError):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), (11, 0), GridND(4, -1, 1))
        with pytest.raises(CapacityError):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), (0, 0), GridND(500, -1, 1))
        with pytest.raises(DomainError):
            assemble_nd_channel(ModelKind.AFF_AFF, params3(), (0.3, 0), GridND(4, -1, 1))
        with pytest.raises(DomainError):
            assemble_nd_channel(ModelKind.AFF_AFF, params2(), (0, 0), GridND(4, -1, 1))
        with pytest.raises(DomainError):
            assemble_nd_channel(ModelKind.DALEMBERT, params3(), (0, 0), GridND(4, -1, 1))
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(), (0, 0), GridND(4, -1, 1))
        with pytest.raises(DomainError):
            op.apply(np.zeros((3, 3, 3, 1, 1)))

    def test_weighted_inner_is_an_inner_product(self):
        op = assemble_nd_channel(ModelKind.AFF_AFF, params3(), (0.5, 0), GridND(4, -1, 1))
        rng = np.random.default_rng(17)
        f = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        g = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        assert op.weighted_inner(f, f).real > 0.0
        assert abs(op.weighted_inner(f, f).imag) < 1e-14
        assert op.weighted_inner(f, g) == pytest.approx(np.conj(op.weighted_inner(g, f)))


class TestCasimirShifts:
    """The constant shifts of the mixed models against the representation Casimirs.

    The gyration label (m for met-aff, n for aff-met, s resp. j in three
    dimensions) enters as hbar^2 m^2 / mu in the plane and as
    hbar^2 s(s+1) / 2mu in space; aff-aff has no shift.
    """

    @pytest.mark.parametrize(
        "kind,channel,gyro",
        [
            (ModelKind.MET_AFF, (2, 1), 2),
            (ModelKind.MET_AFF, (-3, 2), -3),
            (ModelKind.AFF_MET, (2, 1), 1),
            (ModelKind.AFF_MET, (1, -3), -3),
            (ModelKind.AFF_AFF, (2, 1), 0),
        ],
    )
    def test_planar_shift_is_the_so2_casimir_over_mu(self, kind, channel, gyro):
        par = params2(I=2.0, A=1.0, B=0.0, hbar=0.5)
        op = assemble_2d_channel(kind, par, channel, Grid1D.from_spec(10.0, 20))
        # the SO(2) Casimir of the gyration label g is (hbar g)^2
        c2 = (par.hbar * gyro) ** 2
        assert op.constant_shift == pytest.approx(c2 / derived_constants(par).mu, rel=1e-15)
        assert op.threshold - op.constant_shift == pytest.approx(0.25 * op.kinetic_coeff)

    @pytest.mark.parametrize(
        "kind,labels,gyro",
        [
            (ModelKind.MET_AFF, (1, 0.5), 1),
            (ModelKind.MET_AFF, (0.5, 2), 0.5),
            (ModelKind.AFF_MET, (1.5, 0.5), 0.5),
            (ModelKind.AFF_MET, (0, 2), 2),
            (ModelKind.AFF_AFF, (1, 1), 0),
        ],
    )
    def test_spatial_shift_is_the_su2_casimir_over_2mu(self, kind, labels, gyro):
        par = params3(I=3.0, A=1.0, B=1.0, hbar=0.5)
        op = assemble_nd_channel(kind, par, labels, GridND(4, -1.0, 1.0))
        c2 = casimir(generators(RepLabel.su2(gyro), par.hbar))
        assert np.allclose(c2, c2[0, 0] * np.eye(len(c2)), rtol=0.0, atol=1e-15)
        want = c2[0, 0].real / (2.0 * derived_constants(par).mu)
        assert op.casimir_shift == pytest.approx(want, rel=1e-14, abs=1e-300)

    # 2A(A + nB) underflows to 0 for A = B = 1e-200, which the gates accept;
    # the coefficients divide one factor at a time and stay finite
    def test_tiny_A_planar_coefficients_stay_finite(self):
        par = ModelParams(I=0.0, A=1e-200, B=1e-200, n=2)
        op = assemble_2d_channel(ModelKind.AFF_AFF, par, (1, 1), Grid1D.from_spec(10.0, 20))
        assert op.kinetic_coeff == pytest.approx(1e200, rel=1e-15)
        assert op.q_sector.coeff == pytest.approx(1.0 / 12.0 * 1e200, rel=1e-15)

    def test_tiny_A_spatial_coefficients_stay_finite(self):
        par = ModelParams(I=0.0, A=1e-200, B=1e-200, n=3)
        assert 2.0 * par.A * (par.A + 3.0 * par.B) == 0.0
        op = assemble_nd_channel(ModelKind.AFF_AFF, par, (0, 0), GridND(4, -1.0, 1.0))
        assert op.kinetic_coeff == pytest.approx(0.5e200, rel=1e-15)
        assert op.q2_coeff == pytest.approx(0.125e200, rel=1e-15)
