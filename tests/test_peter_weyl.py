"""Tests for channel expansions, scalar products and the symmetry validators."""

from pathlib import Path

import numpy as np
import pytest

from affbody.errors import DomainError
from affbody.group_geometry import weight_lambda
from affbody.hamiltonians import Grid1D, ModelKind, ModelParams, assemble_2d_channel, write_operator
from affbody.peter_weyl import (
    ChannelAmplitude,
    Expansion,
    QGrid,
    TargetSpace,
    channel_d_factors,
    dumps_amplitudes,
    evaluate,
    invariant_permutation,
    loads_amplitudes,
    read_amplitudes,
    scalar_product,
    signed_permutation_group,
    validate_superselection,
    validate_w_symmetry,
    write_amplitudes,
)
from affbody.representations import (
    Group,
    RepLabel,
    group_volume,
    haar_quadrature,
    rotation_vector_from_matrix,
    wigner_D,
    wigner_D_batch,
)
from affbody.spectra import solve_1d, write_spectrum_table


def grid2(nq1=7, nq2=6):
    return QGrid((np.linspace(-1.2, 1.1, nq1), np.linspace(-0.9, 1.3, nq2)))


def grid3(n=3):
    return QGrid(tuple(np.linspace(-1.0, 1.0, n) + 0.1 * d for d in range(3)))


def random_amplitude(rng, alpha, beta, grid):
    shape = grid.shape + (alpha.dim, beta.dim)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ChannelAmplitude(alpha, beta, grid, vals)


def trapezoid_weights(ax):
    # weight vector reproducing np.trapezoid(f, x=ax) as a plain dot product
    w = np.zeros(ax.shape)
    d = np.diff(ax)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def averaged_amplitude(alpha, beta, grid, g, elements):
    """Group-averaging oracle for the discrete symmetry constraint.

    F(q) = sum_V DL(V^{-1}) g(pi_V(q)) DR(V^{-1}) built from explicit index
    loops, with the two factors taken from one consistent rotation vector
    per element so the construction stays valid on half-integer pairs.
    """
    n = grid.ndim
    F = np.zeros(g.shape, dtype=complex)
    for V in elements:
        p = np.argmax(np.abs(V) > 0.5, axis=1)
        Vinv = V.T
        if alpha.group is Group.SO2:
            theta = np.arctan2(Vinv[1, 0], Vinv[0, 0])
            dl = np.array([[np.exp(1j * alpha.m * theta)]])
            dr = np.array([[np.exp(1j * beta.m * theta)]])
        else:
            k = rotation_vector_from_matrix(Vinv)
            dl = wigner_D(alpha, k)
            dr = wigner_D(beta, k).conj().T
        for idx in np.ndindex(*g.shape[:n]):
            pidx = tuple(idx[p[j]] for j in range(n))
            F[idx] += dl @ g[pidx] @ dr
    return ChannelAmplitude(alpha, beta, grid, F)


class TestQGrid:
    def test_shape_and_points(self):
        g = grid2(5, 4)
        assert g.ndim == 2
        assert g.shape == (5, 4)
        pts = g.points()
        assert pts.shape == (5, 4, 2)
        assert pts[2, 3, 0] == g.axes[0][2]
        assert pts[2, 3, 1] == g.axes[1][3]

    def test_weight_field_matches_scalar_weight(self):
        g = grid3(4)
        field = g.weight_field()
        pts = g.points()
        for idx in [(0, 1, 2), (3, 0, 1), (2, 2, 2)]:
            assert field[idx] == pytest.approx(weight_lambda(pts[idx]).value, rel=1e-14)

    @pytest.mark.parametrize("g", [grid2(4, 3), grid3(4)])
    def test_weight_field_matches_loop_reference_bitwise(self, g):
        # the pair product in the order (0, 1), (0, 2), (1, 2), starting from ones
        pts = g.points()
        want = np.ones(g.shape)
        for a in range(g.ndim):
            for b in range(a + 1, g.ndim):
                want = want * np.abs(np.sinh(pts[..., a] - pts[..., b]))
        assert g.weight_field().tobytes() == want.tobytes()

    def test_same_nodes(self):
        g = grid2(5, 4)
        assert g.same_nodes(grid2(5, 4))
        assert not g.same_nodes(grid2(5, 5))
        assert not g.same_nodes(grid3(4))
        shifted = QGrid((g.axes[0], g.axes[1] + 1e-12))
        assert not g.same_nodes(shifted)

    def test_scalar_product_requires_shared_nodes(self):
        rng = np.random.default_rng(12)
        label = RepLabel.so2(0)
        e1 = Expansion((random_amplitude(rng, label, label, grid2(5, 4)),))
        e2 = Expansion((random_amplitude(rng, label, label, grid2(5, 5)),))
        with pytest.raises(DomainError, match="share the deformation grid"):
            scalar_product(e1, e2)
        with pytest.raises(DomainError, match="requested grid"):
            scalar_product(e1, e1, grid=grid2(5, 5))
        assert scalar_product(e1, e1, grid=grid2(5, 4)) == scalar_product(e1, e1)

    def test_weight_field_two_axes(self):
        g = grid2(4, 3)
        field = g.weight_field()
        assert field[1, 2] == pytest.approx(
            abs(np.sinh(g.axes[0][1] - g.axes[1][2])), rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            QGrid((np.linspace(0, 1, 5),))
        with pytest.raises(DomainError):
            QGrid((np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0])))
        with pytest.raises(DomainError):
            QGrid((np.array([0.0]), np.array([0.0, 1.0])))

    def test_symmetric_flag(self):
        ax = np.linspace(-1, 1, 5)
        assert QGrid((ax, ax.copy(), ax.copy())).symmetric()
        assert not grid2().symmetric()


class TestChannelAmplitude:
    def test_shape_checks(self):
        g = grid2()
        a = RepLabel.so2(1)
        with pytest.raises(DomainError):
            ChannelAmplitude(a, a, g, np.zeros(g.shape + (1, 2)))
        with pytest.raises(DomainError):
            ChannelAmplitude(a, RepLabel.su2(0.5), g, np.zeros(g.shape + (1, 2)))

    def test_grid_dimension_matches_group_kind(self):
        with pytest.raises(DomainError):
            ChannelAmplitude(
                RepLabel.so2(0), RepLabel.so2(0), grid3(), np.zeros(grid3().shape + (1, 1))
            )
        with pytest.raises(DomainError):
            ChannelAmplitude(
                RepLabel.so3(0), RepLabel.so3(0), grid2(), np.zeros(grid2().shape + (1, 1))
            )

    def test_values_read_only(self):
        rng = np.random.default_rng(5)
        ch = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(-1), grid2())
        with pytest.raises(ValueError):
            ch.values[0, 0, 0, 0] = 1.0

    def test_expansion_rejects_duplicates_and_mixtures(self):
        rng = np.random.default_rng(6)
        ch = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(2), grid2())
        with pytest.raises(DomainError):
            Expansion((ch, ch))
        spatial = random_amplitude(rng, RepLabel.so3(1), RepLabel.so3(0), grid3())
        with pytest.raises(DomainError):
            Expansion((ch, spatial))
        with pytest.raises(DomainError):
            Expansion(())


class TestEvaluate:
    def test_trivial_channel_is_constant(self):
        g = grid3()
        c = 0.7 - 0.2j
        vals = np.full(g.shape + (1, 1), c)
        exp = Expansion((ChannelAmplitude(RepLabel.so3(0), RepLabel.so3(0), g, vals),))
        rng = np.random.default_rng(7)
        for _ in range(5):
            L = rng.uniform(-1, 1, 3)
            R = rng.uniform(-1, 1, 3)
            q = rng.uniform(-0.8, 0.8, 3) + np.array([0.1 * d for d in range(3)])
            assert evaluate(exp, L, q, R) == pytest.approx(c, abs=1e-13)

    def test_planar_unit_amplitude_gives_plane_wave(self):
        g = grid2()
        vals = np.ones(g.shape + (1, 1), dtype=complex)
        m, n = 2, -1
        exp = Expansion((ChannelAmplitude(RepLabel.so2(m), RepLabel.so2(n), g, vals),))
        for alpha, beta in [(0.0, 0.0), (0.3, 1.9), (2.5, -0.7)]:
            want = np.exp(1j * m * alpha) * np.exp(1j * n * beta)
            assert evaluate(exp, alpha, (0.1, 0.2), beta) == pytest.approx(want, abs=1e-13)

    def test_two_channels_add(self):
        rng = np.random.default_rng(8)
        g = grid2()
        ch1 = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(0), g)
        ch2 = random_amplitude(rng, RepLabel.so2(-2), RepLabel.so2(3), g)
        both = Expansion((ch1, ch2))
        v = evaluate(both, 0.4, (0.0, 0.1), 1.1)
        v1 = evaluate(Expansion((ch1,)), 0.4, (0.0, 0.1), 1.1)
        v2 = evaluate(Expansion((ch2,)), 0.4, (0.0, 0.1), 1.1)
        assert v == pytest.approx(v1 + v2, abs=1e-13)

    def test_linear_interpolation_is_exact_on_linear_data(self):
        g = grid2()
        pts = g.points()
        f = 0.3 * pts[..., 0] - 1.1 * pts[..., 1] + 0.25
        vals = f[..., None, None].astype(complex)
        exp = Expansion((ChannelAmplitude(RepLabel.so2(0), RepLabel.so2(0), g, vals),))
        q = (0.234, -0.456)
        want = 0.3 * q[0] - 1.1 * q[1] + 0.25
        assert evaluate(exp, 0.0, q, 0.0) == pytest.approx(want, abs=1e-12)

    def test_spatial_channel_against_direct_contraction(self):
        rng = np.random.default_rng(9)
        g = grid3()
        ch = random_amplitude(rng, RepLabel.su2(0.5), RepLabel.su2(0.5), g)
        exp = Expansion((ch,), TargetSpace.DOUBLE_COVER)
        L = np.array([0.2, -0.5, 0.9])
        R = np.array([1.0, 0.3, -0.2])
        q = tuple(ax[1] for ax in g.axes)  # a grid node, interpolation exact
        want = (
            wigner_D(ch.alpha, L) @ ch.values[1, 1, 1] @ wigner_D(ch.beta, R).conj().T
        ).sum()
        assert evaluate(exp, L, q, R) == pytest.approx(want, abs=1e-12)

    def test_out_of_range_point_rejected(self):
        g = grid2()
        vals = np.ones(g.shape + (1, 1), dtype=complex)
        exp = Expansion((ChannelAmplitude(RepLabel.so2(0), RepLabel.so2(0), g, vals),))
        with pytest.raises(DomainError):
            evaluate(exp, 0.0, (5.0, 0.0), 0.0)


def smooth_field(rng, g):
    pts = g.points()
    a = rng.standard_normal(3)
    out = np.exp(-((pts[..., 0] - 0.2 * a[0]) ** 2) - (pts[..., 1] - 0.1 * a[1]) ** 2)
    return (out * (1.0 + 0.5j * a[2]))[..., None, None]


class TestScalarProduct:
    def test_zero_amplitude(self):
        g = grid2()
        z = np.zeros(g.shape + (1, 1), dtype=complex)
        e = Expansion((ChannelAmplitude(RepLabel.so2(0), RepLabel.so2(0), g, z),))
        assert scalar_product(e, e) == 0.0

    def test_disjoint_labels_vanish(self):
        rng = np.random.default_rng(10)
        g = grid2()
        e1 = Expansion((random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(0), g),))
        e2 = Expansion((random_amplitude(rng, RepLabel.so2(0), RepLabel.so2(1), g),))
        assert scalar_product(e1, e2) == 0.0

    def test_planar_parseval_against_direct_quadrature(self):
        # direct integral of conj(Psi1) Psi2 |sh(q1-q2)| over both angles and
        # the invariant grid, uniform rule in the angles (exact for the
        # trigonometric content), same trapezoid rule in q
        rng = np.random.default_rng(11)
        g = grid2(15, 17)
        labels1 = [(1, 0), (-1, 2)]
        labels2 = [(1, 0), (3, -2), (-1, 2)]
        chans1 = {
            mn: ChannelAmplitude(RepLabel.so2(mn[0]), RepLabel.so2(mn[1]), g, smooth_field(rng, g))
            for mn in labels1
        }
        chans2 = {
            mn: ChannelAmplitude(RepLabel.so2(mn[0]), RepLabel.so2(mn[1]), g, smooth_field(rng, g))
            for mn in labels2
        }
        e1 = Expansion(tuple(chans1.values()))
        e2 = Expansion(tuple(chans2.values()))

        na = 48
        angles = np.arange(na) * (2.0 * np.pi / na)

        def psi(chans):
            out = np.zeros((na, g.shape[0], g.shape[1], na), dtype=complex)
            for (m, n), ch in chans.items():
                ea = np.exp(1j * m * angles)[:, None, None, None]
                eb = np.exp(1j * n * angles)[None, None, None, :]
                out += ea * ch.values[None, ..., 0, 0, None] * eb
            return out

        w1 = trapezoid_weights(g.axes[0])
        w2 = trapezoid_weights(g.axes[1])
        wq = w1[:, None] * w2[None, :] * g.weight_field()
        integrand = np.conj(psi(chans1)) * psi(chans2)
        direct = np.einsum("aijb,ij->", integrand, wq) * (2.0 * np.pi / na) ** 2

        via_channels = scalar_product(e1, e2)
        assert abs(via_channels - direct / (2.0 * np.pi) ** 2) < 1e-8

        sym = scalar_product(e2, e1)
        assert sym == pytest.approx(np.conj(via_channels), abs=1e-12)
        norm = scalar_product(e1, e1)
        assert norm.real > 0.0
        assert abs(norm.imag) < 1e-12 * norm.real

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (RepLabel.so3(1), RepLabel.so3(0)),
            (RepLabel.su2(0.5), RepLabel.su2(0.5)),
        ],
    )
    def test_spatial_norm_against_haar_quadrature(self, alpha, beta):
        # |Psi|^2 integrated over both rotation factors with the Haar rule
        # equals Vol_L * Vol_R * N(alpha) * N(beta) times the channel norm:
        # the grand-sum contraction spends one dimension factor per side.
        rng = np.random.default_rng(12)
        g = QGrid((np.array([-0.4, 0.1, 0.5]), np.array([-0.2, 0.3]), np.array([0.0, 0.6])))
        ch = random_amplitude(rng, alpha, beta, g)
        target = TargetSpace.DOUBLE_COVER if alpha.half_integer else TargetSpace.GLPLUS
        exp = Expansion((ch,), target)

        wq = [trapezoid_weights(ax) for ax in g.axes]
        wfield = (
            wq[0][:, None, None] * wq[1][None, :, None] * wq[2][None, None, :]
        ) * g.weight_field()

        def factor_sums(order):
            # Psi(L, q, R) = u(L) . f(q) . v(R) with u the column sums of
            # D^alpha(L) and v the column sums of conj(D^beta(R)), i.e. the
            # grand contraction of D^beta(R^{-1}) over its free index
            quadL = haar_quadrature(alpha.group, order)
            quadR = haar_quadrature(beta.group, order)
            u = wigner_D_batch(alpha, quadL.vectors).sum(axis=1)
            v = wigner_D_batch(beta, quadR.vectors).conj().sum(axis=1)
            return quadL, quadR, u, v

        def gram_pair(quadL, quadR, u, v):
            GU = np.einsum("l,lb,lc->bc", quadL.weights, u, u.conj())
            GV = np.einsum("r,rc,rd->cd", quadR.weights, v, v.conj())
            return GU, GV

        def contracted(GU, GV):
            return np.einsum(
                "ijk,ijkbc,ijkde,bd,ce->", wfield, ch.values, ch.values.conj(), GU, GV
            ).real

        # reordering sanity on a coarse rule: the gram-contracted form equals
        # the materialized node-by-node sum over both rotation grids
        quadL, quadR, u, v = factor_sums(6)
        brute = 0.0
        for idx in np.ndindex(*g.shape):
            M = u @ ch.values[idx] @ v.T
            brute += wfield[idx] * (
                quadL.weights @ (M.real**2 + M.imag**2) @ quadR.weights
            )
        GU, GV = gram_pair(quadL, quadR, u, v)
        assert contracted(GU, GV) == pytest.approx(brute, rel=1e-11)

        # accurate rule: gram matrices converge to Vol * Id and the direct
        # double-Haar integral matches the channel formula with the explicit
        # volume and dimension factors
        quadL, quadR, u, v = factor_sums(14)
        GU, GV = gram_pair(quadL, quadR, u, v)
        volL, volR = group_volume(alpha.group), group_volume(beta.group)
        assert np.max(np.abs(GU - volL * np.eye(alpha.dim))) < 1e-8 * volL
        assert np.max(np.abs(GV - volR * np.eye(beta.dim))) < 1e-8 * volR
        want = volL * volR * alpha.dim * beta.dim * scalar_product(exp, exp).real
        assert contracted(GU, GV) == pytest.approx(want, rel=1e-8)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        label = RepLabel.so2(1)
        e1 = Expansion((random_amplitude(rng, label, label, grid2(7, 6)),))
        e2 = Expansion((random_amplitude(rng, label, label, grid2(7, 7)),))
        with pytest.raises(DomainError):
            scalar_product(e1, e2)

    def test_target_space_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        label = RepLabel.so2(1)
        g = grid2()
        e1 = Expansion((random_amplitude(rng, label, label, g),), TargetSpace.GLPLUS)
        e2 = Expansion((random_amplitude(rng, label, label, g),), TargetSpace.DOUBLE_COVER)
        with pytest.raises(DomainError):
            scalar_product(e1, e2)

    def test_explicit_grid_argument(self):
        rng = np.random.default_rng(15)
        label = RepLabel.so2(2)
        g = grid2()
        e = Expansion((random_amplitude(rng, label, label, g),))
        assert scalar_product(e, e, g) == scalar_product(e, e)
        with pytest.raises(DomainError):
            scalar_product(e, e, grid2(4, 4))


class TestSuperselection:
    def mk(self, pairs, target):
        g = grid3(2)
        chans = []
        for s, j in pairs:
            a, b = RepLabel.su2(s), RepLabel.su2(j)
            chans.append(ChannelAmplitude(a, b, g, np.zeros(g.shape + (a.dim, b.dim))))
        return Expansion(tuple(chans), target)

    def test_integer_set_on_identity_component(self):
        report = validate_superselection(self.mk([(1, 2), (0, 0)], TargetSpace.GLPLUS))
        assert report.ok
        assert report.violations == ()

    def test_equal_halfness_on_double_cover(self):
        e = self.mk([(0.5, 1.5)], TargetSpace.DOUBLE_COVER)
        assert validate_superselection(e).ok

    def test_half_integer_rejected_on_identity_component(self):
        e = self.mk([(0.5, 1.5)], TargetSpace.GLPLUS)
        report = validate_superselection(e)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0][0] == 0

    def test_mixed_halfness_rejected_on_double_cover(self):
        e = self.mk([(0.5, 1.0)], TargetSpace.DOUBLE_COVER)
        report = validate_superselection(e)
        assert not report.ok

    def test_mixed_set_reports_only_offenders(self):
        e = self.mk([(0, 1), (0.5, 2), (1.5, 0.5), (2, 0.5)], TargetSpace.DOUBLE_COVER)
        report = validate_superselection(e)
        offenders = [v[0] for v in report.violations]
        assert offenders == [1, 3]

    def test_planar_integer_channels_pass_both_targets(self):
        g = grid2()
        ch = ChannelAmplitude(
            RepLabel.so2(3), RepLabel.so2(-1), g, np.zeros(g.shape + (1, 1))
        )
        assert validate_superselection(Expansion((ch,), TargetSpace.GLPLUS)).ok
        assert validate_superselection(Expansion((ch,), TargetSpace.DOUBLE_COVER)).ok


class TestSignedPermutations:
    def test_group_sizes(self):
        assert len(signed_permutation_group(2)) == 4
        assert len(signed_permutation_group(3)) == 24

    def test_elements_are_rotations(self):
        for W in signed_permutation_group(3):
            assert np.linalg.det(W) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(W @ W.T - np.eye(3))) < 1e-12

    def test_closure(self):
        group = signed_permutation_group(2)
        keys = {tuple(np.rint(W).astype(int).ravel()) for W in group}
        for V in group:
            for W in group:
                assert tuple(np.rint(V @ W).astype(int).ravel()) in keys

    def test_invariant_permutation(self):
        V = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert list(invariant_permutation(V)) == [1, 0]
        with pytest.raises(DomainError):
            invariant_permutation(np.diag([1.0, -1.0]))  # determinant -1

    def test_rejects_generic_rotation(self):
        c, s = np.cos(0.3), np.sin(0.3)
        with pytest.raises(DomainError):
            invariant_permutation(np.array([[c, -s], [s, c]]))


class TestWSymmetry:
    def sym_grid2(self, n=6):
        ax = np.linspace(-1.1, 1.1, n)
        return QGrid((ax, ax.copy()))

    def sym_grid3(self, n=3):
        ax = np.linspace(-0.9, 0.9, n)
        return QGrid((ax, ax.copy(), ax.copy()))

    def test_identity_element_zero_defect(self):
        rng = np.random.default_rng(16)
        ch = random_amplitude(rng, RepLabel.so2(2), RepLabel.so2(1), self.sym_grid2())
        assert validate_w_symmetry(ch, np.eye(2)) == 0.0

    def test_trivial_labels_constant_amplitude(self):
        g = self.sym_grid3()
        vals = np.full(g.shape + (1, 1), 0.3 + 0.1j)
        ch = ChannelAmplitude(RepLabel.so3(0), RepLabel.so3(0), g, vals)
        for W in signed_permutation_group(3):
            assert validate_w_symmetry(ch, W) < 1e-14

    # the half-turn element has |W| = Id and forces f = exp(i(m+n)pi) f, so
    # only channels with even m+n carry nonzero symmetric amplitudes
    @pytest.mark.parametrize("m,n", [(0, 0), (2, 0), (-1, 3)])
    def test_planar_averaged_amplitude_passes(self, m, n):
        rng = np.random.default_rng(17 + m + 5 * n)
        g = self.sym_grid2()
        raw = rng.standard_normal(g.shape + (1, 1)) + 1j * rng.standard_normal(
            g.shape + (1, 1)
        )
        group = signed_permutation_group(2)
        ch = averaged_amplitude(RepLabel.so2(m), RepLabel.so2(n), g, raw, group)
        assert np.max(np.abs(ch.values)) > 1e-6  # the average must not collapse
        for W in group:
            assert validate_w_symmetry(ch, W) < 1e-12

    # label pairs chosen with a nonzero invariant subspace under the
    # 24-element group (character count over the octahedral classes),
    # so the average of a random amplitude survives
    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (RepLabel.so3(1), RepLabel.so3(1)),
            (RepLabel.su2(0.5), RepLabel.su2(0.5)),
            (RepLabel.su2(0.5), RepLabel.su2(1.5)),
        ],
    )
    def test_spatial_averaged_amplitude_passes(self, alpha, beta):
        rng = np.random.default_rng(18)
        g = self.sym_grid3()
        shape = g.shape + (alpha.dim, beta.dim)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        group = signed_permutation_group(3)
        ch = averaged_amplitude(alpha, beta, g, raw, group)
        assert np.max(np.abs(ch.values)) > 1e-6
        for W in group:
            assert validate_w_symmetry(ch, W) < 1e-12

    def test_random_amplitude_fails(self):
        rng = np.random.default_rng(19)
        ch = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(0), self.sym_grid2())
        swap = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert validate_w_symmetry(ch, swap) > 1e-3

    def test_d_factors_identity(self):
        dl, dr = channel_d_factors(RepLabel.su2(0.5), RepLabel.su2(1.5), np.eye(3))
        assert np.allclose(dl, np.eye(2))
        assert np.allclose(dr, np.eye(4))

    def test_d_factors_planar_quarter_turn(self):
        W = np.array([[0.0, -1.0], [1.0, 0.0]])
        dl, dr = channel_d_factors(RepLabel.so2(2), RepLabel.so2(-1), W)
        assert dl[0, 0] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)
        assert dr[0, 0] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)

    def test_requires_symmetric_grid(self):
        rng = np.random.default_rng(20)
        ch = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(0), grid2())
        with pytest.raises(DomainError):
            validate_w_symmetry(ch, np.eye(2))

    def test_rejects_bad_elements(self):
        rng = np.random.default_rng(21)
        ch = random_amplitude(rng, RepLabel.so2(1), RepLabel.so2(0), self.sym_grid2())
        with pytest.raises(DomainError):
            validate_w_symmetry(ch, np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            validate_w_symmetry(ch, np.eye(3))


class TestAmplitudeIO:
    def build(self, rng):
        g = QGrid((np.array([-0.5, 0.0, 0.75]), np.array([-1.0, 0.25])))
        chans = (
            random_amplitude(rng, RepLabel.so2(2), RepLabel.so2(-1), g),
            random_amplitude(rng, RepLabel.so2(0), RepLabel.so2(0), g),
        )
        return Expansion(chans, TargetSpace.GLPLUS)

    def test_roundtrip_planar_exact(self):
        rng = np.random.default_rng(22)
        e = self.build(rng)
        e2 = loads_amplitudes(dumps_amplitudes(e))
        assert e2.target_space is e.target_space
        assert len(e2.channels) == len(e.channels)
        for a, b in zip(e.channels, e2.channels):
            assert a.alpha == b.alpha and a.beta == b.beta
            assert all(np.array_equal(x, y) for x, y in zip(a.grid.axes, b.grid.axes))
            assert np.array_equal(a.values, b.values)

    def test_roundtrip_spatial_exact(self):
        rng = np.random.default_rng(23)
        g = grid3(2)
        ch = random_amplitude(rng, RepLabel.su2(0.5), RepLabel.su2(0.5), g)
        e = Expansion((ch,), TargetSpace.DOUBLE_COVER)
        e2 = loads_amplitudes(dumps_amplitudes(e))
        assert e2.target_space is TargetSpace.DOUBLE_COVER
        assert np.array_equal(e2.channels[0].values, ch.values)

    def test_file_io(self, tmp_path):
        rng = np.random.default_rng(24)
        e = self.build(rng)
        path = tmp_path / "amps.txt"
        write_amplitudes(str(path), e)
        e2 = read_amplitudes(str(path))
        assert np.array_equal(e2.channels[0].values, e.channels[0].values)

    @pytest.mark.parametrize(
        "name", ["write_spectrum_table", "write_operator", "write_amplitudes", "read_amplitudes"]
    )
    def test_pathlike_target_gives_same_bytes_as_str(self, tmp_path, name):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (0, 2), Grid1D(0.0, 10.0, 19)
        )
        expansion = self.build(np.random.default_rng(26))
        source = tmp_path / "source.txt"
        write_amplitudes(str(source), expansion)
        write = {
            "write_spectrum_table": lambda t: write_spectrum_table(t, [solve_1d(op, 2)]),
            "write_operator": lambda t: write_operator(t, op),
            "write_amplitudes": lambda t: write_amplitudes(t, expansion),
            # reads the source as the target's type, writes through a str
            "read_amplitudes": lambda t: write_amplitudes(
                str(t), read_amplitudes(source if isinstance(t, Path) else str(source))
            ),
        }[name]
        write(str(tmp_path / "str.txt"))
        write(tmp_path / "path.txt")
        assert (tmp_path / "path.txt").read_bytes() == (tmp_path / "str.txt").read_bytes()

    # each malformed line raises DomainError naming its line number
    @pytest.mark.parametrize(
        "line",
        [
            "xx 0 so2 0 0.1 0.2 1 0",  # unknown group tag
            "so2 zz so2 0 0.1 0.2 1 0",  # non-numeric entry
            "so3",  # truncated record
            "# target nowhere",  # unknown target space
            "# target",  # target space missing
            "so2 0 so2 0 0.1 1 0",  # fewer invariants than the line before
        ],
    )
    def test_malformed_line_names_its_number(self, line):
        text = "# affbody-amplitudes 1\nso2 0 so2 0 0.1 0.2 1 0\n\n" + line + "\n"
        with pytest.raises(DomainError, match="line 4"):
            loads_amplitudes(text)

    def test_header_present(self):
        rng = np.random.default_rng(25)
        text = dumps_amplitudes(self.build(rng))
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert any("channel" in ln for ln in lines if ln.startswith("#"))
