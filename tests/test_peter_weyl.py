"""Tests for channel amplitudes, superselection and the discrete-symmetry validators."""

import numpy as np
import pytest

from affbody.errors import DomainError
from affbody.peter_weyl import (
    ChannelAmplitude,
    Expansion,
    QGrid,
    TargetSpace,
    channel_d_factors,
    invariant_permutation,
    signed_permutation_group,
    validate_superselection,
    validate_w_symmetry,
)
from affbody.representations import Group, RepLabel, rotation_vector_from_matrix, wigner_D


def grid2(nq1=7, nq2=6):
    return QGrid((np.linspace(-1.2, 1.1, nq1), np.linspace(-0.9, 1.3, nq2)))


def grid3(n=3):
    return QGrid(tuple(np.linspace(-1.0, 1.0, n) + 0.1 * d for d in range(3)))


def random_amplitude(rng, alpha, beta, grid):
    shape = grid.shape + (alpha.dim, beta.dim)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ChannelAmplitude(alpha, beta, grid, vals)


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
    def test_shape_and_ndim(self):
        assert (grid2(5, 4).ndim, grid2(5, 4).shape) == (2, (5, 4))
        assert (grid3(4).ndim, grid3(4).shape) == (3, (4, 4, 4))

    def test_same_nodes(self):
        g = grid2(5, 4)
        assert g.same_nodes(grid2(5, 4))
        assert not g.same_nodes(grid2(5, 5))
        assert not g.same_nodes(grid3(4))
        shifted = QGrid((g.axes[0], g.axes[1] + 1e-12))
        assert not g.same_nodes(shifted)

    def test_caller_arrays_stay_writable(self):
        ax = np.linspace(0.0, 1.0, 3)
        g = QGrid((ax, ax + 1.0))
        label = RepLabel.so2(0)
        vals = np.zeros(g.shape + (1, 1), dtype=complex)
        amp = ChannelAmplitude(label, label, g, vals)
        assert ax.flags.writeable and vals.flags.writeable
        assert not any(a.flags.writeable for a in g.axes)
        assert not amp.values.flags.writeable
        ax[0], vals[0, 0, 0, 0] = -1.0, 1.0
        assert g.axes[0][0] == 0.0 and amp.values[0, 0, 0, 0] == 0.0

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

    def test_needs_two_dimensions(self):
        with pytest.raises(DomainError, match="n >= 2"):
            signed_permutation_group(1)

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
