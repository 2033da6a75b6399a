import numpy as np
import pytest
import scipy.linalg

from affbody.errors import DomainError
from affbody.hamiltonians import KLEIN_ROTATIONS, TWIN_ROTATION
from affbody.representations import (
    Group,
    HaarQuadrature,
    RepLabel,
    casimir,
    generators,
    group_volume,
    haar_quadrature,
    rotation_vector_from_matrix,
    wigner_D,
    wigner_D_batch,
)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

EPS = np.zeros((3, 3, 3))
for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[a, b, c] = 1.0
    EPS[a, c, b] = -1.0


def so3_generator(a):
    # (E_a)^b_c = -eps_a^b_c
    return -EPS[a]


def rotation(k):
    # W(k) = exp(k^a E_a)
    return scipy.linalg.expm(sum(k[a] * so3_generator(a) for a in range(3)))


def label_id(label):
    s = label.twice_spin // 2 if label.twice_spin % 2 == 0 else f"{label.twice_spin}/2"
    return f"{label.group.value}[s={s}]"


class TestLabels:
    def test_dims(self):
        assert RepLabel.so3(2).dim == 5
        assert RepLabel.su2(0.5).dim == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            RepLabel.so3(0.5)
        with pytest.raises(DomainError):
            RepLabel.su2(-1)
        with pytest.raises(DomainError):
            RepLabel.su2(0.3)

    def test_numpy_integer_twice_spin(self):
        label = RepLabel(Group.SU2, np.int64(3))
        assert label.dim == 4
        assert generators(label)[2].shape == (4, 4)


def test_generators_are_read_only_and_cached_at_unit_hbar():
    label = RepLabel.su2(1.5)
    assert generators(label) is generators(label, 1.0)
    for S in (generators(label), generators(label, 0.5)):
        assert isinstance(S, tuple) and len(S) == 3
        assert not any(a.flags.writeable for a in S)


class TestValidation:
    """Labels, matrices and quadratures refuse what they cannot represent."""

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: RepLabel.su2(float("inf")), "finite half-integer, got inf"),
            (lambda: RepLabel.so3(float("-inf")), "finite half-integer, got -inf"),
            (lambda: RepLabel.su2(float("nan")), "finite half-integer, got nan"),
            (lambda: RepLabel.su2(1e308), "finite half-integer"),
            (lambda: RepLabel(Group.SU2, 2.5), "twice_spin must be an integer, got 2.5"),
            (lambda: RepLabel(Group.SO3, 2.0), "twice_spin must be an integer, got 2.0"),
            (lambda: RepLabel("su2", 1), "unknown group 'su2'"),
            (lambda: wigner_D(RepLabel.su2(1), np.zeros(2)), "three components"),
            (lambda: haar_quadrature(Group.SU2, 1), "order must be at least 2"),
            (lambda: wigner_D(RepLabel.su2(0.5), [np.nan, 0.0, 0.0]), "rotation vector k"),
            (lambda: wigner_D(RepLabel.so3(1), [0.0, np.inf, 0.0]), "rotation vector k"),
            (
                lambda: wigner_D_batch(RepLabel.su2(1), np.array([[0.0, 0, 0], [0, 0, -np.inf]])),
                "rotation vector k",
            ),
            (
                lambda: rotation_vector_from_matrix(np.full((3, 3), np.nan)),
                "rotation matrix must be finite",
            ),
            (
                lambda: rotation_vector_from_matrix(np.diag([1.0, 1.0, np.inf])),
                "rotation matrix must be finite",
            ),
        ],
        ids=[
            "label-inf",
            "label-minus-inf",
            "label-nan",
            "label-doubled-overflows",
            "label-fractional",
            "label-float",
            "label-group-name",
            "wigner-shape",
            "quadrature-order",
            "wigner-nan",
            "wigner-inf",
            "batch-inf",
            "log-nan",
            "log-inf",
        ],
    )
    def test_domain_error(self, build, match):
        with pytest.raises(DomainError, match=match):
            build()


class TestGenerators:
    @pytest.mark.parametrize("twice_spin", range(0, 7))
    def test_commutators_and_casimir(self, twice_spin):
        group = Group.SO3 if twice_spin % 2 == 0 else Group.SU2
        hbar = 0.7
        gen = generators(RepLabel(group, twice_spin), hbar=hbar)
        s1, s2, s3 = gen
        S = (s1, s2, s3)
        for a in range(3):
            assert np.max(np.abs(S[a] - S[a].conj().T)) < 1e-14
            for b in range(3):
                want = sum(EPS[a, b, c] * S[c] for c in range(3))
                got = (S[a] @ S[b] - S[b] @ S[a]) / (1j * hbar)
                assert np.max(np.abs(got - want)) < 1e-12
        s = twice_spin / 2
        want = hbar**2 * s * (s + 1) * np.eye(twice_spin + 1)
        assert np.max(np.abs(casimir(gen) - want)) < 1e-10

    def test_s3_descending_diagonal(self):
        gen = generators(RepLabel.so3(2))
        assert np.allclose(np.diag(gen[2]).real, [2, 1, 0, -1, -2])

    def test_spin_half_is_half_pauli(self):
        gen = generators(RepLabel.su2(0.5), hbar=2.0)
        for a in range(3):
            assert np.allclose(gen[a], 2.0 / 2.0 * PAULI[a])

    def test_spin_one_casimir_value(self):
        gen = generators(RepLabel.so3(1))
        assert np.allclose(casimir(gen), 2.0 * np.eye(3))

    def test_so3_rejects_half_integer(self):
        with pytest.raises(DomainError):
            generators(RepLabel(Group.SO3, 3))


class TestRotationLog:
    def test_inverts_exponential_at_every_angle(self):
        rng = np.random.default_rng(37)
        angles = np.concatenate([np.geomspace(1e-12, 1.0, 13), np.linspace(1.0, np.pi - 1e-6, 8)])
        angles = np.concatenate([angles, np.pi - np.geomspace(1e-2, 1e-6, 5)])
        for angle in angles:
            axes = rng.standard_normal((20, 3))
            for n in axes / np.linalg.norm(axes, axis=1)[:, None]:
                k = angle * n
                got = rotation_vector_from_matrix(rotation(k))
                assert np.linalg.norm(got - k) <= 1e-12 * angle

    def test_identity_is_zero(self):
        assert np.array_equal(rotation_vector_from_matrix(np.eye(3)), np.zeros(3))

    def test_half_turn(self):
        W = np.diag([-1.0, -1.0, 1.0])
        k = rotation_vector_from_matrix(W)
        assert np.linalg.norm(k) == pytest.approx(np.pi)
        assert np.allclose(rotation(k), W, atol=1e-12)

    def test_klein_and_twin_rotations_exact(self):
        # these vectors feed klein_bases and symmetry_defect
        for a, W in enumerate(KLEIN_ROTATIONS):
            assert np.array_equal(rotation_vector_from_matrix(W), np.pi * np.eye(3)[a])
        assert np.array_equal(rotation_vector_from_matrix(TWIN_ROTATION), [0.0, -np.pi / 2, 0.0])

    def test_rejects_non_rotations(self):
        with pytest.raises(DomainError):
            rotation_vector_from_matrix(np.eye(2))
        with pytest.raises(DomainError):
            rotation_vector_from_matrix(np.diag([1.0, 1.0, -1.0]))


class TestSpinHalf:
    # D^(1/2)(k) is the SU(2) element u(k)
    def test_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = rng.uniform(-2, 2, size=3)
            angle = np.linalg.norm(k)
            n = k / angle
            want = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sum(
                n[a] * PAULI[a] for a in range(3)
            )
            assert np.max(np.abs(wigner_D(RepLabel.su2(0.5), k) - want)) < 1e-14

    def test_full_turn_is_minus_identity(self):
        rng = np.random.default_rng(43)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert np.allclose(wigner_D(RepLabel.su2(0.5), 2.0 * np.pi * n), -np.eye(2), atol=1e-14)

    def test_unitary_unimodular(self):
        u = wigner_D(RepLabel.su2(0.5), [0.3, -1.2, 0.4])
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-14)


class TestWignerD:
    def test_identity_at_zero(self):
        for label in (RepLabel.so3(2), RepLabel.su2(1.5)):
            D = wigner_D(label, np.zeros(3))
            assert np.allclose(D, np.eye(label.dim), atol=1e-14)

    def test_spin_half_z_rotation(self):
        theta = 0.77
        D = wigner_D(RepLabel.su2(0.5), [0.0, 0.0, theta])
        want = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.max(np.abs(D - want)) < 1e-14

    def test_unitary(self):
        rng = np.random.default_rng(53)
        for label in (RepLabel.so3(1), RepLabel.so3(2), RepLabel.su2(1.5)):
            for _ in range(10):
                D = wigner_D(label, rng.uniform(-3, 3, size=3))
                assert np.max(np.abs(D @ D.conj().T - np.eye(label.dim))) < 1e-12

    def test_same_axis_homomorphism(self):
        rng = np.random.default_rng(59)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        label = RepLabel.so3(2)
        a, b = 0.7, -1.1
        prod = wigner_D(label, a * n) @ wigner_D(label, b * n)
        assert np.max(np.abs(prod - wigner_D(label, (a + b) * n))) < 1e-10

    def test_full_turn_signs(self):
        n = np.array([0.0, 1.0, 0.0])
        D1 = wigner_D(RepLabel.so3(1), 2.0 * np.pi * n)
        assert np.allclose(D1, np.eye(3), atol=1e-12)
        D32 = wigner_D(RepLabel.su2(1.5), 2.0 * np.pi * n)
        assert np.allclose(D32, -np.eye(4), atol=1e-12)

    def test_represents_rotation_composition(self):
        # D(k1) D(k2) = D(log(W(k1) W(k2))) for integer spin
        rng = np.random.default_rng(61)
        label = RepLabel.so3(1)
        for _ in range(10):
            k1 = rng.uniform(-1, 1, size=3)
            k2 = rng.uniform(-1, 1, size=3)
            k12 = rotation_vector_from_matrix(rotation(k1) @ rotation(k2))
            got = wigner_D(label, k1) @ wigner_D(label, k2)
            assert np.max(np.abs(got - wigner_D(label, k12))) < 1e-9

    @pytest.mark.parametrize("twice_spin", range(21))
    def test_matches_matrix_exponential(self, twice_spin):
        # exp(-i k . S) from the generators is independent of the symmetric power
        S = generators(RepLabel.su2(twice_spin / 2))
        rng = np.random.default_rng(71 + twice_spin)
        axes = rng.standard_normal((12, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 9), [3e-13, 0.0, 2.0 * np.pi]])
        ks = angles[:, None] * axes
        got = wigner_D_batch(RepLabel.su2(twice_spin / 2), ks)
        for k, D in zip(ks, got):
            want = scipy.linalg.expm(-1j * (k[0] * S[0] + k[1] * S[1] + k[2] * S[2]))
            assert np.max(np.abs(D - want)) <= 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(67)
        ks = rng.uniform(-2, 2, size=(5, 3))
        batch = wigner_D_batch(RepLabel.su2(1), ks)
        for i in range(5):
            assert np.max(np.abs(batch[i] - wigner_D(RepLabel.su2(1), ks[i]))) < 1e-13


class TestHaar:
    @pytest.mark.parametrize(
        "group,volume",
        [(Group.SO3, 8.0 * np.pi**2), (Group.SU2, 16.0 * np.pi**2)],
    )
    def test_volume(self, group, volume):
        quad = haar_quadrature(group, 24)
        assert isinstance(quad, HaarQuadrature)
        assert abs(np.sum(quad.weights) - volume) / volume < 1e-12
        assert group_volume(group) == pytest.approx(volume)

    def test_orthogonality_spin_half(self):
        quad = haar_quadrature(Group.SU2, 16)
        D = wigner_D_batch(RepLabel.su2(0.5), quad.vectors)
        val = np.sum(quad.weights * np.abs(D[:, 0, 0]) ** 2)
        assert val == pytest.approx(16.0 * np.pi**2 / 2.0, rel=1e-10)
        cross = np.sum(quad.weights * D[:, 0, 0] * np.conj(D[:, 0, 1]))
        assert abs(cross) < 1e-10

    def test_mixed_spin_orthogonality(self):
        quad = haar_quadrature(Group.SO3, 16)
        D0 = np.ones(len(quad.weights))
        D1 = wigner_D_batch(RepLabel.so3(1), quad.vectors)
        assert abs(np.sum(quad.weights * D1[:, 0, 0] * D0)) < 1e-9

    # Schur orthogonality: the Haar integral of D_ij conj(D'_kl) is
    # Vol / dim delta_ik delta_jl for D' = D and vanishes between
    # inequivalent irreps
    @staticmethod
    def haar_overlap(a, b, order=16):
        quad = haar_quadrature(a.group, order)
        Da = wigner_D_batch(a, quad.vectors)
        Db = wigner_D_batch(b, quad.vectors)
        return np.einsum("n,nij,nkl->ijkl", quad.weights, Da, Db.conj())

    @pytest.mark.parametrize(
        "label",
        [
            RepLabel.so3(0),
            RepLabel.so3(1),
            RepLabel.so3(2),
            RepLabel.su2(0.5),
            RepLabel.su2(1),
            RepLabel.su2(1.5),
        ],
        ids=label_id,
    )
    def test_schur_orthogonality(self, label):
        d = label.dim
        vol = group_volume(label.group)
        want = vol / d * np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d))
        assert np.max(np.abs(self.haar_overlap(label, label) - want)) < 1e-10 * vol

    @pytest.mark.parametrize(
        "a,b",
        [
            (RepLabel.so3(1), RepLabel.so3(2)),
            (RepLabel.su2(0.5), RepLabel.su2(1.5)),
            (RepLabel.su2(0.5), RepLabel.su2(1)),
        ],
        ids=label_id,
    )
    def test_inequivalent_irreps_are_orthogonal(self, a, b):
        vol = group_volume(a.group)
        assert np.max(np.abs(self.haar_overlap(a, b))) < 1e-10 * vol
