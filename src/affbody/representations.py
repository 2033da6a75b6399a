"""Irreducible representation data for SO(2), SO(3) and SU(2).

Conventions.  Angular momentum generators use the ladder basis with S_3
diagonal,

    S_3 = hbar * diag(s, s-1, ..., -s),
    (S_1 + i S_2) |s, m> = hbar * sqrt(s(s+1) - m(m+1)) |s, m+1>,

so each S_a is Hermitian, (1/i hbar)[S_a, S_b] = eps_ab^c S_c and
S_1^2 + S_2^2 + S_3^2 = hbar^2 s(s+1).  Spins are stored doubled
(2s as an integer) so label comparisons stay exact for half-integers.

Group elements are parametrized by the rotation vector k = angle * axis.
A vector rotates by the Rodrigues matrix

    W(k) = cos|k| Id + (1 - cos|k|) kk^T/|k|^2 + sin|k| [k]_x / |k|,

equal to exp(k^a E_a) with (E_a)^b_c = -eps_a^b_c, and the spin-s matrix
representing it is

    D^s(k) = exp(-i k . S / hbar),

which for s = 1/2 coincides with the SU(2) element
u(k) = cos(|k|/2) Id - i sin(|k|/2) (n . sigma).  On rotations about a
common axis D^s is a homomorphism, and D^s(2 pi n) = (-1)^(2s) Id.

The biinvariant measure on the rotation group reads, in the rotation
vector's polar coordinates (k, theta, phi),

    d(mu) = 4 sin^2(k/2) sin(theta) dk d(theta) d(phi),

with k in [0, pi] for SO(3) (volume 8 pi^2) and [0, 2 pi] for SU(2)
(volume 16 pi^2).  Peter-Weyl orthogonality holds in the form

    integral D^s_mn conj(D^s'_m'n') d(mu) = Vol / (2s+1) * delta delta delta.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, readonly

_ANGLE_TOL = 1e-12


class Group(Enum):
    SO2 = "so2"
    SO3 = "so3"
    SU2 = "su2"


@dataclass(frozen=True, order=True)
class RepLabel:
    """Irreducible representation label.

    For SO(2) the label is an integer m (any sign, stored doubled like
    the others).  For SO(3) it is a non-negative integer s, for SU(2) a
    non-negative half-integer.
    """

    group: Group
    twice_spin: int

    def __post_init__(self):
        if self.group is Group.SO2:
            if self.twice_spin % 2 != 0:
                raise DomainError("SO(2) labels are integers")
        elif self.group is Group.SO3:
            if self.twice_spin < 0 or self.twice_spin % 2 != 0:
                raise DomainError(f"SO(3) spin must be a non-negative integer, got {self.twice_spin / 2}")
        elif self.group is Group.SU2:
            if self.twice_spin < 0:
                raise DomainError(f"SU(2) spin must be a non-negative half-integer, got {self.twice_spin / 2}")
        else:
            raise DomainError(f"unknown group {self.group!r}")

    @classmethod
    def so2(cls, m: int) -> "RepLabel":
        return cls(Group.SO2, 2 * int(m))

    @classmethod
    def so3(cls, s) -> "RepLabel":
        return cls(Group.SO3, _twice(s))

    @classmethod
    def su2(cls, s) -> "RepLabel":
        return cls(Group.SU2, _twice(s))

    @property
    def spin(self) -> float:
        return self.twice_spin / 2

    @property
    def m(self) -> int:
        if self.group is not Group.SO2:
            raise DomainError("only SO(2) labels carry a winding number m")
        return self.twice_spin // 2

    @property
    def dim(self) -> int:
        if self.group is Group.SO2:
            return 1
        return self.twice_spin + 1

    @property
    def half_integer(self) -> bool:
        return self.twice_spin % 2 != 0

    def __str__(self) -> str:
        if self.group is Group.SO2:
            return f"so2[m={self.m}]"
        s = self.twice_spin // 2 if self.twice_spin % 2 == 0 else f"{self.twice_spin}/2"
        return f"{self.group.value}[s={s}]"


def _twice(s) -> int:
    twice = 2 * float(s)
    rounded = round(twice)
    if abs(twice - rounded) > 1e-9:
        raise DomainError(f"spin must be half-integral, got {s}")
    return int(rounded)


@dataclass(frozen=True)
class GeneratorSet:
    """Hermitian generators of a representation.

    For SO(3)/SU(2) labels, S holds the three (2s+1) x (2s+1) matrices;
    for an SO(2) label m it holds the single 1 x 1 matrix (hbar * m).
    """

    label: RepLabel
    S: tuple
    hbar: float


@lru_cache(maxsize=None)
def _ladder(twice_spin: int):
    """Unit-hbar spin matrices (S_1, S_2, S_3) in the descending-m basis."""
    d = twice_spin + 1
    m = (twice_spin - 2 * np.arange(d)) / 2.0
    s = twice_spin / 2.0
    s3 = np.diag(m).astype(complex)
    # raising operator: couples |s, m> to |s, m+1>, one row above.
    amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    s_plus = np.zeros((d, d), dtype=complex)
    s_plus[np.arange(d - 1), np.arange(1, d)] = amp
    s1 = (s_plus + s_plus.conj().T) / 2.0
    s2 = (s_plus - s_plus.conj().T) / 2j
    return tuple(readonly(a) for a in (s1, s2, s3))


def generators(label: RepLabel, hbar: float = 1.0) -> GeneratorSet:
    """Angular momentum matrices of the labeled representation."""
    if label.group is Group.SO2:
        mat = readonly(np.array([[hbar * label.m]], dtype=complex))
        return GeneratorSet(label, (mat,), hbar)
    s1, s2, s3 = _ladder(label.twice_spin)
    if hbar == 1.0:
        return GeneratorSet(label, (s1, s2, s3), hbar)
    return GeneratorSet(label, tuple(readonly(hbar * a) for a in (s1, s2, s3)), hbar)


def casimir(gen: GeneratorSet) -> np.ndarray:
    """Sum of squared generators; hbar^2 s(s+1) Id on an irreducible space."""
    return sum(a @ a for a in gen.S)


@dataclass(frozen=True)
class RotationVector:
    """Rotation vector k = angle * axis with a declared parent group.

    The modulus must lie in [0, pi] for SO(3) and [0, 2 pi] for SU(2).
    """

    vec: tuple
    group: Group

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (3,):
            raise DomainError(f"rotation vector must have three components, got shape {v.shape}")
        k = float(np.linalg.norm(v))
        limit = np.pi if self.group is Group.SO3 else 2.0 * np.pi
        if self.group is Group.SO2:
            raise DomainError("rotation vectors parametrize the three-dimensional groups")
        if k > limit + _ANGLE_TOL:
            raise DomainError(f"modulus {k} outside [0, {limit}] for {self.group.value}")
        object.__setattr__(self, "vec", tuple(float(x) for x in v))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.vec, dtype=float)

    @property
    def angle(self) -> float:
        return float(np.linalg.norm(self.vec))


def _as_kvec(k) -> np.ndarray:
    if isinstance(k, RotationVector):
        return k.array
    v = np.asarray(k, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"rotation vector must have three components, got shape {v.shape}")
    return v


def rotation_matrix(k) -> np.ndarray:
    """Rodrigues rotation matrix for the rotation vector k.

    Satisfies rotation_matrix(pi * n) == rotation_matrix(-pi * n) for any
    unit axis n.
    """
    v = _as_kvec(k)
    angle = float(np.linalg.norm(v))
    if angle < 1e-12:
        # second-order series keeps the result accurate through angle -> 0
        kx = _cross_matrix(v)
        return np.eye(3) + kx + 0.5 * (kx @ kx)
    n = v / angle
    nx = _cross_matrix(n)
    return (
        np.cos(angle) * np.eye(3)
        + (1.0 - np.cos(angle)) * np.outer(n, n)
        + np.sin(angle) * nx
    )


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_vector_from_matrix(W) -> np.ndarray:
    """Inverse of rotation_matrix, returning the vector with angle in [0, pi]."""
    W = np.asarray(W, dtype=float)
    if W.shape != (3, 3):
        raise DomainError(f"need a 3 x 3 rotation matrix, got shape {W.shape}")
    if np.max(np.abs(W @ W.T - np.eye(3))) > 1e-8 or np.linalg.det(W) < 0.0:
        raise DomainError("matrix is not a rotation")
    cos_angle = np.clip((np.trace(W) - 1.0) / 2.0, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-9:
        return np.zeros(3)
    if angle < np.pi - 1e-6:
        axis = np.array([W[2, 1] - W[1, 2], W[0, 2] - W[2, 0], W[1, 0] - W[0, 1]])
        return angle * axis / (2.0 * np.sin(angle))
    # angle pi: W + Id = 2 n n^T, any non-null column is parallel to the axis
    M = W + np.eye(3)
    col = M[:, int(np.argmax(np.sum(M * M, axis=0)))]
    return np.pi * col / np.linalg.norm(col)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def su2_element(k) -> np.ndarray:
    """SU(2) element cos(|k|/2) Id - i sin(|k|/2) (n . sigma).

    Satisfies su2_element(2 pi n) = -Id for any unit axis n.
    """
    v = _as_kvec(k)
    angle = float(np.linalg.norm(v))
    if angle < 1e-12:
        half = 0.5 * v  # sin(k/2) * n -> k/2 as k -> 0
    else:
        half = np.sin(angle / 2.0) * v / angle
    return np.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * (
        half[0] * _PAULI[0] + half[1] * _PAULI[1] + half[2] * _PAULI[2]
    )


def wigner_D(label: RepLabel, k) -> np.ndarray:
    """Representation matrix D^s(k) = exp(-i k . S / hbar).

    The hbar in the exponent cancels against the one carried by the
    generators, so the matrix depends on the rotation vector alone.  For
    an SO(2) label the rotation must be about the third axis and the
    result is the 1 x 1 phase exp(i m k_3).
    """
    v = _as_kvec(k)
    if label.group is Group.SO2:
        if abs(v[0]) > _ANGLE_TOL or abs(v[1]) > _ANGLE_TOL:
            raise DomainError("SO(2) labels only represent rotations about the third axis")
        return np.array([[np.exp(1j * label.m * v[2])]], dtype=complex)
    return wigner_D_batch(label, v[None, :])[0]


def wigner_D_batch(label: RepLabel, ks: np.ndarray) -> np.ndarray:
    """Vectorized wigner_D over an (N, 3) array of rotation vectors."""
    if label.group is Group.SO2:
        raise DomainError("batched evaluation supports the three-dimensional groups only")
    ks = np.asarray(ks, dtype=float)
    s1, s2, s3 = _ladder(label.twice_spin)
    # generator combination is Hermitian, so a batched eigendecomposition
    # yields an exactly unitary exponential
    M = (
        ks[:, 0, None, None] * s1
        + ks[:, 1, None, None] * s2
        + ks[:, 2, None, None] * s3
    )
    w, V = np.linalg.eigh(M)
    phases = np.exp(-1j * w)
    return np.einsum("nij,nj,nkj->nik", V, phases, V.conj())


def group_volume(group: Group) -> float:
    """Total Haar volume, 8 pi^2 for SO(3) and 16 pi^2 for SU(2)."""
    if group is Group.SO3:
        return 8.0 * np.pi**2
    if group is Group.SU2:
        return 16.0 * np.pi**2
    raise DomainError(f"no rotation-vector Haar volume for {group!r}")


def haar_weight_rotgroup(k: float, group: Group = Group.SO3) -> float:
    """Radial density 4 sin^2(k/2) of the Haar measure in polar coordinates."""
    limit = np.pi if group is Group.SO3 else 2.0 * np.pi
    if group is Group.SO2:
        raise DomainError("radial Haar weight applies to the three-dimensional groups")
    if k < -_ANGLE_TOL or k > limit + _ANGLE_TOL:
        raise DomainError(f"angle {k} outside [0, {limit}] for {group.value}")
    return float(4.0 * np.sin(k / 2.0) ** 2)


@dataclass(frozen=True)
class HaarQuadrature:
    """Product quadrature for integrals over the rotation group.

    vectors has shape (N, 3) and weights shape (N,); summing
    f(vectors) * weights approximates integral f d(mu).  Iterating the
    object yields (RotationVector, weight) pairs.
    """

    group: Group
    order: int
    vectors: np.ndarray
    weights: np.ndarray

    def __iter__(self):
        for vec, w in zip(self.vectors, self.weights):
            yield RotationVector(tuple(vec), self.group), float(w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def haar_quadrature(group: Group, order: int) -> HaarQuadrature:
    """Gauss-Legendre in the angle and in cos(theta), uniform in phi.

    The phi grid carries 2 * order points, which integrates the
    azimuthal dependence of products of representation matrices exactly
    up to combined spin (order - 1).
    """
    if group is Group.SO2:
        raise DomainError("quadrature covers the three-dimensional groups")
    if order < 2:
        raise DomainError(f"order must be at least 2, got {order}")
    k_max = np.pi if group is Group.SO3 else 2.0 * np.pi

    nodes, wts = np.polynomial.legendre.leggauss(order)
    k = 0.5 * k_max * (nodes + 1.0)
    wk = 0.5 * k_max * wts * 4.0 * np.sin(k / 2.0) ** 2
    cos_t = nodes
    wt = wts
    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    sin_t = np.sqrt(1.0 - cos_t**2)
    # axis grid (order x n_phi x 3), then scale by each |k|
    axis = np.stack(
        [
            np.outer(sin_t, np.cos(phi)),
            np.outer(sin_t, np.sin(phi)),
            np.outer(cos_t, np.ones(n_phi)),
        ],
        axis=-1,
    )
    vectors = (k[:, None, None, None] * axis[None, :, :, :]).reshape(-1, 3)
    weights = (wk[:, None, None] * wt[None, :, None] * wphi[None, None, :]).reshape(-1)
    return HaarQuadrature(group, order, readonly(vectors), readonly(weights))
