"""Irreducible representation data for SO(3) and SU(2).

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
u(k) = cos(|k|/2) Id - i sin(|k|/2) (n . sigma) = [[a, b], [c, d]].  On
rotations about a common axis D^s is a homomorphism, and
D^s(2 pi n) = (-1)^(2s) Id.

D^s is computed as the symmetric power of u rather than as a matrix
exponential.  The spin-s space is spanned by the monomials

    |s, m> = xi^(s+m) eta^(s-m) / sqrt((s+m)! (s-m)!),

on which S_+ acts as xi d/d(eta), which reproduces the ladder basis
above.  u maps xi to a xi + c eta and eta to b xi + d eta, so column m of
D^s holds the coefficients of (a xi + c eta)^(s+m) (b xi + d eta)^(s-m)
in these monomials: a polynomial of degree 2s in a, b, c and d.  Over a
batch of nodes, `wigner_D_batch` tabulates the powers 0..2s of a, b, c
and d at every node, forms each of the (2s+1)(2s+2)(2s+3)/6 weighted
monomials as a product of four rows of that table, and sums them into the
(2s+1)^2 entries with one sparse 0/1 matrix, each monomial in one entry.

The biinvariant measure on the rotation group reads, in the rotation
vector's polar coordinates (k, theta, phi),

    d(mu) = 4 sin^2(k/2) sin(theta) dk d(theta) d(phi),

with k in [0, pi] for SO(3) (volume 8 pi^2) and [0, 2 pi] for SU(2)
(volume 16 pi^2).  Peter-Weyl orthogonality holds in the form

    integral D^s_mn conj(D^s'_m'n') d(mu) = Vol / (2s+1) * delta delta delta.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, readonly

# the largest 2s of a label; D^s is a sum of (2s+1)(2s+2)(2s+3)/6 monomials
MAX_TWICE_SPIN = 20
_ANGLE_TOL = 1e-12


class Group(Enum):
    SO3 = "so3"
    SU2 = "su2"


@dataclass(frozen=True, order=True)
class RepLabel:
    """Irreducible representation label: a non-negative integer spin s for
    SO(3), a non-negative half-integer for SU(2), stored doubled."""

    group: Group
    twice_spin: int

    def __post_init__(self):
        if not isinstance(self.group, Group):
            raise DomainError(f"unknown group {self.group!r}")
        if not isinstance(self.twice_spin, (int, np.integer)):
            raise DomainError(f"twice_spin must be an integer, got {self.twice_spin!r}")
        if self.group is Group.SO3 and (self.twice_spin < 0 or self.twice_spin % 2 != 0):
            raise DomainError(f"SO(3) spin must be a non-negative integer, got {self.twice_spin / 2}")
        if self.twice_spin < 0:
            raise DomainError(f"SU(2) spin must be a non-negative half-integer, got {self.twice_spin / 2}")
        if self.twice_spin > MAX_TWICE_SPIN:
            raise CapacityError(f"spin {self.twice_spin / 2} exceeds the maximum {MAX_TWICE_SPIN / 2}")

    @classmethod
    def so3(cls, s) -> "RepLabel":
        return cls(Group.SO3, _twice(s))

    @classmethod
    def su2(cls, s) -> "RepLabel":
        return cls(Group.SU2, _twice(s))

    @property
    def dim(self) -> int:
        return self.twice_spin + 1


def _twice(s) -> int:
    twice = 2 * float(s)
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-9:
        raise DomainError(f"spin must be a finite half-integer, got {s}")
    return int(round(twice))


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


def generators(label: RepLabel, hbar: float = 1.0) -> tuple:
    """Hermitian angular momentum matrices (S_1, S_2, S_3) of the labeled
    representation, read-only (at hbar = 1 the cached ladder itself)."""
    S = _ladder(label.twice_spin)
    return S if hbar == 1.0 else tuple(readonly(hbar * a) for a in S)


def casimir(S) -> np.ndarray:
    """Sum of squared generators; hbar^2 s(s+1) Id on an irreducible space."""
    return sum(a @ a for a in S)


def _su2_batch(ks: np.ndarray) -> np.ndarray:
    """u(k) over an (N, 3) array of rotation vectors, shape (N, 2, 2)."""
    angle = np.linalg.norm(ks, axis=-1, keepdims=True)
    small = angle < _ANGLE_TOL
    # sin(|k|/2) n, which tends to k/2 as |k| -> 0
    h = np.where(small, 0.5 * ks, np.sin(angle / 2.0) * ks / np.where(small, 1.0, angle))
    c, (h1, h2, h3) = np.cos(angle[:, 0] / 2.0), h.T
    return np.stack([c - 1j * h3, -h2 - 1j * h1, h2 - 1j * h1, c + 1j * h3], -1).reshape(-1, 2, 2)


def wigner_D(label: RepLabel, k) -> np.ndarray:
    """Representation matrix D^s(k) = exp(-i k . S / hbar).

    The hbar in the exponent cancels against the one carried by the
    generators, so the matrix depends on the rotation vector alone.
    """
    v = np.asarray(k, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"rotation vector must have three components, got shape {v.shape}")
    return wigner_D_batch(label, v[None, :])[0]


@lru_cache(maxsize=None)
def _symmetric_power(twice_spin: int):
    """The monomials in (a, b, c, d) that make up each entry of D^s.

    With n = 2s, p = s + m' and j = s + m, entry (m', m) is a sum over i
    of the monomials a^i b^(p-i) c^(j-i) d^(n-j-p+i).  Returns their
    exponents (4, T), their weights (T,) and the ((n+1)^2, T) CSR array
    of ones that sums each entry's monomials, entries in row-major order
    of the descending-m basis.
    """
    import scipy.sparse

    n = twice_spin
    fact = [math.factorial(i) for i in range(n + 1)]
    exponents, weights, starts = [], [], []
    for p in range(n, -1, -1):
        for j in range(n, -1, -1):
            starts.append(len(weights))
            scale = math.sqrt(fact[p] * fact[n - p] / (fact[j] * fact[n - j]))
            for i in range(max(0, p + j - n), min(p, j) + 1):
                exponents.append((i, p - i, j - i, n - j - p + i))
                weights.append(math.comb(j, i) * math.comb(n - j, p - i) * scale)
    T = len(weights)
    # complex ones, so the product casts nothing and adds each monomial as it is
    to_entries = scipy.sparse.csr_array((np.ones(T, dtype=complex), np.arange(T), starts + [T]))
    return np.array(exponents).T, np.array(weights), to_entries


def wigner_D_batch(label: RepLabel, ks: np.ndarray) -> np.ndarray:
    """Vectorized wigner_D over an (N, 3) array of rotation vectors."""
    ks = np.asarray(ks, dtype=float)
    if not np.all(np.isfinite(ks)):
        raise DomainError("rotation vector k must be finite")
    # D^s is the symmetric power of u = [[a, b], [c, d]]: column m holds the
    # coefficients of (a xi + c eta)^(s+m) (b xi + d eta)^(s-m), each scaled
    # by sqrt((s+m')! (s-m')! / ((s+m)! (s-m)!)), so no matrix function is
    # evaluated and D^(1/2) is u itself
    abcd = _su2_batch(ks).reshape(-1, 4).T
    n = label.twice_spin
    # powers[x, e] = abcd[x]**e, so each factor of a monomial is a row gather
    powers = np.ones((4, n + 1, abcd.shape[1]), dtype=complex)
    for e in range(1, n + 1):
        powers[:, e] = powers[:, e - 1] * abcd
    exponents, weights, to_entries = _symmetric_power(n)
    terms = weights[:, None] * powers[0].take(exponents[0], axis=0)
    for x in (1, 2, 3):
        terms *= powers[x].take(exponents[x], axis=0)
    return (to_entries @ terms).T.reshape(-1, n + 1, n + 1)


def group_volume(group: Group) -> float:
    """Total Haar volume, 8 pi^2 for SO(3) and 16 pi^2 for SU(2)."""
    return 8.0 * np.pi**2 if group is Group.SO3 else 16.0 * np.pi**2


@dataclass(frozen=True)
class HaarQuadrature:
    """Product quadrature for integrals over the rotation group.

    vectors has shape (N, 3) and weights shape (N,); summing
    f(vectors) * weights approximates integral f d(mu).  The rows are
    grouped by radial shell: `order` shells of one |k| each, with
    2 * order**2 consecutive rows per shell.
    """

    group: Group
    order: int
    vectors: np.ndarray
    weights: np.ndarray


def haar_quadrature(group: Group, order: int) -> HaarQuadrature:
    """Gauss-Legendre in the angle and in cos(theta), uniform in phi.

    The phi grid carries 2 * order points, which integrates the
    azimuthal dependence of products of representation matrices exactly
    up to combined spin (order - 1).
    """
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
