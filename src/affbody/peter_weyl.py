"""Channel expansions of wave functions over the rotation-group factors.

A state on the configuration space splits into channels labeled by a
pair of irreducible representations (alpha for the left factor, beta for
the right one).  Each channel carries a matrix amplitude f(q) of shape
N(alpha) x N(beta) over a tensor grid of deformation invariants.  The
represented function is

    Psi = sum_channels  D^alpha(L)  f(q)  D^beta(R^{-1})

contracted over matrix indices; in the planar case (SO(2) labels, grid
dimension 2) the channel factors are the phases exp(i m alpha_L) and
exp(i n beta_R).

Scalar products diagonalize over channels.  With the rotation-group
volumes divided out,

    <Psi1|Psi2> = sum_channels 1/(N(alpha) N(beta))
                  integral Tr(f1(q)^H f2(q)) P_lambda(q) dq.

Two membership filters apply to channel sets.  States living on the
identity component of the linear group use integer labels only, states
on its double cover need alpha and beta of equal halfness.  Amplitude
compatibility with the residual discrete symmetry is expressed through
signed permutation matrices W in SO(n): writing pi_W(q) = |W| q for the
induced permutation of invariants, an amplitude is symmetric when

    f(pi_W(q)) = DL(W) f(q) DR(W)

with DL, DR the channel factors in the conventions above (left factor at
W, right factor at W^{-1} for the three-dimensional groups, both phases
at +W's angle for SO(2)).
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, readonly
from .representations import Group, RepLabel, rotation_vector_from_matrix, wigner_D


class TargetSpace(Enum):
    GLPLUS = "glplus"
    DOUBLE_COVER = "double-cover"


@dataclass(frozen=True)
class QGrid:
    """Tensor-product grid of deformation invariants."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.array(ax, dtype=float) for ax in self.axes)
        if len(axes) < 2:
            raise DomainError("need at least two invariant axes")
        for ax in axes:
            if ax.ndim != 1 or ax.shape[0] < 2:
                raise DomainError("each grid axis needs at least two nodes")
            if np.any(np.diff(ax) <= 0.0):
                raise DomainError("grid axes must be strictly increasing")
        object.__setattr__(self, "axes", tuple(readonly(ax) for ax in axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.shape[0] for ax in self.axes)

    def symmetric(self) -> bool:
        return self.same_nodes(QGrid((self.axes[0],) * self.ndim))

    def same_nodes(self, other: "QGrid") -> bool:
        """True when other has this grid's axes, node for node."""
        return self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


@dataclass(frozen=True)
class ChannelAmplitude:
    """Matrix amplitude of a single channel over a QGrid.

    values has shape grid.shape + (N(alpha), N(beta)).
    """

    alpha: RepLabel
    beta: RepLabel
    grid: QGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        want = self.grid.shape + (self.alpha.dim, self.beta.dim)
        if vals.shape != want:
            raise DomainError(f"amplitude shape {vals.shape} does not match {want}")
        if (self.alpha.group is Group.SO2) != (self.beta.group is Group.SO2):
            raise DomainError("left and right labels must act on factors of equal kind")
        if self.alpha.group is Group.SO2:
            if self.grid.ndim != 2:
                raise DomainError("SO(2) channel pairs require a two-dimensional grid")
        elif self.grid.ndim != 3:
            raise DomainError("three-dimensional channel pairs require a three-dimensional grid")
        object.__setattr__(self, "values", readonly(vals))

    @property
    def planar(self) -> bool:
        return self.alpha.group is Group.SO2

    def channel_key(self):
        return (self.alpha, self.beta)


@dataclass(frozen=True)
class Expansion:
    """A finite set of channel amplitudes with a declared target space."""

    channels: tuple
    target_space: TargetSpace = TargetSpace.GLPLUS

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise DomainError("expansion needs at least one channel")
        planar = channels[0].planar
        for ch in channels:
            if ch.planar != planar:
                raise DomainError("cannot mix planar and spatial channels")
        seen = set()
        for ch in channels:
            key = ch.channel_key()
            if key in seen:
                raise DomainError(f"duplicate channel {key}")
            seen.add(key)
        object.__setattr__(self, "channels", channels)


@dataclass(frozen=True)
class SuperselectionReport:
    """Outcome of a channel membership check."""

    target_space: TargetSpace
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def superselection_violation(target: TargetSpace, half_a: bool, half_b: bool) -> str | None:
    """Why a channel with labels of the given halfness is barred from target, or None.

    On the identity component both labels must be integral; on the
    double cover they must have equal halfness.
    """
    if target is TargetSpace.GLPLUS:
        if half_a or half_b:
            return "half-integer label on the identity component"
    elif half_a != half_b:
        return "labels of unequal halfness on the double cover"
    return None


def validate_superselection(expansion: Expansion) -> SuperselectionReport:
    """Check every channel against the expansion's target space."""
    violations = []
    for i, ch in enumerate(expansion.channels):
        why = superselection_violation(
            expansion.target_space, ch.alpha.half_integer, ch.beta.half_integer
        )
        if why is not None:
            violations.append((i, ch.alpha, ch.beta, why))
    return SuperselectionReport(expansion.target_space, tuple(violations))


def signed_permutation_group(n: int) -> list:
    """All signed permutation matrices of determinant +1 (n!*2^(n-1) of them)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    from itertools import permutations, product

    out = []
    for perm in permutations(range(n)):
        for signs in product((1.0, -1.0), repeat=n):
            W = np.zeros((n, n))
            for j, (row, s) in enumerate(zip(perm, signs)):
                W[row, j] = s
            if np.linalg.det(W) > 0.0:
                out.append(readonly(W))
    return out


def _is_signed_permutation(W: np.ndarray) -> bool:
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        return False
    absW = np.abs(W)
    ok_entries = np.all((absW < 1e-12) | (np.abs(absW - 1.0) < 1e-12))
    return bool(
        ok_entries
        and np.all(np.sum(absW > 0.5, axis=0) == 1)
        and np.all(np.sum(absW > 0.5, axis=1) == 1)
        and np.linalg.det(W) > 0.0
    )


def invariant_permutation(W) -> np.ndarray:
    """Permutation p with (pi_W q)_j = q_p(j) induced by a signed permutation."""
    W = np.asarray(W, dtype=float)
    if not _is_signed_permutation(W):
        raise DomainError("W must be a signed permutation matrix with determinant +1")
    return np.argmax(np.abs(W) > 0.5, axis=1)


def channel_d_factors(alpha: RepLabel, beta: RepLabel, W) -> tuple:
    """Left and right channel factors (DL(W), DR(W)) of a symmetry element.

    The factors are D^alpha(left) and D^beta(right^{-1}) at left = right = W:
    for SO(2) labels both are phases exp(i m w), exp(i n w) at W's rotation
    angle w, otherwise the right factor is D^beta(W^{-1}), taken as the exact
    unitary inverse D^beta(W)^H.
    """
    W = np.asarray(W, dtype=float)
    if alpha.group is Group.SO2:
        w = float(np.arctan2(W[1, 0], W[0, 0]))
        return np.array([[np.exp(1j * alpha.m * w)]]), np.array([[np.exp(1j * beta.m * w)]])
    w = rotation_vector_from_matrix(W)
    return wigner_D(alpha, w), wigner_D(beta, w).conj().T


def validate_w_symmetry(amplitude: ChannelAmplitude, W) -> float:
    """Largest pointwise defect of f(pi_W(q)) - DL(W) f(q) DR(W) over the grid.

    The grid must be the same along every axis so that the permuted
    point set coincides with the grid.
    """
    W = np.asarray(W, dtype=float)
    perm = invariant_permutation(W)
    if W.shape[0] != amplitude.grid.ndim:
        raise DomainError("symmetry element dimension does not match the grid")
    if not amplitude.grid.symmetric():
        raise DomainError("grid must be identical along every axis")
    n = amplitude.grid.ndim
    # g[i_1..i_n] = f at the permuted point, i.e. axis j of f indexed by i_perm(j)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    permuted = np.transpose(amplitude.values, axes=tuple(inv) + (n, n + 1))
    dl, dr = channel_d_factors(amplitude.alpha, amplitude.beta, W)
    transformed = np.einsum("ab,...bc,cd->...ad", dl, amplitude.values, dr)
    defect = np.abs(permuted - transformed)
    return float(np.sqrt(np.max(np.sum(defect**2, axis=(-2, -1)))))


__all__ = [
    "ChannelAmplitude",
    "Expansion",
    "QGrid",
    "SuperselectionReport",
    "TargetSpace",
    "channel_d_factors",
    "invariant_permutation",
    "signed_permutation_group",
    "superselection_violation",
    "validate_superselection",
    "validate_w_symmetry",
]
