"""Two-polar factorization of internal configurations and measure weights.

An internal configuration is an n x n real matrix phi with det(phi) > 0.
It factorizes as

    phi = L @ diag(exp(q)) @ R^{-1},      L, R in SO(n),

where q holds the logarithmic deformation invariants, sorted descending.
The factor pair (L, R) is unique up to a common signed permutation and
becomes genuinely non-unique when two invariants coincide; configurations
with |q^a - q^b| < DEGENERACY_TOL are flagged degenerate.

The radial parts of the invariant measures carry the weights

    P_lambda(q) = prod_{a<b} |sinh(q^a - q^b)|            (q-coordinates)
    P_l(Q)      = prod_{a<b} |(Q^a + Q^b)(Q^a - Q^b)|     (Q-coordinates)

over unordered index pairs, so for n = 2 the lambda weight is the single
factor |sinh(q^1 - q^2)|.  Both weights vanish exactly when two
invariants coincide.

Densities of the left-invariant Haar measure on GL+(n, R) relative to
the Lebesgue measure of the matrix entries:

    d(lambda) = det(phi)^(-n)   d(l),
    d(alpha)  = det(phi)^(-n-1) d(a).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalError, readonly

DEGENERACY_TOL = 1e-10


class WeightKind(Enum):
    LAMBDA = "lambda"
    L = "l"


class MeasureTarget(Enum):
    """Which invariant measure a density ratio refers to."""

    LAMBDA_INTERNAL = "lambda_internal"
    ALPHA_FULL_GROUP = "alpha_full_group"


@dataclass(frozen=True)
class TwoPolarConfig:
    """Result of a two-polar factorization.

    Attributes:
        L, R: special orthogonal factors (read-only arrays).
        q: logarithmic deformation invariants, descending.
        degenerate: True when two invariants coincide within
            DEGENERACY_TOL; L and R are then not unique and callers
            must not rely on the individual factors.
    """

    L: np.ndarray
    q: np.ndarray
    R: np.ndarray
    degenerate: bool


def _configuration(phi):
    """(phi as a float array, det(phi)); DomainError unless square with finite det > 0."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise DomainError(f"configuration must be square, got shape {phi.shape}")
    det = np.linalg.det(phi)
    if not np.isfinite(det) or det <= 0.0:
        raise DomainError(f"configuration must have positive determinant, got {det}")
    return phi, det


def two_polar_decompose(phi) -> TwoPolarConfig:
    """Factor phi = L @ diag(exp(q)) @ R^{-1} with L, R in SO(n).

    Raises DomainError for non-square input, det(phi) <= 0, n < 2 or a
    singular value that rounds to zero (no finite q), and NumericalError
    if the underlying factorization fails.
    """
    phi, _ = _configuration(phi)
    if phi.shape[0] < 2:
        raise DomainError(f"need n >= 2, got n = {phi.shape[0]}")
    try:
        u, s, vt = np.linalg.svd(phi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"orthogonal factorization did not converge: {exc}") from exc
    # det(u) * det(v) = +1 here; repair a (-1, -1) pair by flipping the
    # last column of both orthogonal factors, which leaves phi invariant.
    if np.linalg.det(u) < 0.0:
        u = u.copy()
        vt = vt.copy()
        u[:, -1] *= -1.0
        vt[-1, :] *= -1.0
    if np.any(s <= 0.0):
        raise DomainError("configuration is numerically singular")
    q = np.log(s)
    degenerate = bool(np.any(np.abs(np.diff(q)) < DEGENERACY_TOL))
    return TwoPolarConfig(
        L=readonly(u), q=readonly(q), R=readonly(vt.T.copy()), degenerate=degenerate
    )


def reconstruct(config: TwoPolarConfig) -> np.ndarray:
    """Rebuild phi from a two-polar factorization."""
    return (config.L * np.exp(config.q)) @ config.R.T


def pair_weight(kind: WeightKind, q) -> np.ndarray:
    """P_lambda or P_l of the invariants along the last axis of q.

    The factors |sinh(q^a - q^b)| (LAMBDA) or |(Q^a + Q^b)(Q^a - Q^b)| (L)
    are multiplied in the pair order (0, 1), (0, 2), ..., (1, 2), ....
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    out = None
    for a in range(n):
        for b in range(a + 1, n):
            qa, qb = q[..., a], q[..., b]
            if kind is WeightKind.LAMBDA:
                factor = np.abs(np.sinh(qa - qb))
            else:
                factor = np.abs((qa + qb) * (qa - qb))
            out = factor if out is None else out * factor
    return out


def _invariants(name: str, q) -> np.ndarray:
    """q as a float vector; DomainError unless it holds at least two finite invariants."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.shape[0] < 2:
        raise DomainError(f"need a vector of at least two invariants, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise DomainError(f"deformation invariants {name} must be finite, got {q.tolist()}")
    return q


def weight_lambda(q) -> float:
    """Radial weight of the q-coordinate measure, prod_{a<b} |sinh(q^a - q^b)|."""
    return float(pair_weight(WeightKind.LAMBDA, _invariants("q", q)))


def weight_l(Q) -> float:
    """Radial weight of the Q-coordinate measure, prod_{a<b} |(Q^a+Q^b)(Q^a-Q^b)|."""
    Q = _invariants("Q", Q)
    if np.any(Q <= 0.0):
        raise DomainError("deformation invariants Q^a must be positive")
    return float(pair_weight(WeightKind.L, Q))


def haar_density_ratio(phi, target: MeasureTarget) -> float:
    """Density of an invariant measure relative to the Lebesgue one at phi.

    Returns det(phi)^(-n) for the internal measure and det(phi)^(-n-1)
    for the full-group measure.
    """
    phi, det = _configuration(phi)
    n = phi.shape[0]
    if target is MeasureTarget.LAMBDA_INTERNAL:
        return float(det ** (-n))
    if target is MeasureTarget.ALPHA_FULL_GROUP:
        return float(det ** (-n - 1))
    raise DomainError(f"unknown measure target {target!r}")
