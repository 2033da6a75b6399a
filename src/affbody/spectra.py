"""Eigensolvers and spectral classification for the reduced channels.

1D channel operators are reduced to their exactly equivalent symmetric
tridiagonal form, and LAPACK finds its eigenvalues alone (only
`node_counts` asks for eigenvectors).  Bound states are reported only
when they clear the continuum threshold by a resolution margin of three
times the per-eigenvalue discretization error estimate: the distance to
the same operator's eigenvalues on the 2h grid, so a box artifact at the
threshold is never bound.  `SpectrumResult.bound_flags` is that rule.

Channels classify by the hyperbolic barrier balance: |n-m| < |n+m| keeps
the attractive ch^-2 term dominant (discrete states possible), the
reverse leaves only the repulsive sh^-2 core (purely continuous), and
equality is reported as marginal with no verdict.

The n=3 matrix-valued operators are self-adjoint only in the weighted
inner product, so each is assembled as sparse matrices in the same
sqrt-weight similarity as the 1D operators, one per exact symmetry block.
The first block is handed to scipy's `eigsh` (ARPACK's implicitly
restarted Lanczos) at relative accuracy ND_TOL.  Found eigenvectors are
lifted out of the block's spectrum and a loose check, else a tight rerun,
looks for a level left below them, so degenerate eigenvalues keep their
multiplicity.  Each later block first gets the same loose check, lifted
by nothing, against the lowest values found so far, and is solved only
when it may hold a level below them.

Refined solves walk one chain, `nested_grids`: a grid and its halved-step
refinements, coarsest first, for a Grid1D or a GridND alike.  Both
`convergence_study` and the refinement levels of `affbody run` take it.
A level's 2h grid is the level before it, whose eigenvalues `affbody run`
passes to `solve_1d` for the margins; only level 0 solves its own 2h grid.

scipy is imported inside the solvers that call it, so importing this module
loads no scipy module before the first solve.
"""

import math
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalError, readonly
from .hamiltonians import ENTRY_LIMIT, Grid1D, ModelKind

DEFAULT_BOX = 40.0
DEFAULT_NPOINTS = 999
NODE_CLIP = 1e-8
MARGIN_FACTOR = 3.0
ND_TOL = 1e-9  # ARPACK's relative accuracy in solve_nd
ND_MAXITER = 600  # ARPACK's limit on restarts per solve_nd run
LOOSE_CHECK_TOL = 1e-4  # ARPACK accuracy of solve_nd's first check for a missed level
MAX_ND_COUNT = 10  # most eigenvalues solve_nd is asked for


class SpectralClass(Enum):
    DISCRETE_CAPABLE = "discrete-capable"
    CONTINUOUS_ONLY = "continuous-only"
    MARGINAL = "marginal"


def classify_channel(channel) -> SpectralClass:
    m, n = channel
    lo, hi = abs(n - m), abs(n + m)
    if lo < hi:
        return SpectralClass.DISCRETE_CAPABLE
    if lo > hi:
        return SpectralClass.CONTINUOUS_ONLY
    return SpectralClass.MARGINAL


@dataclass(frozen=True)
class SpectrumResult:
    kind: ModelKind
    channel: tuple
    eigenvalues: np.ndarray
    threshold: float
    margins: np.ndarray
    x_max: float
    h: float

    def __post_init__(self):
        for name in ("eigenvalues", "margins"):
            object.__setattr__(self, name, readonly(np.array(getattr(self, name), dtype=float)))

    @property
    def bound_flags(self) -> np.ndarray:
        """Eigenvalues below the threshold by MARGIN_FACTOR times their margin (none if nan)."""
        margins = np.where(np.isnan(self.margins), 0.0, self.margins)
        return self.eigenvalues < self.threshold - MARGIN_FACTOR * margins

    @property
    def bound_count(self) -> int:
        return int(np.sum(self.bound_flags))


def _count_nodes(u: np.ndarray) -> int:
    """Interior sign changes, ignoring entries below the clip level."""
    kept = u[np.abs(u) > NODE_CLIP * np.max(np.abs(u))]
    signs = np.sign(kept)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _tridiagonal(op):
    try:
        return op.symmetric_tridiagonal()
    except AttributeError:
        raise DomainError("solve_1d expects a 1D channel operator") from None


def _eigh_tridiagonal(d, e, count: int, eigvals_only: bool):
    """LAPACK's lowest `count` eigenvalues (and vectors unless eigvals_only).

    eigh_tridiagonal's stebz never rescales, so past ENTRY_LIMIT the matrix is
    solved as dstev would: scaled by the power of two 2^-k that brings its
    largest entry below 1, which is exact, with the eigenvalues scaled back.
    """
    if not 1 <= count <= len(d):
        raise DomainError(f"count = {count} is not between 1 and the matrix dimension {len(d)}")
    import scipy.linalg

    largest = max(np.abs(d).max(), np.abs(e).max(initial=0.0))
    k = math.frexp(largest)[1] if ENTRY_LIMIT < largest < math.inf else 0
    if k:
        d, e = np.ldexp(d, -k), np.ldexp(e, -k)
    try:
        out = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1), eigvals_only=eigvals_only
        )
    except ValueError as exc:  # LinAlgError, or a non-finite entry
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    if not k:
        return out
    return np.ldexp(out, k) if eigvals_only else (np.ldexp(out[0], k), out[1])


def _lowest_1d(op, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues; no eigenvectors are computed."""
    return _eigh_tridiagonal(*_tridiagonal(op), count, eigvals_only=True)


def node_counts(op, count: int) -> tuple:
    """Sturm counts: `_count_nodes` of each of the lowest `count` eigenvectors."""
    _, vecs = _eigh_tridiagonal(*_tridiagonal(op), count, eigvals_only=False)
    return tuple(_count_nodes(vecs[:, i]) for i in range(count))


def _coarsened(op, count: int):
    """Eigenvalues of the same operator restricted to a 2h grid, or None.

    The stored diagonal is linearly interpolated onto the coarse nodes.
    On odd node counts every coarse node is a fine node, so this samples
    the diagonal exactly; otherwise it is accurate enough for an error
    estimate.
    """
    g = op.grid
    try:
        coarse = g.coarsen()
    except DomainError:
        return None
    if count > coarse.npoints:
        return None
    diag = np.interp(coarse.points, g.points, op.diag_potential)
    return _lowest_1d(replace(op, grid=coarse, diag_potential=diag), count)


def solve_1d(op, count: int, coarse=None) -> SpectrumResult:
    """Lowest eigenvalues of a 1D channel operator (either form).

    coarse: the lowest `count` eigenvalues of op on its 2h grid (such as the
    previous `nested_grids` level), else `_coarsened`'s; margins = |vals - coarse|.
    """
    if coarse is not None and len(coarse) != count:
        raise DomainError(f"coarse holds {len(coarse)} eigenvalues, expected count = {count}")
    vals = _lowest_1d(op, count)
    coarse = _coarsened(op, count) if coarse is None else coarse
    margins = np.full(count, np.nan) if coarse is None else np.abs(vals - coarse)
    return SpectrumResult(
        kind=op.kind,
        channel=tuple(op.channel),
        eigenvalues=vals,
        threshold=op.threshold,
        margins=margins,
        x_max=op.grid.x_max,
        h=op.grid.step,
    )


# ---------------------------------------------------------------------------
# matrix-valued channels


def _check_block(A, count: int, rng) -> None:
    """Refuse a block that no eigsh run may take: count not below its dimension, a
    non-finite entry, or failing a random symmetry probe at 1e-12 relative.

    The probe is taken on A scaled by the power of two 2^-k that brings its
    largest entry into [1/2, 1), which is exact, so that its squared norms do
    not overflow (past about 1e154) or vanish and pass any matrix.
    """
    size = A.shape[0]
    if count >= size:
        raise DomainError(f"count = {count} exceeds the problem dimension {size}")
    nonfinite = A.data.size - np.count_nonzero(np.isfinite(A.data))
    if nonfinite:
        raise NumericalError(f"block has {nonfinite} non-finite entries; its coefficients overflow")
    probe = rng.standard_normal(size)
    if not np.iscomplexobj(A):
        A = A.copy()
        A.data = np.ldexp(A.data, -math.frexp(np.abs(A.data).max(initial=0.0))[1])
    image = A @ probe
    if np.iscomplexobj(A) or not (
        np.linalg.norm(image - A.T @ probe) <= 1e-12 * np.linalg.norm(image)
    ):
        raise DomainError("the sqrt-weight symmetrized operator is not real symmetric")


def _lowest(M, k: int, accuracy: float, rng):
    """eigsh's lowest k eigenpairs of M at relative accuracy, started from a draw of rng."""
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    try:
        return eigsh(
            M, k=k, which="SA", tol=accuracy, maxiter=ND_MAXITER, v0=rng.standard_normal(M.shape[0])
        )
    except ArpackError as exc:  # ArpackNoConvergence among them
        outcome = "did not converge" if isinstance(exc, ArpackNoConvergence) else "failed"
        raise NumericalError(f"eigsh {outcome}: {exc}") from exc


def _floor(vals, count: int) -> float:
    """The count-th of the ascending vals less 10 ND_TOL scale, scale the larger of its
    and vals[0]'s magnitudes: a level below it would change the lowest count."""
    kth = vals[count - 1]
    return kth - 10.0 * ND_TOL * max(abs(vals[0]), abs(kth))


def _clears(M, floor: float, rng) -> bool:
    """Whether M's lowest level lies at or above floor, by one eigsh run at LOOSE_CHECK_TOL
    whose Ritz pair (theta, y) settles it when theta - |M y - theta y| >= floor."""
    theta, y = _lowest(M, 1, LOOSE_CHECK_TOL, rng)
    return theta[0] - np.linalg.norm(M @ y - theta * y) >= floor


def _lowest_block(A, count: int, rng) -> np.ndarray:
    """Lowest `count` eigenvalues of one block A that passed `_check_block`, ascending."""
    from scipy.sparse.linalg import LinearOperator

    vals, vecs = _lowest(A, count, ND_TOL, rng)
    while True:
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        kth = vals[count - 1]
        floor = _floor(vals, count)
        sigma = 2.0 * (kth - vals[0]) + max(abs(vals[0]), abs(kth))
        lifted = LinearOperator(
            A.shape, lambda x: A @ x + sigma * (vecs @ (vecs.T @ x)), dtype=float
        )
        if _clears(lifted, floor, rng):
            return vals[:count]
        val, vec = _lowest(lifted, 1, ND_TOL, rng)
        if not val[0] < floor:
            return vals[:count]
        vals, vecs = np.append(vals, val), np.hstack((vecs, vec))


def solve_nd(op, count: int, seed: int = 7) -> SpectrumResult:
    """Lowest eigenvalues of an n=3 channel operator.

    The operator splits into blocks: `op.block_matrix(k)` is block k and
    each of its eigenvalues counts `op.block_copies[k]` times.  A block with
    copies c > 0 is built, checked (real, finite and passing a random
    symmetry probe at 1e-12 relative, else DomainError or NumericalError)
    and dropped before the next.  The first is solved for its lowest
    ceil(count / c) values.  A later block first gets the lift check's
    question below, lifted by nothing, against the merged values so far,
    and is skipped when it clears their count-th value less 10 ND_TOL
    scale.  The skip runs draw from a generator of their own, spawned from
    `seed`, so a solved block that no skipped block precedes returns what
    it returned when every block was solved.  The merged values are sorted
    and the lowest `count` kept.

    Per solved block, scipy's `eigsh` (ARPACK's implicitly restarted
    Lanczos) runs at relative accuracy ND_TOL with at most ND_MAXITER
    restarts per run, and `seed` draws the probes and the start vectors.
    A degenerate level shows once per Krylov space, so the vectors V found
    are lifted (M = A + sigma V V^T, above the block's k-th value) and M's
    lowest value is checked: first at LOOSE_CHECK_TOL, where a Ritz pair
    (theta, y) ends the block if theta - |M y - theta y| clears the k-th
    value less 10 ND_TOL scale, then at ND_TOL, where a value below that
    bound joins the block's values and the check repeats.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    if count > MAX_ND_COUNT:
        raise DomainError(f"count must not exceed {MAX_ND_COUNT} for the iterative solver")
    rng = np.random.default_rng(seed)
    skip_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    found = np.empty(0)
    for k, copies in enumerate(op.block_copies):
        if not copies:
            continue
        A = op.block_matrix(k)
        want = math.ceil(count / copies)
        _check_block(A, want, rng)
        if not found.size or not _clears(A, _floor(found, count), skip_rng):
            found = np.sort(np.concatenate((found, np.repeat(_lowest_block(A, want, rng), copies))))
        del A  # before the next block is built
    return SpectrumResult(
        kind=op.kind,
        channel=tuple(op.labels),
        eigenvalues=found[:count],
        threshold=math.nan,
        margins=np.full(count, np.nan),
        x_max=op.grid.q_max,
        h=op.grid.step,
    )


# ---------------------------------------------------------------------------
# refinement studies


@dataclass(frozen=True)
class ConvergenceStudy:
    hs: tuple
    eigenvalues: np.ndarray  # (levels, count)
    orders: np.ndarray  # per eigenvalue, from the last three levels
    extrapolated: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "orders", "extrapolated"):
            object.__setattr__(self, name, readonly(np.array(getattr(self, name), dtype=float)))


def richardson(e0, e1, e2):
    """Order-fitted extrapolation of one eigenvalue over grids h, h/2, h/4.

    Returns (limit, order); keeps the finest value (order = nan) when the
    differences sit at rounding noise or do not contract geometrically.
    """
    d1, d2 = e1 - e0, e2 - e1
    noise = 1e-11 * max(abs(e2), 1.0)
    if abs(d1) < noise or abs(d2) < noise or d1 * d2 <= 0.0:
        return e2, math.nan
    p = math.log2(abs(d1 / d2))
    if not 0.3 < p < 5.0:
        return e2, p
    return e2 + d2 / (2.0**p - 1.0), p


def nested_grids(grid, levels: int) -> list:
    """grid and its first levels - 1 refinements, coarsest first.

    Only grid.refine() is used, so a Grid1D and a GridND both serve.
    """
    grids = [grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refine())
    return grids


def convergence_study(
    make_op, base_grid: Grid1D, levels: int = 3, count: int = 5
) -> ConvergenceStudy:
    """Solve on `levels` nested grids and fit the observed order.

    make_op maps a Grid1D to an assembled 1D operator (either form).  Each
    level is one eigenvalue-only solve; no margin is taken.
    """
    if levels < 3:
        raise DomainError("a convergence study needs at least three levels")
    grids = nested_grids(base_grid, levels)
    table = np.array([_lowest_1d(make_op(g), count) for g in grids])
    orders = np.empty(count)
    extrap = np.empty(count)
    for i in range(count):
        extrap[i], orders[i] = richardson(table[-3, i], table[-2, i], table[-1, i])
    return ConvergenceStudy(tuple(g.step for g in grids), table, orders, extrap)


def write_spectrum_table(target, results) -> None:
    """Delimited spectrum table, one row per eigenvalue, %.14e throughout, to an open
    text handle, left open, or to a path (str, bytes or os.PathLike) as UTF-8."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "w", encoding="utf-8") as fh:
            return write_spectrum_table(fh, results)
    target.write("# model l1 l2 index energy threshold bound X h\n")
    for res in results:
        flags = res.bound_flags
        for i, val in enumerate(res.eigenvalues):
            target.write(
                f"{res.kind.value} {res.channel[0]} {res.channel[1]} {i} "
                f"{val:.14e} {res.threshold:.14e} {int(flags[i])} "
                f"{res.x_max:.14e} {res.h:.14e}\n"
            )


__all__ = [
    "DEFAULT_BOX",
    "DEFAULT_NPOINTS",
    "MARGIN_FACTOR",
    "MAX_ND_COUNT",
    "ConvergenceStudy",
    "SpectralClass",
    "SpectrumResult",
    "classify_channel",
    "convergence_study",
    "nested_grids",
    "node_counts",
    "richardson",
    "solve_1d",
    "solve_nd",
    "write_spectrum_table",
]
