"""Eigensolvers and spectral classification for the reduced channels.

1D channel operators are reduced to their exactly equivalent symmetric
tridiagonal form and diagonalized directly.  Bound states are reported
only when they clear the continuum threshold by a resolution margin of
three times the per-eigenvalue discretization error estimate (obtained
from an internal coarse-grid solve), so a box artifact hovering at the
threshold is never counted as bound.

Channels classify by the hyperbolic barrier balance: |n-m| < |n+m| keeps
the attractive ch^-2 term dominant (discrete states possible), the
reverse leaves only the repulsive sh^-2 core (purely continuous), and
equality is reported as marginal with no verdict.

The n=3 matrix-valued operators are self-adjoint only in the weighted
inner product, so each is assembled as a sparse matrix in the same
sqrt-weight similarity as the 1D operators and handed to scipy's `eigsh`
(ARPACK's implicitly restarted Lanczos).  Found eigenvectors are lifted
out of the spectrum and a loose check, else a tight rerun, looks for a
level left below them, so degenerate eigenvalues keep their multiplicity.

Refined solves walk one chain, `nested_grids`: a grid and its halved-step
refinements, coarsest first, for a Grid1D or a GridND alike.  Both
`convergence_study` and the refinement levels of `affbody run` take it.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError, readonly, text_file
from .hamiltonians import Grid1D, ModelKind, ModelParams, assemble_2d_channel

DEFAULT_BOX = 40.0
DEFAULT_NPOINTS = 999
NODE_CLIP = 1e-8
MARGIN_FACTOR = 3.0
LOOSE_CHECK_TOL = 1e-4  # ARPACK accuracy of solve_nd's first check for a missed level


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
    bound_count: int
    node_counts: tuple
    margins: np.ndarray
    x_min: float
    x_max: float
    h: float
    refinement: int = 0

    def __post_init__(self):
        for name in ("eigenvalues", "margins"):
            object.__setattr__(self, name, readonly(np.array(getattr(self, name), dtype=float)))

    @property
    def bound_flags(self) -> np.ndarray:
        return _bound_mask(self.eigenvalues, self.threshold, self.margins)


def _bound_mask(vals, threshold: float, margins) -> np.ndarray:
    """Eigenvalues below the threshold by MARGIN_FACTOR times their margin."""
    if math.isnan(threshold):
        return np.zeros(len(vals), dtype=bool)
    return vals < threshold - MARGIN_FACTOR * np.where(np.isnan(margins), 0.0, margins)


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


def _lowest_1d(op, count: int, nodes: bool = False, memo: dict | None = None):
    """Lowest `count` eigenvalues and, if asked, their node counts (else None).

    memo, keyed by count and a hash of the tridiagonal, holds the results
    already computed in one call, so label twins and the previous level's
    grid are solved once; identical inputs give identical LAPACK output.
    """
    d, e = _tridiagonal(op)
    if count > len(d):
        raise DomainError(f"count = {count} exceeds the matrix dimension {len(d)}")
    if memo is not None:
        from hashlib import blake2b

        key = (count, blake2b(d.tobytes() + e.tobytes(), digest_size=16).digest())
        hit = memo.get(key)
        if hit is not None and (hit[1] is not None or not nodes):
            return hit
    try:
        out = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1), eigvals_only=not nodes
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    if nodes:
        vals, vecs = out
        result = readonly(vals), tuple(_count_nodes(vecs[:, i]) for i in range(count))
    else:
        result = readonly(out), None
    if memo is not None and (nodes or key not in memo):
        memo[key] = result  # never replace an entry holding node counts
    return result


def _coarsened(op, count: int, memo: dict | None = None):
    """Eigenvalues of the same operator restricted to a 2h grid, or None.

    Odd node counts coarsen exactly (every second node is a coarse node);
    otherwise the stored diagonal is linearly interpolated, which is
    accurate enough for an error estimate.
    """
    g = op.grid
    try:
        coarse = g.coarsen()
    except DomainError:
        return None
    if count > coarse.npoints:
        return None
    if g.npoints % 2 == 1:
        diag = op.diag_potential[1::2]
    else:
        diag = np.interp(coarse.points, g.points, op.diag_potential)
    return _lowest_1d(replace(op, grid=coarse, diag_potential=diag), count, memo=memo)[0]


def solve_1d(op, count: int, memo: dict | None = None) -> SpectrumResult:
    """Lowest eigenpairs of a 1D channel operator (either form).

    memo is a per-call cache of tridiagonal solves (see `_lowest_1d`).
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    vals, nodes = _lowest_1d(op, count, nodes=True, memo=memo)
    coarse = _coarsened(op, count, memo)
    margins = np.full(count, np.nan) if coarse is None else np.abs(vals - coarse)
    return SpectrumResult(
        kind=op.kind,
        channel=tuple(op.channel),
        eigenvalues=vals,
        threshold=op.threshold,
        bound_count=int(np.sum(_bound_mask(vals, op.threshold, margins))),
        node_counts=nodes,
        margins=margins,
        x_min=op.grid.x_min,
        x_max=op.grid.x_max,
        h=op.grid.step,
    )


@dataclass(frozen=True)
class ScanRow:
    channel: tuple
    energy: float | None
    error: str | None
    result: SpectrumResult | None


def boundedness_scan(
    kind: ModelKind,
    params: ModelParams,
    channels,
    count: int = 1,
    grid: Grid1D | None = None,
) -> list:
    """Ground energy per channel; failures recorded per row, not raised.

    Label twins (channels with the same operator) are solved once.
    """
    if not channels:
        raise DomainError("channel list must be nonempty")
    if grid is None:
        grid = Grid1D.from_spec(DEFAULT_BOX, DEFAULT_NPOINTS)
    rows, memo = [], {}
    for ch in sorted(channels):
        try:
            op = assemble_2d_channel(kind, params, ch, grid)
            res = solve_1d(op, count, memo)
            rows.append(ScanRow(tuple(ch), float(res.eigenvalues[0]), None, res))
        except Exception as exc:  # partial results allowed
            rows.append(ScanRow(tuple(ch), None, str(exc), None))
    return rows


# ---------------------------------------------------------------------------
# matrix-valued channels


def solve_nd(op, count: int, seed: int = 7, tol: float = 1e-9, maxiter: int = 600) -> SpectrumResult:
    """Lowest eigenvalues of an n=3 channel operator.

    scipy's `eigsh` (ARPACK's implicitly restarted Lanczos) runs on A =
    `op.symmetric_matrix()`, which must be real and pass a random symmetry
    probe at 1e-12 relative (else DomainError).  `tol` is ARPACK's relative
    accuracy, `maxiter` its limit on restarts per run, and `seed` draws the
    probe and the start vectors.  A degenerate level shows once per Krylov
    space, so the vectors V found are lifted (M = A + sigma V V^T, above the
    count-th value) and M's lowest value is checked: first at
    LOOSE_CHECK_TOL, where a Ritz pair (theta, y) ends the solve if
    theta - |M y - theta y| clears the count-th value less 10 tol scale, then
    at `tol`, where a value below that bound joins the spectrum and the
    check repeats.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if count < 1:
        raise DomainError("count must be at least 1")
    if count > 10:
        raise DomainError("count must not exceed 10 for the iterative solver")
    A = op.symmetric_matrix()
    size = A.shape[0]
    if count >= size:
        raise DomainError(f"count = {count} exceeds the problem dimension {size}")
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(size)
    image = A @ probe
    if np.iscomplexobj(A) or np.linalg.norm(image - A.T @ probe) > 1e-12 * np.linalg.norm(image):
        raise DomainError("the sqrt-weight symmetrized operator is not real symmetric")

    def lowest(M, k, accuracy):
        try:
            return eigsh(
                M, k=k, which="SA", tol=accuracy, maxiter=maxiter, v0=rng.standard_normal(size)
            )
        except ArpackNoConvergence as exc:
            raise NumericalError(f"eigsh did not converge: {exc}") from exc

    vals, vecs = lowest(A, count, tol)
    while True:
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        kth = vals[count - 1]
        scale = max(abs(vals[0]), abs(kth))
        floor = kth - 10.0 * tol * scale
        sigma = 2.0 * (kth - vals[0]) + scale
        lifted = LinearOperator(
            A.shape, lambda x: A @ x + sigma * (vecs @ (vecs.T @ x)), dtype=float
        )
        theta, y = lowest(lifted, 1, LOOSE_CHECK_TOL)
        if theta[0] - np.linalg.norm(lifted @ y - theta * y) >= floor:
            break
        val, vec = lowest(lifted, 1, tol)
        if not val[0] < floor:
            break
        vals, vecs = np.append(vals, val), np.hstack((vecs, vec))
    g = op.grid
    return SpectrumResult(
        kind=op.kind,
        channel=tuple(op.labels),
        eigenvalues=vals[:count],
        threshold=math.nan,
        bound_count=0,
        node_counts=(),
        margins=np.full(count, np.nan),
        x_min=g.q_min,
        x_max=g.q_max,
        h=g.step,
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
    make_op, base_grid: Grid1D, levels: int = 3, count: int = 5, memo: dict | None = None
) -> ConvergenceStudy:
    """Solve on `levels` nested grids and fit the observed order.

    make_op maps a Grid1D to an assembled 1D operator (either form); memo
    is a per-call cache of tridiagonal solves (see `_lowest_1d`).
    """
    if levels < 3:
        raise DomainError("a convergence study needs at least three levels")
    grids = nested_grids(base_grid, levels)
    table = np.array([_lowest_1d(make_op(g), count, memo=memo)[0] for g in grids])
    orders = np.empty(count)
    extrap = np.empty(count)
    for i in range(count):
        extrap[i], orders[i] = richardson(table[-3, i], table[-2, i], table[-1, i])
    return ConvergenceStudy(tuple(g.step for g in grids), table, orders, extrap)


def write_spectrum_table(target, results) -> None:
    """Delimited spectrum table, one row per eigenvalue, %.14e throughout."""
    with text_file(target, "w") as fh:
        fh.write("# model l1 l2 index energy threshold bound X h\n")
        for res in results:
            flags = res.bound_flags
            for i, val in enumerate(res.eigenvalues):
                fh.write(
                    f"{res.kind.value} {res.channel[0]} {res.channel[1]} {i} "
                    f"{val:.14e} {res.threshold:.14e} {int(flags[i])} "
                    f"{res.x_max:.14e} {res.h:.14e}\n"
                )


__all__ = [
    "DEFAULT_BOX",
    "DEFAULT_NPOINTS",
    "MARGIN_FACTOR",
    "ConvergenceStudy",
    "ScanRow",
    "SpectralClass",
    "SpectrumResult",
    "boundedness_scan",
    "classify_channel",
    "convergence_study",
    "nested_grids",
    "richardson",
    "solve_1d",
    "solve_nd",
    "write_spectrum_table",
]
