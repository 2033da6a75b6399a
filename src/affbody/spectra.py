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
inner product, so their matrix-free action is symmetrized by the same
sqrt-weight similarity as the 1D operators and handed to scipy's `eigsh`
(ARPACK's implicitly restarted Lanczos).  Found eigenvectors are lifted
out of the spectrum and the solve reruns from a fresh vector, so
degenerate eigenvalues are recovered with their multiplicity.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError
from .hamiltonians import (
    ChannelOperator1D,
    Grid1D,
    ModelKind,
    ModelParams,
    SymmetrizedOperator1D,
    assemble_2d_channel,
)

DEFAULT_BOX = 40.0
DEFAULT_NPOINTS = 999
NODE_CLIP = 1e-8
MARGIN_FACTOR = 3.0


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
        vals = np.array(self.eigenvalues, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        marg = np.array(self.margins, dtype=float)
        marg.flags.writeable = False
        object.__setattr__(self, "margins", marg)

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
        result = vals, tuple(_count_nodes(vecs[:, i]) for i in range(count))
    else:
        result = out, None
    result[0].flags.writeable = False
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
    """Lowest eigenvalues of a matrix-free n=3 channel operator.

    H is self-adjoint in the weighted inner product, so R H R^-1 with
    R = sqrt(P) is symmetric, and scipy's `eigsh` (ARPACK's implicitly
    restarted Lanczos) finds its lowest values.  `tol` is ARPACK's relative
    accuracy, `maxiter` its limit on restarts per run, and `seed` draws the
    start vectors.  One Krylov space sees an exactly degenerate level only
    once, so the vectors V found so far are lifted out of the way
    (H + sigma V V^T, sigma putting them above the count-th value) and the
    solver reruns for the lowest value left until that value is not below
    the count-th.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if count < 1:
        raise DomainError("count must be at least 1")
    if count > 10:
        raise DomainError("count must not exceed 10 for the iterative solver")
    shape = op.shape
    size = int(np.prod(shape))
    if count >= size:
        raise DomainError(f"count = {count} exceeds the problem dimension {size}")
    cells = int(np.prod(shape[:3]))
    root = np.sqrt(op.weight).reshape(cells, 1)
    rng = np.random.default_rng(seed)

    def lifted(x):
        x = x.reshape(-1)
        y = op.apply((x.reshape(cells, -1) / root).reshape(shape))
        if np.iscomplexobj(y):
            if np.any(y.imag):
                raise DomainError("operator maps real amplitudes to complex ones")
            y = y.real
        return (root * y.reshape(cells, -1)).reshape(-1) + sigma * (vecs @ (vecs.T @ x))

    def lowest(k):
        try:
            vals, vecs = eigsh(
                LinearOperator((size, size), matvec=lifted, dtype=float),
                k=k, which="SA", tol=tol, maxiter=maxiter, v0=rng.standard_normal(size),
            )
        except ArpackNoConvergence as exc:
            raise NumericalError(f"eigsh did not converge: {exc}") from exc
        return vals, vecs

    vecs, sigma = np.empty((size, 0)), 0.0
    vals, vecs = lowest(count)
    while True:
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        kth = vals[count - 1]
        scale = max(abs(vals[0]), abs(kth))
        sigma = 2.0 * (kth - vals[0]) + scale
        val, vec = lowest(1)
        if not val[0] < kth - 10.0 * tol * scale:
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
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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


def convergence_study(
    make_op, base_grid: Grid1D, levels: int = 3, count: int = 5, memo: dict | None = None
) -> ConvergenceStudy:
    """Solve on `levels` nested grids and fit the observed order.

    make_op maps a Grid1D to an assembled 1D operator (either form); memo
    is a per-call cache of tridiagonal solves (see `_lowest_1d`).
    """
    if levels < 3:
        raise DomainError("a convergence study needs at least three levels")
    hs, table = [], []
    grid = base_grid
    for _ in range(levels):
        op = make_op(grid)
        vals, _ = _lowest_1d(op, count, memo=memo)
        hs.append(grid.step)
        table.append(vals)
        grid = grid.refine()
    table = np.array(table)
    orders = np.empty(count)
    extrap = np.empty(count)
    for i in range(count):
        extrap[i], orders[i] = richardson(table[-3, i], table[-2, i], table[-1, i])
    return ConvergenceStudy(tuple(hs), table, orders, extrap)


def write_spectrum_table(target, results) -> None:
    """Delimited spectrum table, one row per eigenvalue, %.14e throughout."""
    close = False
    if isinstance(target, (str, bytes)):
        fh = open(target, "w", encoding="utf-8")
        close = True
    else:
        fh = target
    try:
        fh.write("# model l1 l2 index energy threshold bound X h\n")
        for res in results:
            flags = res.bound_flags
            for i, val in enumerate(res.eigenvalues):
                fh.write(
                    f"{res.kind.value} {res.channel[0]} {res.channel[1]} {i} "
                    f"{val:.14e} {res.threshold:.14e} {int(flags[i])} "
                    f"{res.x_max:.14e} {res.h:.14e}\n"
                )
    finally:
        if close:
            fh.close()


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
    "richardson",
    "solve_1d",
    "solve_nd",
    "write_spectrum_table",
]
