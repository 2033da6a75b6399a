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
                  integral Tr(f1(q)^H f2(q)) P_lambda(q) dq,

evaluated here by the trapezoid rule on the amplitude grid.

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

import io
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, readonly, text_file
from .group_geometry import WeightKind, pair_weight
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

    def points(self) -> np.ndarray:
        """All nodes as an array of shape self.shape + (ndim,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def weight_field(self) -> np.ndarray:
        """P_lambda evaluated on every node."""
        return pair_weight(WeightKind.LAMBDA, self.points())

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


def _interpolate(amplitude: ChannelAmplitude, q: np.ndarray) -> np.ndarray:
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        amplitude.grid.axes, amplitude.values, bounds_error=True
    )
    try:
        return interp(q[None, :])[0]
    except ValueError as exc:
        raise DomainError(f"point {q} outside the amplitude grid") from exc


def _factors(alpha: RepLabel, beta: RepLabel, left, right) -> tuple:
    """The channel factors D^alpha(left) and D^beta(right^{-1}) as matrices.

    For SO(2) labels these are the phases exp(i m left) and exp(i n right);
    otherwise D^beta(right^{-1}) is the exact unitary inverse D^beta(right)^H.
    """
    if alpha.group is Group.SO2:
        return (
            np.array([[np.exp(1j * alpha.m * float(left))]]),
            np.array([[np.exp(1j * beta.m * float(right))]]),
        )
    return wigner_D(alpha, left), wigner_D(beta, right).conj().T


def evaluate(expansion: Expansion, left, q, right) -> complex:
    """Value of the represented function at a configuration point.

    For planar expansions, left and right are the rotation angles of the
    two circle factors; otherwise they are rotation vectors.  The
    deformation point q is linearly interpolated on each channel grid
    and a point outside the grid raises DomainError.
    """
    q = np.asarray(q, dtype=float)
    total = 0.0 + 0.0j
    for ch in expansion.channels:
        if q.shape != (ch.grid.ndim,):
            raise DomainError(f"point shape {q.shape} does not match grid dimension {ch.grid.ndim}")
        dl, dr = _factors(ch.alpha, ch.beta, left, right)
        total += (dl @ _interpolate(ch, q) @ dr).sum()
    return complex(total)


_trapz = getattr(np, "trapezoid", None) or np.trapz


def _trapezoid_nd(field: np.ndarray, grid: QGrid):
    out = field
    for ax in reversed(grid.axes):
        out = _trapz(out, x=ax, axis=-1)
    return out


def scalar_product(e1: Expansion, e2: Expansion, grid: QGrid | None = None) -> complex:
    """Channel-diagonal scalar product with the P_lambda weight.

    Channels pair by equal (alpha, beta); unmatched channels contribute
    nothing.  Both expansions must live on a shared grid and target space.
    """
    if e1.target_space is not e2.target_space:
        raise DomainError("expansions live on different target spaces")
    lookup = {ch.channel_key(): ch for ch in e2.channels}
    total = 0.0 + 0.0j
    for ch1 in e1.channels:
        ch2 = lookup.get(ch1.channel_key())
        if ch2 is None:
            continue
        if not ch1.grid.same_nodes(ch2.grid):
            raise DomainError("matched channels must share the deformation grid")
        if grid is not None and not ch1.grid.same_nodes(grid):
            raise DomainError("channel grid differs from the requested grid")
        weight = ch1.grid.weight_field()
        trace = np.einsum("...ab,...ab->...", ch1.values.conj(), ch2.values)
        total += _trapezoid_nd(trace * weight, ch1.grid) / (ch1.alpha.dim * ch1.beta.dim)
    return complex(total)


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

    The factors are evaluate's at left = right = W: for SO(2) labels both
    are phases at W's rotation angle, otherwise the right factor is
    D^beta(W^{-1}).
    """
    W = np.asarray(W, dtype=float)
    if alpha.group is Group.SO2:
        w = float(np.arctan2(W[1, 0], W[0, 0]))
    else:
        w = rotation_vector_from_matrix(W)
    return _factors(alpha, beta, w, w)


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


# ---------------------------------------------------------------------------
# textual persistence of channel amplitudes


_GROUP_TAGS = {Group.SO2: "so2", Group.SO3: "so3", Group.SU2: "su2"}
_TAG_GROUPS = {v: k for k, v in _GROUP_TAGS.items()}


def write_amplitudes(target, expansion: Expansion) -> None:
    """Serialize an expansion as line-oriented text.

    One record per channel per grid node: the two labels, the q vector,
    then the matrix entries row-major as real/imaginary pairs.  Floats
    are written with enough digits to round-trip exactly.
    """
    with text_file(target, "w") as fh:
        fh.write("# affbody-amplitudes 1\n")
        fh.write(f"# target {expansion.target_space.value}\n")
        for ch in expansion.channels:
            fh.write(
                f"# channel {_GROUP_TAGS[ch.alpha.group]} {ch.alpha.twice_spin}"
                f" {_GROUP_TAGS[ch.beta.group]} {ch.beta.twice_spin}"
                f" shape {' '.join(str(s) for s in ch.grid.shape)}\n"
            )
            pts = ch.grid.points().reshape(-1, ch.grid.ndim)
            vals = ch.values.reshape(len(pts), -1)
            for q, row in zip(pts, vals):
                cols = [_GROUP_TAGS[ch.alpha.group], str(ch.alpha.twice_spin),
                        _GROUP_TAGS[ch.beta.group], str(ch.beta.twice_spin)]
                cols += [f"{x:.17g}" for x in q]
                for z in row:
                    cols.append(f"{z.real:.17g}")
                    cols.append(f"{z.imag:.17g}")
                fh.write(" ".join(cols) + "\n")


def read_amplitudes(source) -> Expansion:
    """Inverse of write_amplitudes; a malformed line raises DomainError naming it."""
    with text_file(source, "r") as fh:
        target = TargetSpace.GLPLUS
        records: dict = {}  # per (alpha, beta), in order of appearance: q -> matrix
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts and parts[0] == "target":
                        target = TargetSpace(parts[1])
                    continue
                cols = line.split()
                alpha = RepLabel(_TAG_GROUPS[cols[0]], int(cols[1]))
                beta = RepLabel(_TAG_GROUPS[cols[2]], int(cols[3]))
                da, db = alpha.dim, beta.dim
                n_matrix = 2 * da * db
                q = tuple(float(x) for x in cols[4 : len(cols) - n_matrix])
                flat = np.array([float(x) for x in cols[len(cols) - n_matrix :]])
                mat = (flat[0::2] + 1j * flat[1::2]).reshape(da, db)
                data = records.setdefault((alpha, beta), {})
                if data and len(q) != len(next(iter(data))):
                    raise ValueError("invariant count differs from the channel's first record")
            except (KeyError, IndexError, ValueError) as exc:
                raise DomainError(f"amplitudes line {number}: malformed ({exc!r})") from exc
            data[q] = mat
    channels = []
    for (alpha, beta), data in records.items():
        pts = np.array(sorted(data.keys()))
        ndim = pts.shape[1]
        axes = tuple(np.unique(pts[:, d]) for d in range(ndim))
        grid = QGrid(axes)
        shape = grid.shape + (alpha.dim, beta.dim)
        if len(data) != int(np.prod(grid.shape)):
            raise DomainError("amplitude records do not fill a tensor grid")
        values = np.empty(shape, dtype=complex)
        lookup = [{float(v): i for i, v in enumerate(ax)} for ax in axes]
        for q, mat in data.items():
            idx = tuple(lookup[d][q[d]] for d in range(ndim))
            values[idx] = mat
        channels.append(ChannelAmplitude(alpha, beta, grid, values))
    return Expansion(tuple(channels), target)


def dumps_amplitudes(expansion: Expansion) -> str:
    buf = io.StringIO()
    write_amplitudes(buf, expansion)
    return buf.getvalue()


def loads_amplitudes(text: str) -> Expansion:
    return read_amplitudes(io.StringIO(text))


__all__ = [
    "ChannelAmplitude",
    "Expansion",
    "QGrid",
    "SuperselectionReport",
    "TargetSpace",
    "channel_d_factors",
    "dumps_amplitudes",
    "evaluate",
    "invariant_permutation",
    "loads_amplitudes",
    "read_amplitudes",
    "scalar_product",
    "signed_permutation_group",
    "superselection_violation",
    "validate_superselection",
    "validate_w_symmetry",
    "write_amplitudes",
]
