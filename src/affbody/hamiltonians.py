"""Reduced channel Hamiltonians of the four kinetic-energy models.

Inertial bookkeeping:  with moment of inertia I and affine constants A, B,

    alpha = I + A,  mu = (I^2 - A^2)/I,
    beta  = -(I+A)(I+A+nB)/B  (1/beta = 0 when B = 0),
    beta~ = n(I+A+nB).

Two-dimensional channels (m, n) separate into an x-sector over the shear
coordinate x = q^2 - q^1 with weight |sh x| and a flat q-sector over the
mean dilatation q = (q^1 + q^2)/2:

    aff-aff:  -(hbar^2/A) D_x + hbar^2 (n-m)^2 / (16 A sh^2(x/2))
                              - hbar^2 (n+m)^2 / (16 A ch^2(x/2)),
              q-sector coefficient hbar^2/(4(A+2B));
    met-aff / aff-met:  same shape with A -> alpha, plus the constant
              hbar^2 m^2/mu (resp. hbar^2 n^2/mu),
              q-sector coefficient hbar^2/(2 beta~).

The isotropic model separates in Sigma = Q^1 + Q^2, Delta = Q^1 - Q^2 with
linear weights and inverse-square barriers hbar^2 (n-m)^2/(4 I Delta^2),
hbar^2 (n+m)^2/(4 I Sigma^2), both sectors sharing the coefficient
hbar^2/I.  Its grids start at or above 0 (`check_grid_start`).

Three-dimensional channels (s, j) act on (2s+1) x (2j+1) matrix
amplitudes over a tensor grid of deformation invariants: the weighted
Laplacian -(hbar^2/2A) D (staggered-flux divergence form), a dilatational
term along the grid diagonal (the mean-q second derivative), constant
Casimir shifts hbar^2 s(s+1)/2mu, hbar^2 j(j+1)/2mu for the mixed models,
and per ordered pair a != b the generator barriers

    (1/32A) (S_left - S_right)^2 / sh^2((q^a-q^b)/2)
  - (1/32A) (S_left + S_right)^2 / ch^2((q^a-q^b)/2)

where S_right f = S^(s) f and S_left f = f S^(j) act through the dual
axis of the pair.  The isotropic model uses weight P_l and both barrier
terms positive with (Q^a -+ Q^b)^-2 denominators and prefactor 1/8I.

Each dimension's coefficients come from one private helper, read by its
assembler and by `entry_scale`, which estimates a channel's largest
symmetric-matrix entry without assembling.  The planar one reads the
labels only through `shear_label_terms`, so label twins (equal terms)
share an x-sector bitwise.

Symmetrized, H = K (x) I_r + sum_t diag(f_t) (x) M_t: K is the spin-free
stencil on the N^3 cells, and six barrier fields f_t weight spin mats M_t
inside each cell.  `symmetric_matrix()` and `block_matrix(k)` sum the two
parts with scipy, anew on each call, from the K and f_t kept per operator
and the M_t projected on the block.  One table per labels and hbar,
`_spin_blocks`, holds the M_t projected on every Klein block and, last,
the M_t themselves, which `apply` reads.

Grid axes carry small relative offsets (0, h/3, 2h/3) so that nodes and
staggered flux midpoints never touch the coincidence strata where the
weights vanish.

The sqrt-weight symmetrization replaces the divergence-form operator by
-c d^2/dx^2 + U_eff with U_eff = c (w' + w^2), w = P'/(2P):
U_eff = c(1/4 - 1/(4 sh^2 x)) for P = |sh x| and -c/(4x^2) for P = x.
`symmetrize` returns it as a `ChannelOperator1D` of weight 1, whose
tridiagonal is the three-point one, 2c/h^2 + diag and -c/h^2.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, readonly
from .group_geometry import WeightKind, pair_weight
from .representations import MAX_TWICE_SPIN, RepLabel, generators, wigner_D

MAX_FIELD_ELEMENTS = 1 << 26
# sqrt(eps/safmin) = 2^485, about 1e146, past which LAPACK's dstev rescales a matrix:
# stebz (eigh_tridiagonal) squares the off-diagonal and fails near 1.3e154, where
# the squared norms of solve_nd's symmetry probe overflow too
ENTRY_LIMIT = 2.0**485


class ModelKind(Enum):
    AFF_AFF = "aff-aff"
    MET_AFF = "met-aff"
    AFF_MET = "aff-met"
    DALEMBERT = "dalembert"


@dataclass(frozen=True)
class ModelParams:
    """Inertial constants; n is the spatial dimension the model lives in."""

    I: float
    A: float
    B: float
    hbar: float = 1.0
    n: int = 2

    def __post_init__(self):
        for name in ("I", "A", "B", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.n not in (2, 3):
            raise DomainError(f"spatial dimension must be 2 or 3, got {self.n}")
        # float * float rounds an overflow to inf, where hbar**2 would raise
        if not (self.hbar > 0.0 and 0.0 < self.hbar * self.hbar < math.inf):
            raise DomainError(f"hbar must be positive with a finite nonzero square: {self.hbar!r}")


class DerivedConstants(NamedTuple):
    alpha: float
    beta: float
    mu: float
    beta_tilde: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    """The four derived inertial constants (alpha, beta, mu, beta_tilde).

    B = 0 makes beta infinite (so 1/beta = 0 and consuming operators drop
    the term); I = 0 likewise marks mu infinite, deferring the error to
    the operators that would divide by it.  mu = 0 flags the degenerate
    boundary I = +-A.
    """
    I, A, B, n = params.I, params.A, params.B, params.n
    alpha = I + A
    beta = math.inf if B == 0.0 else -(I + A) * (I + A + n * B) / B
    mu = math.inf if I == 0.0 else (I * I - A * A) / I
    beta_tilde = n * (I + A + n * B)
    return DerivedConstants(alpha, beta, mu, beta_tilde)


def check_gates(kind: ModelKind, params: ModelParams) -> DerivedConstants:
    """Enforce the well-posedness inequalities, naming the offender."""
    cons = derived_constants(params)
    if kind is ModelKind.AFF_AFF:
        if params.A <= 0.0:
            raise DomainError(f"gate violated: A > 0 required, got A = {params.A}")
        anb = params.A + params.n * params.B
        if anb <= 0.0:
            raise DomainError(f"gate violated: A + nB > 0 required, got A + nB = {anb}")
    elif kind in (ModelKind.MET_AFF, ModelKind.AFF_MET):
        if params.I <= 0.0:
            raise DomainError(f"gate violated: I > 0 required, got I = {params.I}")
        if cons.alpha <= 0.0:
            raise DomainError(f"gate violated: alpha > 0 required, got alpha = {cons.alpha}")
        if cons.beta_tilde <= 0.0:
            raise DomainError(
                f"gate violated: beta_tilde > 0 required, got beta_tilde = {cons.beta_tilde}"
            )
        if cons.mu == 0.0:
            raise DomainError("gate violated: mu must be nonzero (I = +-A is degenerate)")
    elif kind is ModelKind.DALEMBERT:
        if params.I <= 0.0:
            raise DomainError(f"gate violated: I > 0 required, got I = {params.I}")
    return cons


# ---------------------------------------------------------------------------
# potentials


class PotentialKind(Enum):
    ZERO = "zero"
    HARMONIC = "harmonic"
    FINITE_WELL = "finite-well"


@dataclass(frozen=True)
class PotentialSpec:
    kind: PotentialKind
    k: float = 0.0
    q0: float = 0.0
    depth: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if self.width < 0.0:
            raise DomainError(f"well width must be non-negative, got {self.width}")


ZERO_POTENTIAL = PotentialSpec(PotentialKind.ZERO)


def potential(spec: PotentialSpec, x):
    """Evaluate a potential spec at a point or array of points."""
    x = np.asarray(x, dtype=float)
    if spec.kind is PotentialKind.ZERO:
        out = np.zeros_like(x)
    elif spec.kind is PotentialKind.HARMONIC:
        out = 0.5 * spec.k * (x - spec.q0) ** 2
    else:
        out = np.where(np.abs(x) <= 0.5 * spec.width, -spec.depth, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# one-dimensional sector operators


class WeightKind1D(Enum):
    FLAT = "flat"
    SINH = "sinh"
    LINEAR = "linear"


def _weight_values(kind: WeightKind1D, x: np.ndarray) -> np.ndarray:
    if kind is WeightKind1D.FLAT:
        return np.ones_like(x)
    if kind is WeightKind1D.SINH:
        return np.abs(np.sinh(x))
    return x.copy()


@dataclass(frozen=True)
class Grid1D:
    """Interior nodes x_min + i h, i = 1..npoints, of a Dirichlet box.

    Both walls x_min and x_max are hard zeros of the eigenfunctions; the
    step is h = (x_max - x_min)/(npoints + 1).  More than MAX_FIELD_ELEMENTS
    nodes raise CapacityError, before any array of the grid exists.
    """

    x_min: float
    x_max: float
    npoints: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise DomainError("grid needs x_max > x_min")
        if self.npoints < 3:
            raise DomainError("grid needs at least three interior nodes")
        if self.npoints > MAX_FIELD_ELEMENTS:
            raise CapacityError(f"{self.npoints} nodes exceed the capacity of {MAX_FIELD_ELEMENTS}")

    @classmethod
    def from_spec(cls, x_max: float, npoints: int, x_min: float = 0.0) -> "Grid1D":
        return cls(x_min, x_max, npoints)

    @property
    def step(self) -> float:
        return (self.x_max - self.x_min) / (self.npoints + 1)

    @property
    def points(self) -> np.ndarray:
        h = self.step
        return self.x_min + h * np.arange(1, self.npoints + 1)

    @property
    def midpoints(self) -> np.ndarray:
        # flux positions between consecutive nodes, walls included
        h = self.step
        return self.x_min + h * (0.5 + np.arange(self.npoints + 1))

    def refine(self) -> "Grid1D":
        # 2n+1 interior nodes halve the step exactly and nest the old nodes
        return Grid1D(self.x_min, self.x_max, 2 * self.npoints + 1)

    def coarsen(self) -> "Grid1D":
        m = (self.npoints - 1) // 2
        if m < 3:
            raise DomainError("grid too small to coarsen")
        return Grid1D(self.x_min, self.x_max, m)


@dataclass(frozen=True)
class QSector:
    """Separable dilatational companion of a 2D channel operator."""

    kind: ModelKind
    channel: tuple
    coeff: float
    weight_kind: WeightKind1D
    inv_sq_coeff: float
    potential: PotentialSpec


@dataclass(frozen=True)
class ChannelOperator1D:
    """Divergence-form operator -(c/P) d/dx (P d/dx) + diag on a Grid1D.

    diag_potential already contains the hyperbolic (or inverse-square)
    barriers, the constant shift and the user potential.  threshold is
    the estimated continuum edge of the symmetrized problem.
    """

    kind: ModelKind
    channel: tuple
    grid: Grid1D
    weight_kind: WeightKind1D
    kinetic_coeff: float
    diag_potential: np.ndarray
    constant_shift: float
    threshold: float
    q_sector: QSector | None = None

    def __post_init__(self):
        diag = readonly(np.array(self.diag_potential, dtype=float))
        if diag.shape != (self.grid.npoints,):
            raise DomainError("diagonal potential does not match the grid")
        object.__setattr__(self, "diag_potential", diag)
        if self.kinetic_coeff <= 0.0:
            raise DomainError("kinetic coefficient must be positive")

    @cached_property
    def weight(self) -> np.ndarray:
        return readonly(_weight_values(self.weight_kind, self.grid.points))

    @cached_property
    def weight_mid(self) -> np.ndarray:
        return readonly(_weight_values(self.weight_kind, self.grid.midpoints))

    def tridiagonal_weighted(self):
        """(K_diag, K_off, P) of the generalized problem K u = E P u."""
        P = self.weight
        if np.any(P <= 0.0):
            raise DomainError("weight must be positive on interior nodes")
        mid = self.weight_mid
        h2 = self.grid.step**2
        c = self.kinetic_coeff
        kdiag = c * (mid[:-1] + mid[1:]) / h2 + P * self.diag_potential
        koff = -c * mid[1:-1] / h2
        return kdiag, koff, P

    def symmetric_tridiagonal(self):
        """Tridiagonal of the exactly equivalent flat problem D^-1 K D^-1."""
        kdiag, koff, P = self.tridiagonal_weighted()
        d = np.sqrt(P)
        return kdiag / P, koff / (d[:-1] * d[1:])


class SymmetrizedOperator1D(ChannelOperator1D):
    """Flat-measure image -c d^2/dx^2 + U_eff + diag of a channel operator (weight 1)."""

    # its own entry in the class dict, so a wrapper of this form's tridiagonal
    # (the benchmark's tracer) leaves the weighted form's untouched
    symmetric_tridiagonal = ChannelOperator1D.symmetric_tridiagonal


def effective_weight_potential(kind: WeightKind1D, c: float, x: np.ndarray) -> np.ndarray:
    """U_eff = c (w' + w^2), w = P'/(2P), of the sqrt-weight transform."""
    if kind is WeightKind1D.FLAT:
        return np.zeros_like(x)
    if kind is WeightKind1D.SINH:
        return c * (0.25 - 0.25 / np.sinh(x) ** 2)
    return -c / (4.0 * x**2)


def symmetrize(op: ChannelOperator1D) -> SymmetrizedOperator1D:
    """Similarity transform to the flat measure; spectrum is preserved."""
    x = op.grid.points
    if np.any(op.weight <= 0.0):
        raise DomainError("weight vanishes on an interior node")
    u_eff = effective_weight_potential(op.weight_kind, op.kinetic_coeff, x)
    return SymmetrizedOperator1D(
        op.kind, op.channel, op.grid, WeightKind1D.FLAT, kinetic_coeff=op.kinetic_coeff,
        diag_potential=op.diag_potential + u_eff, constant_shift=op.constant_shift,
        threshold=op.threshold,
    )


def planar_labels(channel) -> tuple:
    """The planar labels (m, n) as ints: integers with |m|, |n| <= 2**53.

    A float holds every integer up to 2**53 exactly, and below that bound
    the barrier coefficients hbar^2 (n -+ m)^2 / 16A cannot overflow.
    """
    for v in channel:
        if not abs(v) <= 2**53 or v != int(v):
            raise DomainError(f"planar channel labels must be integers within 2**53, got {v!r}")
    m, n = channel
    return int(m), int(n)


def shear_label_terms(kind: ModelKind, channel) -> tuple:
    """((n - m)^2, (n + m)^2, g^2), g = m for met-aff, n for aff-met, else 0, and
    (n + m)^2 = 0 in dalembert: the exact integers through which a planar x-sector
    reads its labels, so label twins (equal terms) have bitwise-equal x-sectors."""
    m, n = planar_labels(channel)
    gyro = {ModelKind.MET_AFF: m, ModelKind.AFF_MET: n}.get(kind, 0)
    return (n - m) ** 2, 0 if kind is ModelKind.DALEMBERT else (n + m) ** 2, gyro**2


def check_grid_start(kind: ModelKind, start: float) -> None:
    """DomainError if a dalembert grid starts below 0, where its linear weights are negative."""
    if kind is ModelKind.DALEMBERT and start < 0.0:
        raise DomainError(f"the isotropic model lives on positive coordinates, got start {start}")


def _planar_coefficients(kind: ModelKind, params: ModelParams, channel) -> tuple:
    """(c, barrier, well, shift, q_coeff, q_inv_sq) of the planar channel (m, n): the x-sector's
    kinetic, sh^-2(x/2) (x^-2 in dalembert), -ch^-2(x/2) and constant coefficients, and the
    q-sector's kinetic and x^-2 ones.  DomainError if the parameters fail their gates."""
    if params.n != 2:
        raise DomainError("planar channels require n = 2 parameters")
    cons = check_gates(kind, params)
    diff2, sum2, gyro2 = shear_label_terms(kind, channel)
    hb2 = params.hbar**2
    if kind is ModelKind.DALEMBERT:
        c, q_inv_sq = hb2 / params.I, hb2 * sum(planar_labels(channel)) ** 2 / (4.0 * params.I)
        return c, hb2 * diff2 / (4.0 * params.I), 0.0, 0.0, c, q_inv_sq
    if kind is ModelKind.AFF_AFF:
        denom, shift, q_coeff = params.A, 0.0, hb2 / (4.0 * (params.A + 2.0 * params.B))
    else:
        denom, shift, q_coeff = cons.alpha, hb2 * gyro2 / cons.mu, hb2 / (2.0 * cons.beta_tilde)
    sh_coeff, ch_coeff = hb2 * diff2 / (16.0 * denom), hb2 * sum2 / (16.0 * denom)
    return hb2 / denom, sh_coeff, ch_coeff, shift, q_coeff, 0.0


def assemble_2d_channel(
    kind: ModelKind,
    params: ModelParams,
    channel,
    grid: Grid1D,
    dil_potential: PotentialSpec = ZERO_POTENTIAL,
    shear_potential: PotentialSpec = ZERO_POTENTIAL,
) -> ChannelOperator1D:
    """x-sector operator of the planar channel (m, n), q-sector attached."""
    c, barrier, well, shift, q_coeff, q_inv_sq = _planar_coefficients(kind, params, channel)
    check_grid_start(kind, grid.x_min)
    x = grid.points
    shear = potential(shear_potential, x)
    edge = float(potential(shear_potential, grid.x_max))
    if kind is ModelKind.DALEMBERT:
        weight = q_weight = WeightKind1D.LINEAR
        diag = barrier / x**2 + shear
        threshold = edge
    else:
        weight, q_weight = WeightKind1D.SINH, WeightKind1D.FLAT
        half = 0.5 * x
        diag = barrier / np.sinh(half) ** 2 - well / np.cosh(half) ** 2 + shift + shear
        threshold = shift + 0.25 * c + edge

    qsec = QSector(
        kind, planar_labels(channel), coeff=q_coeff, weight_kind=q_weight,
        inv_sq_coeff=q_inv_sq, potential=dil_potential,
    )
    return ChannelOperator1D(
        kind, qsec.channel, grid, weight, kinetic_coeff=c, diag_potential=diag,
        constant_shift=shift, threshold=threshold, q_sector=qsec,
    )


def assemble_q_sector(qsec: QSector, grid: Grid1D) -> ChannelOperator1D:
    """Materialize a dilatational descriptor on its own grid."""
    check_grid_start(qsec.kind, grid.x_min)
    x = grid.points
    diag = potential(qsec.potential, x)
    if qsec.inv_sq_coeff:
        diag = diag + qsec.inv_sq_coeff / x**2
    return ChannelOperator1D(
        qsec.kind, qsec.channel, grid, qsec.weight_kind, kinetic_coeff=qsec.coeff,
        diag_potential=diag, constant_shift=0.0,
        threshold=float(potential(qsec.potential, grid.x_max)),
    )


# ---------------------------------------------------------------------------
# three-dimensional channels


@dataclass(frozen=True)
class GridND:
    """Tensor grid for the invariants (q^1, q^2, q^3) with offset axes.

    Axis a holds npoints interior nodes q_min + (i+1) h + a h/3 of its own
    Dirichlet box; the offsets keep every node and staggered flux midpoint
    clear of the coincidence strata q^a = q^b.
    """

    npoints: int
    q_min: float
    q_max: float

    def __post_init__(self):
        if self.npoints < 3:
            raise DomainError("grid needs at least three interior nodes per axis")
        if not self.q_max > self.q_min:
            raise DomainError("grid needs q_max > q_min")

    @property
    def step(self) -> float:
        return (self.q_max - self.q_min) / (self.npoints + 1)

    @property
    def axes(self) -> tuple:
        h = self.step
        base = self.q_min + h * np.arange(1, self.npoints + 1)
        return tuple(base + a * h / 3.0 for a in range(3))

    def refine(self) -> "GridND":
        return GridND(2 * self.npoints + 1, self.q_min, self.q_max)


# the unordered axis pairs (a, b) with the dual axis c of each, 0-based
_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _weight_nd(kind: ModelKind, axes) -> np.ndarray:
    weight = WeightKind.L if kind is ModelKind.DALEMBERT else WeightKind.LAMBDA
    return pair_weight(weight, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def _flux_nd(kind: ModelKind, grid: GridND) -> tuple:
    """For each axis, the weight at the nodes shifted by -h/2 along it, with
    npoints+1 entries along that axis: the flux midpoints, both outer faces included."""
    h, out = grid.step, []
    for a in range(3):
        axes = list(grid.axes)
        axes[a] = np.concatenate(([axes[a][0] - h], axes[a])) + 0.5 * h
        out.append(readonly(_weight_nd(kind, axes)))
    return tuple(out)


# the rotation vectors of the pi rotations about axes 0, 1, 2; with the identity, the Klein group K4
KLEIN_ROTATIONS = tuple(readonly(np.pi * np.eye(3)[a]) for a in range(3))
# the rotation by -pi/2 about axis 1, which swaps the Klein rotations about axes 0 and 2
TWIN_ROTATION = readonly(np.array([0.0, -np.pi / 2, 0.0]))


def spin_action(labels, k) -> np.ndarray:
    """U(k) = D_L(k) (x) D_R(k)^T: f -> D_L(k) f D_R(k) on one cell's row-major f.

    k is a rotation vector.  For labels (s, j), D_L(k) = D^s(k) and
    D_R(k) = D^j(-k), taken as the exact unitary inverse D^j(k)^H, so
    D_R(k)^T is the conjugate of D^j(k).
    """
    dl, dr = (wigner_D(RepLabel.su2(v), k) for v in labels)
    return np.kron(dl, dr.conj())


def klein_bases(labels) -> tuple:
    """Real orthonormal bases V_k (d x r_k) of one cell's Klein blocks, in closed form.

    Block 0 is invariant and block 1 + a is +1 on the rotation about axis a.
    For labels of equal halfness, ladder component a = p (2j+1) + q
    (p = s - m_s, q = j - m_j) pairs with a' = d - 1 - a.  As
    d^j_(m'm)(pi) = (-1)^(j-m) delta_(m',-m) (Edmonds, Angular Momentum in
    Quantum Mechanics, ch. 4), the rotation about axis 2 multiplies e_a by
    (-1)^(m_s - m_j) and the one about axis 1 maps it to sigma e_a',
    sigma = (-1)^(p+q).  So the columns, in ascending a, are
    (e_a +- sigma e_a')/sqrt(2), +-1 under axis 1, for a < a', and e_a,
    sigma under it, for a = a': every entry is 0, +-1 or +-1/sqrt(2).
    Labels of unequal halfness give the one block V = I, as their lifts of
    K4 do not commute.  Cached per label pair.
    """
    return _klein_bases(tuple(labels))


# the Klein block of each pair of signs under the rotations about axes 2 and 1
_KLEIN_BLOCK = {(1, 1): 0, (-1, -1): 1, (-1, 1): 2, (1, -1): 3}


@lru_cache(maxsize=None)
def _klein_bases(labels: tuple) -> tuple:
    ds, dj = (int(2 * v + 1) for v in labels)
    d = ds * dj
    if (ds - dj) % 2:
        return (readonly(np.eye(d)),)
    half = 1.0 / math.sqrt(2.0)
    columns = ([], [], [], [])
    for a in range((d + 1) // 2):
        p, q = divmod(a, dj)
        sigma, pair = (-1) ** (p + q), d - 1 - a
        z = (-1) ** ((ds - dj) // 2 + p + q)  # m_s - m_j = s - j - p + q
        for y in (sigma,) if a == pair else (1, -1):
            v = np.zeros(d)
            v[[a, pair]] = (half, y * sigma * half) if a < pair else 1.0
            columns[_KLEIN_BLOCK[z, y]].append(v)
    return tuple(readonly(np.array(c).reshape(-1, d).T) for c in columns)


@lru_cache(maxsize=None)
def _spin_blocks(labels: tuple, hbar: float) -> tuple:
    """One cell's spin terms on each Klein block, read-only and cached per labels and hbar
    (none depends on the grid): (V^T M V, rows, cols) for each basis V of
    `klein_bases(labels)`, then (M, rows, cols) for the identity of `symmetric_matrix()`.

    M stacks Q_c and X_c for the dual axes c of `_PAIRS`.  The pattern rows, cols holds
    the diagonal and no entry below 1e-14 of the largest (rounding).
    """
    # In the ladder basis S_1, S_3 are real and S_2 imaginary, so per pair
    # Q = S^2 (x) 1 + 1 (x) (J^2)^T and X = S (x) J^T (dual-axis generators)
    # are real and symmetric, and (S -+ J)^2 = Q -+ 2 X on one cell's f.
    gs, gj = (generators(RepLabel.su2(v), hbar) for v in labels)
    ones_s, ones_j = np.eye(len(gs[0])), np.eye(len(gj[0]))
    terms = []
    for _, _, c in _PAIRS:
        S, J = gs[c], gj[c]
        terms += [np.kron(S @ S, ones_j) + np.kron(ones_s, (J @ J).T), np.kron(S, J.T)]
    M = np.stack([m.real for m in terms])
    blocks = []
    for mats in [V.T @ M @ V for V in klein_bases(labels)] + [M]:
        big = np.abs(mats) > 1e-14 * np.max(np.abs(mats), initial=0.0)
        pattern = np.any(big, axis=0) | np.eye(mats.shape[-1], dtype=bool)
        rows, cols = np.array(np.nonzero(pattern), dtype=np.int32)
        blocks.append((readonly(mats), readonly(rows), readonly(cols)))
    return tuple(blocks)


@dataclass(frozen=True)
class NDChannelOperator:
    """Reduced operator on amplitudes of shape grid + (ds, dj), kept as a sparse matrix."""

    kind: ModelKind
    params: ModelParams
    labels: tuple
    grid: GridND
    kinetic_coeff: float
    q2_coeff: float
    casimir_shift: float
    pair_coeff: float

    def __post_init__(self):
        # solve_nd builds one Klein block at a time: only the blocks it builds must fit
        for k in np.flatnonzero(self.block_copies):
            self._projected_pattern(int(k))

    def _projected_pattern(self, k: int) -> tuple:
        """Entry k of `_spin_blocks(self.labels, self.params.hbar)`.

        CapacityError if `_assemble(k)` would hold over MAX_FIELD_ELEMENTS nonzeros.
        """
        N = self.grid.npoints
        mats, rows, cols = _spin_blocks(self.labels, self.params.hbar)[k]
        links = 6 * N * N * (N - 1) + (2 * (N - 1) ** 3 if self.q2_coeff else 0)
        nnz = mats.shape[-1] * links + N**3 * len(rows)  # r per link, the pattern per cell
        if nnz > MAX_FIELD_ELEMENTS:
            raise CapacityError(f"matrix of {nnz} nonzeros exceeds the configured maximum")
        return mats, rows, cols

    @property
    def shape(self) -> tuple:
        N = self.grid.npoints
        return (N, N, N) + tuple(int(2.0 * v) + 1 for v in self.labels)

    @cached_property
    def weight(self) -> np.ndarray:
        return readonly(_weight_nd(self.kind, self.grid.axes))

    _flux = cached_property(lambda self: _flux_nd(self.kind, self.grid))

    @property
    def block_copies(self) -> tuple:
        """How often each block's eigenvalues count in the spectrum.

        Blocks are the Klein blocks of `klein_bases`.  An empty block counts
        0 times.  For every model but dalembert the twin map of
        `symmetry_defect` carries block 1 onto block 3, so block 1 counts
        twice and block 3 is not solved.
        """
        copies = [1 if V.shape[1] else 0 for V in klein_bases(self.labels)]
        if len(copies) == 4 and self.kind is not ModelKind.DALEMBERT:
            copies[1], copies[3] = 2 * copies[1], 0
        return tuple(copies)

    @cached_property
    def _lattice(self) -> tuple:
        """K, R H R^-1 without the barriers as N^3 x N^3 CSR, and the scaled f_t per cell."""
        import scipy.sparse

        N = self.grid.npoints
        h2 = self.grid.step**2
        c, q2 = self.kinetic_coeff / h2, self.q2_coeff / h2
        P = self.weight
        root = np.sqrt(P)
        cell = np.arange(N**3, dtype=np.int32).reshape(P.shape)
        # entries (rows, cols, values) of K: each link both ways, along the
        # grid diagonal when q2 and along axes 0, 1, 2, then the centre
        entries = []
        if q2:
            lo, hi = (slice(None, -1),) * 3, (slice(1, None),) * 3
            up, down = q2 * root[lo] / root[hi], q2 * root[hi] / root[lo]
            entries += [(cell[lo], cell[hi], up), (cell[hi], cell[lo], down)]
        center = np.full(P.shape, self.casimir_shift - 2.0 * q2)
        for a in range(3):
            pre = (slice(None),) * a
            lo, hi = pre + (slice(None, -1),), pre + (slice(1, None),)
            # the flux weights have npoints+1 entries along a: mid[lo] sits
            # below each node, mid[hi] above it, and the interior faces
            # couple neighbouring nodes
            mid = self._flux[a]
            center += c * (mid[lo] + mid[hi]) / P
            face = -c * mid[pre + (slice(1, -1),)] / (root[lo] * root[hi])
            entries += [(cell[lo], cell[hi], face), (cell[hi], cell[lo], face)]
        entries.append((cell, cell, center))
        row, col, val = (np.concatenate([e[i].ravel() for e in entries]) for i in range(3))
        K = scipy.sparse.csr_array((val, (row, col)), shape=(N**3,) * 2)

        # per cell, the coefficients of Q_c and X_c in the pair barriers
        fields = []
        axes = self.grid.axes
        for a, b, _ in _PAIRS:
            qa = axes[a].reshape([-1 if e == a else 1 for e in range(3)])
            qb = axes[b].reshape([-1 if e == b else 1 for e in range(3)])
            if self.kind is ModelKind.DALEMBERT:
                minus, plus = 1.0 / (qa - qb) ** 2, 1.0 / (qa + qb) ** 2
            else:
                half = 0.5 * (qa - qb)
                minus, plus = 1.0 / np.sinh(half) ** 2, -1.0 / np.cosh(half) ** 2
            fields += [minus + plus, 2.0 * (plus - minus)]
        fields = np.stack([np.broadcast_to(v, P.shape).ravel() for v in fields], axis=-1)
        return K, readonly(self.pair_coeff * fields)

    def _assemble(self, k: int):
        """(I (x) V)^T (R H R^-1) (I (x) V) = K (x) I_r + the projected barriers,
        as CSR, for V basis k of `klein_bases(self.labels)`, or the identity at k = -1
        (d x r, orthonormal columns)."""
        import scipy.sparse

        mats, rows, cols = self._projected_pattern(k)
        K, fields = self._lattice
        r = mats.shape[-1]
        # kron first, to free its temporaries before the barriers exist
        spin_free = scipy.sparse.kron(K, scipy.sparse.eye_array(r), format="csr")
        at = r * np.arange(K.shape[0], dtype=np.int32).reshape(-1, 1)
        return spin_free + scipy.sparse.csr_array(
            ((fields @ mats[:, rows, cols]).ravel(), ((at + rows).ravel(), (at + cols).ravel())),
            shape=spin_free.shape,
        )

    def symmetric_matrix(self):
        """R H R^-1, R = sqrt(P) per cell, as a real symmetric CSR array, built anew."""
        return self._assemble(-1)

    def block_matrix(self, k: int):
        """Klein block k of `symmetric_matrix()`, (I (x) V_k)^T A (I (x) V_k), built anew."""
        return self._assemble(k)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """H f = R^-1 (K F + sum_t f_t F M_t), F = R f, for an amplitude f of
        shape self.shape (float64 for real f); nothing is assembled."""
        f = np.asarray(f)
        if f.shape != self.shape:
            raise DomainError(f"amplitude shape {f.shape} does not match {self.shape}")
        K, fields = self._lattice
        root = np.sqrt(self.weight).reshape(-1, 1)
        F = root * f.reshape(len(root), -1)
        spin = _spin_blocks(self.labels, self.params.hbar)[-1][0]
        out = K @ F + sum(fields[:, [t]] * (F @ M) for t, M in enumerate(spin))
        return (out / root).reshape(self.shape)

    def weighted_inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Sum of tr(f^+ g) P over the grid times the cell volume."""
        tr = np.einsum("ijkab,ijkab->ijk", f.conj(), g)
        return complex(np.sum(tr * self.weight) * self.grid.step**3)


def symmetry_defect(op: NDChannelOperator, k) -> float:
    """Largest entry of A T - T A over that of A, A = op.symmetric_matrix().

    T is the action on amplitudes of k, one of the rotation vectors
    KLEIN_ROTATIONS and TWIN_ROTATION.  A Klein rotation acts by
    `spin_action` in each cell.  TWIN_ROTATION also maps cell (i0, i1, i2)
    to (N-1-i2, N-1-i1, N-1-i0), which is q -> (-q^2, -q^1, -q^0) up to a
    shift along the grid diagonal: this map, tau, leaves the operator of
    every model but dalembert invariant, whose barriers hold q^a + q^b.
    """
    import scipy.sparse

    N = op.grid.npoints
    if np.array_equal(k, TWIN_ROTATION):
        cells = np.ravel_multi_index(N - 1 - np.indices((N,) * 3).reshape(3, -1)[::-1], (N,) * 3)
    elif any(np.array_equal(k, R) for R in KLEIN_ROTATIONS):
        cells = np.arange(N**3)
    else:
        raise DomainError("k must be a Klein rotation or TWIN_ROTATION")
    # both maps are involutions, so row c of the cell permutation holds a 1 at cells[c]
    move = scipy.sparse.csr_array((np.ones(N**3), cells, np.arange(N**3 + 1)), shape=(N**3,) * 2)
    U = spin_action(op.labels, k)
    U[np.abs(U) < 1e-14] = 0.0  # rounding where the rotation's Wigner matrix has exact zeros
    T = scipy.sparse.kron(move, scipy.sparse.csr_array(U), format="csr")
    A = op.symmetric_matrix()
    return float(np.max(np.abs((A @ T - T @ A).data), initial=0.0) / np.abs(A.data).max())


def spatial_labels(labels) -> tuple:
    """The spins (s, j): non-negative half-integers, each at most MAX_TWICE_SPIN / 2."""
    for v in labels:
        if not v >= 0 or (2 * v) % 1 != 0:
            raise DomainError(f"channel labels must be non-negative half-integers, got {v!r}")
    s, j = labels
    if 2 * s > MAX_TWICE_SPIN or 2 * j > MAX_TWICE_SPIN:
        raise CapacityError(f"channel labels ({s}, {j}) exceed the configured maximum")
    return s, j


def _nd_coefficients(kind: ModelKind, params: ModelParams, labels) -> tuple:
    """(kinetic, q2, shift, pair) of the n=3 channel (s, j): the coefficients of the Laplacian
    and the dilatational term, the Casimir shift and the pair barriers' prefactor, counted for
    both orders of a pair.  DomainError if the parameters fail their gates."""
    if params.n != 3:
        raise DomainError("matrix channels require n = 3 parameters")
    cons = check_gates(kind, params)
    s, j = spatial_labels(labels)
    hb2 = params.hbar**2
    if kind is ModelKind.DALEMBERT:
        denom, barrier, q2, shift = params.I, 8.0, 0.0, 0.0
    elif kind is ModelKind.AFF_AFF:
        denom, barrier, shift = params.A, 32.0, 0.0
        q2 = hb2 * params.B / (2.0 * params.A) / (params.A + 3.0 * params.B)
    else:
        denom, barrier = cons.alpha, 32.0
        q2 = 0.0 if math.isinf(cons.beta) else -hb2 / (2.0 * cons.beta)
        gyro = s if kind is ModelKind.MET_AFF else j
        shift = hb2 * gyro * (gyro + 1.0) / (2.0 * cons.mu)
    return hb2 / (2.0 * denom), q2, shift, 1.0 / (barrier * denom) * 2.0


def assemble_nd_channel(
    kind: ModelKind, params: ModelParams, labels, grid: GridND
) -> NDChannelOperator:
    """Reduced operator for the (s, j) channel on the invariant grid."""
    kinetic, q2, shift, pair = _nd_coefficients(kind, params, labels)
    check_grid_start(kind, grid.q_min)
    return NDChannelOperator(kind, params, tuple(labels), grid, kinetic, q2, shift, pair)


def entry_scale(kind: ModelKind, params: ModelParams, labels, step: float) -> float:
    """Estimate of the largest entry of a channel's symmetric matrix on a grid of this step.

    From the assembler's coefficients.  Planar: the kinetic diagonal 2c/h^2,
    the barrier on a node h from x = 0 (4 barrier/h^2 for sh^-2(x/2),
    barrier/h^2 for x^-2), well and |shift|.  n=3: 16 kinetic/h^2 for a
    cell's six faces, 2|q2|/h^2 for the diagonal links, 36 pair hbar^2
    (s+j)(s+j+1)/h^2 for the barriers on nodes h/3 from the planes q^a = q^b,
    and |shift|.  For steps up to about 1: on coarser grids the weight ratio
    of neighbouring nodes, near e^(h/2), grows the entries past it.
    DomainError as from the assembler."""
    inv_h2 = 1.0 / (step * step) if step * step else math.inf
    if params.n == 2:
        c, barrier, well, shift, _, _ = _planar_coefficients(kind, params, labels)
        near = barrier if kind is ModelKind.DALEMBERT else 4.0 * barrier
        return (2.0 * c + near) * inv_h2 + well + abs(shift)
    kinetic, q2, shift, pair = _nd_coefficients(kind, params, labels)
    spin = params.hbar**2 * (labels[0] + labels[1]) * (labels[0] + labels[1] + 1.0)
    return (16.0 * kinetic + 2.0 * abs(q2) + 36.0 * pair * spin) * inv_h2 + abs(shift)


def largest_weight(kind: ModelKind, grid) -> float:
    """The weight's largest value on a Grid1D's or GridND's nodes and flux midpoints, inf on
    overflow with no warning.  No assembled entry reads the weight at the walls."""
    with np.errstate(over="ignore"):
        if isinstance(grid, GridND):
            return float(max(w.max() for w in (_weight_nd(kind, grid.axes), *_flux_nd(kind, grid))))
        # |sinh x|, and x >= 0 in dalembert, grow with |x|: the outermost midpoints hold the largest
        wk = WeightKind1D.LINEAR if kind is ModelKind.DALEMBERT else WeightKind1D.SINH
        ends = np.array([grid.x_min, grid.x_max]) + np.array([0.5, -0.5]) * grid.step
        return float(np.max(_weight_values(wk, ends)))


__all__ = [
    "ENTRY_LIMIT",
    "MAX_FIELD_ELEMENTS",
    "MAX_TWICE_SPIN",
    "ChannelOperator1D",
    "DerivedConstants",
    "Grid1D",
    "GridND",
    "KLEIN_ROTATIONS",
    "ModelKind",
    "ModelParams",
    "NDChannelOperator",
    "PotentialKind",
    "PotentialSpec",
    "QSector",
    "SymmetrizedOperator1D",
    "TWIN_ROTATION",
    "WeightKind1D",
    "ZERO_POTENTIAL",
    "assemble_2d_channel",
    "assemble_nd_channel",
    "assemble_q_sector",
    "check_gates",
    "check_grid_start",
    "derived_constants",
    "effective_weight_potential",
    "entry_scale",
    "klein_bases",
    "largest_weight",
    "planar_labels",
    "potential",
    "shear_label_terms",
    "spatial_labels",
    "spin_action",
    "symmetrize",
    "symmetry_defect",
]
