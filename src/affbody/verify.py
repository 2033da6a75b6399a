"""Built-in self-check suites.

Four suites probe the load-bearing invariants of the package from the
outside.  ``algebra`` re-derives the commutation relations and Casimir
eigenvalues of the generator sets; ``measures`` compares group-volume
quadrature, weight factors, Haar density ratios, and the two-polar
roundtrip with closed forms, and checks that the n=3 operator commutes
with its Klein and twin symmetries; ``orthogonality`` assembles one Peter-Weyl
gram matrix over all label pairs and checks it against vol/(2s+1) times the
identity;
``spectral-equivalence`` cross-checks the weighted divergence-form
eigensolver against the sqrt-weight symmetrized form on a fixed roster
of planar channels, after Richardson extrapolation of both.

Every check reports the measured defect next to the tolerance it is held
to, so a report stays informative even when all checks pass.  Randomized
checks draw from a caller-seeded generator and are otherwise
deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .group_geometry import (
    MeasureTarget,
    haar_density_ratio,
    reconstruct,
    two_polar_decompose,
    weight_l,
    weight_lambda,
)
from .hamiltonians import (
    KLEIN_ROTATIONS,
    TWIN_ROTATION,
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    assemble_2d_channel,
    assemble_nd_channel,
    symmetrize,
    symmetry_defect,
)
from .representations import (
    Group,
    RepLabel,
    casimir,
    generators,
    group_volume,
    haar_quadrature,
    wigner_D_batch,
)
# solve_1d is unused here; bench/tracing.py wraps verify.solve_1d, so the name stays
from .spectra import convergence_study, solve_1d  # noqa: F401

SUITES = ("algebra", "measures", "orthogonality", "spectral-equivalence")

# Channels with |n - m| >= 2 on both forms, so kappa = |n - m|/2 >= 1.  The
# grid puts a Dirichlet zero at x = 0, where the amplitude behaves like
# x^kappa: for kappa >= 1 both discretizations converge at second order and
# extrapolation is trustworthy, while kappa = 1/2 drops to first order and
# kappa = 0, whose amplitude is nonzero there, converges like 1/|log h|.
EQUIVALENCE_CASES = (
    (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (0, 2)),
    (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (1, 3)),
    (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (-1, 2)),
    (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (-1, 3)),
    (ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.0), (0, 3)),
    (ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.0), (1, 3)),
    (ModelKind.AFF_MET, ModelParams(I=2.0, A=1.0, B=0.0), (0, 2)),
    (ModelKind.AFF_MET, ModelParams(I=2.0, A=1.0, B=0.0), (-1, 1)),
    (ModelKind.DALEMBERT, ModelParams(I=2.0, A=1.0, B=0.0), (0, 2)),
    (ModelKind.DALEMBERT, ModelParams(I=2.0, A=1.0, B=0.0), (0, 3)),
)

EQUIVALENCE_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """One named defect measurement with the tolerance it is held to."""

    name: str
    defect: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.defect) and self.defect <= self.tol)


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return eps


def algebra_suite(seed: int = 7) -> list:
    """Commutator and Casimir defects for all generator sets with s <= 3."""
    del seed  # nothing randomized here; kept for a uniform suite signature
    eps = _levi_civita()
    hbar = 1.0
    results = []
    families = (
        ("su(2)", [RepLabel.su2(k / 2.0) for k in range(0, 7)]),
        ("so(3)", [RepLabel.so3(float(s)) for s in range(0, 4)]),
    )
    for family, labels in families:
        worst_comm = 0.0
        worst_cas = 0.0
        worst_comm_at = worst_cas_at = labels[0]
        for label in labels:
            gen = generators(label, hbar)
            s = label.twice_spin / 2.0
            dim = gen[0].shape[0]
            for a in range(3):
                for b in range(3):
                    lhs = (gen[a] @ gen[b] - gen[b] @ gen[a]) / (1j * hbar)
                    rhs = sum(eps[a, b, c] * gen[c] for c in range(3))
                    d = float(np.linalg.norm(lhs - rhs))
                    if d > worst_comm:
                        worst_comm, worst_comm_at = d, label
            cas = casimir(gen) - hbar**2 * s * (s + 1.0) * np.eye(dim)
            d = float(np.linalg.norm(cas))
            if d > worst_cas:
                worst_cas, worst_cas_at = d, label
        results.append(
            CheckResult(
                f"commutator defect, {family} labels s <= 3",
                worst_comm,
                1e-12,
                f"worst at 2s = {worst_comm_at.twice_spin}",
            )
        )
        results.append(
            CheckResult(
                f"casimir defect, {family} labels s <= 3",
                worst_cas,
                1e-10,
                f"worst at 2s = {worst_cas_at.twice_spin}",
            )
        )
    return results


def measures_suite(seed: int = 7) -> list:
    """Volumes, weight factors, density ratios, the two-polar roundtrip, n=3 symmetry."""
    results = []
    for group, vol in ((Group.SO3, 8.0 * np.pi**2), (Group.SU2, 16.0 * np.pi**2)):
        quad = haar_quadrature(group, 24)
        defect = abs(float(np.sum(quad.weights)) - vol) / vol
        results.append(
            CheckResult(
                f"haar volume, {group.value} (order-24 quadrature)",
                defect,
                1e-8,
                f"target {vol:.6f}",
            )
        )
    results.append(
        CheckResult(
            "deformation weight P_lambda at (ln 2, 0)",
            abs(weight_lambda([np.log(2.0), 0.0]) - 0.75),
            1e-12,
        )
    )
    results.append(
        CheckResult(
            "deformation weight P_l at (3, 2, 1)",
            abs(weight_l([3.0, 2.0, 1.0]) - 120.0) / 120.0,
            1e-12,
        )
    )
    phi = np.diag([2.0, 2.0])
    d_lam = abs(haar_density_ratio(phi, MeasureTarget.LAMBDA_INTERNAL) - 1.0 / 16.0) * 16.0
    d_alp = abs(haar_density_ratio(phi, MeasureTarget.ALPHA_FULL_GROUP) - 1.0 / 64.0) * 64.0
    results.append(
        CheckResult("haar density ratios at diag(2, 2)", max(d_lam, d_alp), 1e-12)
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    draws = 200
    for n in (2, 3):
        done = 0
        while done < draws:
            phi = rng.standard_normal((n, n))
            det = np.linalg.det(phi)
            if abs(det) < 1e-3:
                continue
            if det < 0.0:
                phi[0] = -phi[0]
            back = reconstruct(two_polar_decompose(phi))
            worst = max(worst, float(np.linalg.norm(back - phi) / np.linalg.norm(phi)))
            done += 1
    results.append(
        CheckResult(
            "two-polar roundtrip",
            worst,
            1e-12,
            f"{draws} draws each for n = 2, 3",
        )
    )
    # the rotations about axes 0 and 1 generate the Klein group
    op = assemble_nd_channel(
        ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.5, n=3), (1, 1), GridND(4, -3.0, 3.0)
    )
    results.append(
        CheckResult(
            "Klein and twin symmetry of the n=3 operator",
            max(symmetry_defect(op, W) for W in KLEIN_ROTATIONS[:2] + (TWIN_ROTATION,)),
            1e-14,
            "met-aff (1, 1), N = 4: |A T - T A| / |A|",
        )
    )
    return results


def _gram_defect(group: Group, labels, order: int = 24) -> float:
    """max |G - diag(vol/d_l)| / vol over the Peter-Weyl gram of all label pairs.

    G = sum_k w_k F_k^T conj(F_k), where F_k holds every label's flattened
    D at node k, so block (l, l') of G holds the integrals of
    D^l_ab conj(D^l'_cd).  G is summed one radial shell of the product
    quadrature at a time, which keeps one shell's matrices in memory.
    """
    quad = haar_quadrature(group, order)
    vol = group_volume(group)
    dims = [label.dim for label in labels]
    gram = 0.0
    for ks, ws in zip(quad.vectors.reshape(order, -1, 3), quad.weights.reshape(order, -1)):
        F = np.concatenate(
            [wigner_D_batch(label, ks).reshape(len(ks), -1) for label in labels], axis=1
        )
        gram = gram + (F.T * ws) @ F.conj()
    expect = np.diag(np.repeat([vol / d for d in dims], [d * d for d in dims]))
    return float(np.max(np.abs(gram - expect))) / vol


def orthogonality_suite(seed: int = 7) -> list:
    """Peter-Weyl gram matrices for all label pairs with s, s' <= 2."""
    del seed
    so3_labels = [RepLabel.so3(float(s)) for s in range(0, 3)]
    su2_labels = [RepLabel.su2(k / 2.0) for k in range(0, 5)]
    return [
        CheckResult(
            "peter-weyl gram, so(3) labels s, s' <= 2",
            _gram_defect(Group.SO3, so3_labels),
            1e-8,
        ),
        CheckResult(
            "peter-weyl gram, su(2) labels s, s' <= 2",
            _gram_defect(Group.SU2, su2_labels),
            1e-8,
        ),
    ]


def equivalence_defect(
    kind: ModelKind,
    params: ModelParams,
    channel,
    count: int = 5,
    base_grid: Grid1D | None = None,
) -> float:
    """Relative disagreement between weighted and symmetrized forms.

    Both forms are solved on the same three nested grids and extrapolated
    per eigenvalue before comparison, which removes the O(h^2) component
    each discretization carries.
    """
    base = base_grid if base_grid is not None else Grid1D.from_spec(30.0, 499)
    weighted, flat = (
        convergence_study(make_op, base, levels=3, count=count).extrapolated
        for make_op in (
            lambda g: assemble_2d_channel(kind, params, channel, g),
            lambda g: symmetrize(assemble_2d_channel(kind, params, channel, g)),
        )
    )
    scale = np.maximum(np.maximum(np.abs(weighted), np.abs(flat)), 1e-12)
    return float(np.max(np.abs(weighted - flat) / scale))


def spectral_equivalence_suite(seed: int = 7) -> list:
    del seed
    results = []
    for kind, params, channel in EQUIVALENCE_CASES:
        defect = equivalence_defect(kind, params, channel)
        results.append(
            CheckResult(
                f"weighted vs symmetrized, {kind.value} channel {channel}",
                defect,
                EQUIVALENCE_TOL,
                "lowest 5, extrapolated",
            )
        )
    return results


_SUITE_FUNCS = {
    "algebra": algebra_suite,
    "measures": measures_suite,
    "orthogonality": orthogonality_suite,
    "spectral-equivalence": spectral_equivalence_suite,
}


def run_suite(name: str, seed: int = 7) -> list:
    """Run one named suite, or all of them in declaration order."""
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(_SUITE_FUNCS[suite](seed))
        return out
    if name not in _SUITE_FUNCS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FUNCS[name](seed)


def format_report(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name}: defect {res.defect:.3e} (tol {res.tol:.1e})"
        if res.detail:
            line += f" [{res.detail}]"
        lines.append(line)
    return "\n".join(lines)


__all__ = [
    "EQUIVALENCE_CASES",
    "EQUIVALENCE_TOL",
    "SUITES",
    "CheckResult",
    "algebra_suite",
    "equivalence_defect",
    "format_report",
    "measures_suite",
    "orthogonality_suite",
    "run_suite",
    "spectral_equivalence_suite",
]
