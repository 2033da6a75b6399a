"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL scoreboard line
(visible with ``pytest -s`` or ``-rA``, and always on failure) before
asserting, so the verdicts survive in captured output.

Criterion 6 note: the geodetic channel (3, 1) is asserted to carry a
bound state below the continuum threshold.  The assembled operator's
flat form is an exactly solvable hyperbolic (Poschl-Teller type)
problem whose discrete levels sit at c*(1/4 - kappa_k^2/4) with
kappa_k = (|n+m| - |n-m| - 2)/2 - 2k; for (3, 1) kappa_0 = 0, so the
lowest state sits exactly at the threshold and never below it, at any
box size.  The check is encoded as stated and fails on that channel;
see the project decision log for the full analysis and the numerical
cross-checks (channel (2, 4) converges to its exact zero-energy level
at second order, channel (3, 1) converges to the box level above the
threshold).
"""

import itertools

import numpy as np

from affbody.group_geometry import reconstruct, two_polar_decompose
from affbody.hamiltonians import (
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    assemble_2d_channel,
    assemble_nd_channel,
    assemble_q_sector,
)
from affbody.peter_weyl import (
    ChannelAmplitude,
    Expansion,
    QGrid,
    TargetSpace,
    validate_superselection,
)
from affbody.representations import RepLabel
from affbody.spectra import convergence_study, node_counts, solve_1d
from affbody.verify import (
    EQUIVALENCE_CASES,
    EQUIVALENCE_TOL,
    algebra_suite,
    equivalence_defect,
    measures_suite,
    orthogonality_suite,
)


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {title}"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_01_two_polar_roundtrip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (2, 3):
        done = 0
        while done < 1000:
            phi = rng.standard_normal((n, n))
            det = np.linalg.det(phi)
            if abs(det) < 1e-6:
                continue
            if det < 0.0:
                phi[0] = -phi[0]
            back = reconstruct(two_polar_decompose(phi))
            worst = max(worst, float(np.linalg.norm(back - phi) / np.linalg.norm(phi)))
            done += 1
    ok = worst < 1e-12
    report(1, "two-polar roundtrip, 1000 each of n = 2, 3", ok, f"max rel err {worst:.2e}")
    assert ok


def test_criterion_02_representation_algebra():
    results = algebra_suite()
    comm = max(r.defect for r in results if "commutator" in r.name)
    cas = max(r.defect for r in results if "casimir" in r.name)
    ok = comm < 1e-12 and cas < 1e-10
    report(
        2,
        "generator algebra, s <= 3 integer and half-integer",
        ok,
        f"commutator {comm:.2e} < 1e-12, casimir {cas:.2e} < 1e-10",
    )
    assert ok


def test_criterion_03_haar_volumes_and_orthogonality():
    volume_checks = [r for r in measures_suite() if r.name.startswith("haar volume")]
    gram_checks = orthogonality_suite()
    vol = max(r.defect for r in volume_checks)
    gram = max(r.defect for r in gram_checks)
    ok = (
        len(volume_checks) == 2
        and all(r.passed for r in volume_checks)
        and all(r.passed for r in gram_checks)
    )
    report(
        3,
        "haar volumes 8pi^2 / 16pi^2 and peter-weyl gram, s <= 2",
        ok,
        f"volume defect {vol:.2e}, gram defect {gram:.2e}, tol 1e-8",
    )
    assert ok


def _weighted_defect_1d(op, rng, pairs=6) -> float:
    kdiag, koff, P = op.tridiagonal_weighted()
    del P  # <u, Hv>_P reduces to h * u^T K v; K must be exactly symmetric
    h = op.grid.step

    def apply_k(v):
        out = kdiag * v
        out[:-1] += koff * v[1:]
        out[1:] += koff * v[:-1]
        return out

    worst = 0.0
    for _ in range(pairs):
        u = rng.standard_normal(kdiag.size)
        v = rng.standard_normal(kdiag.size)
        a = h * float(u @ apply_k(v))
        b = h * float(apply_k(u) @ v)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    return worst


def _weighted_defect_nd(op, rng, pairs=4) -> float:
    worst = 0.0
    for _ in range(pairs):
        f = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
        g = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
        a = op.weighted_inner(f, op.apply(g))
        b = op.weighted_inner(op.apply(f), g)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    return worst


def test_criterion_04_hermiticity_all_models():
    rng = np.random.default_rng(4)
    planar = (
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.5)),
        (ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.5)),
        (ModelKind.AFF_MET, ModelParams(I=2.0, A=1.0, B=0.5)),
        (ModelKind.DALEMBERT, ModelParams(I=2.0, A=0.0, B=0.0)),
    )
    grid = Grid1D.from_spec(20.0, 149)
    worst = 0.0
    for kind, params in planar:
        for m, n in itertools.product(range(-4, 5), repeat=2):
            op = assemble_2d_channel(kind, params, (m, n), grid)
            worst = max(worst, _weighted_defect_1d(op, rng))
    spatial = (
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=1.0, n=3), GridND(10, -1.0, 1.0)),
        (ModelKind.MET_AFF, ModelParams(I=3.0, A=1.0, B=1.0, n=3), GridND(10, -1.0, 1.0)),
        (ModelKind.AFF_MET, ModelParams(I=3.0, A=1.0, B=1.0, n=3), GridND(10, -1.0, 1.0)),
        (ModelKind.DALEMBERT, ModelParams(I=2.0, A=0.0, B=0.0, n=3), GridND(10, 0.05, 2.05)),
    )
    labels = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5))
    for kind, params, ndgrid in spatial:
        for lab in labels:
            op = assemble_nd_channel(kind, params, lab, ndgrid)
            worst = max(worst, _weighted_defect_nd(op, rng))
    ok = worst < 1e-10
    report(
        4,
        "weighted hermiticity, 4 models x (planar |m|,|n| <= 4; spatial s,j <= 1)",
        ok,
        f"max symmetry defect {worst:.2e} < 1e-10",
    )
    assert ok


def test_criterion_05_spectral_equivalence():
    worst = 0.0
    worst_case = None
    for kind, params, channel in EQUIVALENCE_CASES:
        d = equivalence_defect(kind, params, channel)
        if d > worst:
            worst, worst_case = d, (kind.value, channel)
    ok = worst < EQUIVALENCE_TOL
    report(
        5,
        "weighted vs symmetrized lowest 5, 10 channels, two refinements",
        ok,
        f"max rel disagreement {worst:.2e} at {worst_case}",
    )
    assert ok


def _dense_oracle_lowest(op, count: int) -> np.ndarray:
    """Dense-diagonalization oracle, independent of the tridiagonal path."""
    kdiag, koff, P = op.tridiagonal_weighted()
    K = np.diag(kdiag) + np.diag(koff, 1) + np.diag(koff, -1)
    d = 1.0 / np.sqrt(P)
    return np.linalg.eigvalsh(d[:, None] * K * d[None, :])[:count]


def test_criterion_06_threshold_reproduction():
    params = ModelParams(I=1.0, A=1.0, B=0.0)
    bound_channels = ((2, 2), (3, 3), (3, 1))
    free_channels = ((2, -2), (3, -3), (1, -1))
    verdicts = {}
    oracle_gap = 0.0
    for ch in bound_channels + free_channels:
        counts = []
        grid = Grid1D.from_spec(40.0, 999)
        for level in range(3):
            op = assemble_2d_channel(ModelKind.AFF_AFF, params, ch, grid)
            res = solve_1d(op, 5)
            counts.append(res.bound_count)
            if level == 0:
                oracle = _dense_oracle_lowest(op, 3)
                oracle_gap = max(
                    oracle_gap, float(np.max(np.abs(oracle - res.eigenvalues[:3])))
                )
            grid = grid.refine()
        verdicts[ch] = counts
    ok_bound = all(min(verdicts[ch]) >= 1 for ch in bound_channels)
    ok_free = all(max(verdicts[ch]) == 0 for ch in free_channels)
    ok_oracle = oracle_gap < 1e-8
    ok = ok_bound and ok_free and ok_oracle
    detail = (
        f"bound counts {dict((ch, verdicts[ch]) for ch in bound_channels)}, "
        f"free counts {dict((ch, verdicts[ch]) for ch in free_channels)}, "
        f"oracle gap {oracle_gap:.2e}"
    )
    if not ok_bound and min(verdicts[(3, 1)]) == 0:
        detail += (
            "; channel (3, 1) has no sub-threshold level: its flat form is "
            "exactly solvable with kappa_0 = (|n+m|-|n-m|-2)/2 = 0, i.e. the "
            "lowest state sits exactly at the threshold (see decision log)"
        )
    report(6, "geodetic bound-state dichotomy at X=40, two refinements", ok, detail)
    assert ok, detail


def test_criterion_07_boundedness_dichotomy():
    grid = Grid1D.from_spec(40.0, 799)
    aff = []
    met = []
    oracle_gap = 0.0
    for k in range(1, 7):
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (k, k), grid
        )
        res = solve_1d(op, 1)
        aff.append(res.eigenvalues[0])
        oracle_gap = max(
            oracle_gap, abs(_dense_oracle_lowest(op, 1)[0] - res.eigenvalues[0])
        )
        op = assemble_2d_channel(
            ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.0), (k, k), grid
        )
        res = solve_1d(op, 1)
        met.append(res.eigenvalues[0])
        oracle_gap = max(
            oracle_gap, abs(_dense_oracle_lowest(op, 1)[0] - res.eigenvalues[0])
        )
    ok_aff = all(aff[i + 1] < aff[i] for i in range(5))
    # The k^2/mu shift dominates: every ground level stays above the k = 1
    # value minus nothing - a single k-independent constant.
    floor = 0.7
    ok_met = min(met) > floor
    ok_oracle = oracle_gap < 1e-8
    ok = ok_aff and ok_met and ok_oracle
    report(
        7,
        "aff-aff (k,k) ground energies fall, met-aff stay bounded, k = 1..6",
        ok,
        f"aff-aff {[f'{e:.3f}' for e in aff]}, met-aff min {min(met):.3f} > {floor}, "
        f"oracle gap {oracle_gap:.2e}",
    )
    assert ok


def test_criterion_08_sturm_monotonicity_orders():
    # Sturm oscillation on converged runs from all four models.
    sturm_cases = (
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (2, 2)),
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (1, 3)),
        (ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.0), (0, 3)),
        (ModelKind.AFF_MET, ModelParams(I=2.0, A=1.0, B=0.0), (0, 2)),
        (ModelKind.DALEMBERT, ModelParams(I=2.0, A=0.0, B=0.0), (0, 2)),
        (ModelKind.DALEMBERT, ModelParams(I=2.0, A=0.0, B=0.0), (1, 1)),
    )
    ok_sturm = True
    for kind, params, ch in sturm_cases:
        op = assemble_2d_channel(kind, params, ch, Grid1D.from_spec(40.0, 999))
        ok_sturm = ok_sturm and node_counts(op, 5) == (0, 1, 2, 3, 4)

    # Box growth at fixed step never raises the ground energy (the wall
    # flux of the zero-padded trial vector matches the interior flux).
    small = Grid1D.from_spec(20.0, 499)
    large = Grid1D.from_spec(40.0, 999)
    ok_box = True
    for kind, params, ch in sturm_cases:
        e_small = solve_1d(assemble_2d_channel(kind, params, ch, small), 1).eigenvalues[0]
        e_large = solve_1d(assemble_2d_channel(kind, params, ch, large), 1).eigenvalues[0]
        ok_box = ok_box and e_large <= e_small + 1e-10

    # Step refinement lowers the singular-weight (sinh) ground levels;
    # the flat/linear-weight runs approach from below instead and are
    # covered by the order check.
    ok_h = True
    for kind, params, ch in sturm_cases[:4]:
        grid = Grid1D.from_spec(40.0, 999)
        coarse = solve_1d(assemble_2d_channel(kind, params, ch, grid), 1).eigenvalues[0]
        fine = solve_1d(assemble_2d_channel(kind, params, ch, grid.refine()), 1).eigenvalues[0]
        ok_h = ok_h and fine <= coarse + 1e-12

    order_cases = (
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (1, 3)),
        (ModelKind.AFF_AFF, ModelParams(I=1.0, A=1.0, B=0.0), (0, 2)),
        (ModelKind.MET_AFF, ModelParams(I=2.0, A=1.0, B=0.0), (0, 3)),
        (ModelKind.DALEMBERT, ModelParams(I=2.0, A=0.0, B=0.0), (0, 2)),
    )
    ok_orders = True
    worst_order = (2.0, None)
    for kind, params, ch in order_cases:
        study = convergence_study(
            lambda g, kind=kind, params=params, ch=ch: assemble_2d_channel(
                kind, params, ch, g
            ),
            Grid1D.from_spec(30.0, 499),
            levels=3,
            count=3,
        )
        for p in study.orders:
            if abs(p - 2.0) > abs(worst_order[0] - 2.0):
                worst_order = (float(p), (kind.value, ch))
            ok_orders = ok_orders and 1.7 <= p <= 2.3
    ok = ok_sturm and ok_box and ok_h and ok_orders
    report(
        8,
        "sturm nodes, variational monotonicity, orders in [1.7, 2.3]",
        ok,
        f"sturm {ok_sturm}, box-growth {ok_box}, h-refinement {ok_h}, "
        f"extreme order {worst_order[0]:.2f} at {worst_order[1]}",
    )
    assert ok


def test_criterion_09_dalembert_no_binding():
    params = ModelParams(I=2.0, A=0.0, B=0.0)
    boxes = ((20.0, 499), (40.0, 999), (80.0, 1999))
    lowest = []
    min_seen = np.inf
    for x_max, npoints in boxes:
        grid = Grid1D.from_spec(x_max, npoints)
        level = np.inf
        for ch in ((0, 2), (1, 1), (1, 3)):
            op = assemble_2d_channel(ModelKind.DALEMBERT, params, ch, grid)
            res = solve_1d(op, 3)
            min_seen = min(min_seen, float(res.eigenvalues.min()))
            level = min(level, float(res.eigenvalues[0]))
            qres = solve_1d(assemble_q_sector(op.q_sector, grid), 3)
            min_seen = min(min_seen, float(qres.eigenvalues.min()))
        lowest.append(level)
    ok_positive = min_seen >= -1e-8
    ok_decreasing = lowest[0] > lowest[1] > lowest[2] > 0.0
    ok_vanishing = lowest[2] < 0.02
    ok = ok_positive and ok_decreasing and ok_vanishing
    report(
        9,
        "dalembert geodetic: spectrum >= 0, lowest level -> 0 as X grows",
        ok,
        f"min eigenvalue {min_seen:.2e}, lowest per box {[f'{e:.4f}' for e in lowest]}",
    )
    assert ok


def test_criterion_10_superselection_table():
    grid = QGrid((np.array([0.0, 1.0]),) * 3)

    def case(target, s, j):
        la, lb = RepLabel.su2(s), RepLabel.su2(j)
        amp = ChannelAmplitude(
            la, lb, grid, np.zeros(grid.shape + (la.dim, lb.dim), dtype=complex)
        )
        rep = validate_superselection(Expansion((amp,), target))
        return not rep.violations

    G, D = TargetSpace.GLPLUS, TargetSpace.DOUBLE_COVER
    table = (
        (G, 0.0, 0.0, True),
        (G, 1.0, 2.0, True),
        (G, 3.0, 3.0, True),
        (G, 2.0, 1.0, True),
        (G, 0.5, 0.5, False),
        (G, 0.5, 0.0, False),
        (G, 1.5, 1.0, False),
        (G, 2.0, 2.5, False),
        (D, 0.5, 0.5, True),
        (D, 0.5, 1.5, True),
        (D, 2.5, 0.5, True),
        (D, 1.5, 1.5, True),
        (D, 0.0, 1.0, True),
        (D, 1.0, 1.0, True),
        (D, 2.0, 2.0, True),
        (D, 0.5, 1.0, False),
        (D, 0.0, 1.5, False),
        (D, 1.5, 2.0, False),
        (D, 1.0, 0.5, False),
        (D, 0.0, 0.5, False),
    )
    wrong = [
        (t.value, s, j) for t, s, j, want in table if case(t, s, j) is not want
    ]
    ok = not wrong
    report(
        10,
        "superselection accept/reject on 20 label cases",
        ok,
        "all verdicts match" if ok else f"mismatches {wrong}",
    )
    assert ok
