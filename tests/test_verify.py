import numpy as np
import pytest

from affbody.errors import DomainError
from affbody.hamiltonians import Grid1D, ModelKind, ModelParams
from affbody.representations import (
    Group,
    RepLabel,
    generators,
    group_volume,
    haar_quadrature,
)
from affbody.verify import (
    EQUIVALENCE_CASES,
    EQUIVALENCE_TOL,
    SUITES,
    CheckResult,
    _gram_defect,
    algebra_suite,
    equivalence_defect,
    format_report,
    measures_suite,
    orthogonality_suite,
    run_suite,
)


def exp_of_generators(label, ks):
    """exp(-i k . S) at each row of ks, from a batched eigh of the Hermitian k . S."""
    vals, vecs = np.linalg.eigh(np.einsum("na,aij->nij", ks, np.array(generators(label))))
    return (vecs * np.exp(-1j * vals)[:, None, :]) @ np.conj(vecs).transpose(0, 2, 1)


def per_pair_gram_defect(group, labels, order):
    """The per-pair einsum form of verify._gram_defect, kept as its reference.

    D is taken from the generators by eigh, so the reference shares no code
    with wigner_D_batch, whose matrices _gram_defect sums.
    """
    quad = haar_quadrature(group, order)
    vol = group_volume(group)
    mats = {label: exp_of_generators(label, quad.vectors) for label in labels}
    worst = 0.0
    for la in labels:
        for lb in labels:
            gram = np.einsum("k,kab,kcd->abcd", quad.weights, mats[la], np.conj(mats[lb]))
            expect = np.zeros_like(gram)
            if la == lb:
                dim = la.twice_spin + 1
                for a in range(dim):
                    for b in range(dim):
                        expect[a, b, a, b] = vol / dim
            worst = max(worst, float(np.max(np.abs(gram - expect))) / vol)
    return worst


class TestCheckResult:
    def test_passed_logic(self):
        assert CheckResult("a", 1e-13, 1e-12).passed
        assert not CheckResult("a", 2e-12, 1e-12).passed
        assert not CheckResult("a", float("nan"), 1e-12).passed

    def test_report_lines(self):
        rep = format_report(
            [CheckResult("ok", 0.0, 1e-8), CheckResult("bad", 1.0, 1e-8, "note")]
        )
        lines = rep.splitlines()
        assert lines[0].startswith("PASS ok:")
        assert lines[1].startswith("FAIL bad:")
        assert "[note]" in lines[1]
        assert "defect" in lines[0] and "tol" in lines[0]


class TestSuites:
    def test_algebra_all_pass(self):
        results = algebra_suite()
        assert len(results) == 4
        assert all(r.passed for r in results)

    def test_measures_all_pass(self):
        results = measures_suite(seed=7)
        assert all(r.passed for r in results)
        names = [r.name for r in results]
        assert any("so3" in n for n in names)
        assert any("roundtrip" in n for n in names)

    def test_measures_checks_the_n3_symmetry(self):
        (res,) = [r for r in measures_suite() if "Klein" in r.name]
        assert res.passed and 0.0 <= res.defect <= 1e-14

    def test_measures_deterministic(self):
        a = measures_suite(seed=3)
        b = measures_suite(seed=3)
        assert [r.defect for r in a] == [r.defect for r in b]

    def test_orthogonality_all_pass(self):
        results = orthogonality_suite()
        assert len(results) == 2
        assert all(r.passed for r in results)
        assert all(r.defect < 1e-10 for r in results)

    @pytest.mark.parametrize(
        "group,labels",
        [
            (Group.SO3, [RepLabel.so3(s) for s in range(5)]),
            (Group.SU2, [RepLabel.su2(k / 2) for k in range(9)]),
        ],
    )
    def test_gram_matches_per_pair_einsum(self, group, labels):
        # at order 8 the radial rule is far from converged for the top labels,
        # so the defect is large and both forms must agree on its value
        want = per_pair_gram_defect(group, labels, order=8)
        assert want > 1e-3
        assert abs(_gram_defect(group, labels, order=8) - want) <= 1e-12

    def test_gram_fails_on_a_repeated_label(self):
        # two copies of one label are not orthogonal: their cross block is vol/d
        labels = [RepLabel.su2(0.5), RepLabel.su2(1), RepLabel.su2(0.5)]
        assert _gram_defect(Group.SU2, labels, order=8) >= 0.1

    def test_dispatch_and_all(self):
        assert len(run_suite("algebra")) == 4
        with pytest.raises(DomainError):
            run_suite("nonsense")
        assert set(SUITES) == {
            "algebra",
            "measures",
            "orthogonality",
            "spectral-equivalence",
        }

    def test_all_runs_every_suite(self):
        results = run_suite("all")
        assert len(results) == 23
        assert [r.name for r in results if not r.passed] == []


class TestEquivalence:
    # The full roster runs in the acceptance suite; spot-check two cases
    # from different models here.
    @pytest.mark.parametrize("case", [EQUIVALENCE_CASES[0], EQUIVALENCE_CASES[8]])
    def test_roster_case(self, case):
        kind, params, channel = case
        assert equivalence_defect(kind, params, channel) < EQUIVALENCE_TOL

    def test_roster_has_no_label_twins(self):
        # channels with equal |n-m| and |n+m| assemble the same operator, so
        # a twin in the roster would run one check twice
        keys = [(k, p, abs(n - m), abs(n + m)) for k, p, (m, n) in EQUIVALENCE_CASES]
        assert len(set(keys)) == len(keys)

    def test_defect_scale_guard(self):
        # Identical spectra would give defect 0; a coarse base grid still
        # has to land under the tolerance after extrapolation.
        d = equivalence_defect(
            ModelKind.AFF_AFF,
            ModelParams(I=1.0, A=1.0, B=0.0),
            (0, 2),
            count=3,
            base_grid=Grid1D.from_spec(30.0, 249),
        )
        assert np.isfinite(d)
        assert d < EQUIVALENCE_TOL
