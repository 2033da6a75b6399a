import numpy as np
import pytest

from affbody.errors import DomainError
from affbody.hamiltonians import Grid1D, ModelKind, ModelParams
from affbody.verify import (
    EQUIVALENCE_CASES,
    EQUIVALENCE_TOL,
    SUITES,
    CheckResult,
    algebra_suite,
    equivalence_defect,
    format_report,
    measures_suite,
    orthogonality_suite,
    run_suite,
)


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
