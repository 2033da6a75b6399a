import numpy as np
import pytest

from affbody.errors import DomainError
from affbody.group_geometry import (
    DEGENERACY_TOL,
    MeasureTarget,
    WeightKind,
    haar_density_ratio,
    pair_weight,
    reconstruct,
    two_polar_decompose,
    weight_l,
    weight_lambda,
)


def random_glplus(rng, n):
    while True:
        phi = rng.standard_normal((n, n))
        det = np.linalg.det(phi)
        if abs(det) > 1e-3:
            if det < 0:
                phi[:, 0] *= -1.0
            return phi


class TestTwoPolar:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            for _ in range(200):
                phi = random_glplus(rng, n)
                cfg = two_polar_decompose(phi)
                err = np.linalg.norm(reconstruct(cfg) - phi) / np.linalg.norm(phi)
                assert err < 1e-12

    def test_factors_special_orthogonal(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(50):
                cfg = two_polar_decompose(random_glplus(rng, n))
                for M in (cfg.L, cfg.R):
                    assert np.allclose(M @ M.T, np.eye(n), atol=1e-13)
                    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)

    def test_invariants_sorted_descending(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cfg = two_polar_decompose(random_glplus(rng, 3))
            assert np.all(np.diff(cfg.q) <= 0.0)

    def test_identity_is_degenerate(self):
        cfg = two_polar_decompose(np.eye(2))
        assert cfg.degenerate
        assert np.allclose(cfg.q, 0.0)

    def test_distinct_invariants_not_degenerate(self):
        cfg = two_polar_decompose(np.diag([2.0, 1.0]))
        assert not cfg.degenerate
        assert np.allclose(cfg.q, [np.log(2.0), 0.0])

    def test_near_coincident_flagged(self):
        eps = 0.1 * DEGENERACY_TOL
        cfg = two_polar_decompose(np.diag([np.e * (1 + eps), np.e]))
        assert cfg.degenerate

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            two_polar_decompose(np.diag([1.0, -2.0]))
        with pytest.raises(DomainError):
            two_polar_decompose(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            two_polar_decompose(np.array([[2.0]]))
        with pytest.raises(DomainError):
            two_polar_decompose(np.zeros((2, 2)))

    def test_results_read_only(self):
        cfg = two_polar_decompose(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            cfg.q[0] = 5.0


class TestWeights:
    def test_lambda_two_dim_value(self):
        w = weight_lambda([np.log(2.0), 0.0])
        assert type(w) is float
        assert w == pytest.approx(0.75, abs=1e-15)

    def test_lambda_vanishes_iff_coincident(self):
        assert weight_lambda([1.3, 1.3]) == 0.0
        assert weight_lambda([0.4, 0.4, -1.0]) == 0.0
        assert weight_lambda([0.4, 0.2, -1.0]) > 0.0

    def test_lambda_permutation_invariant_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.standard_normal(3)
            base = weight_lambda(q)
            perm = rng.permutation(3)
            assert weight_lambda(q[perm]) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_pair_weight_on_a_grid_matches_each_point_bitwise(self, ndim):
        axes = [np.linspace(-1.0, 1.0, 4) + 0.1 * d for d in range(ndim)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        field = pair_weight(WeightKind.LAMBDA, pts)
        assert field.shape == pts.shape[:-1]
        for idx in np.ndindex(*field.shape):
            assert field[idx] == weight_lambda(pts[idx])

    def test_l_three_dim_value(self):
        w = weight_l([3.0, 2.0, 1.0])
        assert type(w) is float
        assert w == pytest.approx(120.0, abs=1e-12)

    def test_l_vanishes_on_coincidence(self):
        assert weight_l([2.0, 2.0, 1.0]) == 0.0

    @pytest.mark.parametrize("weight", [weight_lambda, weight_l])
    @pytest.mark.parametrize("shape", [(1,), (2, 2), ()])
    def test_rejects_bad_shapes(self, weight, shape):
        with pytest.raises(DomainError, match="at least two invariants"):
            weight(np.ones(shape))

    @pytest.mark.parametrize("weight,name", [(weight_lambda, "q"), (weight_l, "Q")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_invariants(self, weight, name, bad):
        with pytest.raises(DomainError, match=f"invariants {name} must be finite"):
            weight([bad, 1.0])

    def test_l_requires_positive(self):
        with pytest.raises(DomainError):
            weight_l([1.0, -2.0])
        with pytest.raises(DomainError):
            weight_l([1.0, 0.0])

    def test_consistency_with_exponentiated_invariants(self):
        # |(e^a + e^b)(e^a - e^b)| = 2 e^{a+b} |sinh(a - b)| links the two weights
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.uniform(-1.0, 1.0, size=2)
            assert weight_l(np.exp(q)) == pytest.approx(
                2.0 * np.exp(np.sum(q)) * weight_lambda(q), rel=1e-12
            )


class TestHaarDensity:
    def test_identity(self):
        assert haar_density_ratio(np.eye(2), MeasureTarget.LAMBDA_INTERNAL) == 1.0
        assert haar_density_ratio(np.eye(2), MeasureTarget.ALPHA_FULL_GROUP) == 1.0

    def test_reference_values(self):
        phi = np.diag([2.0, 2.0])
        assert haar_density_ratio(phi, MeasureTarget.LAMBDA_INTERNAL) == pytest.approx(1 / 16)
        assert haar_density_ratio(phi, MeasureTarget.ALPHA_FULL_GROUP) == pytest.approx(1 / 64)

    def test_scaling_law(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            phi = random_glplus(rng, n)
            c = 1.7
            for target, power in (
                (MeasureTarget.LAMBDA_INTERNAL, n * n),
                (MeasureTarget.ALPHA_FULL_GROUP, n * (n + 1)),
            ):
                assert haar_density_ratio(c * phi, target) == pytest.approx(
                    c ** (-power) * haar_density_ratio(phi, target), rel=1e-12
                )

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(DomainError):
            haar_density_ratio(np.diag([1.0, -1.0]), MeasureTarget.LAMBDA_INTERNAL)
