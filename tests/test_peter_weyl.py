"""Tests for the superselection rule on channel labels."""

from affbody.peter_weyl import TargetSpace, superselection_violation
from affbody.representations import RepLabel


def offenders(pairs, target):
    """Indices of the spin pairs (s, j) that target bars."""
    halves = [tuple(RepLabel.su2(v).twice_spin % 2 == 1 for v in pair) for pair in pairs]
    return [i for i, (a, b) in enumerate(halves) if superselection_violation(target, a, b)]


class TestSuperselection:
    def test_integer_set_on_identity_component(self):
        assert offenders([(1, 2), (0, 0)], TargetSpace.GLPLUS) == []
        assert superselection_violation(TargetSpace.GLPLUS, False, False) is None

    def test_equal_halfness_on_double_cover(self):
        assert offenders([(0.5, 1.5), (1, 2)], TargetSpace.DOUBLE_COVER) == []

    def test_half_integer_rejected_on_identity_component(self):
        assert offenders([(0.5, 1.5), (1, 0.5), (2.5, 0)], TargetSpace.GLPLUS) == [0, 1, 2]
        why = superselection_violation(TargetSpace.GLPLUS, True, True)
        assert why == "half-integer label on the identity component"

    def test_mixed_halfness_rejected_on_double_cover(self):
        why = superselection_violation(TargetSpace.DOUBLE_COVER, True, False)
        assert why == "labels of unequal halfness on the double cover"
        assert superselection_violation(TargetSpace.DOUBLE_COVER, False, True) == why

    def test_mixed_set_reports_only_offenders(self):
        pairs = [(0, 1), (0.5, 2), (1.5, 0.5), (2, 0.5)]
        assert offenders(pairs, TargetSpace.DOUBLE_COVER) == [1, 3]

    def test_planar_integer_channels_pass_both_targets(self):
        # planar labels are integers, so neither is half-integral
        a, b = (int(2 * m) % 2 == 1 for m in (3, -1))
        assert superselection_violation(TargetSpace.GLPLUS, a, b) is None
        assert superselection_violation(TargetSpace.DOUBLE_COVER, a, b) is None
