"""The superselection rule on channel labels.

A state on the configuration space splits into channels labeled by a
pair of irreducible representations (alpha for the left rotation-group
factor, beta for the right one); `hamiltonians` builds each channel's
reduced operator from its label pair.  Which pairs a state may carry
depends on the space it lives on: states on the identity component of
the linear group use integer labels only, states on its double cover
need alpha and beta of equal halfness.
"""

from enum import Enum


class TargetSpace(Enum):
    GLPLUS = "glplus"
    DOUBLE_COVER = "double-cover"


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


__all__ = ["TargetSpace", "superselection_violation"]
