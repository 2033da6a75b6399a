"""Reduced Schroedinger operators of the quantized affinely-rigid body.

The package splits along the pipeline:

- ``group_geometry``: two-polar (SVD-type) configuration decomposition,
  deformation-invariant weight factors, Haar density ratios;
- ``representations``: su(2)/so(3) generators, Wigner matrices,
  Haar quadrature on the rotation groups;
- ``peter_weyl``: target spaces and the superselection rule on channel
  labels;
- ``hamiltonians``: the four kinetic-energy models reduced to weighted
  divergence-form operators per channel (planar and spatial);
- ``spectra``: eigensolvers, bound-state classification, refinement
  studies;
- ``verify``: built-in self-check suites;
- ``cli``: the ``affbody`` batch front end.
"""

__version__ = "0.1.0"

from .errors import (
    AffbodyError,
    CapacityError,
    DomainError,
    NumericalError,
    UsageError,
)
from .group_geometry import (
    MeasureTarget,
    TwoPolarConfig,
    haar_density_ratio,
    reconstruct,
    two_polar_decompose,
    weight_l,
    weight_lambda,
)
from .hamiltonians import (
    ChannelOperator1D,
    DerivedConstants,
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    NDChannelOperator,
    PotentialSpec,
    assemble_2d_channel,
    assemble_nd_channel,
    check_gates,
    derived_constants,
    symmetrize,
)
from .representations import (
    Group,
    RepLabel,
    casimir,
    generators,
    group_volume,
    haar_quadrature,
    wigner_D,
)
from .spectra import (
    SpectralClass,
    SpectrumResult,
    classify_channel,
    convergence_study,
    solve_1d,
    solve_nd,
    write_spectrum_table,
)
from .verify import run_suite

__all__ = [
    "__version__",
    "AffbodyError",
    "CapacityError",
    "ChannelOperator1D",
    "DerivedConstants",
    "DomainError",
    "Grid1D",
    "GridND",
    "Group",
    "MeasureTarget",
    "ModelKind",
    "ModelParams",
    "NDChannelOperator",
    "NumericalError",
    "PotentialSpec",
    "RepLabel",
    "SpectralClass",
    "SpectrumResult",
    "TwoPolarConfig",
    "UsageError",
    "assemble_2d_channel",
    "assemble_nd_channel",
    "casimir",
    "check_gates",
    "classify_channel",
    "convergence_study",
    "derived_constants",
    "generators",
    "group_volume",
    "haar_density_ratio",
    "haar_quadrature",
    "reconstruct",
    "run_suite",
    "solve_1d",
    "solve_nd",
    "symmetrize",
    "two_polar_decompose",
    "weight_l",
    "weight_lambda",
    "wigner_D",
    "write_spectrum_table",
]
