"""Lorenz values, Gini indices and an uncertainty coefficient for finite
odd-dimensional quantum systems.

The package builds the position/momentum kinematics of a d-level system
(d odd), evaluates the Lorenz values and Gini index of both measurement
distributions, and brackets the supremum of the combined index, whose gap to
the strict ceiling 2(d-1)/(d+1) is the uncertainty coefficient of the
dimension.
"""

from qgini.errors import (
    BudgetTooSmall,
    DegenerateFiducial,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    EvenDimension,
    InvalidStateFile,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
    TraceNotOne,
    ValidationError,
    WeightOutOfRange,
)
from qgini.qsystem import (
    DensityMatrix,
    ProbabilityDistribution,
    QuantumSystem,
    StateVector,
    UnitaryMatrix,
    conjugate,
    mix,
    new_system,
    pure_density,
    validate_density,
)
from qgini.lorenz import (
    LorenzCurve,
    OrderingPermutation,
    comonotonic,
    lorenz_curve,
    ordering_permutation,
)
from qgini.gini import GiniReport, gini_cap, gini_index, gini_report
from qgini.uncertainty import (
    BoundSet,
    EtaEstimate,
    bounds,
    estimate_sup_gini,
    example_gini_closed_form,
    example_state,
)
from qgini.sampling import random_density_matrix, random_state_vector, split_seed
from qgini.statefile import load_state_file, save_state_file

__version__ = "0.1.0"

__all__ = [
    "BoundSet",
    "BudgetTooSmall",
    "DegenerateFiducial",
    "DensityMatrix",
    "DimensionMismatch",
    "DimensionTooLarge",
    "DimensionTooSmall",
    "EtaEstimate",
    "EvenDimension",
    "GiniReport",
    "InvalidStateFile",
    "LorenzCurve",
    "NotFinite",
    "NotHermitian",
    "NotNormalized",
    "NotPositive",
    "OrderingPermutation",
    "ProbabilityDistribution",
    "QuantumSystem",
    "StateVector",
    "TraceNotOne",
    "UnitaryMatrix",
    "ValidationError",
    "WeightOutOfRange",
    "bounds",
    "comonotonic",
    "conjugate",
    "estimate_sup_gini",
    "example_gini_closed_form",
    "example_state",
    "gini_cap",
    "gini_index",
    "gini_report",
    "load_state_file",
    "lorenz_curve",
    "mix",
    "new_system",
    "ordering_permutation",
    "pure_density",
    "random_density_matrix",
    "random_state_vector",
    "save_state_file",
    "split_seed",
    "validate_density",
]
