"""Finite-size verification laboratory.

Exact small-size identities between exhaustive particle-hole sums,
finite determinant resummations, singular discrete sums and their
contour closures, Fredholm-minor limits, and multidimensional
Lagrange inversion series.
"""

from .instances import (
    AffineCounting,
    FFLabInstance,
    NuFunction,
    QuadraticPhase,
    singular_sum_instance,
    standard_matrix,
)
from .discrete import (
    CoincidentRapidityError,
    EnumerationSizeError,
    SingularMatrixError,
    dhat_N,
    nu_zero_limit,
    xn_bruteforce,
    xn_determinant,
)
from .singsum import ContourPlacementError, SingularSumResult, singular_sum
from .minor import ContourResonanceError, fredholm_minor_limit, minor_instance
from .lagrange import (
    ContractionError,
    FixedPointError,
    lagrange_closed_form,
    lagrange_series,
)

__all__ = [
    "AffineCounting",
    "FFLabInstance",
    "NuFunction",
    "QuadraticPhase",
    "singular_sum_instance",
    "standard_matrix",
    "CoincidentRapidityError",
    "EnumerationSizeError",
    "SingularMatrixError",
    "dhat_N",
    "nu_zero_limit",
    "xn_bruteforce",
    "xn_determinant",
    "ContourPlacementError",
    "SingularSumResult",
    "singular_sum",
    "ContourResonanceError",
    "fredholm_minor_limit",
    "minor_instance",
    "ContractionError",
    "FixedPointError",
    "lagrange_closed_form",
    "lagrange_series",
]
