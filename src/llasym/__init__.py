"""Long-distance/long-time asymptotics of the one-particle density matrix
of the repulsive 1D Bose gas, from dressed thermodynamics to amplitudes,
plus a finite-size verification laboratory (llasym.fflab)."""

from .model import ModelParams
from .dressing import DressedSet, dress_all
from .excitations import ShiftFn, find_saddle, harmonic_table, special_shift
from .amplitudes import AmplitudeResult, amplitude, default_contour
from .asymptote import ExpansionReport, RhoValue, assemble_expansion, evaluate_rho

__all__ = [
    "ModelParams",
    "DressedSet",
    "dress_all",
    "ShiftFn",
    "find_saddle",
    "harmonic_table",
    "special_shift",
    "AmplitudeResult",
    "amplitude",
    "default_contour",
    "ExpansionReport",
    "RhoValue",
    "assemble_expansion",
    "evaluate_rho",
]

__version__ = "0.1.0"
