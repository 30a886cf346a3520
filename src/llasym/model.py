"""Bare (undressed) quantities of the repulsive 1D delta Bose gas.

Everything here is closed form.  The gas is parametrized by the coupling
c > 0 and the chemical potential h > 0; all quantities are dimensionless.

    theta(lam) = i*log((ic + lam)/(ic - lam))   bare two-body phase
    K(lam)     = 2c/(lam^2 + c^2)               kernel, K = theta'
    p0(lam)    = lam                            bare momentum
    eps0(lam)  = lam^2 - h                      bare energy
    u0(lam)    = p0(lam) - (t/x)*eps0(lam)

For real lam the phase reduces to 2*arctan(lam/c), which is what we
evaluate there (no branch issues); the logarithm form is kept for complex
arguments inside the strip |Im lam| < c.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StripError(ValueError):
    """Argument left the analyticity strip |Im lam| < c."""


@dataclass(frozen=True)
class ModelParams:
    """Coupling c and chemical potential h, both > 0."""

    c: float
    h: float

    def __post_init__(self) -> None:
        if not (self.c > 0):
            raise ValueError(f"coupling must be positive, got c={self.c}")
        if not (self.h > 0):
            raise ValueError(f"chemical potential must be positive, got h={self.h}")


def _check_strip(lam, c: float) -> None:
    im = np.max(np.abs(np.imag(np.asarray(lam, dtype=complex))))
    if im >= c:
        raise StripError(f"|Im lam| = {im} >= c = {c}")


def bare_phase(lam, params: ModelParams):
    """theta(lam) = i*log((ic + lam)/(ic - lam)); equals 2*arctan(lam/c) on the real line.

    Odd in lam; domain is the strip |Im lam| < c.
    """
    c = params.c
    lam = np.asarray(lam)
    if np.isrealobj(lam):
        out = 2.0 * np.arctan(lam / c)
    else:
        _check_strip(lam, c)
        out = 1j * np.log((1j * c + lam) / (1j * c - lam))
    if out.ndim == 0:
        return out[()]
    return out


def _inexact(lam) -> np.ndarray:
    """lam as an array of floating type (integers become float64)."""
    lam = np.asarray(lam)
    return lam if np.issubdtype(lam.dtype, np.inexact) else lam.astype(float)


def lieb_kernel(lam, params: ModelParams, out=None):
    """K(lam) = 2c/(lam^2 + c^2) = theta'(lam); even; poles at lam = +-ic.

    The steps are those of the formula, so are the bits, and they fill one
    array: `out` when given (lam itself may be passed, to be overwritten),
    else a new one.  lam is written only when it is `out`.
    """
    c = params.c
    lam = _inexact(lam)
    if not np.isrealobj(lam):
        _check_strip(lam, c)
    den = np.multiply(lam, lam, out=out)  # without `out`, a numpy scalar for 0-d lam
    den += c * c
    out = np.divide(2.0 * c, den, out=den if isinstance(den, np.ndarray) else None)
    if out.ndim == 0:
        return out[()]
    return out


def lieb_kernel_d1(lam, params: ModelParams, out=None):
    """K'(lam) = -4c*lam/(lam^2 + c^2)^2; `out` as for `lieb_kernel`, plus one
    new array of lam's size for the denominator."""
    c = params.c
    lam = _inexact(lam)
    den = lam * lam
    den += c * c
    den *= den
    out = np.multiply(-4.0 * c, lam, out=out)
    out /= den
    if out.ndim == 0:
        return out[()]
    return out


def lieb_kernel_d2(lam, params: ModelParams, out=None):
    """K''(lam) = 4c*(3 lam^2 - c^2)/(lam^2 + c^2)^3; only the quotient goes to `out`."""
    c = params.c
    lam = _inexact(lam)
    den = lam * lam + c * c
    out = np.divide(4.0 * c * (3.0 * lam * lam - c * c), den * den * den, out=out)
    if out.ndim == 0:
        return out[()]
    return out

