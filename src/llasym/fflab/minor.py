"""Infinite-volume limit of the determinant resummation.

The scaled sums X_N converge, as the size and window grow together, to
a Fredholm-minor expression on the condensation interval [-q, q]:

    X = ( S + 2/pi * int sin^2(pi nu) F(lam) E(lam) O(lam) dlam ) * det(I + V),

with S the plain contour integral of E^(-2) over a descending truncated
contour that passes above [-q, q] and crosses the real axis at the
stationary point of the phase, O the Cauchy transform of E^(-2) over
that contour plus a local reflection term, V an integrable kernel built
from O and sin(pi nu), and F solving (I + V) applied to sin(pi nu) F =
sin(pi nu) E O.  The kernel similarity by diag(E) removes all single
powers of E, so only E^(+-2) is ever evaluated and no square-root
branch choices arise.
"""

from __future__ import annotations

import math

import numpy as np

from ..dressing import legendre_rule
from .discrete import integrable_resummation
from .instances import AffineCounting, FFLabInstance, NuFunction, QuadraticPhase
from .singsum import descending_nodes

_Q = np.pi  # interval edge: minor_instance's counting function z/2pi + 1/2 fills (-pi, pi)
_HEIGHT = 0.75  # half-height of the descending contour
_RESONANCE_TOL = 1e-8  # pole guard of the weight 1/(e^{-2 i pi nu} - 1) on the interval


class ContourResonanceError(ValueError):
    """exp(-2 i pi nu) hits 1 on the interval, so the kernel weight diverges."""


def minor_instance(L: int) -> FFLabInstance:
    """Finite-size member of the family whose limit is the Fredholm minor, at
    nu = rational(0.1), x = 5 and tau = 0.1.

    The counting function fills (-pi, pi) with N = L-1 shifted points;
    the window half-width grows like L^2/8 so the window-boundary
    remainder (which scales like (L/w)^(k-1)) keeps shrinking.
    """
    return FFLabInstance(N=int(L) - 1, L=float(L), w=math.ceil(L * L / 8),
                         xi=AffineCounting(1.0 / (2.0 * np.pi), 0.5),
                         nu=NuFunction("rational", 0.1), phase=QuadraticPhase(x=5.0, tau=0.1))


def fredholm_minor_limit(nu: NuFunction, phase: QuadraticPhase, *,
                         n_interval: int = 64, half_width: float = 25.0) -> complex:
    """Evaluate the Fredholm-minor expression on [-pi, pi]."""
    if phase.knee <= _Q + 1e-6:
        raise ValueError("phase stationary point must sit right of the interval")
    zc, wc = descending_nodes(-half_width, phase.knee, half_width, _HEIGHT)
    e_inv_c = phase.e_inv_sq(zc)
    s_contour = np.sum(e_inv_c * wc) / (2.0 * np.pi)

    if nu.is_zero:
        # sin(pi nu) = 0 kills the kernel and the rank-one bracket term
        return complex(s_contour)

    # Gauss-Legendre on the interval
    t, wt = legendre_rule(n_interval)
    t = _Q * t
    wt = _Q * wt

    nu_t = nu(t)
    res_weight = np.exp(-2j * np.pi * nu_t) - 1.0
    if np.min(np.abs(res_weight)) < _RESONANCE_TOL:
        raise ContourResonanceError(
            "exp(-2 i pi nu) - 1 vanishes on the interval; the local term diverges")

    e_inv_t = phase.e_inv_sq(t)
    e_sq_t = 1.0 / e_inv_t
    s_t = np.sin(np.pi * nu_t)

    diff = zc[:, None] - t[None, :]
    cauchy1 = (wc[:, None] * e_inv_c[:, None] / diff).sum(axis=0) / (2.0 * np.pi)
    cauchy2 = (wc[:, None] * e_inv_c[:, None] / diff**2).sum(axis=0) / (2.0 * np.pi)

    o_val = 1j * cauchy1 + e_inv_t / res_weight
    d_e_inv_t = phase.dlog_inv_sq(t) * e_inv_t
    expnu = np.exp(-2j * np.pi * nu_t)
    o_der = (1j * cauchy2 + d_e_inv_t / res_weight
             + e_inv_t * 2j * np.pi * nu.d1(t) * expnu / res_weight**2)

    return integrable_resummation(t, o_val, o_der, s_t, e_sq_t * wt, s_contour)
