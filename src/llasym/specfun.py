"""Special functions for the amplitude functionals.

* log Barnes G via the Taylor series of ln G(1+z) on |z| <= 1/2 plus the
  recurrence G(z+1) = Gamma(z) G(z),
* the log of the regularisation kappa[nu](lam) = exp{-int (nu(lam)-nu(mu))/(lam-mu) dmu},
* the Cauchy transform C[nu](lam) = (2 i pi)^{-1} int nu(mu)/(mu-lam) dmu,
* the double integral C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2}.

All integrals are over [-q, q] on the Gauss-Legendre grid of the dressed set.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln, gammasgn, zeta

from .dressing import QuadGrid

_LN_2PI = float(np.log(2.0 * np.pi))
_EULER_GAMMA = float(np.euler_gamma)
# zeta(k-1) for k = 3..60: the tail term zeta(59) 2^-60 ~ 9e-19 is below double precision
_ZETA_TABLE = zeta(np.arange(2, 60, dtype=float))
_KS = np.arange(3, 61, dtype=float)
_SIGNS = (-1.0) ** (_KS - 1.0)
_MAX_STEPS = 100  # recurrence shifts allowed to bring x into [1/2, 3/2]


def _ln_g_one_plus(w: float) -> float:
    """ln G(1+w) for |w| <= 1/2."""
    pows = w ** _KS
    tail = float(np.sum(_SIGNS * _ZETA_TABLE * pows / _KS))
    return 0.5 * _LN_2PI * w - 0.5 * w * (w + 1.0) - 0.5 * _EULER_GAMMA * w * w + tail


def barnes_g_log(x: float):
    """ln G(x) for real non-integer x (and any x > 0).

    Series evaluation on x in [1/2, 3/2], shifted there by the recurrence
    G(x+1) = Gamma(x) G(x) (at most `_MAX_STEPS` shifts).  G is positive on
    x > 0 and the return value is a float; for negative x where G(x) < 0
    the principal complex log (ln|G| + i pi) is returned.  G vanishes at
    x = 0, -1, -2, ... where the log diverges (ValueError).
    """
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"barnes_g_log needs finite x, got {x}")
    if x < 0.5 and abs(x - round(x)) < 1e-12:
        raise ValueError(f"G({x}) = 0: log diverges at non-positive integers")
    log_abs = 0.0
    sign = 1.0
    steps = 0
    while x > 1.5:
        x -= 1.0
        log_abs += float(gammaln(x))
        sign *= float(gammasgn(x))
        steps += 1
        if steps > _MAX_STEPS:
            raise ValueError("barnes_g_log: too many recurrence steps")
    while x < 0.5:
        log_abs -= float(gammaln(x))
        sign *= float(gammasgn(x))
        x += 1.0
        steps += 1
        if steps > _MAX_STEPS:
            raise ValueError("barnes_g_log: too many recurrence steps")
    log_abs += _ln_g_one_plus(x - 1.0)
    return log_abs if sign > 0 else complex(log_abs, np.pi)


def log_kappa(nu, lam, grid: QuadGrid) -> complex:
    """-int_{-q}^{q} (nu(lam) - nu(mu)) / (lam - mu) dmu  =  ln kappa[nu](lam).

    `nu` must be callable with a `.d1` derivative method; the integrand's
    removable singularity at mu = lam is replaced by nu'(lam) whenever a
    quadrature node comes within 1e-8 of lam.
    """
    lam = complex(lam) if np.iscomplexobj(np.asarray(lam)) else float(lam)
    nu_lam = nu(lam)
    diff = lam - grid.nodes
    near = np.abs(diff) < 1e-8
    quot = np.empty(grid.n_nodes, dtype=complex)
    if np.any(near):
        quot[~near] = (nu_lam - nu(grid.nodes[~near])) / diff[~near]
        quot[near] = nu.d1(lam)
    else:  # nu(grid.nodes) itself: a shift function returns its memoised node values
        quot[:] = (nu_lam - nu(grid.nodes)) / diff
    return complex(-np.dot(grid.weights, quot))


def cauchy_segment(values_on_grid: np.ndarray, grid: QuadGrid, z) -> np.ndarray:
    """int_{-q}^{q} f(mu) / (mu - z) dmu at each z, from f's values on the grid.

    Vectorized over z; the points must stay away from the segment [-q, q]
    (`cauchy_transform` checks this for one point).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    quot = grid.nodes[None, :] - z[:, None]
    np.divide((grid.weights * values_on_grid)[None, :], quot, out=quot)
    return quot.sum(axis=1)


def cauchy_transform(nu, lam, grid: QuadGrid):
    """C[nu](lam) = (2 i pi)^{-1} int_{-q}^{q} nu(mu) / (mu - lam) dmu.

    lam must stay at least 1e-3 q away from the segment [-q, q].
    """
    lam = complex(lam)
    q = grid.q
    if -q <= lam.real <= q:
        dist = abs(lam.imag)
    else:
        dist = min(abs(lam - q), abs(lam + q))
    if dist < 1e-3 * q:
        raise ValueError(f"cauchy_transform: lam = {lam} within 1e-3 q of [-q, q]")
    return cauchy_segment(np.asarray(nu(grid.nodes)), grid, lam)[0] / (2j * np.pi)


def c0_double_integral(nu, grid: QuadGrid, c: float) -> complex:
    """C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2} dlam dmu (real for real nu)."""
    vals = np.asarray(nu(grid.nodes), dtype=complex)
    inv_sq = grid.nodes[:, None] - grid.nodes[None, :] - 1j * c
    np.square(inv_sq, out=inv_sq)
    np.divide(1.0, inv_sq, out=inv_sq)
    wv = grid.weights * vals
    return complex(-(wv @ inv_sq @ wv))
