"""Special functions for the amplitude functionals.

* Gamma and log|Gamma| with its sign: the stdlib's `math.gamma` and
  `math.lgamma`, kept to the domains below, with the poles and the overflow
  next to 0 mapped to values instead of exceptions,
* log Barnes G via the Taylor series of ln G(1+z) on |z| <= 1/2 plus the
  recurrence G(z+1) = Gamma(z) G(z),
* the log of the regularisation kappa[nu](lam) = exp{-int (nu(lam)-nu(mu))/(lam-mu) dmu},
* the Cauchy transform C[f](z) = (2 i pi)^{-1} int f(mu)/(mu-z) dmu from f's grid values,
* the double integral C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2}.

All integrals are over [-q, q] on the Gauss-Legendre grid of the dressed set.

The amplitudes take Gamma and ln G only at shift values at the Fermi boundary
(Gamma(1 +- nu(+-q)) and Gamma(+-nu(+-q)) in A+-, ln G(1 + nu(q)) and
ln G(1 - nu(-q)) in B), so each is kept on a domain that holds those values with
a margin: Gamma on |x| <= 33, ln|Gamma| on [-33, 13) and ln G on [-33, 14),
whose recurrence stays inside ln|Gamma|'s.  Outside it, nan and +-inf
included, each raises ValueError.
"""
from __future__ import annotations

import math

import numpy as np

from .dressing import QuadGrid

_LN_2PI = float(np.log(2.0 * np.pi))
_EULER_GAMMA = float(np.euler_gamma)
# zeta(k-1) for k = 3..60, each the double nearest the true value: the tail
# term zeta(59) 2^-60 ~ 9e-19 is below double precision
_ZETA_TABLE = np.array([
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
    1.0000000000002274, 1.0000000000001137, 1.0000000000000568, 1.0000000000000284,
    1.0000000000000142, 1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002, 1.0000000000000002,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
])
_KS = np.arange(3, 61, dtype=float)
_SIGNS = (-1.0) ** (_KS - 1.0)
# the domains: |x| <= GAMMA_MAX for gamma, LGAM_MIN <= x < LGAM_MAX for lgam and
# LGAM_MIN <= x < BARNES_G_MAX for barnes_g_log
GAMMA_MAX, LGAM_MIN, LGAM_MAX, BARNES_G_MAX = 33.0, -33.0, 13.0, 14.0


def gamma(x: float) -> float:
    """Gamma(x) for real |x| <= 33 by `math.gamma`, else ValueError: nan at the
    negative integers, +-inf at +-0 and where 1/|x| overflows (|x| < 1e-308)."""
    x = float(x)
    if not abs(x) <= GAMMA_MAX:  # false for nan too
        raise ValueError(f"gamma needs |x| <= {GAMMA_MAX:g}, got {x}")
    if x < 0.0 and x == math.floor(x):
        return math.nan
    try:
        return math.gamma(x)
    except (OverflowError, ValueError):  # Gamma ~ 1/x near 0, a pole at +-0 itself
        return math.copysign(math.inf, x)


def lgam(x: float) -> tuple:
    """(ln|Gamma(x)|, its sign) for real -33 <= x < 13 by `math.lgamma`, else
    ValueError; (inf, 1) at the poles."""
    x = float(x)
    if not LGAM_MIN <= x < LGAM_MAX:  # false for nan too
        raise ValueError(f"lgam needs {LGAM_MIN:g} <= x < {LGAM_MAX:g}, got {x}")
    if x <= 0.0 and x == math.floor(x):
        return math.inf, 1
    # Gamma < 0 on (-n-1, -n) for even n >= 0, where floor(x) = -n-1 is odd
    return math.lgamma(x), -1 if x < 0.0 and math.floor(x) % 2 else 1


def _ln_g_one_plus(w: float) -> float:
    """ln G(1+w) for |w| <= 1/2."""
    pows = w ** _KS
    tail = float(np.sum(_SIGNS * _ZETA_TABLE * pows / _KS))
    return 0.5 * _LN_2PI * w - 0.5 * w * (w + 1.0) - 0.5 * _EULER_GAMMA * w * w + tail


def barnes_g_log(x: float):
    """ln G(x) for real -33 <= x < 14 off the non-positive integers.

    Series evaluation on x in [1/2, 3/2], shifted there by the recurrence
    G(x+1) = Gamma(x) G(x).  G is positive on x > 0 and the return value is a
    float; for negative x where G(x) < 0 the principal complex log
    (ln|G| + i pi) is returned.  ValueError outside the domain (nan and +-inf
    included) and at x = 0, -1, -2, ..., where G vanishes.
    """
    x = float(x)
    if not LGAM_MIN <= x < BARNES_G_MAX:  # false for nan too
        raise ValueError(f"barnes_g_log needs {LGAM_MIN:g} <= x < {BARNES_G_MAX:g}, got {x}")
    if x < 0.5 and abs(x - round(x)) < 1e-12:
        raise ValueError(f"G({x}) = 0: log diverges at non-positive integers")
    log_abs = 0.0
    sign = 1.0
    while x > 1.5:
        x -= 1.0
        log_gamma, gamma_sign = lgam(x)
        log_abs += log_gamma
        sign *= gamma_sign
    while x < 0.5:
        log_gamma, gamma_sign = lgam(x)
        log_abs -= log_gamma
        sign *= gamma_sign
        x += 1.0
    log_abs += _ln_g_one_plus(x - 1.0)
    return log_abs if sign > 0 else complex(log_abs, np.pi)


def log_kappa(nu, lam, grid: QuadGrid) -> complex:
    """-int_{-q}^{q} (nu(lam) - nu(mu)) / (lam - mu) dmu  =  ln kappa[nu](lam).

    `nu` must be callable with a `.d1` derivative method; the integrand's
    removable singularity at mu = lam is replaced by nu'(lam) whenever a
    quadrature node comes within 1e-8 of lam.
    """
    lam = complex(lam) if np.iscomplexobj(np.asarray(lam)) else float(lam)
    diff = lam - grid.nodes
    near = np.abs(diff) < 1e-8
    diff[near] = 1.0
    # nu(grid.nodes) itself: a shift function returns its memoised node values
    quot = np.asarray((nu(lam) - nu(grid.nodes)) / diff, dtype=complex)
    if np.any(near):
        quot[near] = nu.d1(lam)
    return complex(-np.dot(grid.weights, quot))


def cauchy_transform(values_on_grid: np.ndarray, grid: QuadGrid, z) -> np.ndarray:
    """C[f](z) = (2 i pi)^{-1} int_{-q}^{q} f(mu) / (mu - z) dmu from f's grid values.

    Vectorised over z (a scalar z gives an array of one); ValueError if a point
    lies within 1e-3 q of the segment [-q, q].
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    q = grid.q
    dist = np.min(np.abs(z - np.clip(z.real, -q, q)))  # to the nearest point of [-q, q]
    if dist < 1e-3 * q:
        raise ValueError(f"cauchy_transform: a point lies {dist:.4g} from [-q, q], within 1e-3 q")
    quot = grid.nodes[None, :] - z[:, None]
    np.divide((grid.weights * values_on_grid)[None, :], quot, out=quot)
    return quot.sum(axis=1) / (2j * np.pi)


def c0_matrix(grid: QuadGrid, c: float) -> np.ndarray:
    """(lam_j - lam_k - ic)^{-2} on the grid's nodes: the matrix of C0[nu]."""
    inv_sq = grid.nodes[:, None] - grid.nodes[None, :] - 1j * c
    np.square(inv_sq, out=inv_sq)
    np.divide(1.0, inv_sq, out=inv_sq)
    return inv_sq


def c0_double_integral(nu, grid: QuadGrid, inv_sq: np.ndarray) -> complex:
    """C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2} dlam dmu (real for real nu),
    with inv_sq = `c0_matrix(grid, c)`."""
    vals = np.asarray(nu(grid.nodes), dtype=complex)
    wv = grid.weights * vals
    return complex(-(wv @ inv_sq @ wv))
