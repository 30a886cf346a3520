"""Special functions for the amplitude functionals.

* Gamma and log|Gamma| with its sign: ports of the Cephes `Gamma` and `lgam`
  (Stephen L. Moshier's Cephes Math Library), evaluated in the same order
  with the same libm calls, so they return the same doubles as that library,
* log Barnes G via the Taylor series of ln G(1+z) on |z| <= 1/2 plus the
  recurrence G(z+1) = Gamma(z) G(z),
* the log of the regularisation kappa[nu](lam) = exp{-int (nu(lam)-nu(mu))/(lam-mu) dmu},
* the Cauchy transform C[f](z) = (2 i pi)^{-1} int f(mu)/(mu-z) dmu from f's grid values,
* the double integral C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2}.

All integrals are over [-q, q] on the Gauss-Legendre grid of the dressed set.

The amplitudes take Gamma and ln G only at shift values at the Fermi boundary
(Gamma(1 +- nu(+-q)) and Gamma(+-nu(+-q)) in A+-, ln G(1 + nu(q)) and
ln G(1 - nu(-q)) in B), so each is kept on a domain where Cephes needs only its
rational approximations: Gamma on |x| <= 33, ln|Gamma| on [-33, 13) and ln G on
[-33, 14), whose recurrence stays inside ln|Gamma|'s.  Outside it, nan and +-inf
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

# Cephes coefficients: Gamma on [2, 3] (P/Q), ln Gamma on [2, 3] (B/C)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gamma(x: float) -> float:
    """Gamma(x) for real |x| <= 33, else ValueError: +-inf at +-0, nan at the negative integers."""
    x = float(x)
    if not abs(x) <= GAMMA_MAX:  # false for nan too
        raise ValueError(f"gamma needs |x| <= {GAMMA_MAX:g}, got {x}")
    if x == 0.0:
        return math.copysign(math.inf, x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _gamma_small(x: float, z: float) -> float:
    """z Gamma(x) for |x| < 1e-9, nan at 0 (reached from a negative integer)."""
    if x == 0.0:
        return math.nan
    return z / ((1.0 + _EULER_GAMMA * x) * x)


def lgam(x: float) -> tuple:
    """(ln|Gamma(x)|, its sign) for real -33 <= x < 13, else ValueError; (inf, 1) at the poles."""
    x = float(x)
    if not LGAM_MIN <= x < LGAM_MAX:  # false for nan too
        raise ValueError(f"lgam needs {LGAM_MIN:g} <= x < {LGAM_MAX:g}, got {x}")
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        if u == 0.0:
            return math.inf, 1
        z /= u
        p += 1.0
        u = x + p
    sign = -1 if z < 0.0 else 1
    z = abs(z)
    if u == 2.0:
        return math.log(z), sign
    p -= 2.0
    x = x + p
    p = x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    return math.log(z) + p, sign


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


def c0_double_integral(nu, grid: QuadGrid, c: float) -> complex:
    """C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2} dlam dmu (real for real nu)."""
    vals = np.asarray(nu(grid.nodes), dtype=complex)
    inv_sq = grid.nodes[:, None] - grid.nodes[None, :] - 1j * c
    np.square(inv_sq, out=inv_sq)
    np.divide(1.0, inv_sq, out=inv_sq)
    wv = grid.weights * vals
    return complex(-(wv @ inv_sq @ wv))
