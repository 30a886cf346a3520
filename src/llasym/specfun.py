"""Special functions for the amplitude functionals.

* Gamma and log|Gamma| with its sign: ports of the Cephes `Gamma` and `lgam`
  (Stephen L. Moshier's Cephes Math Library), evaluated in the same order
  with the same libm calls, so they return the same doubles as that library,
* log Barnes G via the Taylor series of ln G(1+z) on |z| <= 1/2 plus the
  recurrence G(z+1) = Gamma(z) G(z),
* the log of the regularisation kappa[nu](lam) = exp{-int (nu(lam)-nu(mu))/(lam-mu) dmu},
* the Cauchy transform C[nu](lam) = (2 i pi)^{-1} int nu(mu)/(mu-lam) dmu,
* the double integral C0[nu] = -int int nu(lam) nu(mu) (lam - mu - ic)^{-2}.

All integrals are over [-q, q] on the Gauss-Legendre grid of the dressed set.
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
_MAX_STEPS = 100  # recurrence shifts allowed to bring x into [1/2, 3/2]

# Cephes coefficients: Gamma on [2, 3] (P/Q), Stirling's series for Gamma
# (STIR, 33 < x < 171.6) and for ln Gamma (A, x >= 13), ln Gamma on [2, 3] (B/C)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
         3.47222221605458667310e-3, 8.33333333333482257126e-2)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_SQRT_2PI = 2.50662827463100050242e0
_LOG_PI = 1.14472988584940017414
_LOG_SQRT_2PI = 0.91893853320467274178  # Cephes' literal; 0.5 * _LN_2PI is one ulp off
_MAX_GAMMA = 171.624376956302725  # Gamma overflows above this
_MAX_STIR = 143.01608  # above this x^(x - 1/2) is split in two to avoid overflow
_MAX_LGAM = 2.556348e305  # ln Gamma overflows above this


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


def _reflection_sign(p: float) -> int:
    """The sign of Gamma(x) for x < -33 with floor(-x) = p: -1 for even p.

    Cephes takes the parity of p as a C int, which reads as even past 2^31.
    """
    return -1 if p >= 2.0**31 or int(p) % 2 == 0 else 1


def _stirling_gamma(x: float) -> float:
    """Gamma(x) by Stirling's formula, for 33 < x."""
    if x >= _MAX_GAMMA:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIR)
    y = math.exp(x)
    if x > _MAX_STIR:
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQRT_2PI * y * w


def gamma(x: float) -> float:
    """Gamma(x) for real x: +-inf at +-0, nan at the negative integers and -inf."""
    x = float(x)
    if not math.isfinite(x):
        return x if x > 0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirling_gamma(x)
        p = math.floor(q)
        if p == q:
            return math.nan
        sign = _reflection_sign(p)
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirling_gamma(q)))
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
    """(ln|Gamma(x)|, sign of Gamma(x)) for real x; (inf, 1) at the poles x = 0, -1, ..."""
    x = float(x)
    if not math.isfinite(x):
        return x, 1
    if x < -34.0:
        q = -x
        w, _ = lgam(q)
        p = math.floor(q)
        if p == q:
            return math.inf, 1
        sign = _reflection_sign(p)
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf, 1
        return _LOG_PI - math.log(z) - w, sign
    if x < 13.0:
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
    if x > _MAX_LGAM:
        return math.inf, 1
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q, 1
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q, 1


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
        log_gamma, gamma_sign = lgam(x)
        log_abs += log_gamma
        sign *= gamma_sign
        steps += 1
        if steps > _MAX_STEPS:
            raise ValueError("barnes_g_log: too many recurrence steps")
    while x < 0.5:
        log_gamma, gamma_sign = lgam(x)
        log_abs -= log_gamma
        sign *= gamma_sign
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
