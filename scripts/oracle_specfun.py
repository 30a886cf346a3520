"""Independent high-precision checks for the special-function layer.

Run before freezing expected values into the test suite:

* gamma and lgam (the Cephes ports) against mpmath on seeded samples from
  every branch inside their domains (Gamma on |x| <= 33, lgam on [-33, 13)) and
  at the domains' edges: relative error of Gamma, and of ln|Gamma| relative to
  max(1, |ln Gamma|), each within GAMMA_TOL; the signs of lgam exact,
* the zeta table of barnes_g_log: each literal the double nearest zeta(k),
* barnes_g_log against mpmath.barnesg over a sweep up to 13.9, near the top of
  its domain [-33, 14),
* the closed form G(1/2) = 2^{1/24} e^{1/8} pi^{-1/4} A^{-3/2}
  (A = exp(1/12 - zeta'(-1)) the Glaisher constant),
* closed forms of the Cauchy transform, C0 and kappa used as test oracles,
* the impenetrable-limit one-particle amplitude constant
  q pi G(1/2)^4 / sqrt(2 q) against sqrt(q) e^{1/2} 2^{-1/3} A^{-6}.
"""
from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, "src")
from llasym.dressing import QuadGrid
from llasym.specfun import (
    _ZETA_TABLE,
    GAMMA_MAX,
    LGAM_MAX,
    LGAM_MIN,
    barnes_g_log,
    c0_double_integral,
    cauchy_transform,
    gamma,
    lgam,
    log_kappa,
)

mp.mp.dps = 40
GAMMA_TOL = 2e-15  # about 9 ulp; Cephes states a peak relative error of 2.3e-15
# (lo, hi) of each branch of gamma and lgam inside their domains, and the points
# at the domains' edges (each function checked where its domain holds the point)
GAMMA_BRANCHES = ((-1e-9, 1e-9), (1e-9, 2.0), (2.0, 13.0), (13.0, GAMMA_MAX), (-33.0, 0.0))
EDGES = (math.nextafter(LGAM_MIN, 0.0), math.nextafter(LGAM_MAX, 0.0), LGAM_MAX, GAMMA_MAX)

print("== gamma and lgam vs mpmath ==")
worst_gamma = worst_lgam = 0.0
wrong_signs = 0
samples = []
for lo, hi in GAMMA_BRANCHES:  # a wide positive range is sampled log-uniformly
    u = np.random.default_rng(20240817).random(200)
    samples.append(lo * (hi / lo) ** u if lo > 0 and hi > 1e3 * lo else lo + (hi - lo) * u)
for x in map(float, np.concatenate([*samples, EDGES])):
    if abs(x) <= GAMMA_MAX:
        ref = mp.gamma(x)
        worst_gamma = max(worst_gamma, float(abs((gamma(x) - ref) / ref)))
    if LGAM_MIN <= x < LGAM_MAX:
        log_abs, sign = lgam(x)
        ref_log = mp.re(mp.loggamma(x))
        worst_lgam = max(worst_lgam, float(abs(log_abs - ref_log) / max(1, abs(ref_log))))
        if x < 0 and sign != (-1) ** (int(mp.floor(-x)) + 1):  # Gamma's sign on (-n-1, -n)
            wrong_signs += 1
print(f"  {len(GAMMA_BRANCHES)} branches x 200 samples and {len(EDGES)} edge points, "
      f"tolerance {GAMMA_TOL:.0e}")
print(f"  gamma worst rel err: {worst_gamma:.2e}")
print(f"  lgam worst rel err: {worst_lgam:.2e}")
print(f"  lgam wrong signs: {wrong_signs}")

print("\n== zeta table vs mpmath ==")
nearest = sum(float(v) == float(mp.zeta(k)) for k, v in zip(range(2, 60), _ZETA_TABLE))
worst = max(float(abs((v - mp.zeta(k)) / mp.zeta(k))) for k, v in zip(range(2, 60), _ZETA_TABLE))
print(f"  {nearest} of {len(_ZETA_TABLE)} literals are the double nearest zeta(k)")
print(f"  zeta table worst rel err: {worst:.2e}")
if max(worst_gamma, worst_lgam) > GAMMA_TOL or wrong_signs or nearest != len(_ZETA_TABLE):
    sys.exit("gamma, lgam or the zeta table disagrees with mpmath")

print("\n== barnes_g_log vs mpmath ==")

worst = 0.0
for x in [0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.7, 9.99, 13.9]:
    ours = barnes_g_log(x)
    ref = float(mp.log(mp.barnesg(x)))
    err = abs(ours - ref) / max(1.0, abs(ref))
    worst = max(worst, err)
    print(f"  x={x:7.3f}  ours={ours:+.15e}  mpmath={ref:+.15e}  rel={err:.2e}")
print(f"  worst rel err: {worst:.2e}")

print("\n== G(1/2) closed form ==")
glaisher = mp.exp(mp.mpf(1) / 12 - mp.zeta(-1, derivative=1))
g_half_closed = 2 ** (mp.mpf(1) / 24) * mp.exp(mp.mpf(1) / 8) * mp.pi ** (-mp.mpf(1) / 4) * glaisher ** (-mp.mpf(3) / 2)
print(f"  Glaisher A            = {mp.nstr(glaisher, 20)}  (mp.glaisher = {mp.nstr(+mp.glaisher, 20)})")
print(f"  G(1/2) closed form    = {mp.nstr(g_half_closed, 20)}")
print(f"  mpmath barnesg(1/2)   = {mp.nstr(mp.barnesg(mp.mpf(1)/2), 20)}")
print(f"  our exp(barnes_g_log) = {np.exp(barnes_g_log(0.5)):.18f}")

print("\n== Cauchy transform closed form:  C[1](i y) at q=1, y=1  ->  1/4 ==")
grid = QuadGrid.build(96, 1.0)
val = cauchy_transform(np.ones(grid.n_nodes), grid, 1j)[0]
print(f"  numeric = {val}   (expected 0.25 exactly)")

print("\n== C0[nu==1] = ln(1 + 4 q^2/c^2) ==")
for q, c in [(1.0, 1.0), (1.0, 4.0), (2.0, 3.0), (1.0, 1e6)]:
    grid = QuadGrid.build(96, q)
    got = c0_double_integral(lambda m: np.ones_like(m), grid, c)
    want = np.log(1.0 + 4.0 * q * q / (c * c))
    print(f"  q={q} c={c:g}: numeric={got.real:+.15e} (im {got.imag:.1e})  closed={want:+.15e}  diff={abs(got - want):.2e}")

print("\n== kappa[nu=identity](0) at q=1  ->  e^-2 ==")


class _Id:
    def __call__(self, lam):
        return lam

    def d1(self, lam):
        return np.ones_like(np.asarray(lam, dtype=float)) if np.ndim(lam) else 1.0


grid = QuadGrid.build(96, 1.0)
got = np.exp(log_kappa(_Id(), 0.0, grid))
print(f"  numeric = {got}   e^-2 = {np.exp(-2.0):.15f}")

print("\n== impenetrable-limit constant:  q pi G(1/2)^4 / sqrt(2q)  vs  sqrt(q) e^{1/2} 2^{-1/3} A^-6 ==")
for q in [mp.mpf(1), mp.mpf("1.0000002122")]:
    lhs = q * mp.pi * mp.barnesg(mp.mpf(1) / 2) ** 4 / mp.sqrt(2 * q)
    rhs = mp.sqrt(q) * mp.exp(mp.mpf(1) / 2) * 2 ** (-mp.mpf(1) / 3) * mp.glaisher ** (-6)
    print(f"  q={mp.nstr(q, 11)}: lhs={mp.nstr(lhs, 20)}  rhs={mp.nstr(rhs, 20)}  diff={mp.nstr(abs(lhs - rhs), 3)}")

print("\nfrozen values for tests:")
print(f"  ln G(1/2)                 = {float(mp.log(mp.barnesg(mp.mpf(1)/2))):.17g}")
print(f"  ln G(3/2)                 = {float(mp.log(mp.barnesg(mp.mpf(3)/2))):.17g}")
print(f"  ln G(1/4)                 = {float(mp.log(mp.barnesg(mp.mpf(1)/4))):.17g}")
print(f"  ln G(2.75)                = {float(mp.log(mp.barnesg(mp.mpf('2.75')))):.17g}")
print(f"  ln G(7.2)                 = {float(mp.log(mp.barnesg(mp.mpf('7.2')))):.17g}")
print(f"  pi G(1/2)^4 / sqrt(2)     = {float(mp.pi * mp.barnesg(mp.mpf(1)/2)**4 / mp.sqrt(2)):.17g}")
