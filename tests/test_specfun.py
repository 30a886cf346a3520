"""Barnes G, kappa regularisation, Cauchy transform, C0 double integral.

Barnes G reference values were generated with mpmath.barnesg at 30 digits;
the transform tests use constant/linear test functions whose integrals are
elementary.
"""

import numpy as np
import pytest

from llasym.dressing import QuadGrid
from llasym.specfun import (
    _ZETA_TABLE,
    barnes_g_log,
    c0_double_integral,
    cauchy_transform,
    gamma,
    lgam,
    log_kappa,
)

# x : G(x) from mpmath.barnesg (30-digit computation, rounded to 20)
BARNES_REF = {
    0.5: 0.60324428120944620619,
    1.5: 1.0692226492664129495,
    2.5: 0.94757390108382577688,
    0.25: 0.29375596533860995472,
    3.75: 1.537358522860001557,
    7.2: 111043.98317045725835,
    0.01: 0.010098495686429669931,
    -0.5: -0.17017206989656151917,
    -1.3: -0.056027886760946535595,
    -2.7: 0.035749958472220286607,
}


def _g_value(x):
    lg = barnes_g_log(x)
    if isinstance(lg, complex):
        return float(np.real(np.exp(lg)))
    return float(np.exp(lg))


@pytest.mark.parametrize("x,ref", sorted(BARNES_REF.items()))
def test_barnes_g_against_mpmath(x, ref):
    assert _g_value(x) == pytest.approx(ref, rel=5e-15)


def test_barnes_g_recurrence_integers():
    # G(n) = prod_{k=1}^{n-2} k!  ->  G(3)=1, G(4)=2, G(5)=12
    assert _g_value(3.0) == pytest.approx(1.0, rel=1e-14)
    assert _g_value(4.0) == pytest.approx(2.0, rel=1e-14)
    assert _g_value(5.0) == pytest.approx(12.0, rel=1e-14)


def test_barnes_g_zero_guard():
    for x in (0.0, -1.0, -2.0):
        with pytest.raises(ValueError):
            barnes_g_log(x)


def test_barnes_g_seam_continuity():
    # the series/recurrence hand-off at x = 1.5 must be seamless
    a = barnes_g_log(1.5 - 1e-9)
    b = barnes_g_log(1.5 + 1e-9)
    assert abs(a - b) < 1e-8


# one seeded range per branch of the Cephes Gamma and lgam
GAMMA_BRANCHES = {
    "tiny": (-1e-9, 1e-9),
    "below_2": (1e-9, 2.0),
    "reduction_loop": (2.0, 13.0),
    "stirling_13": (13.0, 1000.0),
    "large_1000": (1000.0, 1e8),
    "huge_1e8": (1e8, 1e308),
    "negative": (-33.0, 0.0),
    "stirling_33": (33.0, 171.7),
    "reflection_33": (-171.7, -33.0),
    "reflection_lgam": (-1e4, -34.0),
}


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


def _samples(lo: float, hi: float, n: int = 2000) -> np.ndarray:
    """n seeded points in (lo, hi), log-uniform on a wide positive range."""
    u = np.random.default_rng(14).random(n)
    if lo > 0 and hi > 1e3 * lo:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("branch", GAMMA_BRANCHES)
def test_gamma_port_is_bit_identical_to_scipy(scipy_special, branch):
    xs = _samples(*GAMMA_BRANCHES[branch])
    assert _same_bits([gamma(x) for x in xs], scipy_special.gamma(xs))
    log_abs, signs = zip(*(lgam(x) for x in xs))
    assert _same_bits(log_abs, scipy_special.gammaln(xs))
    assert _same_bits(signs, scipy_special.gammasgn(xs))


def test_gamma_poles_match_scipy(scipy_special):
    assert gamma(0.0) == np.inf
    assert gamma(-0.0) == -np.inf
    poles = [0.0, -0.0, -1.0, -2.0, -7.0, -33.0, -34.0, -150.0, -1e20]
    for n in poles[2:]:
        assert np.isnan(gamma(n))
    for x in poles:
        assert lgam(x)[0] == np.inf
    specials = poles + [np.inf, -np.inf, np.nan, 171.7, 1e-320, -1e-320, 1e306, -3e9 - 1.5, -1e12 - 1.25]
    assert _same_bits([gamma(x) for x in specials], scipy_special.gamma(specials))
    assert _same_bits([lgam(x)[0] for x in specials], scipy_special.gammaln(specials))


def test_zeta_table_is_scipy_zeta(scipy_special):
    assert _same_bits(_ZETA_TABLE, scipy_special.zeta(np.arange(2, 60.0)))


class _Const:
    def __init__(self, a):
        self.a = a

    def __call__(self, lam):
        return self.a * np.ones_like(np.asarray(lam, dtype=float))

    def d1(self, lam):
        return np.zeros_like(np.asarray(lam, dtype=float))


class _Linear:
    def __init__(self, a):
        self.a = a

    def __call__(self, lam):
        return self.a * np.asarray(lam)

    def d1(self, lam):
        return self.a * np.ones_like(np.asarray(lam, dtype=float))


GRID = QuadGrid.build(96, 1.3)


def test_kappa_constant_is_one():
    assert np.exp(log_kappa(_Const(0.7), 0.4, GRID)) == pytest.approx(1.0, rel=1e-14)


def test_kappa_linear_closed_form():
    # (nu(lam)-nu(mu))/(lam-mu) = a  =>  kappa = exp(-2 a q), independent of lam
    a = 0.31
    for lam in (0.0, 0.9, -1.1):
        assert np.exp(log_kappa(_Linear(a), lam, GRID)) == pytest.approx(
            np.exp(-2.0 * a * GRID.q), rel=1e-13
        )


def test_log_kappa_handles_on_node_point():
    # lam exactly on a quadrature node exercises the removable-singularity path
    lam = float(GRID.nodes[17])
    val = log_kappa(_Linear(0.5), lam, GRID)
    assert val == pytest.approx(-0.5 * 2.0 * GRID.q, rel=1e-12)


def test_cauchy_transform_constant():
    q = GRID.q
    for lam in (0.3 + 0.8j, 2.1 + 0.0j, -0.4 - 1.3j):
        ref = np.log((q - lam) / (-q - lam)) / (2j * np.pi)
        assert cauchy_transform(_Const(1.0), lam, GRID) == pytest.approx(ref, rel=1e-10)


def test_cauchy_transform_linear():
    q = GRID.q
    lam = 0.5 + 0.6j
    ref = (2.0 * q + lam * np.log((q - lam) / (-q - lam))) / (2j * np.pi)
    assert cauchy_transform(_Linear(1.0), lam, GRID) == pytest.approx(ref, rel=1e-10)


def test_cauchy_transform_distance_guard():
    with pytest.raises(ValueError):
        cauchy_transform(_Const(1.0), 0.2 + 1e-5j, GRID)


def test_c0_constant_closed_form():
    # - a^2 * [2 ln(-ic) - ln(-2q - ic) - ln(2q - ic)], all logs principal
    a, c = 0.8, 1.7
    q = GRID.q
    ii = 2.0 * np.log(-1j * c) - np.log(-2.0 * q - 1j * c) - np.log(2.0 * q - 1j * c)
    ref = -(a**2) * ii
    assert c0_double_integral(_Const(a), GRID, c) == pytest.approx(ref, rel=1e-9)


def test_c0_vanishes_at_infinite_coupling():
    assert abs(c0_double_integral(_Const(1.0), GRID, 1e3)) < 1e-4
