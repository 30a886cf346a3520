"""Barnes G, kappa regularisation, Cauchy transform, C0 double integral.

Barnes G reference values were generated with mpmath.barnesg at 30 digits;
the transform tests use constant/linear test functions whose integrals are
elementary.
"""

import numpy as np
import pytest

from llasym import ModelParams, amplitudes, dress_all, specfun
from llasym.dressing import QuadGrid
from llasym.excitations import find_saddle, special_shift
from llasym.specfun import (
    _ZETA_TABLE,
    BARNES_G_MAX,
    GAMMA_MAX,
    LGAM_MAX,
    LGAM_MIN,
    barnes_g_log,
    c0_double_integral,
    c0_matrix,
    cauchy_shift_matrix,
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


# seeded ranges inside and past the domains: the ranges past them check the ValueError
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
GAMMA_TOL = 2e-15  # the bound of scripts/oracle_specfun.py against mpmath


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


def _close(ours, ref, log: bool = False) -> bool:
    """Gamma within GAMMA_TOL relative, or ln|Gamma| (log) within GAMMA_TOL
    relative to max(1, |ln Gamma|); infinities must be equal."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    scale = np.maximum(1.0, np.abs(ref)) if log else np.abs(ref)
    with np.errstate(invalid="ignore"):  # inf - inf; equal infinities pass by ==
        close = (ours == ref) | (np.abs(ours - ref) <= GAMMA_TOL * scale)
    return ours.shape == ref.shape and bool(np.all(close))


def _raises_value_error(fn, x) -> bool:
    try:
        fn(x)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("branch", GAMMA_BRANCHES)
def test_gamma_port_is_bit_identical_to_scipy(scipy_special, branch):
    """scipy's values to GAMMA_TOL and its exact signs inside each function's
    domain, ValueError outside it."""
    xs = _samples(*GAMMA_BRANCHES[branch])
    in_gamma = np.abs(xs) <= GAMMA_MAX
    in_lgam = (LGAM_MIN <= xs) & (xs < LGAM_MAX)
    assert _close([gamma(x) for x in xs[in_gamma]], scipy_special.gamma(xs[in_gamma]))
    assert _close([lgam(x)[0] for x in xs[in_lgam]], scipy_special.gammaln(xs[in_lgam]), log=True)
    assert _same_bits([lgam(x)[1] for x in xs[in_lgam]], scipy_special.gammasgn(xs[in_lgam]))
    assert all(_raises_value_error(gamma, x) for x in xs[~in_gamma])
    assert all(_raises_value_error(lgam, x) for x in xs[~in_lgam])


def test_gamma_poles_match_scipy(scipy_special):
    assert gamma(0.0) == np.inf
    assert gamma(-0.0) == -np.inf
    poles = [0.0, -0.0, -1.0, -2.0, -7.0, -33.0]
    for n in poles[2:]:
        assert np.isnan(gamma(n))
    for x in poles:
        assert lgam(x) == (np.inf, 1)
    specials = poles + [1e-320, -1e-320]
    assert _same_bits([gamma(x) for x in specials], scipy_special.gamma(specials))
    # scipy's gammaln overflows to inf here; ln|Gamma(+-1e-320)| = -ln(1e-320) to double precision
    assert lgam(1e-320) == (736.8272408909739, 1)
    assert lgam(-1e-320) == (736.8272408909739, -1)
    # the poles and specials that only the Stirling and reflection branches reached
    for x in (-34.0, -150.0, -1e20, np.inf, -np.inf, np.nan, 171.7, 1e306, -3e9 - 1.5,
              -1e12 - 1.25):
        assert _raises_value_error(gamma, x) and _raises_value_error(lgam, x), x


def test_domain_edges_are_enforced(scipy_special):
    below, above = np.nextafter(GAMMA_MAX, 0.0), np.nextafter(GAMMA_MAX, np.inf)
    assert _close([gamma(x) for x in (GAMMA_MAX, below, -below)],
                  scipy_special.gamma([GAMMA_MAX, below, -below]))
    assert _raises_value_error(gamma, above) and _raises_value_error(gamma, -above)
    top = np.nextafter(LGAM_MAX, 0.0)
    assert _close([lgam(x)[0] for x in (LGAM_MIN, top)],
                  scipy_special.gammaln([LGAM_MIN, top]), log=True)
    assert _raises_value_error(lgam, LGAM_MAX)
    assert _raises_value_error(lgam, np.nextafter(LGAM_MIN, -np.inf))
    # ln G just below its top recurs through lgam just below lgam's top
    g_top = np.nextafter(BARNES_G_MAX, 0.0)
    assert barnes_g_log(g_top) == pytest.approx(
        barnes_g_log(g_top - 1.0) + lgam(g_top - 1.0)[0], rel=1e-14)
    assert isinstance(barnes_g_log(LGAM_MIN + 0.5), complex)
    for x in (BARNES_G_MAX, np.nextafter(LGAM_MIN, -np.inf), LGAM_MIN, np.nan, np.inf, -np.inf):
        assert _raises_value_error(barnes_g_log, x), x


def test_domain_holds_the_weakest_coupling_with_margin(monkeypatch):
    """Every Gamma argument of A+- and ln G argument of B, and every lgam argument
    of ln G's recurrence, lies at least 3 inside its function's domain at the
    weakest coupling measured that still dresses: (c, h) = (0.05, 4), 192 nodes,
    t/x = 0.2.  Measured there: Gamma in [-8.90, 9.90], ln G in [-8.80, 9.90],
    lgam up to 8.9."""
    d = dress_all(ModelParams(c=0.05, h=4.0), n_nodes=192)
    lambda0, _ = find_saddle(0.2, d)
    seen = {"gamma": [], "barnes_g_log": [], "lgam": []}

    def spy(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x: seen[name].append(x) or fn(x))

    spy(amplitudes, "gamma")
    spy(amplitudes, "barnes_g_log")
    spy(specfun, "lgam")
    for nu in (special_shift(kind, d, lambda0) for kind in ("empty", "minus_q", "saddle")):
        lk_q, lk_mq = log_kappa(nu, d.q, d.grid), log_kappa(nu, -d.q, d.grid)
        amplitudes.functional_Aplus(nu, d, lk_q)
        amplitudes.functional_Aminus(nu, d, lk_mq)
        amplitudes.functional_B(nu, d, lk_q, lk_mq)
    assert len(seen["gamma"]) == 4 * 3 and len(seen["barnes_g_log"]) == 2 * 3
    assert max(np.abs(seen["gamma"])) <= GAMMA_MAX - 3.0
    for name, top in (("barnes_g_log", BARNES_G_MAX), ("lgam", LGAM_MAX)):
        assert LGAM_MIN + 3.0 <= min(seen[name]) and max(seen[name]) < top - 3.0, name
    assert max(seen["gamma"]) > 9.0  # minus_q's 1 - nu(-q) sets the margin


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
        val = cauchy_transform(_Const(1.0)(GRID.nodes), GRID, lam)[0]
        assert val == pytest.approx(ref, rel=1e-10)


def test_cauchy_transform_linear():
    q = GRID.q
    lam = 0.5 + 0.6j
    ref = (2.0 * q + lam * np.log((q - lam) / (-q - lam))) / (2j * np.pi)
    val = cauchy_transform(_Linear(1.0)(GRID.nodes), GRID, lam)[0]
    assert val == pytest.approx(ref, rel=1e-10)


def test_cauchy_transform_distance_guard():
    # one point of the array is 1e-5 above the segment
    with pytest.raises(ValueError):
        cauchy_transform(_Const(1.0)(GRID.nodes), GRID, [2.0j, 0.2 + 1e-5j, 3.0])


def test_cauchy_shift_matrix_keeps_the_distance_guard():
    """`cauchy_transform`'s guard at z and at z + ic: a point 1e-5 above the
    segment, then a point whose shift by +ic is."""
    c = 1.0
    for z in (0.2 + 1e-5j, 0.2 + (1e-5 - c) * 1j):
        with pytest.raises(ValueError, match="within 1e-3 q"):
            cauchy_shift_matrix(GRID, np.array([2.0j, z]), c)


def test_cauchy_transform_on_contour_like_points():
    """An array of points gives each point's bits, and C[1] matches
    log((q - z)/(-q - z))/(2 i pi) on the default contour's ellipse (c = 1) and
    on its shifts by +-ic, where the amplitudes evaluate it."""
    q, c = GRID.q, 1.0
    theta = 2.0 * np.pi * np.arange(64) / 64
    omega = 1.5 * q * np.cos(theta) + 1j * min(0.22 * c, 0.75 * q) * np.sin(theta)
    ones = np.ones(GRID.n_nodes)
    for z in (omega, omega + 1j * c, omega - 1j * c):
        together = cauchy_transform(ones, GRID, z)
        assert np.array_equal(together, [cauchy_transform(ones, GRID, zk)[0] for zk in z])
        ref = np.log((q - z) / (-q - z)) / (2j * np.pi)
        assert np.max(np.abs(together - ref)) < 1e-12


def test_c0_constant_closed_form():
    # - a^2 * [2 ln(-ic) - ln(-2q - ic) - ln(2q - ic)], all logs principal
    a, c = 0.8, 1.7
    q = GRID.q
    ii = 2.0 * np.log(-1j * c) - np.log(-2.0 * q - 1j * c) - np.log(2.0 * q - 1j * c)
    ref = -(a**2) * ii
    assert c0_double_integral(_Const(a), GRID, c0_matrix(GRID, c)) == pytest.approx(ref, rel=1e-9)


def test_c0_vanishes_at_infinite_coupling():
    assert abs(c0_double_integral(_Const(1.0), GRID, c0_matrix(GRID, 1e3))) < 1e-4
