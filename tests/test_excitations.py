"""Shift functions, saddle point, critical exponents, harmonic ladder."""

import numpy as np
import pytest

from llasym import ModelParams, dress_all, excitations, special_shift
from llasym.amplitudes import default_contour
from llasym.excitations import (
    SPACE_LIKE,
    TIME_LIKE,
    DegenerateSaddleError,
    ShiftFn,
    find_saddle,
    harmonic_table,
    ledger_exponents,
    ledger_sides,
    u_combination,
    u_d1,
    u_d2,
    u_integral,
)


def test_phase_antisymmetry(dressed_11):
    q = dressed_11.q
    lam = np.array([0.1, 0.35 * q, 0.8 * q])
    for mu in (0.2, -0.6 * q, q):
        a = dressed_11.phi(lam, mu)
        b = dressed_11.phi(-lam, -mu)
        assert np.max(np.abs(a + b)) < 1e-10


def test_shift_boundary_identities(dressed_11, dressed_41):
    # the boundary values of the three special shifts collapse to
    # combinations of Z(q) and 1/Z(q) alone
    for d in (dressed_11, dressed_41):
        q = d.q
        zq = float(d.Z(q))
        zinv = 1.0 / zq
        f_ee = special_shift("empty", d)
        assert f_ee.at_q + 1.0 == pytest.approx(0.5 * zinv, abs=1e-9)
        assert f_ee.at_minus_q == pytest.approx(-0.5 * zinv, abs=1e-9)
        f_mq = special_shift("minus_q", d)
        assert f_mq.at_q == pytest.approx(0.5 * zinv - zq, abs=1e-9)
        assert f_mq.at_minus_q - 1.0 == pytest.approx(-0.5 * zinv - zq, abs=1e-9)


def test_shift_function_literal_combination(dressed_11):
    d = dressed_11
    q = d.q
    lam = 0.3
    f = ShiftFn(d, particles=(1.7 * q,), holes=(0.4 * q,))
    direct = -0.5 * float(d.Z(lam)) - float(d.phi(lam, 1.7 * q)) + float(d.phi(lam, 0.4 * q))
    assert float(f(lam)) == pytest.approx(direct, abs=1e-14)
    with pytest.raises(ValueError):
        ShiftFn(d, particles=(), holes=(2.0 * q,))  # hole outside


@pytest.mark.parametrize("kind", [complex, np.complex128])
def test_shift_function_rejects_a_non_real_hole(dressed_11, kind):
    # a hole lies on [-q, q]; a Python complex used to raise TypeError from the
    # range check, and an np.complex128 one used to pass it
    d = dressed_11
    with pytest.raises(ValueError, match="not real"):
        ShiftFn(d, (), (kind(0.5 * d.q + 0.01j),))
    assert ShiftFn(d, (), (np.float64(0.5 * d.q),)).holes == (0.5 * d.q,)


def test_special_shift_needs_lambda0(dressed_11):
    with pytest.raises(ValueError):
        special_shift("saddle", dressed_11)
    with pytest.raises(ValueError):
        special_shift("nonsense", dressed_11)


@pytest.mark.parametrize("ratio", [0.1, 0.2, 1.0 / 3.0])
def test_saddle_newton_vs_grid_scan(dressed_11, ratio):
    lam0, regime = find_saddle(ratio, dressed_11)
    assert abs(float(u_d1(lam0, ratio, dressed_11))) < 1e-10
    assert float(u_d2(lam0, ratio, dressed_11)) < 0.0
    # independent 10^4-point scan
    s = max(5.0 * dressed_11.q, 1.0 / ratio)
    grid = np.linspace(-s, s, 10_000)
    vals = np.abs(u_d1(grid, ratio, dressed_11))
    lam_scan = grid[np.argmin(vals)]
    assert abs(lam0 - lam_scan) < max(1e-6, 1.5 * s / 10_000)


def test_saddle_regimes(dressed_11):
    lam0_s, reg_s = find_saddle(0.2, dressed_11)
    assert reg_s == SPACE_LIKE and lam0_s > dressed_11.q
    lam0_t, reg_t = find_saddle(2.0, dressed_11)
    assert reg_t == TIME_LIKE and abs(lam0_t) < dressed_11.q


def test_saddle_degenerate_at_light_cone_ratio(monkeypatch, dressed_11):
    # at t/x = 1/vF the stationary point sits exactly on the Fermi boundary
    with pytest.raises(DegenerateSaddleError):
        find_saddle(1.0 / dressed_11.vF, dressed_11)
    # with 4000 scan points no sample lands on q, so the sign change is
    # bracketed by two nonzero samples instead of sitting on an exact zero
    monkeypatch.setattr(excitations, "N_SCAN", 4000)
    with pytest.raises(DegenerateSaddleError):
        find_saddle(1.0 / dressed_11.vF, dressed_11)


def test_saddle_requires_positive_ratio(dressed_11):
    with pytest.raises(ValueError):
        find_saddle(-0.5, dressed_11)
    # x/t = 1/1e-320 overflows: no finite scan range
    with pytest.raises(ValueError, match="not finite"):
        find_saddle(1e-320, dressed_11)


def test_saddle_bisection_fallback(monkeypatch, dressed_11):
    """With u'' scaled by 1e-3, Newton's steps overshoot the bracket a
    thousandfold, so the bisection fallback has to find the saddle."""
    lam0, _ = find_saddle(0.2, dressed_11)
    u_d2_true = excitations.u_d2
    monkeypatch.setattr(excitations, "u_d2", lambda lam, r, d: 1e-3 * u_d2_true(lam, r, d))
    lam0_bisected, regime = find_saddle(0.2, dressed_11)
    assert regime == SPACE_LIKE
    assert lam0_bisected == pytest.approx(lam0, rel=1e-12, abs=0.0)


def test_u_combination_definition(dressed_11):
    lam = np.array([0.2, 1.1, 2.5])
    r = 0.37
    direct = dressed_11.p(lam) - r * dressed_11.eps(lam)
    assert np.allclose(u_combination(lam, r, dressed_11), direct, atol=1e-13)
    eps = 1e-6
    fd = (u_combination(lam + eps, r, dressed_11) - u_combination(lam - eps, r, dressed_11)) / (
        2.0 * eps
    )
    assert np.allclose(u_d1(lam, r, dressed_11), fd, atol=1e-7)


def test_u_combination_integral_matches_direct(dressed_11):
    # u = u0 - int u0'(mu) phi(mu, lam) dmu is a route to u independent of p and eps;
    # three points inside [-q, q] and three outside
    q = dressed_11.q
    lam = q * np.array([-2.0, -0.5, 0.3, 0.9, 1.5, 3.0])
    direct = u_combination(lam, 0.2, dressed_11)
    assert np.allclose(u_integral(lam, 0.2, dressed_11), direct, rtol=1e-12, atol=0.0)
    assert float(u_integral(lam[4], 0.2, dressed_11)) == pytest.approx(
        direct[4], rel=1e-12)


def test_critical_exponent_pair_formula(dressed_11):
    nu = special_shift("empty", dressed_11)
    ep, em, _ = ledger_exponents(nu, (0, 0))  # offsets 1 + l+ = 1 and -l- = 0
    assert ep == pytest.approx((nu.at_q + 1.0) ** 2, rel=1e-14)
    assert em == pytest.approx(nu.at_minus_q**2, rel=1e-14)


def _pairs(entries):
    return {(e.ell_plus, e.ell_minus) for e in entries}


def _harmonics(d, ratio):
    """harmonic_table with |l+-| <= 2 at the saddle of the ray, and that saddle."""
    lam0, regime = find_saddle(ratio, d)
    u_values = tuple(float(u_combination(lam, ratio, d)) for lam in (d.q, -d.q, lam0))
    return harmonic_table(2, regime, ledger_sides(d, lam0), u_values), lam0


def test_harmonic_exclusions_space_like(dressed_11):
    entries, _ = _harmonics(dressed_11, 0.2)
    pairs = _pairs(entries)
    assert (0, 0) not in pairs
    assert (-1, 1) not in pairs
    assert (-1, 0) not in pairs  # explicit saddle term covers it in this regime
    assert all(ep + em >= 0 for ep, em in pairs)  # eta = +1 admissibility


def test_harmonic_exclusions_time_like(dressed_11):
    entries, _ = _harmonics(dressed_11, 2.0)
    pairs = _pairs(entries)
    assert (0, 0) not in pairs
    assert (-1, 1) not in pairs
    assert (-1, 0) in pairs  # saddle-vicinity harmonic stays listed here
    assert all(ep + em <= 0 for ep, em in pairs)  # eta = -1 admissibility


def test_harmonic_exponent_hand_check(dressed_11):
    # Delta = (1 + l+ + D+)^2 + (D- - l-)^2 + |l+ + l-|/2 with the shifts
    # D+- built from Z, phi at the boundaries and the saddle
    d = dressed_11
    ratio = 0.2
    entries, lam0 = _harmonics(d, ratio)
    q = d.q
    lp, lm = 1, -1
    entry = next(e for e in entries if (e.ell_plus, e.ell_minus) == (lp, lm))

    def delta_pm(sign):
        lam = sign * q
        return (
            -0.5 * float(d.Z(lam))
            - lm * float(d.phi(lam, -q))
            - (lp + 1) * float(d.phi(lam, q))
            + (lp + lm) * float(d.phi(lam, lam0))
        )

    expected = (
        (1.0 + lp + delta_pm(+1)) ** 2
        + (delta_pm(-1) - lm) ** 2
        + abs(lp + lm) / 2.0
    )
    assert entry.exponent == pytest.approx(expected, rel=1e-12)
    # frequency: l+ u(q) + l- u(-q) - (l+ + l-) u(lam0)
    uq = float(u_combination(q, ratio, d))
    umq = float(u_combination(-q, ratio, d))
    ul0 = float(u_combination(lam0, ratio, d))
    assert entry.frequency == pytest.approx(lp * uq + lm * umq - (lp + lm) * ul0, rel=1e-12)


def test_scale_covariance_of_saddle():
    # the model has the scaling (lam, c, h) -> (s lam, s c, s^2 h) under which
    # q -> s q and the saddle at ratio r/s maps to s lam0
    base = dress_all(ModelParams(c=1.0, h=1.0), n_nodes=64)
    r = 0.2
    lam0, _ = find_saddle(r, base)
    for s in (0.5, 2.0):
        scaled = dress_all(ModelParams(c=s * 1.0, h=s**2 * 1.0), n_nodes=64)
        assert scaled.q == pytest.approx(s * base.q, rel=1e-9)
        lam0_s, _ = find_saddle(r / s, scaled)
        assert lam0_s == pytest.approx(s * lam0, rel=1e-8)


@pytest.mark.parametrize("ratio", [0.05, 0.2, 1.5])
@pytest.mark.parametrize("fixture", ["dressed_11", "dressed_41", "dressed_162"])
def test_u_derivatives_share_one_kernel_matrix_bit_for_bit(request, fixture, ratio):
    """u' and u'' from one kernel matrix equal p^(k) - r eps^(k) built separately."""
    d = request.getfixturevalue(fixture)
    grid = np.linspace(-5.0 * d.q, 5.0 * d.q, 4001)
    for lam in (grid, 0.37 * d.q, d.q):  # the saddle scan and single Newton points
        assert np.asarray(u_d1(lam, ratio, d)).tobytes() == np.asarray(
            d.p_d1(lam) - ratio * d.eps_d1(lam)).tobytes()
        assert np.asarray(u_d2(lam, ratio, d)).tobytes() == np.asarray(
            d.p_d1.d1(lam) - ratio * d.eps_d1.d1(lam)).tobytes()


def _shifts(d):
    """The three special shifts at t/x = 0.2 and one custom particle/hole shift."""
    lam0, _ = find_saddle(0.2, d)
    return [special_shift("empty", d), special_shift("minus_q", d),
            special_shift("saddle", d, lam0),
            ShiftFn(d, particles=(1.7 * d.q,), holes=(0.4 * d.q,))]


@pytest.mark.parametrize("fixture", ["dressed_11", "dressed_41"])
def test_shift_function_shares_one_kernel_matrix_bit_for_bit(request, fixture):
    """nu and nu' from one weighted kernel equal -Z/2 - sum phi(., z+) + sum phi(., z-)
    built from the dressed set's solutions, each with its own kernel."""
    d = request.getfixturevalue(fixture)
    contour = default_contour(d).nodes_weights()[0]
    points = (d.grid.nodes, np.array(d.grid.nodes), np.linspace(-3.0 * d.q, 3.0 * d.q, 37),
              0.37 * d.q, d.q, contour)
    for nu in _shifts(d):
        for lam in points:
            for got, charge, phase in ((nu(lam), d.Z, d.phi),
                                       (nu.d1(lam), d.Z.d1,
                                        lambda lam, mu: d.phi_solution(mu).d1(lam))):
                ref = -0.5 * charge(lam)
                for z in nu.particles:
                    ref = ref - phase(lam, z)
                for z in nu.holes:
                    ref = ref + phase(lam, z)
                assert np.asarray(got).dtype == np.asarray(ref).dtype
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_shift_node_values_are_memoised_read_only(dressed_11):
    nu = special_shift("minus_q", dressed_11)
    vals = nu(dressed_11.grid.nodes)
    assert nu(dressed_11.grid.nodes) is vals  # computed once per shift
    with pytest.raises(ValueError):
        vals[0] = 0.0
    assert nu(np.array(dressed_11.grid.nodes)) is not vals  # only the grid's own array
