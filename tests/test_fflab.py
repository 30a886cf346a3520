"""Finite-size lab: enumeration vs determinant, singular sums, Fredholm minor."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from llasym.fflab import (
    AffineCounting,
    ContourPlacementError,
    ContourResonanceError,
    CoincidentRapidityError,
    EnumerationSizeError,
    FFLabInstance,
    NuFunction,
    QuadraticPhase,
    dhat_N,
    fredholm_minor_limit,
    minor_instance,
    nu_zero_limit,
    singular_sum,
    singular_sum_instance,
    standard_matrix,
    xn_bruteforce,
    xn_determinant,
)
from llasym.cli import _SINGSUM_POINTS
from llasym.fflab import discrete, singsum
from llasym.fflab.discrete import _config_count

XI_STD = AffineCounting(1.0 / (2.0 * np.pi), 0.5)
PHASE_STD = QuadraticPhase(5.0, 0.1)


def _inst(N=2, w=5, nu=NuFunction("const", 0.1), L=10.0, xi=XI_STD, phase=PHASE_STD):
    return FFLabInstance(N=N, L=L, w=w, xi=xi, nu=nu, phase=phase)


# ---------------------------------------------------------------- dhat_N

def _dhat_core_exact(particles, holes):
    """Exact-rational part of dhat for the unit-slope instance below.

    With xi(z) = z and L = 10 the occupation points are a/10 and the
    shifted points are k/10 - 1/100 exactly, so boundary * det^2 is a
    rational number; the transcendental prefactor
    (4 sin^2(pi/10))^2 / (2 pi 10)^5 factors out.
    """
    ell = list(range(1, 4))
    for p, h in zip(particles, holes):
        ell[h - 1] = p
    mu = [Fraction(a, 10) for a in ell]
    lam = [Fraction(k, 10) - Fraction(1, 100) for k in (1, 2)]
    boundary = Fraction(1)
    for a in range(2):
        boundary *= ((mu[a] - mu[2]) / (lam[a] - mu[2])) ** 2
    d = [[Fraction(1) / (mu[a] - lam[k]) for k in range(2)] for a in range(2)]
    det = d[0][0] * d[1][1] - d[0][1] * d[1][0]
    return boundary * det * det


@pytest.mark.parametrize("config", [((4,), (2,)), ((4, -2), (1, 3)), ((5, -5), (2, 3))])
def test_dhat_exact_rational_oracle(config):
    inst = _inst(xi=AffineCounting(1.0, 0.0))
    scalar = (4.0 * np.sin(0.1 * np.pi) ** 2) ** 2 / (2.0 * np.pi * 10.0) ** 5
    oracle = float(_dhat_core_exact(*config)) * scalar
    assert dhat_N(inst, *config) == pytest.approx(oracle, rel=1e-12)


def test_dhat_symmetric_in_configuration():
    inst = _inst(xi=AffineCounting(1.0, 0.0))
    a = dhat_N(inst, (4, -2), (1, 3))
    assert dhat_N(inst, (-2, 4), (3, 1)) == pytest.approx(a, rel=1e-12)
    # repairing particles with different holes leaves the set unchanged too
    assert dhat_N(inst, (-2, 4), (1, 3)) == pytest.approx(a, rel=1e-12)


def test_dhat_small_nu_limit_hand_value():
    # for hole = N+1 the nu -> 0 limit is 1/(2 pi L xi'(mu_p)) = 1/10
    errs = []
    for amp in (1e-4, 1e-5, 1e-6):
        inst = _inst(N=1, nu=NuFunction("const", amp))
        errs.append(abs(dhat_N(inst, (4,), (2,)) - 0.1) / 0.1)
    assert errs[2] < 3e-6
    assert 8.0 < errs[0] / errs[1] < 12.0  # linear in amp
    # configurations missing an interior label die quadratically
    inst = _inst(N=1, nu=NuFunction("const", 1e-5))
    assert abs(dhat_N(inst, (4,), (1,))) < 1e-9


def test_dhat_validation():
    inst = _inst()
    with pytest.raises(ValueError):
        dhat_N(inst, (4, 5), (2,))          # unequal counts
    with pytest.raises(ValueError):
        dhat_N(inst, (4, 4), (1, 2))        # repeated particle
    with pytest.raises(ValueError):
        dhat_N(inst, (4,), (5,))            # hole outside [1, N+1]
    with pytest.raises(ValueError):
        dhat_N(inst, (9,), (2,))            # particle outside window
    with pytest.raises(ValueError):
        dhat_N(inst, (2,), (1,))            # particle inside [1, N+1]
    with pytest.raises(CoincidentRapidityError):
        dhat_N(_inst(nu=NuFunction("const", 0.0)), (4,), (2,))


# ---------------------------------------------------------------- X_N

NU_ZERO_ANCHOR = 0.47408983482919365 - 0.3588010566412686j


def test_nu_zero_limit_hand_sum():
    inst = _inst(nu=NuFunction("const", 0.0))
    keep = (inst.window < 1) | (inst.window > inst.N)
    mu = inst.mu[keep]
    hand = complex(np.sum(PHASE_STD.e_inv_sq(mu) / (2.0 * np.pi * inst.L * XI_STD.d1(mu))))
    z = nu_zero_limit(inst)
    assert z == pytest.approx(hand, rel=1e-14)
    assert z == pytest.approx(NU_ZERO_ANCHOR, rel=1e-12)
    assert xn_bruteforce(inst) == z
    assert xn_determinant(inst) == z


def test_xn_approaches_nu_zero_limit_linearly():
    diffs = []
    for amp in (1e-3, 1e-4, 1e-5):
        diffs.append(abs(xn_determinant(_inst(nu=NuFunction("const", amp))) - NU_ZERO_ANCHOR))
    assert 8.0 < diffs[0] / diffs[1] < 12.0
    assert 8.0 < diffs[1] / diffs[2] < 12.0
    assert diffs[2] < 1e-4


def test_configuration_count():
    inst = _inst()
    # 8 exterior labels, 3 interior slots
    expected = sum(math.comb(8, n) * math.comb(3, n) for n in range(4))
    assert _config_count(inst) == expected == 165


def test_enumeration_size_guard():
    with pytest.raises(EnumerationSizeError):
        xn_bruteforce(_inst(w=8))   # window 17 > 15


def test_bruteforce_matches_determinant_on_matrix():
    worst = 0.0
    for inst in standard_matrix():
        xb = xn_bruteforce(inst)
        xd = xn_determinant(inst)
        worst = max(worst, abs(xb - xd) / abs(xd))
    assert worst < 1e-10


def _dhat_reference(inst, ell):
    """dhat of one configuration with labels ell, computed on its own."""
    mu_l = inst.mu_at(ell)
    lam, L = inst.lam, inst.L
    s = np.sin(np.pi * inst.nu(lam))
    num = float(np.prod(4.0 * s * s))
    den = float(np.prod(2.0 * np.pi * L * inst.xi.d1(mu_l)))
    den *= float(np.prod(2.0 * np.pi * L * inst.xi_nu_d1(lam)))
    boundary = float(np.prod(((mu_l[:-1] - mu_l[-1]) / (lam - mu_l[-1])) ** 2))
    det = float(np.linalg.det(1.0 / (mu_l[:-1, None] - lam[None, :])))
    return num / den * boundary * det * det


def _reference_configurations(inst):
    """(particles, holes, ell) of every configuration, in enumeration order."""
    interior = list(range(1, inst.N + 2))
    exterior = [a for a in inst.window.tolist() if a not in interior]
    for n in range(min(len(exterior), inst.N + 1) + 1):
        for holes in itertools.combinations(interior, n):
            for particles in itertools.combinations(exterior, n):
                ell = list(interior)
                for p, h in zip(particles, holes):
                    ell[h - 1] = p
                yield particles, holes, ell


def _xn_reference(inst):
    """X_N one configuration at a time, and the number of configurations."""
    lam_weight = np.exp(np.sum(-inst.phase.log_inv_sq(inst.lam)))
    total, count = 0.0 + 0.0j, 0
    for _, _, ell in _reference_configurations(inst):
        weight = lam_weight * np.exp(np.sum(inst.phase.log_inv_sq(inst.mu_at(ell))))
        total += weight * _dhat_reference(inst, ell)
        count += 1
    return complex(total), count


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_bruteforce_is_the_configuration_loop_bit_for_bit(monkeypatch):
    rows = []
    dhat_rows = discrete._dhat_rows
    monkeypatch.setattr(discrete, "_dhat_rows",
                        lambda inst, mu_l, *lam_factors:
                        rows.append(len(mu_l)) or dhat_rows(inst, mu_l, *lam_factors))
    total = 0
    for inst in standard_matrix():
        rows.clear()
        reference, count = _xn_reference(inst)
        assert _bits(xn_bruteforce(inst)) == _bits(reference)
        assert sum(rows) == count == _config_count(inst)
        total += count
    assert total == 4488


@pytest.mark.parametrize("inst", [_inst(), _inst(N=3, w=6, nu=NuFunction("gauss", 0.1))],
                         ids=["N2-const", "N3-gauss"])
def test_dhat_is_the_reference_formula_bit_for_bit(inst):
    for particles, holes, ell in _reference_configurations(inst):
        assert dhat_N(inst, particles, holes).hex() == _dhat_reference(inst, ell).hex()


def test_bruteforce_raises_on_coincident_rapidities():
    inst = _inst(nu=NuFunction("const", 1.0))  # lam_k = mu_{k-1}
    assert inst.lam[1] == pytest.approx(inst.mu_at(1), abs=1e-12)
    with pytest.raises(CoincidentRapidityError):
        xn_bruteforce(inst)


def test_xn_frozen_anchors():
    a = xn_determinant(_inst(N=2, w=5, nu=NuFunction("const", 0.1)))
    assert a == pytest.approx(0.5905102484682627 + 0.13618412596682392j, rel=1e-10)
    b = xn_determinant(_inst(N=3, w=6, nu=NuFunction("rational", 0.1)))
    assert b == pytest.approx(0.37685617645429176 - 0.26334478185360854j, rel=1e-10)


# ---------------------------------------------------------------- singular sums

SS_LAMBDAS = [np.pi * (a + 0.5) / 10.0 for a in (-7, -2, 0, 3, 9)]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_singular_sum_exact_closure(r):
    inst = singular_sum_instance(40)
    for lam in SS_LAMBDAS:
        res = singular_sum(inst, r, lam)
        assert res.residual < 1e-8, (r, lam, res.residual)
        # closure and independent quadrature agree on the remainder itself
        assert abs(res.remainder_closure - res.remainder_quadrature) < 1e-10


@pytest.mark.parametrize("r", [0, 1, 2])
def test_singular_sum_straight_main_contour(r):
    # tau = 0.04 puts the knee 1/(2 tau) = 12.5 right of the window's right
    # edge (9.58), so the main contour runs straight above the axis
    base = singular_sum_instance(40)
    inst = FFLabInstance(N=base.N, L=base.L, w=base.w, xi=base.xi, nu=base.nu,
                         phase=QuadraticPhase(x=2.0, tau=0.04))
    assert inst.phase.knee > inst.xi.inverse((inst.w + 0.5) / inst.L)
    for lam in SS_LAMBDAS:
        res = singular_sum(inst, r, lam)
        assert res.residual < 1e-8, (r, lam, res.residual)


def test_singular_sum_s2_is_derivative_of_s1():
    inst = singular_sum_instance(40)
    lam = SS_LAMBDAS[2]
    h = 1e-6
    fd = (singular_sum(inst, 1, lam + h).discrete
          - singular_sum(inst, 1, lam - h).discrete) / (2.0 * h)
    s2 = singular_sum(inst, 2, lam).discrete
    assert abs(fd - s2) / abs(s2) < 1e-8


def test_singular_sum_remainder_shrinks_with_window():
    lam = SS_LAMBDAS[0]
    i40 = abs(singular_sum(singular_sum_instance(40), 1, lam).remainder_closure)
    i80 = abs(singular_sum(singular_sum_instance(80), 1, lam).remainder_closure)
    # k + r - 1 = 2 powers of the window width: prediction 4, wide band
    assert 2.0 < i40 / i80 < 8.0


def _singular_sum_reference(inst, r, lam):
    """(main, remainder by quadrature) of S_r(lam), every contour built afresh."""
    L, h, knee = inst.L, singsum._HEIGHT, inst.phase.knee
    a, b = inst.xi.inverse(-(inst.w + 0.5) / L), inst.xi.inverse((inst.w + 0.5) / L)

    def f(z):
        return inst.phase.e_inv_sq(z) / (z - lam) ** r

    if knee < b:
        z, wz = singsum.descending_nodes(a, knee, b, h)
        end = b - 1j * h
    else:
        end = b + 1j * h
        z, wz = singsum.polyline_nodes([a + 1j * h, end])
    main = complex(np.sum(f(z) * wz) / (2.0 * np.pi))
    rem = 0.0 + 0.0j
    for z0, z1 in ((a, a + 1j * h), (end, b)):
        z, wz = singsum.polyline_nodes([z0, z1])
        rem += np.sum(f(z) * wz)
    z, wz = singsum.polyline_nodes([b, b + 1j * h, a + 1j * h, a])
    rem += np.sum(f(z) * (1.0 / (1.0 - np.exp(-2j * np.pi * L * inst.xi(z)))) * wz)
    z, wz = singsum.polyline_nodes([a, a - 1j * h, b - 1j * h, b])
    rem += np.sum(f(z) * (1.0 / (np.exp(2j * np.pi * L * inst.xi(z)) - 1.0)) * wz)
    return main, complex(rem / (2.0 * np.pi))


def _sum_bits(res):
    return np.array([res.discrete, res.main, res.local, res.remainder_closure,
                     res.remainder_quadrature]).tobytes()


def test_singular_sum_contour_cache_keeps_the_bits():
    """Cached contours give the bits of a cold evaluation and of contours
    built afresh: verify's closure calls (r in {0, 1, 2} at its five points),
    its w = 40/80 scaling pair, and a straight main contour."""
    base = singular_sum_instance(40)
    straight = FFLabInstance(N=base.N, L=base.L, w=base.w, xi=base.xi, nu=base.nu,
                             phase=QuadraticPhase(x=2.0, tau=0.04))
    calls = [(base, r, lam) for r in (0, 1, 2) for lam in _SINGSUM_POINTS]
    calls += [(singular_sum_instance(w), 1, _SINGSUM_POINTS[0]) for w in (40, 80)]
    calls += [(straight, 2, _SINGSUM_POINTS[1])]
    cold = []
    for inst, r, lam in calls:
        singsum._CONTOURS.clear()
        res = singular_sum(inst, r, lam)
        main, rem = _singular_sum_reference(inst, r, lam)
        assert _bits(res.main) == _bits(main) and _bits(res.remainder_quadrature) == _bits(rem)
        cold.append(_sum_bits(res))
    singsum._CONTOURS.clear()
    assert [_sum_bits(singular_sum(*call)) for call in calls] == cold
    assert len(singsum._CONTOURS) == 3  # the two w = 40 instances share an entry


def test_singular_sum_contour_cache_is_shared_and_bounded():
    """Equal instances share one entry, and an entry lives only as long as an
    instance it serves, so the lab holds no contours once its callers are done."""
    singsum._CONTOURS.clear()
    a, b = singular_sum_instance(40), singular_sum_instance(40)
    assert a is not b
    singular_sum(a, 1, _SINGSUM_POINTS[2])
    paths = singsum._CONTOURS[a]
    singular_sum(b, 2, _SINGSUM_POINTS[3])
    assert len(singsum._CONTOURS) == 1 and singsum._CONTOURS[b] is paths
    del a, b
    assert len(singsum._CONTOURS) == 0
    kept = [singular_sum_instance(w) for w in range(20, 30)]
    for inst in kept:
        singular_sum(inst, 1, _SINGSUM_POINTS[2])
    assert len(singsum._CONTOURS) == len(kept)
    del kept, inst
    assert len(singsum._CONTOURS) == 0


def test_singular_sum_placement_guards():
    inst = singular_sum_instance(40)
    with pytest.raises(ContourPlacementError):
        singular_sum(inst, 1, 4.9995)       # grazes the contour knee
    with pytest.raises(ContourPlacementError):
        singular_sum(inst, 1, -np.pi)       # on an occupation point
    with pytest.raises(ContourPlacementError):
        singular_sum(inst, 1, 20.0)         # right of the knee
    with pytest.raises(ValueError):
        singular_sum(inst, 3, 0.5)


# ---------------------------------------------------------------- Fredholm minor

S_CE_ANCHOR = 0.262764633619394 - 0.30018275901016195j
MINOR_ANCHOR = 0.3245219364667111 + 0.1802214959237904j


def test_minor_nu_zero_is_plain_contour_integral():
    z = fredholm_minor_limit(NuFunction("const", 0.0), PHASE_STD)
    assert z == pytest.approx(S_CE_ANCHOR, rel=1e-10)


def test_minor_small_nu_limit():
    # as nu -> 0 the minor tends to S_CE minus the interval integral of
    # E^(-2)/(2 pi): the local reflection term survives with weight
    # 1/(e^{-2 i pi nu} - 1) ~ -1/(2 i pi nu) times sin^2, a finite piece
    q = np.pi
    t, wt = np.polynomial.legendre.leggauss(200)
    t, wt = q * t, q * wt
    corr = complex(np.sum(wt * PHASE_STD.e_inv_sq(t)) / (2.0 * np.pi))
    limit = S_CE_ANCHOR - corr
    assert limit == pytest.approx(0.32162551007417406 - 0.2975434580529034j, rel=1e-9)
    d2 = abs(fredholm_minor_limit(NuFunction("const", 1e-2), PHASE_STD) - limit)
    d3 = abs(fredholm_minor_limit(NuFunction("const", 1e-3), PHASE_STD) - limit)
    assert d3 < 2e-2
    assert 8.0 < d2 / d3 < 12.0  # linear in the amplitude


def test_minor_matches_growing_finite_size_instances():
    xinf = fredholm_minor_limit(NuFunction("rational", 0.1), PHASE_STD)
    assert xinf == pytest.approx(MINOR_ANCHOR, rel=1e-10)
    rels = []
    for L in (50, 100, 200):
        xl = xn_determinant(minor_instance(L))
        rels.append(abs(xl - xinf) / abs(xinf))
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.05


def test_minor_quadrature_stability():
    nu = NuFunction("rational", 0.1)
    base = fredholm_minor_limit(nu, PHASE_STD)
    fine = fredholm_minor_limit(nu, PHASE_STD, n_interval=128)
    wide = fredholm_minor_limit(nu, PHASE_STD, half_width=35.0)
    assert abs(fine - base) / abs(base) < 1e-7
    assert abs(wide - base) / abs(base) < 1e-6


def test_minor_guards():
    with pytest.raises(ContourResonanceError):
        fredholm_minor_limit(NuFunction("const", 1.0), PHASE_STD)
    with pytest.raises(ValueError):
        # knee 1/(2 tau) = 2.5 sits inside [-pi, pi]
        fredholm_minor_limit(NuFunction("rational", 0.1), QuadraticPhase(5.0, 0.2))


def test_minor_instance_shape():
    inst = minor_instance(50)
    assert inst.N == 49
    assert inst.w == 313
    assert inst.phase.knee == pytest.approx(5.0)
