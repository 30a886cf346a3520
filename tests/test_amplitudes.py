"""Amplitude functionals and assembled |F|^2 values.

Regression anchors were computed at 96 grid nodes / 256 contour nodes and
are pinned to 1e-8; the independent checks are contour-deformation
invariance (analyticity), node-doubling stability, phase collapse, and the
impenetrable-limit closed form pi G(1/2)^4 sqrt(q/2).
"""

from dataclasses import replace

import numpy as np
import pytest

from llasym import (
    ModelParams,
    amplitude,
    amplitudes,
    assemble_expansion,
    default_contour,
    dress_all,
    find_saddle,
    special_shift,
)
from llasym.amplitudes import (
    ContourSpec,
    functional_Aminus,
    functional_Aplus,
    functional_B,
    smooth_part_G,
)
from llasym.specfun import barnes_g_log, cauchy_transform, log_kappa

RATIO = 0.2

# (c, h) -> kind -> assembled amplitude at n_nodes=96, contour_nodes=256
ANCHORS = {
    (1.0, 1.0): {
        "empty": 0.77264627813960007,
        "minus_q": 1.1738659853709274e-06,
        "saddle": 0.14757346613711536,
    },
    (4.0, 1.0): {
        "empty": 0.40687814628772301,
        "minus_q": 0.0031715838766180576,
        "saddle": 0.1328977204267513,
    },
}


def _amps(dressed, contour):
    lam0, regime = find_saddle(RATIO, dressed)
    out = {}
    for kind in ("empty", "minus_q", "saddle"):
        out[kind] = amplitude(
            kind,
            dressed,
            lambda0=lam0 if kind == "saddle" else None,
            regime=regime if kind == "saddle" else None,
            contour=contour,
        )
    return out


@pytest.mark.parametrize("params", sorted(ANCHORS))
def test_regression_anchors(params, dressed_11, dressed_41):
    dressed = {(1.0, 1.0): dressed_11, (4.0, 1.0): dressed_41}[params]
    res = _amps(dressed, default_contour(dressed, 256))
    for kind, ref in ANCHORS[params].items():
        assert res[kind].value == pytest.approx(ref, rel=1e-8), kind


def test_phase_residuals_tiny(dressed_11, dressed_41):
    for dressed in (dressed_11, dressed_41):
        for kind, res in _amps(dressed, default_contour(dressed, 256)).items():
            assert res.phase_residual < 1e-6 * abs(res.value), kind
            assert res.value > 0.0, kind


def test_contour_deformation_invariance(dressed_11):
    # the integrand is analytic between the two ellipses, so the assembled
    # values must agree to quadrature accuracy
    base = _amps(dressed_11, default_contour(dressed_11, 256))
    q = dressed_11.q
    squeezed = ContourSpec(1.35 * q, 0.16, 384)
    moved = _amps(dressed_11, squeezed)
    for kind in base:
        assert moved[kind].value == pytest.approx(base[kind].value, rel=1e-8), kind


def test_contour_node_doubling(dressed_11):
    a = _amps(dressed_11, default_contour(dressed_11, 256))
    b = _amps(dressed_11, default_contour(dressed_11, 512))
    for kind in a:
        assert b[kind].value == pytest.approx(a[kind].value, rel=1e-8), kind


def test_saddle_amplitude_only_where_active(dressed_11):
    # in the time-like regime the saddle vicinity belongs to the (-1, 0)
    # harmonic: there is no saddle amplitude to assemble
    lam0, regime = find_saddle(2.0, dressed_11)
    assert regime == "time-like"
    with pytest.raises(ValueError, match="space-like"):
        amplitude("saddle", dressed_11, lam0, regime)
    lam0, regime = find_saddle(RATIO, dressed_11)
    with pytest.raises(ValueError, match="space-like"):
        amplitude("saddle", dressed_11, lam0)  # no regime given
    with pytest.raises(ValueError, match="lambda0"):
        amplitude("saddle", dressed_11, regime=regime)


def test_contour_validation(dressed_11):
    q, c = dressed_11.q, dressed_11.params.c
    with pytest.raises(ValueError):
        ContourSpec(0.9 * q, 0.2, 256).validate(q, c)  # does not enclose [-q, q]
    with pytest.raises(ValueError):
        ContourSpec(1.5 * q, 0.3 * c, 256).validate(q, c)  # leaves the kernel strip


def test_tonks_empty_amplitude_closed_form(dressed_tonks):
    res = amplitude("empty", dressed_tonks, contour=default_contour(dressed_tonks, 256))
    closed = float(np.pi * np.exp(4.0 * barnes_g_log(0.5)) * np.sqrt(dressed_tonks.q / 2.0))
    assert res.value == pytest.approx(closed, rel=1e-4)


def test_tonks_smooth_part_trivial(dressed_tonks):
    # at c -> infinity the dressed kernel vanishes: G_0 -> 1
    nu = special_shift("empty", dressed_tonks)
    g0 = smooth_part_G(nu, dressed_tonks, None, default_contour(dressed_tonks, 256))
    assert abs(g0 - 1.0) < 1e-4


def test_smooth_part_rejects_a_hole_outside_the_segment(dressed_11):
    d = dressed_11
    nu = special_shift("minus_q", d)
    with pytest.raises(ValueError, match="outside"):
        smooth_part_G(nu, d, (-d.q, 1.01 * d.q), default_contour(d))


def test_smooth_part_takes_each_cauchy_transform_from_specfun(monkeypatch, dressed_11):
    """G_0 transforms at q +- ic (one call) and on the contour and its two
    shifts (three); a pair adds its particle and its hole at +-ic (four)."""
    d = dressed_11
    calls = []
    monkeypatch.setattr(amplitudes, "cauchy_transform",
                        lambda *a: calls.append(a) or cauchy_transform(*a))
    smooth_part_G(special_shift("empty", d), d, None, default_contour(d))
    assert len(calls) == 4
    calls.clear()
    smooth_part_G(special_shift("minus_q", d), d, (-d.q, d.q), default_contour(d))
    assert len(calls) == 8


def _edge_log_kappas(nu, d) -> tuple:
    """(ln kappa(q), ln kappa(-q)), the values `amplitude` passes to the functionals."""
    return log_kappa(nu, d.q, d.grid), log_kappa(nu, -d.q, d.grid)


def test_b_functional_symmetric_in_nodes(dressed_11):
    # B depends on the dressed set only through converged quadratures:
    # rebuilding the dressed set at doubled nodes must not move it
    nu96 = special_shift("empty", dressed_11)
    b96 = functional_B(nu96, dressed_11, *_edge_log_kappas(nu96, dressed_11))
    d192 = dress_all(ModelParams(c=1.0, h=1.0), n_nodes=192)
    nu192 = special_shift("empty", d192)
    b192 = functional_B(nu192, d192, *_edge_log_kappas(nu192, d192))
    assert b192 == pytest.approx(b96, rel=1e-9)


def test_edge_functionals_finite_and_conjugate_structure(dressed_11):
    nu_e = special_shift("empty", dressed_11)
    nu_m = special_shift("minus_q", dressed_11)
    ap = functional_Aplus(nu_e, dressed_11, _edge_log_kappas(nu_e, dressed_11)[0])
    am = functional_Aminus(nu_m, dressed_11, _edge_log_kappas(nu_m, dressed_11)[1])
    assert np.isfinite(ap) and np.isfinite(am)
    assert ap != 0 and am != 0


@pytest.mark.parametrize("kind, edge", [("empty", 1.0), ("minus_q", -1.0)])
def test_edge_amplitude_takes_each_log_kappa_once(monkeypatch, dressed_11, kind, edge):
    d = replace(dressed_11)
    q = d.q
    points, handed = [], []
    monkeypatch.setattr(amplitudes, "log_kappa",
                        lambda nu, lam, grid: points.append(lam) or log_kappa(nu, lam, grid))
    a_name = "functional_Aplus" if kind == "empty" else "functional_Aminus"
    a_fac = getattr(amplitudes, a_name)
    monkeypatch.setattr(amplitudes, a_name, lambda nu, d, lk: handed.append(lk) or a_fac(nu, d, lk))
    amplitude(kind, d)
    assert sorted(points) == [-q, q]
    # the edge functional gets ln kappa at its own edge
    assert handed == [log_kappa(special_shift(kind, d), edge * q, d.grid)]


def _count_smooth_parts(monkeypatch):
    calls = []
    smooth = amplitudes.smooth_part_G
    monkeypatch.setattr(amplitudes, "smooth_part_G",
                        lambda *a, **k: calls.append(a[0]) or smooth(*a, **k))
    return calls


def test_edge_amplitudes_are_computed_once_per_dressed_set(monkeypatch, dressed_11):
    d = replace(dressed_11)  # a set with empty memos
    calls = _count_smooth_parts(monkeypatch)
    assemble_expansion(d, RATIO)
    assert len(calls) == 3
    calls.clear()
    assemble_expansion(d, 0.3)  # space-like: only the saddle amplitude is new
    assert len(calls) == 1
    calls.clear()
    assemble_expansion(d, 2.0)  # time-like: no amplitude is new
    assert len(calls) == 0


def test_a_new_contour_misses_the_memo(monkeypatch, dressed_11):
    d = replace(dressed_11)
    default = amplitude("minus_q", d)
    assert amplitude("minus_q", d, contour=default_contour(d)) is default
    calls = _count_smooth_parts(monkeypatch)
    doubled = amplitude("minus_q", d, contour=default_contour(d, 512))
    assert len(calls) == 1
    expected = amplitude("minus_q", replace(dressed_11), contour=default_contour(d, 512))
    assert doubled.raw == expected.raw and doubled.raw != default.raw


def test_memoised_amplitudes_equal_a_fresh_computation():
    params = ModelParams(4.0, 1.0)
    d = dress_all(params)
    assemble_expansion(d, RATIO)
    reused = assemble_expansion(d, 0.1).amplitudes
    fresh = assemble_expansion(dress_all(params), 0.1).amplitudes
    assert reused.keys() == fresh.keys() == {"saddle", "two_pF", "zero_freq"}
    for label in fresh:
        assert repr(reused[label].raw) == repr(fresh[label].raw)
