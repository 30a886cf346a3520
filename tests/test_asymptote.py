"""Assembled expansion: term table consistency and rho(x, t) evaluation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llasym import (
    ModelParams,
    amplitude,
    assemble_expansion,
    default_contour,
    dress_all,
    evaluate_rho,
    special_shift,
)
from llasym import asymptote
from llasym.asymptote import (
    TERMS,
    ExpansionReport,
    LightConeError,
    RatioMismatchError,
    RhoOverflowError,
)
from llasym.cli import RunConfig, cmd_exponents, cmd_harmonics, cmd_saddle
from llasym.excitations import (
    SPACE_LIKE,
    TIME_LIKE,
    active_terms,
    ledger_exponents,
    u_combination,
)

RATIO = 0.2


@pytest.fixture(scope="module")
def report_space(dressed_11):
    report = ExpansionReport(dressed_11, RATIO, 2, default_contour(dressed_11, 256))
    report.terms, report.harmonics
    return report


@pytest.fixture(scope="module")
def report_time(dressed_11):
    report = ExpansionReport(dressed_11, 2.0, 2, default_contour(dressed_11, 256))
    report.terms, report.harmonics
    return report


def test_term_table_cross_module_consistency(report_space, dressed_11):
    d = dressed_11
    terms = {t.label: t for t in report_space.terms}
    assert set(terms) == {"saddle", "two_pF", "zero_freq"}

    assert terms["zero_freq"].frequency == 0.0
    assert terms["two_pF"].frequency == pytest.approx(-2.0 * d.pF, rel=1e-14)
    lam0 = report_space.lambda0
    u_l0 = float(u_combination(lam0, RATIO, d))
    assert terms["saddle"].frequency == pytest.approx(u_l0 - d.pF, rel=1e-12)

    nu_sad = special_shift("saddle", d, lam0)
    nu_mq = special_shift("minus_q", d)
    nu_ee = special_shift("empty", d)
    for label, nu, pair in (  # offsets (1 + l+, -l-): (0, 0), (0, -1), (1, 0)
        ("saddle", nu_sad, (-1, 0)),
        ("two_pF", nu_mq, (-1, 1)),
        ("zero_freq", nu_ee, (0, 0)),
    ):
        ep, em, _ = ledger_exponents(nu, pair)
        assert terms[label].exponent_plus == pytest.approx(ep, rel=1e-12), label
        assert terms[label].exponent_minus == pytest.approx(em, rel=1e-12), label

    contour = default_contour(d, 256)
    assert terms["zero_freq"].amplitude == pytest.approx(
        amplitude("empty", d, contour=contour).value, rel=1e-12
    )
    assert terms["two_pF"].amplitude == pytest.approx(
        amplitude("minus_q", d, contour=contour).value, rel=1e-12
    )
    assert all(t.active for t in report_space.terms)
    assert report_space.regime == SPACE_LIKE


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("fixture", ["dressed_11", "dressed_41", "dressed_162"])
@pytest.mark.parametrize("ratio_times_vF", [0.5, 2.0])
def test_each_explicit_term_is_its_ledger_row(request, fixture, ratio_times_vF):
    """Exponents, extra power and D+- of each explicit term, from the ledger
    formula, equal those of its special shift function bit for bit."""
    d = request.getfixturevalue(fixture)
    report = ExpansionReport(d, ratio_times_vF / d.vF)
    assert report.regime == (SPACE_LIKE if ratio_times_vF < 1.0 else TIME_LIKE)
    rows = {t.label: t for t in report.terms}
    for label, (kind, (lp, lm)) in TERMS.items():
        nu = special_shift(kind, d, report.lambda0)
        row = rows[label]
        assert (row.ell_plus, row.ell_minus) == (lp, lm)
        assert _bits(row.exponent_plus, row.exponent_minus) == _bits(
            *ledger_exponents(nu, (lp, lm))[:2]), label
        assert _bits(row.extra_power) == _bits(abs(lp + lm) / 2), label
        assert _bits(*report.shift_values[label]) == _bits(nu.at_q, nu.at_minus_q), label


@pytest.mark.parametrize("ratio", [0.2, 2.0])
def test_ledger_and_active_terms_cover_each_admissible_pair_once(dressed_11, ratio):
    report = ExpansionReport(dressed_11, ratio, max_abs_ell=3)
    eta = 1 if report.regime == SPACE_LIKE else -1
    explicit = [pair for _, pair in active_terms(report.regime).values()]
    listed = [(e.ell_plus, e.ell_minus) for e in report.harmonics] + explicit
    admissible = {(lp, lm) for lp in range(-3, 4) for lm in range(-3, 4) if eta * (lp + lm) >= 0}
    # the space-like saddle pair (-1, 0) has eta (l+ + l-) = -1: explicit, never in the ledger
    assert sorted(listed) == sorted(admissible | set(explicit))


def test_time_like_saddle_inactive(report_time):
    terms = {t.label: t for t in report_time.terms}
    assert report_time.regime == TIME_LIKE
    assert terms["saddle"].active is False
    assert terms["saddle"].amplitude is None
    assert terms["two_pF"].active and terms["zero_freq"].active
    # the (-1, 0) harmonic carries the saddle vicinity in this regime
    assert any(t.label == "harmonic(-1,+0)" for t in report_time.harmonics)


def test_one_saddle_frequency(report_time):
    """The inactive saddle row, the (-1, 0) harmonic and `llasym saddle` give the
    same bits: u(lam0) - u(q), at c = h = 1, t/x = 2."""
    saddle = next(t for t in report_time.terms if t.label == "saddle")
    harmonic = next(t for t in report_time.harmonics if t.label == "harmonic(-1,+0)")
    u_q = float(u_combination(report_time.q, 2.0, report_time.dressed))
    assert saddle.frequency == harmonic.frequency == report_time.u_at_lambda0 - u_q
    printed = cmd_saddle(RunConfig(ratio_t_over_x=2.0))[0].splitlines()[-1].split(",")[5]
    assert float(printed) == saddle.frequency  # 17 significant digits round-trip


def test_harmonics_never_summed(report_space):
    assert all(t.amplitude is None and not t.active for t in report_space.harmonics)
    rho = evaluate_rho(report_space, 40.0, 40.0 * RATIO)
    assert set(rho.term_moduli) == {"saddle", "two_pF", "zero_freq"}


def test_evaluate_rho_manual_reconstruction(report_space):
    x = 35.0
    t = RATIO * x
    rho = evaluate_rho(report_space, x, t)
    vF = report_space.vF
    log_plus = np.log(1j * (x + vF * t))
    log_minus = np.log(-1j * (x - vF * t))
    total = 0.0 + 0.0j
    for term in report_space.terms:
        decay = np.exp(-term.exponent_minus * log_plus - term.exponent_plus * log_minus)
        osc = np.exp(1j * x * term.frequency)
        if term.label == "saddle":
            curv = -x * report_space.u_dd_at_lambda0
            pref = np.exp(-0.25j * np.pi) * np.sqrt(2.0 * np.pi / curv) * report_space.p_d1_at_lambda0
        else:
            pref = 1.0
        total += pref * osc * term.amplitude * decay
    assert rho.value == pytest.approx(total, rel=1e-12)


def test_rho_decays_along_ray(report_space):
    mods = [abs(evaluate_rho(report_space, x, RATIO * x).value) for x in (20.0, 40.0, 80.0, 160.0)]
    assert mods[0] > mods[1] > mods[2] > mods[3] > 0.0


def test_saddle_term_decays_faster_than_leading(report_space):
    # extra x^-1/2 from the stationary-phase factor
    r1 = evaluate_rho(report_space, 20.0, RATIO * 20.0)
    r2 = evaluate_rho(report_space, 2000.0, RATIO * 2000.0)
    rel1 = r1.term_moduli["saddle"] / r1.term_moduli["zero_freq"]
    rel2 = r2.term_moduli["saddle"] / r2.term_moduli["zero_freq"]
    assert rel2 < rel1


def test_evaluate_rho_guards(report_space, dressed_11):
    with pytest.raises(RatioMismatchError):
        evaluate_rho(report_space, 10.0, 2.1)
    with pytest.raises(ValueError):
        evaluate_rho(report_space, -5.0, -1.0)
    # a NaN or infinite coordinate is off every ray
    with pytest.raises(RatioMismatchError):
        evaluate_rho(report_space, 40.0, float("nan"))
    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            evaluate_rho(report_space, x, x)
    # the guard fires before the report's (degenerate) saddle is ever searched
    cone = ExpansionReport(dressed_11, 1.0 / dressed_11.vF)
    with pytest.raises(LightConeError):
        evaluate_rho(cone, 1.0, 1.0 / dressed_11.vF)


@pytest.mark.parametrize("x, error", [
    # the powers of x -+ vF t overflow a float
    (1e-100, RhoOverflowError),
    # x - vF t underflows to 0, and so does 1e-9 x: no longer 0 < 0, it is on the cone
    (1e-323, LightConeError),
])
def test_rho_at_tiny_x_raises(dressed_11, x, error):
    report = assemble_expansion(dressed_11, 0.5)
    with pytest.raises(error):
        evaluate_rho(report, x, 0.5 * x)


def test_stages_before_amplitudes_never_assemble_one(monkeypatch, dressed_11):
    def no_amplitude(*args, **kwargs):
        raise AssertionError("amplitude assembled")

    monkeypatch.setattr(asymptote, "amplitude", no_amplitude)
    report = ExpansionReport(dressed_11, RATIO)
    assert set(report.shift_values) == set(report.exponents) == set(TERMS)
    assert report.harmonics and report.u_dd_at_lambda0 < 0.0
    with pytest.raises(AssertionError, match="amplitude assembled"):
        report.terms
    cfg = RunConfig(n_nodes=48, contour_nodes=64)
    for cmd in (cmd_exponents, cmd_saddle, cmd_harmonics):
        assert cmd(cfg)[0].startswith(f"# llasym {cmd.__name__[4:]}\n")


@given(s=st.floats(0.6, 1.8))
@settings(max_examples=4, deadline=None)
def test_exponents_scale_invariant(s):
    # (lam, c, h) -> (s lam, s c, s^2 h) rescales all momenta by s but leaves
    # the shift functions, hence every critical exponent, unchanged
    base = ExpansionReport(dress_all(ModelParams(c=1.0, h=1.0), n_nodes=48), RATIO)
    scaled = ExpansionReport(dress_all(ModelParams(c=s, h=s * s), n_nodes=48), RATIO / s)
    for label, pb in base.exponents.items():
        ps = scaled.exponents[label]
        assert ps[0] == pytest.approx(pb[0], rel=1e-6, abs=1e-9), label
        assert ps[1] == pytest.approx(pb[1], rel=1e-6, abs=1e-9), label
    # momenta scale linearly
    assert scaled.pF == pytest.approx(s * base.pF, rel=1e-8)
    assert scaled.lambda0 == pytest.approx(s * base.lambda0, rel=1e-7)


_SCALE_DRAWS = np.random.default_rng(2702)
SCALE_POINTS = [(float(np.exp(_SCALE_DRAWS.uniform(np.log(0.5), np.log(64.0)))),
                 float(np.exp(_SCALE_DRAWS.uniform(np.log(0.5), np.log(4.0)))),
                 float(_SCALE_DRAWS.uniform(*band)))
                for band in ((0.02, 0.2), (1.2, 4.0), (0.02, 0.2))]


@pytest.mark.parametrize("s", [2.0, 0.5])
@pytest.mark.parametrize("c,h,ratio", SCALE_POINTS)
def test_scale_covariance_of_amplitudes_and_rho(c, h, ratio, s):
    """(c, h, t/x) -> (s c, s^2 h, (t/x)/s) with s a power of 2 scales every
    grid and kernel value exactly: q, vF and lambda0 scale by s bit for bit,
    each edge amplitude by s^(1 - e+ - e-), the saddle amplitude by s^(-e+ - e-)
    and rho(x/s, t/s^2) = s rho(x, t), the last three to rounding."""
    _assert_scale_covariant(c, h, ratio, s)


@given(log_c=st.floats(np.log(0.5), np.log(64.0)), log_h=st.floats(np.log(0.5), np.log(4.0)),
       space_like=st.booleans(), band_point=st.floats(0.0, 1.0), s=st.sampled_from([0.5, 2.0]))
@settings(max_examples=12, derandomize=True, deadline=None)
def test_scale_covariance_over_the_sweep_box(log_c, log_h, space_like, band_point, s):
    """The covariance above on the `sweep` benchmark's box (c in [0.5, 64], h in
    [0.5, 4], t/x in [0.02, 0.2] or [1.2, 4]) where g = c/sqrt(h) >= 0.85, off the
    band g in [2.0, 2.16] where the default contour meets a near-resonance."""
    c, h = float(np.exp(log_c)), float(np.exp(log_h))
    g = c / np.sqrt(h)
    assume(g >= 0.85 and not 2.0 <= g <= 2.16)
    lo, hi = (0.02, 0.2) if space_like else (1.2, 4.0)
    _assert_scale_covariant(c, h, lo + band_point * (hi - lo), s)


def _assert_scale_covariant(c, h, ratio, s):
    base = assemble_expansion(ModelParams(c=c, h=h), ratio)
    scaled = assemble_expansion(ModelParams(c=s * c, h=s * s * h), ratio / s)
    assert (scaled.q, scaled.vF, scaled.lambda0) == (s * base.q, s * base.vF, s * base.lambda0)
    assert scaled.amplitudes.keys() == base.amplitudes.keys()
    for label, amp in base.amplitudes.items():
        e_plus, e_minus, _ = base.exponents[label]
        power = (label != "saddle") - e_plus - e_minus
        assert scaled.amplitudes[label].value == pytest.approx(amp.value * s**power, rel=1e-12), label
    for x in (10.0, 137.0, 2000.0):
        rho = evaluate_rho(base, x, ratio * x).value
        assert evaluate_rho(scaled, x / s, ratio * x / (s * s)).value == pytest.approx(
            s * rho, rel=1e-12, abs=0.0), x


def _rho_numpy(report, x, t):
    """evaluate_rho's value and moduli written with numpy 0-d ufuncs throughout."""
    vF = report.vF
    log_plus = np.log(1j * (x + vF * t))
    log_minus = np.log(-1j * (x - vF * t))
    total = 0.0 + 0.0j
    moduli = {}
    for term in report.terms:
        if not term.active:
            continue
        decay = np.exp(-term.exponent_minus * log_plus - term.exponent_plus * log_minus)
        osc = np.exp(1j * x * term.frequency)
        if term.label == "saddle":
            curv = -x * report.u_dd_at_lambda0
            pref = np.exp(-0.25j * np.pi) * np.sqrt(2.0 * np.pi / curv) * report.p_d1_at_lambda0
        else:
            pref = 1.0
        contrib = pref * osc * term.amplitude * decay
        total += contrib
        moduli[term.label] = float(abs(contrib))
    return complex(total), moduli


@pytest.mark.parametrize("fixture", ["dressed_11", "dressed_41"])
def test_evaluate_rho_bit_for_bit_equals_the_numpy_formula(request, fixture):
    """5000 seeded points per coupling over both regimes, x in [0.3, 3000]: for
    x of order 1, |x -+ vF t| falls where numpy's and cmath's complex logs differ."""
    d = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    for ratio in (0.5 / d.vF, 2.0 / d.vF):
        report = assemble_expansion(d, ratio)
        xs = np.exp(rng.uniform(np.log(0.3), np.log(3000.0), 2500)).tolist()
        ours, ref = [], []
        for x in xs:
            rho = evaluate_rho(report, x, ratio * x)
            value, moduli = _rho_numpy(report, x, ratio * x)
            ours.append((rho.value.real, rho.value.imag, *rho.term_moduli.values()))
            ref.append((value.real, value.imag, *moduli.values()))
            assert rho.term_moduli.keys() == moduli.keys()
        assert np.array(ours).tobytes() == np.array(ref).tobytes()
