"""The saddle's safeguarded Newton search against a sign-change scan of a
4001-point grid, its error paths, and the monotone dressed velocity that
makes the saddle unique."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from llasym import ModelParams, dress_all, excitations
from llasym.cli import CHECKS, main
from llasym.excitations import (
    SPACE_LIKE,
    TIME_LIKE,
    DegenerateSaddleError,
    MultipleSaddlesError,
    NoSaddleError,
    find_saddle,
    u_d1,
    u_d2,
)


def full_scan_saddle(ratio_t_over_x, dressed, n_scan=4001):
    """The reference search: u' on every point of an n_scan-point grid on
    [-s, s], one sign change required, then Newton polish from the grid cell
    that holds it."""
    if not (ratio_t_over_x > 0):
        raise ValueError("saddle search needs t/x > 0")
    q = dressed.q
    scan_range = max(5.0 * q, 1.0 / ratio_t_over_x)
    grid = np.linspace(-scan_range, scan_range, n_scan)
    vals = u_d1(grid, ratio_t_over_x, dressed)
    signs = np.sign(vals)
    nonzero = np.flatnonzero(signs)
    sign_flips = np.flatnonzero(np.diff(signs[nonzero]) != 0)
    if len(sign_flips) == 0:
        raise NoSaddleError(f"u' has no zero on [-{scan_range}, {scan_range}]")
    if len(sign_flips) > 1:
        raise MultipleSaddlesError(f"u' changes sign {len(sign_flips)} times")
    i, j = nonzero[sign_flips[0]], nonzero[sign_flips[0] + 1]
    lo, hi = grid[i], grid[j]
    lam0 = 0.5 * (lo + hi) if j == i + 1 else grid[(i + j) // 2]
    for _ in range(100):
        f = float(u_d1(lam0, ratio_t_over_x, dressed))
        if abs(f) < 1e-14:
            break
        fp = float(u_d2(lam0, ratio_t_over_x, dressed))
        step = f / fp
        nxt = lam0 - step
        if not (lo - (hi - lo) <= nxt <= hi + (hi - lo)):
            flo = float(u_d1(lo, ratio_t_over_x, dressed))
            if flo * f <= 0:
                hi = lam0
            else:
                lo = lam0
            nxt = 0.5 * (lo + hi)
        lam0 = nxt
    if abs(float(u_d1(lam0, ratio_t_over_x, dressed))) > 1e-10:
        raise NoSaddleError(f"Newton failed to reach |u'| < 1e-10 at lam0={lam0}")
    if float(u_d2(lam0, ratio_t_over_x, dressed)) >= 0:
        raise NoSaddleError(f"u''(lam0) >= 0 at lam0={lam0}: not a maximum of u")
    if min(abs(lam0 - q), abs(lam0 + q)) < 1e-6:
        raise DegenerateSaddleError(f"lam0 = {lam0} within 1e-6 of a Fermi boundary +-{q}")
    regime = SPACE_LIKE if lam0 > q else TIME_LIKE
    return float(lam0), regime


def _outcome(search, ratio, dressed):
    """(lam0, regime), or the name of the error the search raised."""
    try:
        return search(ratio, dressed)
    except (NoSaddleError, MultipleSaddlesError, DegenerateSaddleError) as exc:
        return type(exc).__name__


# 45 log-uniform rays on [0.01, 5] per coupling at h = 1, both regimes; then
# points of the benchmark's sweep box with rays from its space-like and
# time-like bands
RAYS = [((c, 1.0), float(r)) for c in (1.0, 2.0, 4.0)
        for r in np.exp(np.random.default_rng(2201).uniform(np.log(0.01), np.log(5.0), 45))]
RAYS += [((c, h), float(r)) for c, h in ((0.9, 0.5), (16.0, 2.0), (64.0, 4.0), (3.0, 0.7))
         for r in np.concatenate([np.random.default_rng(2202).uniform(0.02, 0.2, 4),
                                  np.random.default_rng(2203).uniform(1.2, 4.0, 4)])]


@pytest.fixture(scope="module")
def dressed_sets():
    return {ch: dress_all(ModelParams(c=ch[0], h=ch[1]), n_nodes=96) for ch in dict(RAYS)}


def test_two_pass_scan_matches_the_full_scan_bit_for_bit(dressed_sets):
    """Newton from x/(2t) gives the oracle's outcome on every ray: the same
    error, or the same regime and lam0 within 1e-13 relative with |u'| < 1e-10.
    (The name is from the two-pass scan that matched the oracle's bits.)"""
    regimes = set()
    for ch, ratio in RAYS:
        d = dressed_sets[ch]
        want, got = _outcome(full_scan_saddle, ratio, d), _outcome(find_saddle, ratio, d)
        if isinstance(want, str):
            assert got == want, (ch, ratio)
            continue
        assert got[1] == want[1], (ch, ratio)
        assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0), (ch, ratio)
        assert abs(float(u_d1(got[0], ratio, d))) < 1e-10
        regimes.add(want[1])
    assert regimes == {SPACE_LIKE, TIME_LIKE}
    assert len(RAYS) >= 120


@pytest.mark.parametrize("n_scan", [4001, 4000])
def test_light_cone_ratios_are_degenerate_in_both_scans(dressed_11, n_scan):
    # a point of the oracle's grid lands on q with 4001 points, none with 4000
    cone = 1.0 / dressed_11.vF
    for ratio in (np.nextafter(cone, 0.0), cone, np.nextafter(cone, 1.0)):
        assert _outcome(partial(full_scan_saddle, n_scan=n_scan), ratio, dressed_11) == (
            "DegenerateSaddleError")
        assert _outcome(find_saddle, ratio, dressed_11) == "DegenerateSaddleError"


def _patch_u_d1(monkeypatch, fn):
    """Replace u' by fn(lam) and record the number of points of each call."""
    sizes = []

    def fake(lam, ratio, dressed):
        sizes.append(np.size(lam))
        return fn(np.asarray(lam, dtype=float))

    monkeypatch.setattr(excitations, "u_d1", fake)
    return sizes


def test_rising_u_prime_is_multiple_saddles_after_one_end_call(monkeypatch, dressed_11):
    # on [-5q, 5q] = [-5.9, 5.9], -sin is negative at -5.9 and positive at 5.9
    sizes = _patch_u_d1(monkeypatch, lambda lam: -np.sin(lam))
    with pytest.raises(MultipleSaddlesError, match="no unique maximum"):
        find_saddle(0.2, dressed_11)
    assert sizes == [2]


def test_newton_overshoot_is_bisected_to_the_saddle(monkeypatch, dressed_11):
    """u' = -arctan(lam - 1): plain Newton from x/(2t) = 2.5 diverges, since
    |2.5 - 1| is beyond arctan's 1.39 basin, so the search has to bisect."""
    lams = []

    def fake_d1(lam, ratio, dressed):
        if np.size(lam) == 1:
            lams.append(float(lam))
        return -np.arctan(np.asarray(lam, dtype=float) - 1.0)

    monkeypatch.setattr(excitations, "u_d1", fake_d1)
    monkeypatch.setattr(excitations, "u_d2", lambda lam, r, d: -1.0 / (1.0 + (lam - 1.0) ** 2))
    lam0, regime = find_saddle(0.2, dressed_11)
    assert lams[0] == 2.5
    newton = [a + np.arctan(a - 1.0) * (1.0 + (a - 1.0) ** 2) for a in lams[:-1]]
    assert any(abs(b - n) > 1e-6 for b, n in zip(lams[1:], newton))  # a bisection
    assert lam0 == pytest.approx(1.0, abs=1e-14)
    assert regime == TIME_LIKE  # 1 < q = 1.18


def test_no_sign_change_is_no_saddle(monkeypatch, dressed_11):
    _patch_u_d1(monkeypatch, np.ones_like)
    with pytest.raises(NoSaddleError, match="no zero"):
        find_saddle(0.2, dressed_11)


def test_multiple_saddles_exit_3(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "sin.cfg"
    cfg.write_text("ratio_t_over_x = 0.2\n")
    _patch_u_d1(monkeypatch, lambda lam: -np.sin(lam))
    assert main(["saddle", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("saddle error (MultipleSaddlesError)")


@pytest.mark.parametrize("h", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("c", [0.9, 2.0, 4.0, 16.0, 64.0])
def test_dressed_velocity_is_increasing_on_the_widest_scan(c, h):
    """v = eps'/p' increases strictly and p' > 0 on 4001 points of the saddle
    bracket at the sweep box's smallest t/x, 0.02, so u' = p' (1 - (t/x) v)
    changes sign once and Newton's bracket holds the one saddle."""
    d = dress_all(ModelParams(c=c, h=h), n_nodes=96)
    s = max(5.0 * d.q, 1.0 / 0.02)
    p_d1, eps_d1 = d.op.extend(np.linspace(-s, s, 4001), 0, (d.p_d1, d.eps_d1))
    assert np.all(p_d1 > 0)
    assert np.min(np.diff(eps_d1 / p_d1)) > 0


@pytest.mark.parametrize("p_d1, eps_d1, passed", [
    (np.ones_like, lambda lam: lam, True),  # v = lam
    (np.ones_like, lambda lam: -lam, False),  # v falls
    (lambda lam: -np.ones_like(lam), lambda lam: -lam, False),  # v = lam, but p' < 0
])
def test_velocity_check_fails_where_the_saddle_may_not_be_unique(p_d1, eps_d1, passed):
    """verify's dressed_velocity_increasing on sets whose p' and eps' are given."""
    stub = SimpleNamespace(q=1.0, p_d1=p_d1, eps_d1=eps_d1, op=SimpleNamespace(
        extend=lambda lam, order, sols: tuple(sol(lam) for sol in sols)))
    ok, line = CHECKS["dressed_velocity_increasing"].run(dict.fromkeys(("d11", "d41", "d162"), stub))
    assert ok is passed, line
