"""The saddle's two-pass sign-change scan against a scan of every grid point,
its error paths, and the monotone dressed velocity the coarse pass relies on."""

import numpy as np
import pytest

from llasym import ModelParams, dress_all, excitations
from llasym.cli import main
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


def full_scan_saddle(ratio_t_over_x, dressed):
    """The reference search: u' on every one of the N_SCAN grid points, then
    the same bracket rules and Newton polish as `find_saddle`."""
    if not (ratio_t_over_x > 0):
        raise ValueError("saddle search needs t/x > 0")
    q = dressed.q
    scan_range = max(5.0 * q, 1.0 / ratio_t_over_x)
    grid = np.linspace(-scan_range, scan_range, excitations.N_SCAN)
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
    """(lam0 as hex, regime), or the name of the error the search raised."""
    try:
        lam0, regime = search(ratio, dressed)
    except (NoSaddleError, MultipleSaddlesError, DegenerateSaddleError) as exc:
        return type(exc).__name__
    return float(lam0).hex(), regime


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
    regimes = set()
    for ch, ratio in RAYS:
        d = dressed_sets[ch]
        want = _outcome(full_scan_saddle, ratio, d)
        assert _outcome(find_saddle, ratio, d) == want, (ch, ratio)
        regimes.add(want[1])
    assert regimes == {SPACE_LIKE, TIME_LIKE}
    assert len(RAYS) >= 120


@pytest.mark.parametrize("n_scan", [4001, 4000])
def test_light_cone_ratios_are_degenerate_in_both_scans(monkeypatch, dressed_11, n_scan):
    # with 4001 points a grid point lands on q, with 4000 none does
    monkeypatch.setattr(excitations, "N_SCAN", n_scan)
    cone = 1.0 / dressed_11.vF
    for ratio in (np.nextafter(cone, 0.0), cone, np.nextafter(cone, 1.0)):
        assert _outcome(full_scan_saddle, ratio, dressed_11) == "DegenerateSaddleError"
        assert _outcome(find_saddle, ratio, dressed_11) == "DegenerateSaddleError"


def _patch_u_d1(monkeypatch, fn):
    """Replace u' by fn(lam) and record the number of points of each call."""
    sizes = []

    def fake(lam, ratio, dressed):
        sizes.append(np.size(lam))
        return fn(np.asarray(lam, dtype=float))

    monkeypatch.setattr(excitations, "u_d1", fake)
    return sizes


def test_many_sign_changes_are_caught_by_the_coarse_pass(monkeypatch, dressed_11):
    # on [-5q, 5q] = [-5.9, 5.9], cos has its zeros at +-pi/2 and +-3pi/2
    sizes = _patch_u_d1(monkeypatch, np.cos)
    with pytest.raises(MultipleSaddlesError, match="changes sign 4 times"):
        find_saddle(0.2, dressed_11)
    assert sizes == [64]


def test_sign_changes_inside_one_coarse_cell_are_caught_by_the_fine_pass(
        monkeypatch, dressed_11):
    # three roots between grid points 1024 and 1088: the coarse pass sees one
    # sign change, the fine pass three
    s = 5.0 * dressed_11.q
    grid = np.linspace(-s, s, excitations.N_SCAN)
    roots = [0.5 * (grid[k] + grid[k + 1]) for k in (1030, 1040, 1050)]
    sizes = _patch_u_d1(monkeypatch, lambda lam: -np.prod([lam - r for r in roots], axis=0))
    with pytest.raises(MultipleSaddlesError, match="changes sign 3 times"):
        find_saddle(0.2, dressed_11)
    assert sizes == [64, 65]


def test_no_sign_change_is_no_saddle(monkeypatch, dressed_11):
    _patch_u_d1(monkeypatch, np.ones_like)
    with pytest.raises(NoSaddleError, match="no zero"):
        find_saddle(0.2, dressed_11)


def test_multiple_saddles_exit_3(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "cos.cfg"
    cfg.write_text("ratio_t_over_x = 0.2\n")
    _patch_u_d1(monkeypatch, np.cos)
    assert main(["saddle", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("saddle error (MultipleSaddlesError)")


@pytest.mark.parametrize("h", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("c", [0.9, 2.0, 4.0, 16.0, 64.0])
def test_dressed_velocity_is_increasing_on_the_widest_scan(c, h):
    """v = eps'/p' increases strictly and p' > 0 on the scan grid of the sweep
    box's smallest t/x, 0.02, so u' = p' (1 - (t/x) v) changes sign once and
    no coarse cell of the saddle scan holds two sign changes."""
    d = dress_all(ModelParams(c=c, h=h), n_nodes=96)
    s = max(5.0 * d.q, 1.0 / 0.02)
    p_d1, eps_d1 = d.op.extend(np.linspace(-s, s, excitations.N_SCAN), 0, (d.p_d1, d.eps_d1))
    assert np.all(p_d1 > 0)
    assert np.min(np.diff(eps_d1 / p_d1)) > 0
