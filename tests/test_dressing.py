"""Dressed quantities against an independent dense-grid solver.

The oracle discretizes the same second-kind equations with the composite
trapezoid rule on a uniform grid (Richardson-extrapolated 601 -> 1201),
sharing no quadrature or solver code with the package's Gauss-Legendre
Nystrom route.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llasym import (
    ModelParams,
    amplitude,
    assemble_expansion,
    default_contour,
    dress_all,
    dressing,
)
from llasym.cli import main
from llasym.dressing import (
    BracketFailureError,
    QuadGrid,
    SingularSystemError,
    find_fermi_boundary,
    legendre_rule,
)
from llasym.excitations import ShiftFn, u_d1
from llasym.model import StripError, lieb_kernel

P11 = ModelParams(c=1.0, h=1.0)


def _dense_solve(params, q, g_vals_fn, n):
    """Trapezoid-rule Nystrom solve of f - K*f/2pi = g on [-q, q]."""
    x = np.linspace(-q, q, n)
    w = np.full(n, 2.0 * q / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    a = np.eye(n) - lieb_kernel(x[:, None] - x[None, :], params) * w[None, :] / (2.0 * np.pi)
    return x, np.linalg.solve(a, g_vals_fn(x)), a


def _dense_richardson(params, q, g_vals_fn, lam_eval):
    """O(h^4) endpoint values by Richardson over n = 601, 1201 (both grids
    contain -q, 0, q; lam_eval restricted to grid fractions of q)."""
    out = []
    for n in (601, 1201):
        x, f, _ = _dense_solve(params, q, g_vals_fn, n)
        idx = [int(round((lv / q + 1.0) / 2.0 * (n - 1))) for lv in lam_eval]
        assert all(abs(x[i] - lv) < 1e-12 for i, lv in zip(idx, lam_eval))
        out.append(f[idx])
    return (4.0 * out[1] - out[0]) / 3.0


def test_dressed_charge_against_dense_grid(dressed_11):
    q = dressed_11.q
    lam_eval = np.array([-q, -0.5 * q, 0.0, 0.25 * q, q])
    oracle = _dense_richardson(P11, q, lambda x: np.ones_like(x), lam_eval)
    ours = dressed_11.Z(lam_eval)
    assert np.max(np.abs(ours - oracle) / np.abs(oracle)) < 1e-6


def test_dressed_energy_against_dense_grid(dressed_11):
    q = dressed_11.q
    lam_eval = np.array([-0.75 * q, 0.0, 0.5 * q, q])
    oracle = _dense_richardson(P11, q, lambda x: x * x - P11.h, lam_eval)
    ours = dressed_11.eps(lam_eval)
    assert np.max(np.abs(ours - oracle)) < 1e-6 * max(1.0, float(np.max(np.abs(oracle))))


def test_fermi_velocity_against_dense_grid(dressed_11):
    # differentiating the eps equation and using eps(+-q) = 0 shows eps'
    # solves the same equation with driving 2 lam; p' with driving 1
    q = dressed_11.q
    lam_eval = np.array([q])
    eps_d1_q = _dense_richardson(P11, q, lambda x: 2.0 * x, lam_eval)[0]
    p_d1_q = _dense_richardson(P11, q, lambda x: np.ones_like(x), lam_eval)[0]
    assert dressed_11.vF == pytest.approx(eps_d1_q / p_d1_q, rel=1e-6)


def test_fredholm_det_against_dense_grid(dressed_11):
    dets = []
    for n in (601, 1201):
        _, _, a = _dense_solve(P11, dressed_11.q, lambda x: np.ones_like(x), n)
        dets.append(np.linalg.det(a))
    oracle = (4.0 * dets[1] - dets[0]) / 3.0
    assert dressed_11.det_IK == pytest.approx(oracle, rel=1e-5)


def test_symmetries(dressed_11):
    q = dressed_11.q
    lam = np.linspace(0.05 * q, 0.95 * q, 9)
    assert np.allclose(dressed_11.Z(-lam), dressed_11.Z(lam), atol=1e-12)
    assert np.allclose(dressed_11.eps(-lam), dressed_11.eps(lam), atol=1e-12)
    assert np.allclose(dressed_11.p(-lam), -dressed_11.p(lam), atol=1e-12)
    assert np.allclose(dressed_11.p_d1(-lam), dressed_11.p_d1(lam), atol=1e-12)


def test_p_rejects_a_non_real_argument(dressed_11):
    # p integrates p' along the real axis; a complex array used to give p(Re z)
    # with only a ComplexWarning, and a complex scalar a TypeError
    for z in (np.array([0.5 + 0.1j]), 0.5 + 0.1j):
        with pytest.raises(ValueError, match="real z"):
            dressed_11.p(z)
    lam = np.array([0.5, -0.2])
    assert dressed_11.p(lam).tobytes() == np.array([dressed_11.p(x) for x in lam]).tobytes()


def test_charge_equals_momentum_derivative(dressed_11):
    # same integral equation, solved independently for Z and p'
    lam = np.linspace(-dressed_11.q, dressed_11.q, 33)
    assert np.max(np.abs(dressed_11.Z(lam) - dressed_11.p_d1(lam))) < 1e-12


def test_fermi_boundary_condition(dressed_11, dressed_41, dressed_162):
    for d in (dressed_11, dressed_41, dressed_162):
        assert abs(float(d.eps(d.q))) < 1e-9
        assert abs(float(d.eps(-d.q))) < 1e-9
        assert float(d.eps(0.0)) < 0.0
        assert d.det_IK > 0.0
        assert d.vF > 0.0
        assert d.pF == pytest.approx(np.pi * d.D, rel=1e-15)


def test_boundary_monotone_in_coupling(dressed_11, dressed_41):
    d16 = dress_all(ModelParams(c=16.0, h=1.0), n_nodes=48)
    assert dressed_11.q > dressed_41.q > d16.q > 1.0  # q -> sqrt(h) from above


def test_tonks_limit(dressed_tonks):
    d = dressed_tonks
    assert abs(d.q - 1.0) < 1e-5
    assert abs(float(d.Z(0.0)) - 1.0) < 1e-5
    assert abs(d.vF - 2.0) < 1e-4
    assert abs(d.det_IK - 1.0) < 1e-5


def test_node_doubling_stability():
    q64 = dress_all(P11, n_nodes=64).q
    q128 = dress_all(P11, n_nodes=128).q
    assert abs(q64 - q128) < 1e-9


def test_extension_strip_guard(dressed_11):
    val = dressed_11.Z(0.3 + 0.2j)  # inside |Im z| <= c/4
    assert np.isfinite(val)
    with pytest.raises(StripError):
        dressed_11.Z(0.3 + 0.3j)


def test_quad_grid_basics():
    g = QuadGrid.build(48, 1.3)
    assert g.weights.sum() == pytest.approx(2.6, rel=1e-14)
    assert np.allclose(g.nodes, -g.nodes[::-1], atol=1e-15)


def test_legendre_rule_is_cached_read_only_and_exact():
    x, w = legendre_rule(37)
    assert legendre_rule(37) is legendre_rule(37)
    assert not x.flags.writeable and not w.flags.writeable
    x_ref, w_ref = np.polynomial.legendre.leggauss(37)
    assert x.tobytes() == x_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def test_rules_are_built_once_per_size():
    """One expansion from parameters and one `llasym verify` build at most 6 rules."""
    legendre_rule.cache_clear()
    assemble_expansion(ModelParams(1.0, 1.0), 0.2)
    assert main(["verify"]) == 0
    assert legendre_rule.cache_info().misses <= 6


def _count_eps_calls(monkeypatch, eps_at_q):
    calls = []
    monkeypatch.setattr(dressing, "_eps_at_q", lambda q, *a: calls.append(q) or eps_at_q(q, *a))
    return calls


# (0.05, 4) needs 192 nodes: at 96 the discretised eps has poles (see below)
@pytest.mark.parametrize("c,h,n_nodes", [
    (c, h, 192 if (c, h) == (0.05, 4.0) else 96)
    for c in (0.05, 0.5, 1.0, 4.0, 64.0, 1e6) for h in (0.5, 1.0, 4.0)])
def test_fermi_boundary_root_and_solve_count(monkeypatch, c, h, n_nodes):
    params, eps_at_q = ModelParams(c=c, h=h), dressing._eps_at_q
    calls = _count_eps_calls(monkeypatch, eps_at_q)
    q = find_fermi_boundary(params, n_nodes=n_nodes).grid.q
    assert len(calls) <= 12
    assert abs(eps_at_q(q, params, n_nodes, {})) <= 1e-12
    assert eps_at_q(q * (1 - 1e-12), params, n_nodes, {}) < 0 < eps_at_q(q * (1 + 1e-12), params, n_nodes, {})


def test_fermi_boundary_rejects_a_pole_of_the_discretised_eps():
    # c = 0.05, h = 4 at 96 nodes: eps(q) jumps from -inf to +inf near
    # q = 2.335, where I - K W/2pi is singular; there is no root to report
    with pytest.raises(BracketFailureError, match="pole"):
        find_fermi_boundary(ModelParams(c=0.05, h=4.0), n_nodes=96)


@pytest.mark.parametrize("eps_at_q,fragment", [
    (lambda q, *a: -1.0, "does not change sign"),
    (lambda q, *a: 1.0 / (q - 0.5 * np.pi), "pole"),
])
def test_fermi_boundary_bracket_failures_are_bounded(monkeypatch, eps_at_q, fragment):
    calls = _count_eps_calls(monkeypatch, eps_at_q)
    with pytest.raises(BracketFailureError, match=fragment):
        find_fermi_boundary(P11, dressing.N_NODES)
    assert len(calls) <= 1 + 12 + 100  # sqrt(h), growth steps, Brent steps


@given(c=st.floats(0.5, 40.0), h=st.floats(0.5, 4.0))
@example(c=0.5, h=1.0)  # Z(q) = 2.28
@example(c=0.5, h=4.0)  # Z(q) = 3.11, the worst identity residual of the box
@settings(max_examples=5, deadline=None)
def test_dress_invariants_random_params(c, h):
    d = dress_all(ModelParams(c=c, h=h), n_nodes=48)
    assert abs(float(d.eps(d.q))) < 1e-8
    zq = float(d.Z(d.q))
    assert zq > 1.0
    # Z(q)^2 is the Luttinger parameter K = 2 pF / vF, which is unbounded as
    # c -> 0, so the identity (not a fixed ceiling) bounds Z(q) from above
    assert abs(zq**2 / (2.0 * d.pF / d.vF) - 1.0) < 1e-7
    assert float(d.Z(0.0)) > zq
    assert d.q > np.sqrt(h)


@pytest.mark.parametrize("c,h", [(1.0, 1.0), (4.0, 1.0), (0.5, 4.0), (64.0, 0.5)])
def test_dress_all_reuses_the_operator_of_the_fermi_search(monkeypatch, c, h):
    """One operator per eps(q) solve and none more: the operator at q comes from the search."""
    params, lu_calls = ModelParams(c=c, h=h), []
    eps_calls = _count_eps_calls(monkeypatch, dressing._eps_at_q)
    lu_factor = dressing.lu_factor
    monkeypatch.setattr(dressing, "lu_factor", lambda a: lu_calls.append(1) or lu_factor(a))
    d = dress_all(params)
    assert len(lu_calls) == len(eps_calls)
    assert d.op.grid.q == d.q and type(d.op.grid.q) is float
    fresh = dressing.NystromOperator(QuadGrid.build(96, d.q), params)
    assert fresh.matrix.tobytes() == d.op.matrix.tobytes()
    eps = fresh.solve(lambda lam: lam * lam - params.h)
    assert eps.values.tobytes() == d.eps.values.tobytes()


_NYSTROM_MATRIX = dressing.nystrom_matrix


def _non_finite_matrix(grid, params):
    a = _NYSTROM_MATRIX(grid, params)
    a[1, 2] = np.nan
    return a


def _singular_matrix(grid, params):
    a = _NYSTROM_MATRIX(grid, params)
    a[-1] = 0.0  # a zero row: elimination leaves an exact zero pivot
    return a


BAD_MATRICES = [(_non_finite_matrix, "non-finite"), (_singular_matrix, "[Ss]ingular matrix")]


@pytest.mark.parametrize("matrix, fragment", BAD_MATRICES, ids=["non_finite", "singular"])
def test_bad_nystrom_matrix_raises_singular_system_error(monkeypatch, matrix, fragment):
    monkeypatch.setattr(dressing, "nystrom_matrix", matrix)
    with pytest.raises(SingularSystemError, match=fragment):
        dress_all(P11)


@pytest.mark.parametrize("matrix, fragment", BAD_MATRICES, ids=["non_finite", "singular"])
def test_bad_nystrom_matrix_exits_2(monkeypatch, capsys, matrix, fragment):
    monkeypatch.setattr(dressing, "nystrom_matrix", matrix)
    assert main(["dress"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error (SingularSystemError): ")


def test_replaced_set_starts_with_empty_caches(dressed_11):
    dressed_11.phi(0.1, 0.3)
    amplitude("empty", dressed_11)
    assert dressed_11._phi_cache and dressed_11._edge_amplitudes
    fresh = replace(dressed_11)
    assert fresh._phi_cache == {} and fresh._edge_amplitudes == {}
    fresh.phi(0.1, 0.2718)
    assert complex(0.2718) in fresh._phi_cache and complex(0.2718) not in dressed_11._phi_cache


def test_phi_cache_keeps_the_boundary_solves_and_the_latest_saddle(dressed_11):
    """A set reused across rays holds phi(., +-q) and one phi(., lambda0), not one per ray."""
    d = replace(dressed_11)
    d.phi(0.0, d.q), d.phi(0.0, -d.q)
    boundary = dict(d._phi_cache)
    for ratio in (0.1, 0.2, 0.3, 1.5, 2.0, 3.0):
        report = assemble_expansion(d, ratio)
        assert d._phi_cache.keys() == boundary.keys() | {complex(report.lambda0)}
        assert all(d._phi_cache[key] is sol for key, sol in boundary.items())


@pytest.mark.parametrize("order", [0, 1])
def test_extend_shares_one_kernel_matrix_bit_for_bit(dressed_11, order):
    d = replace(dressed_11)  # its phi cache stays its own
    solutions = (d.Z, d.eps_d1, d.phi_solution(1.7 * d.q))
    contour = default_contour(d).nodes_weights()[0]
    for z in (0.37 * d.q, d.grid.nodes, contour):
        got = d.op.extend(z, order, solutions)
        assert len(got) == len(solutions)
        for value, sol in zip(got, solutions):
            ref = sol(z) if order == 0 else sol.d1(z)
            assert np.asarray(value).dtype == np.asarray(ref).dtype
            assert np.asarray(value).tobytes() == np.asarray(ref).tobytes()


def test_each_extension_builds_one_kernel_matrix(monkeypatch, dressed_11):
    """Solutions carry the set's operator, and each evaluation builds one w_k K(z - lam_k)."""
    d = replace(dressed_11)  # its phi cache stays its own
    nu = ShiftFn(d, (0.4 * d.q, 1.3 * d.q), ())
    phases = [d.phi_solution(z) for z in nu.particles]
    for sol in (d.p_d1, d.eps, d.eps_d1, *phases):
        assert sol.op is d.op
    calls, kernel = [], dressing.NystromOperator.weighted_kernel
    monkeypatch.setattr(dressing.NystromOperator, "weighted_kernel",
                        lambda op, z, order: calls.append(order) or kernel(op, z, order))
    scan = np.linspace(-6.0, 6.0, 4001)
    for evaluate in (lambda: nu(0.3), lambda: nu.d1(0.3), lambda: u_d1(scan, 0.2, d),
                     lambda: d.p_d1(0.3)):
        calls.clear()
        evaluate()
        assert len(calls) == 1


@pytest.mark.parametrize("order, bound", [(0, 1.1), (1, 2.1)])
def test_weighted_kernel_fills_one_buffer(dressed_11, order, bound):
    # the 4001-point saddle scan: the difference array becomes the result, and
    # K' needs one more array of that size for its denominator
    z = np.linspace(-6.0, 6.0, 4001)
    op = dressed_11.op
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kzw = op.weighted_kernel(z, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kzw.shape == (4001, dressed_11.grid.n_nodes)
    assert peak <= bound * kzw.nbytes
