"""Lagrange inversion series against fixed-point closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llasym.fflab import (
    ContractionError,
    FixedPointError,
    lagrange_closed_form,
    lagrange_series,
)


def test_constant_map_exact_at_order_one():
    # phi = 0.4: the only nonzero coefficients are n = 0, 1 and the series
    # terminates; f(z)/det = f(0.4) exactly since the Jacobian vanishes
    phis = [lambda a: 0.4 + 0.0 * a]
    f = lambda a: 1.0 + 2.0 * a
    sums = lagrange_series(phis, f, max_order=4)
    closed = lagrange_closed_form(phis, f)
    assert closed == pytest.approx(1.8, rel=1e-13)
    assert sums[1] == pytest.approx(closed, rel=1e-13)
    assert sums[4] == pytest.approx(closed, rel=1e-13)


def test_geometric_map_order_increments():
    # phi = beta*sigma, f = exp: the order-n term is [s^n] beta^n s^n e^s
    # = beta^n exactly, and the fixed point is z = 0 with det = 1 - beta,
    # so the series sums to 1/(1-beta) with order-k error beta^(k+1)/(1-beta)
    beta = 0.3
    phis = [lambda a: beta * a]
    sums = lagrange_series(phis, np.exp, max_order=8)
    incr = np.diff(sums)
    for n, c in enumerate(incr, start=1):
        assert c == pytest.approx(beta**n, rel=1e-12), n
    closed = lagrange_closed_form(phis, np.exp)
    assert closed == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)
    err = abs(sums[8] - closed)
    predicted = beta**9 / (1.0 - beta)
    assert err == pytest.approx(predicted, rel=0.1)
    # the slower member needs ~25 orders for 1e-8; the fast one gets there at 8
    fast = lagrange_series([lambda a: 0.1 * a], np.exp, max_order=8)
    fast_closed = lagrange_closed_form([lambda a: 0.1 * a], np.exp)
    assert abs(fast[8] - fast_closed) / abs(fast_closed) < 1e-8


def test_coupled_pair_hand_fixed_point():
    phis = [lambda a, b: 0.1 + 0.05 * b, lambda a, b: 0.2 + 0.05 * a]
    f = lambda a, b: np.exp(0.5 * (a + b))
    # z1 = 0.1 + 0.05 z2, z2 = 0.2 + 0.05 z1  =>  z1 = 0.11/0.9975
    z1 = 0.11 / 0.9975
    z2 = 0.2 + 0.05 * z1
    det = 1.0 - 0.05 * 0.05
    hand = np.exp(0.5 * (z1 + z2)) / det
    closed = lagrange_closed_form(phis, f)
    assert closed == pytest.approx(hand, rel=1e-12)
    sums = lagrange_series(phis, f, max_order=8)
    assert abs(sums[8] - closed) / abs(closed) < 1e-8


@given(beta=st.floats(0.05, 0.45), c0=st.floats(-0.3, 0.3))
@settings(max_examples=10, deadline=None)
def test_series_converges_for_contractive_maps(beta, c0):
    phis = [lambda a: c0 * 0.5 + beta * np.sin(a)]
    f = lambda a: 1.0 / (2.0 - a)
    sums = lagrange_series(phis, f, max_order=10)
    closed = lagrange_closed_form(phis, f)
    err2 = abs(sums[2] - closed)
    err10 = abs(sums[10] - closed)
    assert err10 < 1e-2
    assert err10 <= err2 + 1e-9


def test_contraction_guard():
    with pytest.raises(ContractionError):
        lagrange_series([lambda a: 1.5 * a], np.exp, max_order=4)
    with pytest.raises(ContractionError):
        lagrange_closed_form([lambda a: 0.2 + 1.0 * a], np.exp)


def test_fixed_point_iteration_guard():
    # contracting on the torus, but its steps shrink by 0.99999 each: after
    # 1000 of them they are still about 5e-6, far above the 1e-14 tolerance
    with pytest.raises(FixedPointError):
        lagrange_closed_form([lambda a: 5e-6 + 0.99999 * a], np.exp)


def test_dimension_guard():
    trio = [lambda a, b, c: 0.1, lambda a, b, c: 0.1, lambda a, b, c: 0.1]
    with pytest.raises(ValueError):
        lagrange_series(trio, lambda a, b, c: 1.0, max_order=2)
