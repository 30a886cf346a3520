"""Closed-form bare quantities: phase, kernel, derivatives, dispersion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llasym.model import (
    ModelParams,
    StripError,
    bare_phase,
    lieb_kernel,
    lieb_kernel_d1,
    lieb_kernel_d2,
)

P1 = ModelParams(c=1.0, h=1.0)


def bare_u0(lam, ratio_t_over_x: float, params: ModelParams):
    """u0(lam) = p0(lam) - (t/x) * eps0(lam) = lam - (t/x)(lam^2 - h)."""
    return lam - ratio_t_over_x * (lam * lam - params.h)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(c=-1.0, h=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=0.0, h=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=1.0, h=0.0)


def test_phase_arctan_form():
    lam = np.linspace(-8.0, 8.0, 41)
    for c in (0.5, 1.0, 7.0):
        p = ModelParams(c=c, h=1.0)
        assert np.allclose(bare_phase(lam, p), 2.0 * np.arctan(lam / c), atol=1e-15)


def test_phase_odd_and_log_form_agrees_on_real_line():
    lam = np.linspace(0.1, 5.0, 17)
    assert np.allclose(bare_phase(-lam, P1), -bare_phase(lam, P1), atol=1e-15)
    # the complex-log form must reduce to the arctan form as Im -> 0
    z = lam + 1e-14j
    assert np.allclose(bare_phase(z, P1).real, bare_phase(lam, P1), atol=1e-12)


def test_phase_strip_guard():
    with pytest.raises(StripError):
        bare_phase(0.3 + 1.5j, P1)


@given(
    lam=st.floats(-20.0, 20.0),
    c=st.floats(0.2, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_kernel_is_phase_derivative(lam, c):
    p = ModelParams(c=c, h=1.0)
    eps = 1e-6 * max(1.0, abs(lam))
    fd = (bare_phase(lam + eps, p) - bare_phase(lam - eps, p)) / (2.0 * eps)
    assert lieb_kernel(lam, p) == pytest.approx(fd, rel=1e-7, abs=1e-9)


@given(lam=st.floats(-10.0, 10.0), c=st.floats(0.3, 10.0))
@settings(max_examples=60, deadline=None)
def test_kernel_derivatives_consistent(lam, c):
    p = ModelParams(c=c, h=1.0)
    eps = 1e-6 * max(1.0, abs(lam))
    fd1 = (lieb_kernel(lam + eps, p) - lieb_kernel(lam - eps, p)) / (2.0 * eps)
    fd2 = (lieb_kernel_d1(lam + eps, p) - lieb_kernel_d1(lam - eps, p)) / (2.0 * eps)
    assert lieb_kernel_d1(lam, p) == pytest.approx(fd1, rel=2e-6, abs=1e-8)
    assert lieb_kernel_d2(lam, p) == pytest.approx(fd2, rel=2e-6, abs=1e-8)


def test_kernel_values_and_normalization():
    # K(0) = 2/c; int_R K = 2 pi for every c
    for c in (0.5, 2.0, 11.0):
        p = ModelParams(c=c, h=1.0)
        assert lieb_kernel(0.0, p) == pytest.approx(2.0 / c, rel=1e-15)
        x, w = np.polynomial.legendre.leggauss(400)
        half = 500.0 * c
        nodes = 0.5 * half * (x + 1.0)  # [0, half], kernel even
        tail = 2.0 * (np.pi / 2.0 - np.arctan(half / c))  # exact remainder of theta'
        val = 2.0 * 0.5 * half * np.dot(w, lieb_kernel(nodes, p)) + 2.0 * tail
        assert val == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_bare_dispersion():
    lam = np.linspace(-3.0, 3.0, 13)
    p = ModelParams(c=2.0, h=4.0)
    r = 0.35
    assert np.allclose(bare_u0(lam, r, p), lam - r * (lam**2 - 4.0))
    # eps0 = lam^2 - h vanishes at sqrt(h), where u0 = p0 = lam
    assert bare_u0(2.0, r, p) == pytest.approx(2.0, abs=1e-15)
    eps = 1e-7
    fd = (bare_u0(lam + eps, r, p) - bare_u0(lam - eps, r, p)) / (2.0 * eps)
    assert np.allclose(1.0 - 2.0 * r * lam, fd, atol=1e-6)
    # bare saddle: u0' vanishes at lam = x/(2t)
    lam0 = 1.0 / (2.0 * r)
    fd0 = (bare_u0(lam0 + eps, r, p) - bare_u0(lam0 - eps, r, p)) / (2.0 * eps)
    assert fd0 == pytest.approx(0.0, abs=1e-6)


_THETA = 2.0 * np.pi * np.arange(64) / 64
_ELLIPSE = 1.5 * np.cos(_THETA) + 0.2j * np.sin(_THETA)  # a contour around [-1, 1]


def _formulas(lam, c):
    """K, K' and K'' written as plain numpy expressions, the reference bits."""
    den = lam * lam + c * c
    return (2.0 * c / den, -4.0 * c * lam / (den * den),
            4.0 * c * (3.0 * lam * lam - c * c) / (den * den * den))


@pytest.mark.parametrize("c", [0.7, 1, 16.0])
@pytest.mark.parametrize("lam", [
    np.array([-3.5, -0.0, 0.0, 1e-300, 0.25, 7.0, 3e50]),
    np.linspace(-5.0, 5.0, 24).reshape(4, 6),
    np.array([0.3 + 0.1j, -2.0 - 0.05j, 0.0 - 0.0j, -0.0 + 0.2j, 4.0 + 0.0j]),
    np.subtract.outer(_ELLIPSE, _ELLIPSE),
    np.arange(-3, 4),
    np.asarray(-0.0), np.asarray(0.4 - 0.1j), 0.0, -1.25, 2 - 0.3j,
], ids=["real", "real2d", "complex", "contour", "int", "0d-neg-zero", "0d-complex", "float",
        "float-neg", "complex-scalar"])
def test_kernels_equal_their_formulas_bit_for_bit(lam, c):
    p = ModelParams(c=c, h=1.0)
    before = np.array(lam, copy=True)
    for kernel, ref in zip((lieb_kernel, lieb_kernel_d1, lieb_kernel_d2), _formulas(np.asarray(lam), c)):
        got = kernel(lam, p)
        assert type(got) is type(ref)  # 0-d inputs give numpy scalars
        assert np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()  # -0.0 counts
        assert np.asarray(lam).tobytes() == before.tobytes()  # the input is left alone
        if np.ndim(lam) and np.asarray(lam).dtype.kind in "fc":  # overwritten on request
            buf = np.array(lam, copy=True)
            assert kernel(buf, p, out=buf) is buf
            assert buf.tobytes() == np.asarray(ref).tobytes()
