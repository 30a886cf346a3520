"""Multidimensional Lagrange inversion series.

For holomorphic phi_1..phi_s and f on the unit polydisc, with |phi_j| < 1
on the unit torus |sigma_j| = 1, the series

    sum over (n_1..n_s)  [sigma^n]  ( prod_r phi_r^{n_r} * f )

converges to f(z) / det_s(delta_jk - d phi_j / d sigma_k)(z), where z is
the unique fixed point z_j = phi_j(z) inside the polydisc.  Mixed Taylor
coefficients are extracted by Cauchy quadrature on circles of radius 1/2,
so no symbolic differentiation is ever needed.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

_N_SAMPLE = 48  # points per circle of the torus where |phi_j| < 1 is checked
_FIXED_POINT_TOL = 1e-14  # step size at which the fixed-point iteration has converged
_MAX_ITER = 1000  # fixed-point steps allowed before FixedPointError


class ContractionError(ValueError):
    """|phi_j| >= 1 somewhere on the unit torus |sigma_j| = 1."""


class FixedPointError(RuntimeError):
    """Fixed-point iteration for z_j = phi_j(z) did not converge."""


def _eval_grid(fn, grids):
    val = np.asarray(fn(*grids), dtype=complex)
    return np.broadcast_to(val, np.broadcast_shapes(*(g.shape for g in grids)))


def _check_contraction(phis) -> None:
    """|phi_j| < 1 on the unit torus |sigma_j| = 1."""
    ring = np.exp(1j * (2.0 * np.pi * np.arange(_N_SAMPLE) / _N_SAMPLE))
    axes = np.meshgrid(*[ring] * len(phis), indexing="ij")
    for j, phi in enumerate(phis):
        worst = float(np.max(np.abs(_eval_grid(phi, axes))))
        if worst >= 1.0:
            raise ContractionError(f"|phi_{j + 1}| reaches {worst:.6g} >= 1 on the unit torus")


def lagrange_series(phis, f, max_order: int) -> np.ndarray:
    """Partial sums of the Lagrange series through each total order.

    Returns an array P with P[k] = sum of all terms of total order <= k,
    k = 0..max_order.
    """
    s = len(phis)
    if s not in (1, 2):
        raise ValueError("only one- and two-dimensional series are supported")
    _check_contraction(phis)

    m = max(64, 4 * max_order + 8)
    theta = 2.0 * np.pi * np.arange(m) / m
    # coefficients are extracted on circles of radius 1/2
    grids = np.meshgrid(*[0.5 * np.exp(1j * theta)] * s, indexing="ij")
    f_grid = _eval_grid(f, grids)
    phi_grids = [_eval_grid(phi, grids) for phi in phis]
    # powers[j][n] = phi_j^n on the grid; ph[n] the conjugate-phase ring extracting sigma_j^n
    powers = [list(itertools.accumulate([p] * max_order, np.multiply, initial=np.ones_like(f_grid)))
              for p in phi_grids]
    ph = (np.exp(-1j * np.outer(np.arange(max_order + 1), theta))
          / (0.5 ** np.arange(max_order + 1))[:, None])

    order_sum = np.zeros(max_order + 1, dtype=complex)
    for n in itertools.product(range(max_order + 1), repeat=s):
        if sum(n) <= max_order:
            g = functools.reduce(np.multiply, [powers[j][nj] for j, nj in enumerate(n)], f_grid)
            ring = functools.reduce(np.multiply.outer, [ph[nj] for nj in n])
            order_sum[sum(n)] += np.sum(g * ring) / m**s
    return np.cumsum(order_sum)


def lagrange_closed_form(phis, f) -> complex:
    """f(z)/det(I - Dphi)(z) at the fixed point z_j = phi_j(z)."""
    s = len(phis)
    _check_contraction(phis)

    z = np.zeros(s, dtype=complex)
    for _ in range(_MAX_ITER):
        z, z_old = np.array([complex(phi(*z)) for phi in phis]), z
        if np.max(np.abs(z - z_old)) < _FIXED_POINT_TOL:
            break
    else:
        raise FixedPointError(f"no fixed point after {_MAX_ITER} iterations")

    # Jacobian by Cauchy quadrature on small circles around the fixed point
    m = 32
    theta = 2.0 * np.pi * np.arange(m) / m
    delta = 0.1
    jac = np.zeros((s, s), dtype=complex)
    for k in range(s):
        args = [np.full(m, z[i], dtype=complex) for i in range(s)]
        args[k] = z[k] + delta * np.exp(1j * theta)
        for j in range(s):
            vals = np.broadcast_to(np.asarray(phis[j](*args), dtype=complex), (m,))
            jac[j, k] = np.sum(vals * np.exp(-1j * theta)) / (m * delta)
    det = np.linalg.det(np.eye(s) - jac)
    return complex(f(*z) / det)
