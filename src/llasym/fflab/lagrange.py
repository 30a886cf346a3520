"""Multidimensional Lagrange inversion series.

For holomorphic phi_1..phi_s and f on a polydisc, with |phi_j| < r_j on
the torus |sigma_j| = r_j, the series

    sum over (n_1..n_s)  [sigma^n]  ( prod_r phi_r^{n_r} * f )

converges to f(z) / det_s(delta_jk - d phi_j / d sigma_k)(z), where z is
the unique fixed point z_j = phi_j(z) inside the polydisc.  Mixed Taylor
coefficients are extracted by Cauchy quadrature on circles of radius
r_j/2, so no symbolic differentiation is ever needed.
"""

from __future__ import annotations

import numpy as np

_N_SAMPLE = 48  # points per circle of the torus where |phi_j| < r_j is checked
_FIXED_POINT_TOL = 1e-14  # step size at which the fixed-point iteration has converged


class ContractionError(ValueError):
    """|phi_j| >= r_j somewhere on the torus |sigma_j| = r_j."""


class FixedPointError(RuntimeError):
    """Fixed-point iteration for z_j = phi_j(z) did not converge."""


def _eval_grid(fn, grids):
    val = np.asarray(fn(*grids), dtype=complex)
    return np.broadcast_to(val, np.broadcast_shapes(*(g.shape for g in grids)))


def _contraction_radii(phis, radii) -> tuple:
    """radii (default 1 per variable), checked: |phi_j| < r_j on the torus."""
    radii = (1.0,) * len(phis) if radii is None else radii
    if len(radii) != len(phis):
        raise ValueError("need one radius per variable")
    theta = 2.0 * np.pi * np.arange(_N_SAMPLE) / _N_SAMPLE
    ring = np.exp(1j * theta)
    axes = np.meshgrid(*[r * ring for r in radii], indexing="ij")
    for j, (phi, rj) in enumerate(zip(phis, radii)):
        worst = float(np.max(np.abs(_eval_grid(phi, axes))))
        if worst >= rj:
            raise ContractionError(
                f"|phi_{j + 1}| reaches {worst:.6g} >= r_{j + 1} = {rj} on the torus")
    return radii


def lagrange_series(phis, f, max_order: int, radii=None) -> np.ndarray:
    """Partial sums of the Lagrange series through each total order.

    Returns an array P with P[k] = sum of all terms of total order <= k,
    k = 0..max_order.
    """
    s = len(phis)
    if s not in (1, 2):
        raise ValueError("only one- and two-dimensional series are supported")
    radii = _contraction_radii(phis, radii)

    m = max(64, 4 * max_order + 8)
    theta = 2.0 * np.pi * np.arange(m) / m
    # coefficients are extracted on circles of half the contraction radius
    rho = [0.5 * r for r in radii]
    rings = [rr * np.exp(1j * theta) for rr in rho]
    grids = np.meshgrid(*rings, indexing="ij")

    f_grid = _eval_grid(f, grids)
    phi_grids = [_eval_grid(phi, grids) for phi in phis]
    # ph[j][n] conjugate-phase ring for extracting the n-th power of variable j
    ph = [np.exp(-1j * np.outer(np.arange(max_order + 1), theta))
          / (rho[j] ** np.arange(max_order + 1))[:, None]
          for j in range(s)]

    order_sum = np.zeros(max_order + 1, dtype=complex)
    if s == 1:
        pw = np.ones_like(f_grid)
        for n in range(max_order + 1):
            order_sum[n] += np.sum(f_grid * pw * ph[0][n]) / m
            pw = pw * phi_grids[0]
    else:
        pw1 = np.ones_like(f_grid)
        for n1 in range(max_order + 1):
            pw = pw1
            for n2 in range(max_order + 1 - n1):
                g = f_grid * pw
                c = np.sum(g * ph[0][n1][:, None] * ph[1][n2][None, :]) / m**2
                order_sum[n1 + n2] += c
                pw = pw * phi_grids[1]
            pw1 = pw1 * phi_grids[0]
    return np.cumsum(order_sum)


def lagrange_closed_form(phis, f, radii=None, max_iter: int = 1000) -> complex:
    """f(z)/det(I - Dphi)(z) at the fixed point z_j = phi_j(z)."""
    s = len(phis)
    radii = _contraction_radii(phis, radii)

    z = np.zeros(s, dtype=complex)
    for _ in range(max_iter):
        z, z_old = np.array([complex(phi(*z)) for phi in phis]), z
        if np.max(np.abs(z - z_old)) < _FIXED_POINT_TOL:
            break
    else:
        raise FixedPointError(f"no fixed point after {max_iter} iterations")

    # Jacobian by Cauchy quadrature on small circles around the fixed point
    m = 32
    theta = 2.0 * np.pi * np.arange(m) / m
    delta = 0.1 * min(radii)
    jac = np.zeros((s, s), dtype=complex)
    for k in range(s):
        args = [np.full(m, z[i], dtype=complex) for i in range(s)]
        args[k] = z[k] + delta * np.exp(1j * theta)
        for j in range(s):
            vals = np.broadcast_to(np.asarray(phis[j](*args), dtype=complex), (m,))
            jac[j, k] = np.sum(vals * np.exp(-1j * theta)) / (m * delta)
    det = np.linalg.det(np.eye(s) - jac)
    return complex(f(*z) / det)
