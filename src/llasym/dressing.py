"""Nystrom solver for the second-kind integral equations on [-q, q].

All dressed quantities of the gas solve equations of the single form

    f(lam) - (1/2pi) \\int_{-q}^{q} K(lam - mu) f(mu) dmu = g(lam),

with the kernel K(lam) = 2c/(lam^2 + c^2) and smooth drivings:

    p'  :  g = 1                      (dressed momentum, via its derivative)
    eps :  g = lam^2 - h              (dressed energy)
    eps':  g = 2 lam                  (valid because eps(+-q) = 0)
    Z   :  g = 1                      (dressed charge: Z = p', the same solve)
    phi(.,mu): g = theta(lam-mu)/2pi  (dressed phase, mu a parameter)

Gauss-Legendre nodes mapped to [-q, q] give spectral accuracy for these
analytic kernels.  Each solve also provides the natural Nystrom extension

    f(z) = g(z) + (1/2pi) sum_k w_k K(z - lam_k) f_k,

valid off-grid and for complex z; we conservatively restrict complex
arguments to |Im z| <= c/4 (the kernel's poles sit at +-ic).  Derivatives
of the extension are exact derivatives of this formula.

The Fermi boundary q is fixed by eps(+-q) = 0 (bracketed bisection on
[1e-6, 10 sqrt(h)], polished by secant steps).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .model import (
    ModelParams,
    StripError,
    bare_phase,
    lieb_kernel,
    lieb_kernel_d1,
    lieb_kernel_d2,
)


class SingularSystemError(RuntimeError):
    """The Nystrom matrix was numerically singular (should not happen for c > 0)."""


class BracketFailureError(RuntimeError):
    """eps(q) did not change sign on the search bracket for the Fermi boundary."""


@dataclass(frozen=True)
class QuadGrid:
    """Gauss-Legendre quadrature on [-q, q]: strictly increasing symmetric nodes."""

    n_nodes: int
    nodes: np.ndarray
    weights: np.ndarray
    q: float

    @staticmethod
    def build(n_nodes: int, q: float) -> "QuadGrid":
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        return QuadGrid(n_nodes=n_nodes, nodes=q * x, weights=q * w, q=q)


def _check_strip(z, c: float) -> None:
    z = np.asarray(z)
    if not np.isrealobj(z):
        im = np.max(np.abs(z.imag)) if z.size else 0.0
        if im > 0.25 * c:
            raise StripError(
                f"Nystrom extension restricted to |Im z| <= c/4 = {0.25 * c}; got {im}"
            )


@dataclass
class SecondKindSolution:
    """Node values of f plus the Nystrom extension and its derivatives."""

    grid: QuadGrid
    params: ModelParams
    values: np.ndarray
    driving: Callable
    driving_d1: Callable | None = None
    driving_d2: Callable | None = None

    def _extend(self, z, kernel, driving):
        """driving(z) + (1/2pi) sum_k w_k kernel(z - lam_k) f_k; a missing driving is 0."""
        _check_strip(z, self.params.c)
        z = np.asarray(z)
        kz = kernel(z[..., None] - self.grid.nodes, self.params)
        g = driving(z) if driving is not None else 0.0
        out = g + (kz * self.grid.weights) @ self.values / (2.0 * np.pi)
        return out[()] if out.ndim == 0 else out

    def __call__(self, z):
        return self._extend(z, lieb_kernel, self.driving)

    def d1(self, z):
        return self._extend(z, lieb_kernel_d1, self.driving_d1)

    def d2(self, z):
        return self._extend(z, lieb_kernel_d2, self.driving_d2)


def nystrom_matrix(grid: QuadGrid, params: ModelParams) -> np.ndarray:
    """A = I - K W / 2pi with (K)_ij = K(lam_i - lam_j), W = diag(w_j)."""
    diff = grid.nodes[:, None] - grid.nodes[None, :]
    return np.eye(grid.n_nodes) - lieb_kernel(diff, params) * grid.weights / (2.0 * np.pi)


class NystromOperator:
    """Shared LU factorization of the Nystrom matrix for a (q, n_nodes, params) triple."""

    def __init__(self, grid: QuadGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        self.matrix = nystrom_matrix(grid, params)
        try:
            self._lu = lu_factor(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SingularSystemError(str(exc)) from exc
        if not np.all(np.isfinite(self._lu[0])):  # pragma: no cover - defensive
            raise SingularSystemError("non-finite LU factors")

    def solve(
        self,
        driving: Callable,
        driving_d1: Callable | None = None,
        driving_d2: Callable | None = None,
    ) -> SecondKindSolution:
        rhs = np.asarray(driving(self.grid.nodes))
        if np.iscomplexobj(rhs):
            vals = lu_solve(self._lu, rhs.real) + 1j * lu_solve(self._lu, rhs.imag)
        else:
            vals = lu_solve(self._lu, rhs)
        return SecondKindSolution(
            grid=self.grid,
            params=self.params,
            values=vals,
            driving=driving,
            driving_d1=driving_d1,
            driving_d2=driving_d2,
        )


def _eps_at_q(q: float, params: ModelParams, n_nodes: int) -> float:
    grid = QuadGrid.build(n_nodes, q)
    op = NystromOperator(grid, params)
    eps = op.solve(lambda lam: lam * lam - params.h)
    return float(eps(q))


def find_fermi_boundary(params: ModelParams, tol: float = 1e-10, n_nodes: int = 96) -> float:
    """q > 0 with eps(q) = 0: bisection on [1e-6, 10 sqrt(h)] + secant polish."""
    lo, hi = 1e-6, 10.0 * np.sqrt(params.h)
    flo, fhi = _eps_at_q(lo, params, n_nodes), _eps_at_q(hi, params, n_nodes)
    if flo * fhi > 0:
        raise BracketFailureError(
            f"eps({lo})={flo} and eps({hi})={fhi} do not bracket a root"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = _eps_at_q(mid, params, n_nodes)
        if flo * fmid <= 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-12 * hi:
            break
    # secant polish
    q0, q1 = lo, hi
    f0, f1 = flo, fhi
    for _ in range(30):
        if f1 == f0:
            break
        q2 = q1 - f1 * (q1 - q0) / (f1 - f0)
        if not (0 < q2 < 20.0 * np.sqrt(params.h)):
            break
        q0, f0 = q1, f1
        q1, f1 = q2, _eps_at_q(q2, params, n_nodes)
        if abs(f1) <= tol:
            break
    return q1 if abs(f1) <= abs(f0) else q0


@dataclass
class DressedSet:
    """Fermi boundary, dressed quantities on the grid, and off-grid evaluators.

    p, eps, Z are the dressed momentum/energy/charge; phi(lam, mu) the dressed
    phase; vF = eps'(q)/p'(q); pF = p(q) = pi * D; det_IK = det(I - K/2pi).
    """

    params: ModelParams
    q: float
    grid: QuadGrid
    op: NystromOperator
    p_d1_sol: SecondKindSolution
    eps_sol: SecondKindSolution
    eps_d1_sol: SecondKindSolution
    det_IK: float
    pF: float = field(init=False)
    D: float = field(init=False)
    vF: float = field(init=False)
    _phi_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.pF = float(self.p(self.q))
        self.D = self.pF / np.pi
        self.vF = float(self.eps_d1(self.q) / self.p_d1(self.q))

    # -- dressed momentum ------------------------------------------------
    def p_d1(self, z):
        return self.p_d1_sol(z)

    def p_d2(self, z):
        return self.p_d1_sol.d1(z)

    def p(self, z):
        """p(z) = int_0^z p'(s) ds (p(0) = 0; p odd since p' is even)."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        x, w = np.polynomial.legendre.leggauss(64)
        out = np.empty_like(z_arr)
        for i, zi in enumerate(z_arr):
            s = 0.5 * zi * (x + 1.0)
            out[i] = 0.5 * zi * np.dot(w, self.p_d1(s))
        return out[0] if np.isscalar(z) or np.ndim(z) == 0 else out

    # -- dressed energy ---------------------------------------------------
    def eps(self, z):
        return self.eps_sol(z)

    def eps_d1(self, z):
        return self.eps_d1_sol(z)

    def eps_d2(self, z):
        return self.eps_d1_sol.d1(z)

    # -- dressed charge: Z = p' (the same equation, driving 1) ---------------
    Z = p_d1
    Z_d1 = p_d2

    # -- dressed phase ------------------------------------------------------
    def _phi_sol(self, mu) -> SecondKindSolution:
        key = complex(mu)
        sol = self._phi_cache.get(key)
        if sol is None:
            pr = self.params
            sol = self.op.solve(
                lambda lam: bare_phase(lam - mu, pr) / (2.0 * np.pi),
                driving_d1=lambda lam: lieb_kernel(lam - mu, pr) / (2.0 * np.pi),
                driving_d2=lambda lam: lieb_kernel_d1(lam - mu, pr) / (2.0 * np.pi),
            )
            self._phi_cache[key] = sol
        return sol

    def phi(self, lam, mu):
        """phi(lam, mu): solves phi - K phi/2pi = theta(lam - mu)/2pi in lam."""
        return self._phi_sol(mu)(lam)

    def phi_d1(self, lam, mu):
        """d/dlam phi(lam, mu)."""
        return self._phi_sol(mu).d1(lam)


def dress_all(params: ModelParams, n_nodes: int = 96, tol: float = 1e-10) -> DressedSet:
    """Solve the full dressed set at the Fermi boundary fixed by eps(+-q)=0."""
    q = find_fermi_boundary(params, tol=tol, n_nodes=n_nodes)
    grid = QuadGrid.build(n_nodes, q)
    op = NystromOperator(grid, params)
    one = lambda lam: np.ones_like(np.asarray(lam, dtype=float)) if np.isrealobj(np.asarray(lam)) else np.ones_like(np.asarray(lam))
    p_d1_sol = op.solve(one)
    eps_sol = op.solve(
        lambda lam: lam * lam - params.h,
        driving_d1=lambda lam: 2.0 * lam,
        driving_d2=lambda lam: 2.0 * np.ones_like(np.asarray(lam)),
    )
    # eps' solves the differentiated equation with driving 2 lam; the boundary
    # terms of the integration by parts vanish because eps(+-q) = 0.
    eps_d1_sol = op.solve(
        lambda lam: 2.0 * lam,
        driving_d1=lambda lam: 2.0 * np.ones_like(np.asarray(lam)),
    )
    det_IK = float(np.linalg.det(op.matrix))
    return DressedSet(
        params=params,
        q=q,
        grid=grid,
        op=op,
        p_d1_sol=p_d1_sol,
        eps_sol=eps_sol,
        eps_d1_sol=eps_d1_sol,
        det_IK=det_IK,
    )

