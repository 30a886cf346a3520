"""Nystrom solver for the second-kind integral equations on [-q, q].

All dressed quantities of the gas solve equations of the single form

    f(lam) - (1/2pi) \\int_{-q}^{q} K(lam - mu) f(mu) dmu = g(lam),

with the kernel K(lam) = 2c/(lam^2 + c^2) and smooth drivings:

    p'  :  g = 1                      (dressed momentum: p integrates its extension)
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

The matrix w_k K^(order)(z - lam_k) of an extension depends on the grid
only, so the `NystromOperator` owns it, and every solution carries its
operator: `weighted_kernel` fills the difference array z - lam_k with the
kernel in place (one buffer of the result's size; K' needs one more), and
`op.extend(z, order, solutions)` extends several solutions from one matrix
(p' and eps' for u' and u'', Z and the phi(., mu) of a shift function).  A
solution's own call is `op.extend` of that solution alone, so sharing never
changes a bit.

Every Gauss-Legendre rule comes from `legendre_rule`, built once per n and
scaled by q.  The Fermi boundary q is fixed by eps(+-q) = 0: eps(sqrt(h)) < 0
for c > 0, the upper end of the bracket doubles until eps changes sign, and
safeguarded Newton with the slope eps'(q) closes it: 4 to 10 solves in all.
The dressed set keeps the eps solve and the operator of the search's last step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import (
    ModelParams,
    StripError,
    bare_phase,
    lieb_kernel,
    lieb_kernel_d1,
    lieb_kernel_d2,
)


N_NODES = 96  # Gauss-Legendre nodes of a dressed set
STRIP = 0.25  # complex extension points and contours keep |Im z| <= STRIP * c
_POLE_TOL = 1e-10  # |eps(q)|/h above this at the closed bracket is a pole, not a root


class SingularSystemError(RuntimeError):
    """The Nystrom matrix was numerically singular (should not happen for c > 0)."""


class BracketFailureError(RuntimeError):
    """eps(q) has no root on the search bracket: no sign change, or one across a pole."""


@lru_cache(maxsize=None)
def legendre_rule(n_nodes: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadGrid:
    """Gauss-Legendre quadrature on [-q, q]: strictly increasing symmetric nodes."""

    n_nodes: int
    nodes: np.ndarray
    weights: np.ndarray
    q: float

    @staticmethod
    def build(n_nodes: int, q: float) -> "QuadGrid":
        x, w = legendre_rule(n_nodes)
        return QuadGrid(n_nodes=n_nodes, nodes=q * x, weights=q * w, q=q)


def _check_strip(z, c: float) -> None:
    z = np.asarray(z)
    if not np.isrealobj(z):
        im = np.max(np.abs(z.imag)) if z.size else 0.0
        if im > STRIP * c:
            raise StripError(
                f"Nystrom extension restricted to |Im z| <= c/4 = {STRIP * c}; got {im}"
            )


def _ones(lam):
    """1 in the shape of lam: real for real lam, complex for complex lam."""
    return np.ones(np.shape(lam), np.result_type(lam, 1.0))


@dataclass
class SecondKindSolution:
    """Node values of f on its operator's grid; calls give the Nystrom extension.

    `drivings` holds g, g', g'' in that order; derivatives past its end are 0.
    """

    op: NystromOperator
    values: np.ndarray
    drivings: tuple

    def __call__(self, z):
        return self.op.extend(z, 0, (self,))[0]

    def d1(self, z):
        return self.op.extend(z, 1, (self,))[0]

    def d2(self, z):
        return self.op.extend(z, 2, (self,))[0]


def nystrom_matrix(grid: QuadGrid, params: ModelParams) -> np.ndarray:
    """A = I - K W / 2pi with (K)_ij = K(lam_i - lam_j), W = diag(w_j)."""
    kw = grid.nodes[:, None] - grid.nodes[None, :]
    lieb_kernel(kw, params, out=kw)
    kw *= grid.weights
    kw /= 2.0 * np.pi
    return np.eye(grid.n_nodes) - kw


def lu_factor(matrix: np.ndarray) -> np.ndarray:
    """The one preparation step of a `NystromOperator`: a finite matrix, returned as is.

    LAPACK gesv (`np.linalg.solve`) factorises the matrix once per solve, so
    no factors are kept; this step rejects a non-finite matrix, which gesv
    would turn into NaN solutions without an error.  It keeps its name and
    runs once per operator, the count the per-layer `dressing.lu_count` reads.
    """
    if not np.all(np.isfinite(matrix)):
        raise SingularSystemError("non-finite Nystrom matrix")
    return matrix


class NystromOperator:
    """The Nystrom matrix for a (q, n_nodes, params) triple, shared by its
    solves and by every extension of their solutions."""

    def __init__(self, grid: QuadGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        self.matrix = lu_factor(nystrom_matrix(grid, params))

    def solve(self, *drivings: Callable) -> SecondKindSolution:
        """The solution with driving g = drivings[0]; the rest are g', g'', as far as known."""
        # one right-hand side per call: a multi-column solve rounds differently
        try:
            vals = np.linalg.solve(self.matrix, np.asarray(drivings[0](self.grid.nodes)))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        return SecondKindSolution(self, vals, drivings)

    def weighted_kernel(self, z, order: int) -> np.ndarray:
        """w_k K^(order)(z - lam_k): the matrix the order-th derivative's extension applies."""
        _check_strip(z, self.params.c)
        kernel = (lieb_kernel, lieb_kernel_d1, lieb_kernel_d2)[order]
        diff = np.asarray(z)[..., None] - self.grid.nodes
        kernel(diff, self.params, out=diff)
        diff *= self.grid.weights
        return diff

    def extend(self, z, order: int, solutions, kzw=None) -> list:
        """[s^(order)(z) for s in solutions], each
        g^(order)(z) + (1/2pi) sum_k w_k K^(order)(z - lam_k) s_k, from one kernel
        matrix: kzw if the caller holds `weighted_kernel(z, order)`, else built here."""
        if kzw is None:
            kzw = self.weighted_kernel(z, order)
        z = np.asarray(z)
        out = []
        for s in solutions:
            g = s.drivings[order](z) if order < len(s.drivings) else 0.0
            f = g + kzw @ s.values / (2.0 * np.pi)
            out.append(f[()] if f.ndim == 0 else f)
        return out


def safeguarded_newton(fn: Callable, lo, hi, x, fx: tuple, f_tol: float) -> tuple:
    """(x, fn(x)) at a root of f in the bracket (lo, hi), f(lo) < 0 < f(hi).

    fn(x) is (f(x), f'(x), ...) and fx is fn at the start x.  Each iterate
    replaces the end whose f has its sign.  Steps take the slope f' until an
    iterate fails to halve |f|, then the secant slope of the last two iterates;
    a step out of the bracket bisects it.  Stops at |f| < f_tol, at a step
    within one ulp of x or a bracket within 4, or after 100 iterates.
    """
    secant, x_prev, f_prev = False, None, None
    for _ in range(100):
        f = fx[0]
        if abs(f) < f_tol:
            break
        lo, hi = (x, hi) if f < 0 else (lo, x)
        secant = secant or (f_prev is not None and not abs(f) <= 0.5 * abs(f_prev))
        slope = (f - f_prev) / (x - x_prev) if secant else fx[1]
        step = f / slope if slope else hi - lo  # no slope: a step out of the bracket
        ulp = np.spacing(abs(x))
        if abs(step) <= ulp or hi - lo <= 4.0 * ulp:
            break
        x_prev, f_prev, x = x, f, (x - step if lo < x - step < hi else 0.5 * (lo + hi))
        fx = fn(x)
    return x, fx


def _eps_at_q(q: float, params: ModelParams, n_nodes: int) -> tuple:
    """(eps(q), eps'(q), eps): the eps solve on the grid [-q, q], its operator eps.op."""
    op = NystromOperator(QuadGrid.build(n_nodes, float(q)), params)
    eps = op.solve(lambda lam: lam * lam - params.h, lambda lam: 2.0 * lam,
                   lambda lam: 2.0 * _ones(lam))
    return float(eps(q)), float(eps.d1(q)), eps


def find_fermi_boundary(params: ModelParams, n_nodes: int) -> SecondKindSolution:
    """The eps solve on [-q, q] with eps(q) = 0, the one the search made at q;
    its operator eps.op is the dressed set's.

    eps(sqrt(h)) < 0 for c > 0; the upper end doubles (at most 12 times) until
    eps changes sign, then `safeguarded_newton` from the lower end, with slope
    eps'(q) from each eps solve, closes it; |eps(q)| > _POLE_TOL * h there is a
    pole of the discretised eps (too few nodes for c).
    """
    lo = hi = float(np.sqrt(params.h))
    at_lo = _eps_at_q(lo, params, n_nodes)
    for _ in range(12):
        hi *= 2.0
        at_hi = _eps_at_q(hi, params, n_nodes)
        if at_lo[0] * at_hi[0] <= 0:
            break
        lo, at_lo = hi, at_hi
    else:
        raise BracketFailureError(f"eps(q) does not change sign on [sqrt(h), {hi}]")
    q, (eps_q, _, eps) = safeguarded_newton(
        lambda q: _eps_at_q(q, params, n_nodes), lo, hi, lo, at_lo, 0.0)
    if not abs(eps_q) <= _POLE_TOL * params.h:
        raise BracketFailureError(f"eps changes sign across a pole at q = {q} (eps = {eps_q})")
    return eps


@dataclass
class DressedSet:
    """Fermi boundary, dressed quantities on the grid, and off-grid evaluators.

    p_d1, eps and eps_d1 are the solutions of p', eps and eps', each callable
    with `.d1` (and `.d2`) for its derivatives; Z = p_d1 is the dressed charge,
    p(z) = int_0^z p_d1 the dressed momentum and phi(lam, mu) the dressed phase.
    vF = eps'(q)/p'(q); pF = p(q) = pi * D; det_IK = det(I - K/2pi).
    """

    params: ModelParams
    q: float
    grid: QuadGrid
    op: NystromOperator
    p_d1: SecondKindSolution
    eps: SecondKindSolution
    eps_d1: SecondKindSolution
    det_IK: float
    pF: float = field(init=False)
    D: float = field(init=False)
    vF: float = field(init=False)
    # per-set memos, empty in every new set (`dataclasses.replace` included):
    # phi solves by mu (those at +-q, and the latest other mu: the current
    # ray's lambda0), and the ray-independent amplitudes that
    # `amplitudes.amplitude` keeps by (kind, contour)
    _phi_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _edge_amplitudes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pF = float(self.p(self.q))
        self.D = self.pF / np.pi
        self.vF = float(self.eps_d1(self.q) / self.p_d1(self.q))

    @property
    def Z(self) -> SecondKindSolution:
        """The dressed charge: Z = p', the same equation (driving 1)."""
        return self.p_d1

    def p(self, z):
        """p(z) = z + (1/2pi) sum_k w_k theta(z - lam_k) p'_k, for real z only: the
        exact integral from 0 of the p' extension (theta odd and p' even cancel the
        theta(-lam_k) terms), summed elementwise so an array keeps its elements' bits.
        """
        if np.iscomplexobj(z):
            raise ValueError(f"p(z) needs real z, got {z}")
        z = np.asarray(z, dtype=float)
        theta = bare_phase(z[..., None] - self.grid.nodes, self.params)
        out = z + np.sum(theta * (self.grid.weights * self.p_d1.values), axis=-1) / (2.0 * np.pi)
        return out[()] if out.ndim == 0 else out

    def phi_solution(self, mu) -> SecondKindSolution:
        """The dressed phase phi(., mu): driving theta(lam - mu)/2pi in lam."""
        key = complex(mu)
        sol = self._phi_cache.get(key)
        if sol is None:
            pr = self.params
            sol = self.op.solve(
                lambda lam: bare_phase(lam - mu, pr) / (2.0 * np.pi),
                lambda lam: lieb_kernel(lam - mu, pr) / (2.0 * np.pi),
                lambda lam: lieb_kernel_d1(lam - mu, pr) / (2.0 * np.pi),
            )
            edges = (self.q, -self.q)
            if key not in edges:  # the next lambda0 replaces the last one
                self._phi_cache = {k: v for k, v in self._phi_cache.items() if k in edges}
            self._phi_cache[key] = sol
        return sol

    def phi(self, lam, mu):
        """phi(lam, mu): solves phi - K phi/2pi = theta(lam - mu)/2pi in lam."""
        return self.phi_solution(mu)(lam)


def dress_all(params: ModelParams, n_nodes: int = N_NODES) -> DressedSet:
    """Solve the full dressed set at the Fermi boundary fixed by eps(+-q)=0."""
    eps = find_fermi_boundary(params, n_nodes)
    op = eps.op
    p_d1 = op.solve(_ones)
    # eps' solves the differentiated equation with driving 2 lam; the boundary
    # terms of the integration by parts vanish because eps(+-q) = 0.
    eps_d1 = op.solve(lambda lam: 2.0 * lam, lambda lam: 2.0 * _ones(lam))
    det_IK = float(np.linalg.det(op.matrix))
    return DressedSet(params, op.grid.q, op.grid, op, p_d1, eps, eps_d1, det_IK)
