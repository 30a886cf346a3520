"""Amplitudes of the explicit terms of the asymptotic expansion.

Each amplitude is a product of four pieces, all driven by the shift function
nu of the corresponding one particle / one hole excitation:

* a boundary functional A+, A- or A0 carrying the local physics of the
  excitation edge (Gamma-function and resonance factors),
* the functional B[nu, p] collecting the Fermi-boundary dressing
  (Barnes G factors, kappa regularisations and an antisymmetric double
  integral),
* the smooth part G_n: Cauchy-transform prefactors times a ratio of two
  Fredholm determinants on a closed contour around [-q, q] over
  det^2(I - K/2pi),
* an explicit pure phase exp{i pi/2 (...)} built from boundary shift values.

Assembled values are moduli squared of properly normalised form factors:
real and positive.  The residual imaginary part is reported, not discarded
silently.

All determinants are evaluated on an axis-aligned ellipse around [-q, q]
(counterclockwise, trapezoid rule in the angle, complex weights
w_k = dw/dtheta * dtheta).  The ellipse must stay inside the analyticity
strip |Im z| <= c/4 and keep a margin from the segment [-q, q].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .dressing import DressedSet, QuadGrid
from .excitations import ShiftFn, special_shift, SPACE_LIKE, TIME_LIKE
from .model import lieb_kernel
from .specfun import barnes_g_log, c0_double_integral, cauchy_segment, log_kappa


class ResonanceError(ValueError):
    """A factor 1/(e^{+-2 i pi nu} - 1) is evaluated too close to its pole."""


@dataclass(frozen=True)
class ContourSpec:
    """Axis-aligned ellipse a cos(theta) + i b sin(theta) around [-q, q]."""

    semi_major: float
    semi_minor: float
    n_nodes: int = 256

    def validate(self, q: float, c: float) -> None:
        if self.semi_major <= q * (1.0 + 1e-3):
            raise ValueError(
                f"semi_major {self.semi_major} too close to q = {q}: the contour must "
                "enclose [-q, q] with margin"
            )
        if not (0 < self.semi_minor < 0.25 * c):
            raise ValueError(
                f"semi_minor {self.semi_minor} outside (0, c/4) = (0, {0.25 * c})"
            )

    def nodes_weights(self):
        """Counterclockwise nodes and complex trapezoid weights dw."""
        theta = 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes
        nodes = self.semi_major * np.cos(theta) + 1j * self.semi_minor * np.sin(theta)
        dw = (-self.semi_major * np.sin(theta) + 1j * self.semi_minor * np.cos(theta))
        weights = dw * (2.0 * np.pi / self.n_nodes)
        return nodes, weights


def default_contour(dressed: DressedSet, n_nodes: int = 256) -> ContourSpec:
    # a tall ellipse keeps the contour away from near-resonances of
    # 1/(e^{+-2 i pi nu(w)} - 1) that sit close to the real axis
    q, c = dressed.q, dressed.params.c
    spec = ContourSpec(1.5 * q, min(0.22 * c, 0.75 * q), n_nodes)
    spec.validate(q, c)
    return spec


# ----------------------------------------------------------------------
# boundary functionals
# ----------------------------------------------------------------------

def _resonance_factor(nu_val: float, sign: int, tol: float = 1e-8) -> complex:
    """1 / (e^{sign * 2 i pi nu} - 1) with a pole guard."""
    den = np.exp(sign * 2j * np.pi * nu_val) - 1.0
    if abs(den) < tol:
        raise ResonanceError(f"e^({sign:+d} 2 i pi nu) - 1 = {den} at nu = {nu_val}")
    return 1.0 / den


def functional_Aplus(nu: ShiftFn, dressed: DressedSet) -> complex:
    """A+[nu, p] = -2q kappa^-2(q) [2q p'(q)]^{-2 nu(q) - 1} Gamma(1+nu(q))/Gamma(-nu(q))
    / (e^{-2 i pi nu(q)} - 1)."""
    q = dressed.q
    nq = nu.at_q
    lk = log_kappa(nu, q, dressed.grid)
    pref = -2.0 * q * np.exp(-2.0 * lk)
    pow_ = (2.0 * q * float(dressed.p_d1(q))) ** (2.0 * nq + 1.0)
    gammas = _gamma(1.0 + nq) / _gamma(-nq)
    return complex(pref / pow_ * gammas * _resonance_factor(nq, -1))


def functional_Aminus(nu: ShiftFn, dressed: DressedSet) -> complex:
    """A-[nu, p] = -2q kappa^-2(-q) Gamma(1-nu(-q))/Gamma(nu(-q))
    [2q p'(-q)]^{2 nu(-q) - 1} / (e^{-2 i pi nu(-q)} - 1)."""
    q = dressed.q
    nmq = nu.at_minus_q
    lk = log_kappa(nu, -q, dressed.grid)
    pref = -2.0 * q * np.exp(-2.0 * lk)
    gammas = _gamma(1.0 - nmq) / _gamma(nmq)
    pow_ = (2.0 * q * float(dressed.p_d1(-q))) ** (2.0 * nmq - 1.0)
    return complex(pref * gammas * pow_ * _resonance_factor(nmq, -1))


def functional_A0(nu: ShiftFn, dressed: DressedSet, lambda0: float, regime: str) -> complex:
    """A0[nu] = e^{-i pi/4} kappa^-2(lambda0) ((lambda0 - q)/(lambda0 + q))^{2 nu(lambda0)}.

    In the time-like regime lambda0 < q and the branch is (lambda0 - q) ->
    |lambda0 - q| e^{i pi}.
    """
    q = dressed.q
    n0 = float(nu(lambda0))
    lk = log_kappa(nu, lambda0, dressed.grid)
    if regime == SPACE_LIKE:
        log_ratio = np.log((lambda0 - q) / (lambda0 + q))
    elif regime == TIME_LIKE:
        log_ratio = np.log(abs(lambda0 - q) / (lambda0 + q)) + 1j * np.pi
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return complex(np.exp(-0.25j * np.pi - 2.0 * lk + 2.0 * n0 * log_ratio))


def functional_B(nu: ShiftFn, dressed: DressedSet) -> complex:
    """B[nu, p], assembled in log space.

    ln B = nu(-q) ln kappa(-q) - nu(q) ln kappa(q)
         + 2 ln G(1 + nu(q)) + 2 ln G(1 - nu(-q))
         + i pi/2 (nu(q)^2 - nu(-q)^2)
         - nu(q)^2 ln(2q p'(q)) - nu(-q)^2 ln(2q p'(-q))
         - (nu(q) - nu(-q)) ln(2 pi)
         + 1/2 int int (nu'(l) nu(m) - nu'(m) nu(l)) / (l - m) dl dm.
    """
    q = dressed.q
    nq, nmq = nu.at_q, nu.at_minus_q
    log_b = nmq * log_kappa(nu, -q, dressed.grid) - nq * log_kappa(nu, q, dressed.grid)
    log_b += 2.0 * barnes_g_log(1.0 + nq) + 2.0 * barnes_g_log(1.0 - nmq)
    log_b += 0.5j * np.pi * (nq**2 - nmq**2)
    log_b -= nq**2 * np.log(2.0 * q * float(dressed.p_d1(q)))
    log_b -= nmq**2 * np.log(2.0 * q * float(dressed.p_d1(-q)))
    log_b -= (nq - nmq) * np.log(2.0 * np.pi)
    log_b += 0.5 * _antisymmetric_double_integral(nu, dressed)
    return complex(np.exp(log_b))


def _antisymmetric_double_integral(nu: ShiftFn, dressed: DressedSet) -> float:
    """int int (nu'(l) nu(m) - nu'(m) nu(l)) / (l - m) dl dm over [-q, q]^2.

    Two interlacing Gauss-Legendre grids (n and n+1 nodes) keep the smooth
    diagonal limit off the quadrature lattice.
    """
    g1 = dressed.grid
    g2 = QuadGrid.build(g1.n_nodes + 1, g1.q)
    v1, d1 = np.asarray(nu(g1.nodes), float), np.asarray(nu.d1(g1.nodes), float)
    v2, d2 = np.asarray(nu(g2.nodes), float), np.asarray(nu.d1(g2.nodes), float)
    numer = d1[:, None] * v2[None, :] - d2[None, :] * v1[:, None]
    denom = g1.nodes[:, None] - g2.nodes[None, :]
    return float(g1.weights @ (numer / denom) @ g2.weights)


# ----------------------------------------------------------------------
# smooth part
# ----------------------------------------------------------------------

def fredholm_det_contour(prefactor: np.ndarray, kernel_matrix: np.ndarray, weights: np.ndarray) -> complex:
    """det(I + V) with V(w_j, w_k) = prefactor(w_j) kernel(w_j, w_k), measure dw."""
    n = len(weights)
    m = np.eye(n, dtype=complex) + prefactor[:, None] * kernel_matrix * weights[None, :]
    return complex(np.linalg.det(m))


def smooth_part_G(
    nu: ShiftFn,
    dressed: DressedSet,
    particles: tuple,
    holes: tuple,
    contour: ContourSpec | None = None,
    resonance_tol: float = 1e-6,
) -> complex:
    """Smooth part G_n for n = len(particles) = len(holes) in {0, 1}.

    G_n = e^{-2 i pi sum_e C[nu](q + e ic)}
          prod_{a, e} (mu_ha - q + e ic)/(mu_pa - q + e ic)
                      e^{2 i pi (C[nu](mu_ha + e ic) - C[nu](mu_pa + e ic))}
          e^{C0[nu]}
          prod_{a,b} (mu_pa - mu_hb - ic)(mu_ha - mu_pb - ic)
                   / [(mu_pa - mu_pb - ic)(mu_ha - mu_hb - ic)]
          det(I + V) det(I + Vbar) / det^2(I - K/2pi),

    with kernels (measure dw on the contour)

    V(w,w')   = -1/2pi (w-q)/(w-q+ic) prod_a (w-mu_pa)(w-mu_ha+ic)/[(w-mu_ha)(w-mu_pa+ic)]
                e^{C[2 i pi nu](w) - C[2 i pi nu](w+ic)} K(w-w') / (e^{-2 i pi nu(w)} - 1),
    Vbar(w,w')= +1/2pi (w-q)/(w-q-ic) prod_a (w-mu_pa)(w-mu_ha-ic)/[(w-mu_ha)(w-mu_pa-ic)]
                e^{C[2 i pi nu](w) - C[2 i pi nu](w-ic)} K(w-w') / (e^{+2 i pi nu(w)} - 1).

    Holes must lie inside the contour; particles need not be enclosed.
    """
    n = len(particles)
    if len(holes) != n:
        raise ValueError("particles and holes must pair up")
    if n not in (0, 1):
        raise ValueError(f"smooth part implemented for n in {{0, 1}}, got n = {n}")
    params = dressed.params
    q, c = dressed.q, params.c
    if contour is None:
        contour = default_contour(dressed)
    contour.validate(q, c)
    for h in holes:
        if abs(h) > q + 1e-12:
            raise ValueError(f"hole {h} outside [-q, q]")

    grid = dressed.grid
    nu_grid = np.asarray(nu(grid.nodes), dtype=float)

    # prefactors built from Cauchy transforms at q + e ic, mu + e ic
    def c_transform(z):
        return cauchy_segment(nu_grid, grid, z) / (2j * np.pi)

    log_pref = -2j * np.pi * np.sum(c_transform(np.array([q + 1j * c, q - 1j * c])))
    for mp, mh in zip(particles, holes):
        for eps in (+1.0, -1.0):
            log_pref += np.log((mh - q + eps * 1j * c) / (mp - q + eps * 1j * c))
            log_pref += 2j * np.pi * (
                c_transform(mh + eps * 1j * c) - c_transform(mp + eps * 1j * c)
            )[0]
    log_pref += c0_double_integral(nu, grid, c)
    for a in range(n):
        for b in range(n):
            log_pref += np.log(
                (particles[a] - holes[b] - 1j * c)
                * (holes[a] - particles[b] - 1j * c)
                / ((particles[a] - particles[b] - 1j * c) * (holes[a] - holes[b] - 1j * c))
            )

    # Fredholm determinants on the contour
    omega, w = contour.nodes_weights()
    nu_omega = np.asarray(nu(omega), dtype=complex)
    c2_omega = 2j * np.pi * c_transform(omega)
    c2_up = 2j * np.pi * c_transform(omega + 1j * c)
    c2_dn = 2j * np.pi * c_transform(omega - 1j * c)

    res_m = np.exp(-2j * np.pi * nu_omega) - 1.0
    res_p = np.exp(2j * np.pi * nu_omega) - 1.0
    if np.min(np.abs(res_m)) < resonance_tol or np.min(np.abs(res_p)) < resonance_tol:
        raise ResonanceError("e^{+-2 i pi nu(w)} - 1 vanishes on the contour")

    kmat = lieb_kernel(omega[:, None] - omega[None, :], params)
    dets = []
    for eps, c2_shift, res in ((+1.0, c2_up, res_m), (-1.0, c2_dn, res_p)):  # V, then Vbar
        ic = eps * 1j * c
        rat = np.ones_like(omega)
        for mp, mh in zip(particles, holes):
            rat = rat * (omega - mp) * (omega - mh + ic) / ((omega - mh) * (omega - mp + ic))
        pre = (-eps / (2.0 * np.pi)) * (omega - q) / (omega - q + ic) * rat \
            * np.exp(c2_omega - c2_shift) / res
        dets.append(fredholm_det_contour(pre, kmat, w))
    det_v, det_vbar = dets

    return complex(np.exp(log_pref) * det_v * det_vbar / dressed.det_IK**2)


# ----------------------------------------------------------------------
# assembled amplitudes
# ----------------------------------------------------------------------

@dataclass
class AmplitudeResult:
    """Assembled modulus-squared amplitude.

    value          : real part of the assembled product (positive for the
                     edge amplitudes),
    phase_residual : |imaginary part| (must be tiny relative to value),
    raw            : the full complex product.
    """

    kind: str
    value: float
    phase_residual: float
    raw: complex


def amplitude(
    kind: str,
    dressed: DressedSet,
    lambda0: float | None = None,
    regime: str | None = None,
    contour: ContourSpec | None = None,
) -> AmplitudeResult:
    """Amplitude of one explicit term: kind in {"empty", "minus_q", "saddle"}.

    empty   : A+ B G_0 exp{i pi/2 (nu(-q)^2 - (nu(q)+1)^2)}
    minus_q : A- B G_1(-q; q) exp{i pi/2 ((nu(-q)-1)^2 - nu(q)^2)}
    saddle  : e^{i pi/4} / (2 pi p'(lambda0)) A0 B G_1(lambda0; q)
              exp{i pi/2 (nu(-q)^2 - nu(q)^2)}
    """
    q = dressed.q
    if kind == "empty":
        nu = special_shift("empty", dressed)
        a_fac = functional_Aplus(nu, dressed)
        g_fac = smooth_part_G(nu, dressed, (), (), contour)
        phase = 0.5j * np.pi * (nu.at_minus_q**2 - (nu.at_q + 1.0) ** 2)
        pre = 1.0
    elif kind == "minus_q":
        nu = special_shift("minus_q", dressed)
        a_fac = functional_Aminus(nu, dressed)
        g_fac = smooth_part_G(nu, dressed, (-q,), (q,), contour)
        phase = 0.5j * np.pi * ((nu.at_minus_q - 1.0) ** 2 - nu.at_q**2)
        pre = 1.0
    elif kind == "saddle":
        if lambda0 is None or regime is None:
            raise ValueError("saddle amplitude needs lambda0 and regime")
        nu = special_shift("saddle", dressed, lambda0)
        a_fac = functional_A0(nu, dressed, lambda0, regime)
        g_fac = smooth_part_G(nu, dressed, (float(lambda0),), (q,), contour)
        phase = 0.5j * np.pi * (nu.at_minus_q**2 - nu.at_q**2)
        pre = np.exp(0.25j * np.pi) / (2.0 * np.pi * float(dressed.p_d1(lambda0)))
    else:
        raise ValueError(f"unknown amplitude kind {kind!r}")

    b_fac = functional_B(nu, dressed)
    raw = complex(pre * a_fac * b_fac * g_fac * np.exp(phase))
    return AmplitudeResult(
        kind=kind, value=float(raw.real), phase_residual=float(abs(raw.imag)), raw=raw
    )
