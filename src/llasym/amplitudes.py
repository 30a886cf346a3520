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
* an explicit pure phase exp{i pi/2 (e- - e+)} from the term's exponent pair
  (e+, e-), the squared boundary shift values of its ledger pair.

Assembled values are moduli squared of properly normalised form factors:
real and positive.  The residual imaginary part is reported, not discarded
silently.

All determinants are evaluated on an axis-aligned ellipse around [-q, q]
(counterclockwise, trapezoid rule in the angle, complex weights
w_k = dw/dtheta * dtheta).  The ellipse must stay inside the analyticity
strip |Im z| <= c/4 and keep a margin from the segment [-q, q].

Every matrix an amplitude takes from its dressed set and contour alone lives on
a `Contour`, built on first use: the nodes and weights, the kernel
K(w_j - w_k), the Nystrom extension matrix of nu at the nodes, the matrix of
C0[nu] and the grids of B's antisymmetric double integral.  The amplitudes of
one expansion share one Contour, which goes with them: it is never kept on
the dressed set, whose life can be long.

Only det(I + V) is factorised: det(I + Vbar) is its complex conjugate.  The
shift function of real particles and holes is real on the real axis, so
nu(conj w) = conj nu(w), and so are the kernel and the Cauchy transforms.
The ellipse is symmetric under w -> conj w, which reverses its orientation
(w_{n-k} = -conj w_k).  Vbar at the mirrored nodes is then the entrywise
conjugate of V, a permutation similarity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dressing import STRIP, DressedSet, QuadGrid
from .excitations import TERMS, ShiftFn, active_terms, ledger_exponents, special_shift
from .model import lieb_kernel
from .specfun import barnes_g_log, c0_double_integral, c0_matrix, cauchy_transform, gamma, log_kappa


CONTOUR_NODES = 256  # trapezoid nodes of the default contour
_EDGE_RESONANCE_TOL = 1e-8  # pole guard of 1/(e^{-2 i pi nu(+-q)} - 1) in A+ and A-
_NODE_RESONANCE_TOL = 1e-6  # pole guard of 1/(e^{+-2 i pi nu(w)} - 1) on the contour nodes


class ResonanceError(ValueError):
    """A factor 1/(e^{+-2 i pi nu} - 1) is evaluated too close to its pole."""


class NonFiniteAmplitudeError(ValueError):
    """The assembled amplitude overflowed or is NaN (e.g. det(I + V) at weak coupling)."""


@dataclass(frozen=True)
class ContourSpec:
    """Axis-aligned ellipse a cos(theta) + i b sin(theta) around [-q, q]."""

    semi_major: float
    semi_minor: float
    n_nodes: int

    def validate(self, q: float, c: float) -> None:
        if self.semi_major <= q * (1.0 + 1e-3):
            raise ValueError(
                f"semi_major {self.semi_major} too close to q = {q}: the contour must "
                "enclose [-q, q] with margin"
            )
        if not (0 < self.semi_minor < STRIP * c):
            raise ValueError(
                f"semi_minor {self.semi_minor} outside (0, c/4) = (0, {STRIP * c})"
            )

    def nodes_weights(self):
        """Counterclockwise nodes and complex trapezoid weights dw."""
        theta = 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes
        nodes = self.semi_major * np.cos(theta) + 1j * self.semi_minor * np.sin(theta)
        dw = (-self.semi_major * np.sin(theta) + 1j * self.semi_minor * np.cos(theta))
        weights = dw * (2.0 * np.pi / self.n_nodes)
        return nodes, weights


def default_contour(dressed: DressedSet, n_nodes: int = CONTOUR_NODES) -> ContourSpec:
    # a tall ellipse keeps the contour away from near-resonances of
    # 1/(e^{+-2 i pi nu(w)} - 1) that sit close to the real axis.  It always
    # passes `validate`: 1.5q > q and 0 < min(0.22c, 0.75q) < c/4
    q, c = dressed.q, dressed.params.c
    return ContourSpec(1.5 * q, min(0.22 * c, 0.75 * q), n_nodes)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Contour:
    """One ContourSpec on one dressed set, with each matrix that depends on them
    alone, built on first use and read-only:

    nodes_weights  : the nodes omega and complex trapezoid weights dw of the spec;
    kernel         : K(omega_j - omega_k), for det(I + V);
    extension      : w_k K(omega_j - lam_k), the Nystrom extension matrix of nu(omega);
    c0             : (lam_j - lam_k - ic)^{-2} on the grid, for C0[nu];
    antisymmetric  : B's (n+1)-node grid mu and the denominators lam_j - mu_k.

    Each enters the amplitude through the operations of its former per-call
    build, so sharing one Contour changes no bit.  It lives as long as its
    caller holds it; an amplitude from the memo builds nothing.
    """

    def __init__(self, dressed: DressedSet, spec: ContourSpec):
        self.dressed = dressed
        self.spec = spec

    @cached_property
    def nodes_weights(self) -> tuple:
        return tuple(map(_read_only, self.spec.nodes_weights()))

    @cached_property
    def kernel(self) -> np.ndarray:
        omega = self.nodes_weights[0]
        kmat = omega[:, None] - omega[None, :]
        return _read_only(lieb_kernel(kmat, self.dressed.params, out=kmat))

    @cached_property
    def extension(self) -> np.ndarray:
        return _read_only(self.dressed.op.weighted_kernel(self.nodes_weights[0], 0))

    @cached_property
    def c0(self) -> np.ndarray:
        return _read_only(c0_matrix(self.dressed.grid, self.dressed.params.c))

    @cached_property
    def antisymmetric(self) -> tuple:
        """(grid2, lam_j - mu_k): the (n+1)-node grid and the denominators."""
        g1 = self.dressed.grid
        g2 = QuadGrid.build(g1.n_nodes + 1, g1.q)
        return g2, _read_only(g1.nodes[:, None] - g2.nodes[None, :])


def contour_on(dressed: DressedSet, contour: Contour | ContourSpec | None = None) -> Contour:
    """A Contour on `dressed`: the given one, one on the given spec, or on the default."""
    if isinstance(contour, Contour):
        if contour.dressed is not dressed:
            raise ValueError("the contour was built on another dressed set")
        return contour
    return Contour(dressed, default_contour(dressed) if contour is None else contour)


# ----------------------------------------------------------------------
# boundary functionals
# ----------------------------------------------------------------------

def _resonance_factor(nu_val: float) -> complex:
    """1 / (e^{-2 i pi nu} - 1) with a pole guard."""
    den = np.exp(-2j * np.pi * nu_val) - 1.0
    if abs(den) < _EDGE_RESONANCE_TOL:
        raise ResonanceError(f"e^(-2 i pi nu) - 1 = {den} at nu = {nu_val}")
    return 1.0 / den


def functional_Aplus(nu: ShiftFn, dressed: DressedSet, lk_q: complex) -> complex:
    """A+[nu, p] = -2q kappa^-2(q) [2q p'(q)]^{-2 nu(q) - 1} Gamma(1+nu(q))/Gamma(-nu(q))
    / (e^{-2 i pi nu(q)} - 1), with lk_q = ln kappa(q)."""
    q = dressed.q
    nq = nu.at_q
    pref = -2.0 * q * np.exp(-2.0 * lk_q)
    pow_ = (2.0 * q * float(dressed.p_d1(q))) ** (2.0 * nq + 1.0)
    gammas = gamma(1.0 + nq) / gamma(-nq)
    return complex(pref / pow_ * gammas * _resonance_factor(nq))


def functional_Aminus(nu: ShiftFn, dressed: DressedSet, lk_mq: complex) -> complex:
    """A-[nu, p] = -2q kappa^-2(-q) Gamma(1-nu(-q))/Gamma(nu(-q))
    [2q p'(-q)]^{2 nu(-q) - 1} / (e^{-2 i pi nu(-q)} - 1), with lk_mq = ln kappa(-q)."""
    q = dressed.q
    nmq = nu.at_minus_q
    pref = -2.0 * q * np.exp(-2.0 * lk_mq)
    gammas = gamma(1.0 - nmq) / gamma(nmq)
    pow_ = (2.0 * q * float(dressed.p_d1(-q))) ** (2.0 * nmq - 1.0)
    return complex(pref * gammas * pow_ * _resonance_factor(nmq))


def functional_A0(nu: ShiftFn, dressed: DressedSet, lambda0: float) -> complex:
    """A0[nu] = e^{-i pi/4} kappa^-2(lambda0) ((lambda0 - q)/(lambda0 + q))^{2 nu(lambda0)}
    at a space-like saddle lambda0 > q."""
    q = dressed.q
    n0 = float(nu(lambda0))
    lk = log_kappa(nu, lambda0, dressed.grid)
    log_ratio = np.log((lambda0 - q) / (lambda0 + q))
    return complex(np.exp(-0.25j * np.pi - 2.0 * lk + 2.0 * n0 * log_ratio))


def functional_B(nu: ShiftFn, dressed: DressedSet, lk_q: complex, lk_mq: complex,
                 contour: Contour | None = None) -> complex:
    """B[nu, p], assembled in log space, with lk_q = ln kappa(q) and lk_mq = ln kappa(-q),
    taking the double integral's grids from `contour` (by default a new one).

    ln B = nu(-q) ln kappa(-q) - nu(q) ln kappa(q)
         + 2 ln G(1 + nu(q)) + 2 ln G(1 - nu(-q))
         + i pi/2 (nu(q)^2 - nu(-q)^2)
         - nu(q)^2 ln(2q p'(q)) - nu(-q)^2 ln(2q p'(-q))
         - (nu(q) - nu(-q)) ln(2 pi)
         + 1/2 int int (nu'(l) nu(m) - nu'(m) nu(l)) / (l - m) dl dm.
    """
    q = dressed.q
    nq, nmq = nu.at_q, nu.at_minus_q
    log_b = nmq * lk_mq - nq * lk_q
    log_b += 2.0 * barnes_g_log(1.0 + nq) + 2.0 * barnes_g_log(1.0 - nmq)
    log_b += 0.5j * np.pi * (nq**2 - nmq**2)
    log_b -= nq**2 * np.log(2.0 * q * float(dressed.p_d1(q)))
    log_b -= nmq**2 * np.log(2.0 * q * float(dressed.p_d1(-q)))
    log_b -= (nq - nmq) * np.log(2.0 * np.pi)
    log_b += 0.5 * _antisymmetric_double_integral(nu, contour_on(dressed, contour))
    return complex(np.exp(log_b))


def _antisymmetric_double_integral(nu: ShiftFn, contour: Contour) -> float:
    """int int (nu'(l) nu(m) - nu'(m) nu(l)) / (l - m) dl dm over [-q, q]^2.

    Two interlacing Gauss-Legendre grids (n and n+1 nodes) keep the smooth
    diagonal limit off the quadrature lattice.
    """
    g1 = contour.dressed.grid
    g2, denom = contour.antisymmetric
    v1, d1 = np.asarray(nu(g1.nodes), float), np.asarray(nu.d1(g1.nodes), float)
    v2, d2 = np.asarray(nu(g2.nodes), float), np.asarray(nu.d1(g2.nodes), float)
    numer = d1[:, None] * v2[None, :] - d2[None, :] * v1[:, None]
    return float(g1.weights @ (numer / denom) @ g2.weights)


# ----------------------------------------------------------------------
# smooth part
# ----------------------------------------------------------------------

def fredholm_det_contour(prefactor: np.ndarray, kernel_matrix: np.ndarray, weights: np.ndarray) -> complex:
    """det(I + V) with V(w_j, w_k) = prefactor(w_j) kernel(w_j, w_k), measure dw."""
    m = prefactor[:, None] * kernel_matrix
    m *= weights
    m.flat[::len(weights) + 1] += 1.0
    return complex(np.linalg.det(m))


def smooth_part_G(
    nu: ShiftFn,
    dressed: DressedSet,
    pair: tuple | None,
    contour: Contour | ContourSpec,
) -> complex:
    """Smooth part G_0 (pair None) or G_1 (pair = (mu_p, mu_h): one particle, one hole).

    G = e^{-2 i pi sum_e C[nu](q + e ic)}
        [prod_e (mu_h - q + e ic)/(mu_p - q + e ic)
                e^{2 i pi (C[nu](mu_h + e ic) - C[nu](mu_p + e ic))}]
        e^{C0[nu]}
        [(mu_p - mu_h - ic)(mu_h - mu_p - ic) / ((mu_p - mu_p - ic)(mu_h - mu_h - ic))]
        det(I + V) det(I + Vbar) / det^2(I - K/2pi),

    the bracketed factors present for a pair only, with kernels (measure dw on
    the contour)

    V(w,w')   = -1/2pi (w-q)/(w-q+ic) [(w-mu_p)(w-mu_h+ic)/((w-mu_h)(w-mu_p+ic))]
                e^{C[2 i pi nu](w) - C[2 i pi nu](w+ic)} K(w-w') / (e^{-2 i pi nu(w)} - 1),
    Vbar(w,w')= +1/2pi (w-q)/(w-q-ic) [(w-mu_p)(w-mu_h-ic)/((w-mu_h)(w-mu_p-ic))]
                e^{C[2 i pi nu](w) - C[2 i pi nu](w-ic)} K(w-w') / (e^{+2 i pi nu(w)} - 1).

    The hole must lie inside the contour; the particle need not be enclosed.
    Since nu, K and the contour are symmetric under w -> conj w, Vbar is V
    conjugated at the mirrored nodes and det(I + Vbar) = conj det(I + V): only
    det(I + V) is computed.  That needs nu real on the real axis, so a shift
    function with a non-real particle or hole raises ValueError.

    The nodes, K, the extension matrix of nu(w) and C0's matrix come from the
    Contour on (dressed, spec); a ContourSpec gets a Contour of its own.
    """
    contour = contour_on(dressed, contour)
    q, c = dressed.q, dressed.params.c
    contour.spec.validate(q, c)
    if any(np.imag(z) != 0 for z in (*nu.particles, *nu.holes)):
        raise ValueError(f"det(I + Vbar) = conj det(I + V) needs real particles and holes, "
                         f"got particles {nu.particles}, holes {nu.holes}")
    if pair is not None:
        mp, mh = pair
        if abs(mh) > q + 1e-12:
            raise ValueError(f"hole {mh} outside [-q, q]")

    grid = dressed.grid
    nu_grid = np.asarray(nu(grid.nodes), dtype=float)

    # prefactors built from Cauchy transforms at q + e ic, mu + e ic
    log_pref = -2j * np.pi * np.sum(cauchy_transform(nu_grid, grid, [q + 1j * c, q - 1j * c]))
    if pair is not None:
        for eps in (+1.0, -1.0):
            log_pref += np.log((mh - q + eps * 1j * c) / (mp - q + eps * 1j * c))
            log_pref += 2j * np.pi * (
                cauchy_transform(nu_grid, grid, mh + eps * 1j * c)
                - cauchy_transform(nu_grid, grid, mp + eps * 1j * c)
            )[0]
    log_pref += c0_double_integral(nu, grid, contour.c0)
    if pair is not None:
        log_pref += np.log((mp - mh - 1j * c) * (mh - mp - 1j * c)
                           / ((mp - mp - 1j * c) * (mh - mh - 1j * c)))

    # one Fredholm determinant on the contour: det(I + Vbar) is its conjugate
    omega, w = contour.nodes_weights
    nu_omega = np.asarray(nu(omega, contour.extension), dtype=complex)
    c2_omega, c2_up = (2j * np.pi * cauchy_transform(nu_grid, grid, z)
                       for z in (omega, omega + 1j * c))

    res_m = np.exp(-2j * np.pi * nu_omega) - 1.0
    res_p = np.exp(2j * np.pi * nu_omega) - 1.0
    if np.min(np.abs(res_m)) < _NODE_RESONANCE_TOL or np.min(np.abs(res_p)) < _NODE_RESONANCE_TOL:
        raise ResonanceError("e^{+-2 i pi nu(w)} - 1 vanishes on the contour")

    ic = 1j * c
    rat = np.ones_like(omega)
    if pair is not None:
        rat = rat * (omega - mp) * (omega - mh + ic) / ((omega - mh) * (omega - mp + ic))
    pre = (-1.0 / (2.0 * np.pi)) * (omega - q) / (omega - q + ic) * rat \
        * np.exp(c2_omega - c2_up) / res_m
    det_v = fredholm_det_contour(pre, contour.kernel, w)

    return complex(np.exp(log_pref) * det_v * np.conj(det_v) / dressed.det_IK**2)


# ----------------------------------------------------------------------
# assembled amplitudes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
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
    contour: Contour | ContourSpec | None = None,
) -> AmplitudeResult:
    """Amplitude of one explicit term: kind in {"empty", "minus_q", "saddle"}.

    empty   : A+ B G_0
    minus_q : A- B G_1(-q; q)
    saddle  : e^{i pi/4} / (2 pi p'(lambda0)) A0 B G_1(lambda0; q)

    each times exp{i pi/2 (e- - e+)}, with (e+, e-) the exponent pair of the
    kind's ledger pair in TERMS.  The saddle amplitude exists only where
    `active_terms(regime)` lists it: a time-like saddle raises ValueError.  A
    contour of None is `default_contour(dressed)`; callers that take several
    amplitudes on one spec pass one `Contour`, so its matrices are built once.
    The edge amplitudes (empty, minus_q) do not depend on the ray, so each is
    computed once per (dressed set, contour spec) and kept on the dressed set;
    the saddle amplitude depends on lambda0 and is computed on every call.
    """
    contour = contour_on(dressed, contour)
    memo, key = dressed._edge_amplitudes, (kind, contour.spec)
    if key in memo:
        return memo[key]
    if kind == "saddle" and "saddle" not in active_terms(regime):
        raise ValueError(f"saddle amplitude needs the space-like regime, got {regime!r}")
    nu = special_shift(kind, dressed, lambda0)  # raises on an unknown kind
    q = dressed.q
    pre = 1.0
    lk_q, lk_mq = log_kappa(nu, q, dressed.grid), log_kappa(nu, -q, dressed.grid)
    if kind == "empty":
        a_fac = functional_Aplus(nu, dressed, lk_q)
        g_fac = smooth_part_G(nu, dressed, None, contour)
    elif kind == "minus_q":
        a_fac = functional_Aminus(nu, dressed, lk_mq)
        g_fac = smooth_part_G(nu, dressed, (-q, q), contour)
    else:
        a_fac = functional_A0(nu, dressed, lambda0)
        g_fac = smooth_part_G(nu, dressed, (float(lambda0), q), contour)
        pre = np.exp(0.25j * np.pi) / (2.0 * np.pi * float(dressed.p_d1(lambda0)))

    e_plus, e_minus, _ = ledger_exponents(nu, dict(TERMS.values())[kind])  # the kind's pair
    phase = 0.5j * np.pi * (e_minus - e_plus)
    b_fac = functional_B(nu, dressed, lk_q, lk_mq, contour)
    raw = complex(pre * a_fac * b_fac * g_fac * np.exp(phase))
    if not np.isfinite(raw):
        raise NonFiniteAmplitudeError(f"{kind} amplitude is not finite: {raw}")
    result = AmplitudeResult(
        kind=kind, value=float(raw.real), phase_residual=float(abs(raw.imag)), raw=raw
    )
    if kind != "saddle":
        memo[key] = result
    return result
