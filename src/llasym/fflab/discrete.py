"""Exhaustive particle-hole sums and their determinant resummation.

The object computed here is the finite double sum

    X_N = sum over particle-hole configurations of
          [prod E^2(lam_a) / prod E^2(mu_{l_a})] * Dhat_N,

where the integers l_1..l_{N+1} are [1..N+1] with holes h_a replaced by
particles p_a drawn from the rest of the window.  The same quantity is
a finite determinant built from the discrete sums

    S_r(lam) = sum_{a in window} E^(-2)(mu_a) / (2*pi*L*xi'(mu_a) * (mu_a-lam)^r),

with no contour integration at all: the auxiliary function O equals
i*S_1 at the shifted points exactly, and its derivative is i*S_2 plus a
local correction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .instances import FFLabInstance

_MAX_WINDOW = 15
_MAX_TERMS = 1_000_000


class CoincidentRapidityError(ValueError):
    """Two rapidities coincide and a Cauchy determinant would be singular."""


class EnumerationSizeError(ValueError):
    """The exhaustive configuration sum would be too large to enumerate."""


class SingularMatrixError(np.linalg.LinAlgError):
    """The resummation matrix is numerically singular."""


def _validate_config(inst: FFLabInstance, particles, holes):
    particles = [int(p) for p in particles]
    holes = [int(h) for h in holes]
    if len(particles) != len(holes):
        raise ValueError("need as many particles as holes")
    if len(set(holes)) != len(holes) or len(set(particles)) != len(particles):
        raise ValueError("particle and hole labels must be distinct")
    for h in holes:
        if not 1 <= h <= inst.N + 1:
            raise ValueError(f"hole label {h} outside [1, N+1]")
    for p in particles:
        if not -inst.w <= p <= inst.w:
            raise ValueError(f"particle label {p} outside the window")
        if 1 <= p <= inst.N + 1:
            raise ValueError(f"particle label {p} must lie outside [1, N+1]")
    return particles, holes


def _ell_block(N: int, particle_sets, hole_sets) -> np.ndarray:
    """Labels l_1..l_{N+1} of every (holes, particles) pair, one row each.

    Row j holds [1..N+1] with position h_a replaced by p_a; rows run over
    hole_sets in the outer and particle_sets in the inner order.
    """
    holes = np.array(hole_sets, dtype=int).reshape(len(hole_sets), -1)
    particles = np.array(particle_sets, dtype=int).reshape(len(particle_sets), -1)
    ell = np.tile(np.arange(1, N + 2), (len(holes) * len(particles), 1))
    rows = np.arange(len(ell)).reshape(len(holes), len(particles), 1)
    ell[rows, holes[:, None, :] - 1] = particles[None, :, :]
    return ell


def _lam_factors(inst: FFLabInstance) -> tuple[float, float]:
    """prod 4 sin^2(pi nu(lam_k)) and prod 2 pi L xi_nu'(lam_k): the lam-only factors of dhat."""
    s = np.sin(np.pi * inst.nu(inst.lam))
    num = float(np.prod(4.0 * s * s))
    den_lam = float(np.prod(2.0 * np.pi * inst.L * inst.xi_nu_d1(inst.lam)))
    return num, den_lam


def _dhat_rows(inst: FFLabInstance, mu_l: np.ndarray, num: float, den_lam: float) -> np.ndarray:
    """dhat of each configuration whose occupation points mu_{l_1..l_{N+1}} are a row of mu_l."""
    lam = inst.lam
    last = mu_l[:, -1:]
    diff = mu_l[:, :-1, None] - lam
    if np.min(np.abs(diff)) < 1e-12 or np.min(np.abs(mu_l[:, :-1] - last)) < 1e-12:
        raise CoincidentRapidityError("coincident rapidities in configuration")

    den = np.prod(2.0 * np.pi * inst.L * inst.xi.d1(mu_l), axis=1) * den_lam
    boundary = np.prod(((mu_l[:, :-1] - last) / (lam - last)) ** 2, axis=1)
    det = np.linalg.det(1.0 / diff)
    return num / den * boundary * det * det


def dhat_N(inst: FFLabInstance, particles, holes) -> float:
    """Rational weight of one particle-hole configuration.

    particles: integers in the window but outside [1..N+1]
    holes:     integers in [1..N+1]

    The value is symmetric in the configuration as a set; the label in
    slot N+1 only enters through factors that the squared Cauchy
    determinant compensates.
    """
    particles, holes = _validate_config(inst, particles, holes)
    mu_l = inst.mu_at(_ell_block(inst.N, [particles], [holes]))
    return float(_dhat_rows(inst, mu_l, *_lam_factors(inst))[0])


def nu_zero_limit(inst: FFLabInstance) -> complex:
    """Value of X_N when nu vanishes identically.

    Only configurations whose label set is [1..N] plus one extra integer
    survive the nu -> 0 limit, each contributing
    E^(-2)(mu_a)/(2*pi*L*xi'(mu_a)); the sum runs over the window minus
    [1..N].
    """
    keep = (inst.window < 1) | (inst.window > inst.N)
    return complex(np.sum(inst.mu_weights[keep]))


def _config_count(inst: FFLabInstance) -> int:
    n_ext = 2 * inst.w + 1 - (inst.N + 1)
    return sum(math.comb(n_ext, n) * math.comb(inst.N + 1, n)
               for n in range(0, min(n_ext, inst.N + 1) + 1))


def xn_bruteforce(inst: FFLabInstance) -> complex:
    """X_N by exhaustive enumeration of particle-hole configurations.

    The configurations come in one block per particle-hole count
    n = 0, 1, ...: every n-subset of holes in [1..N+1] (outer) with every
    n-subset of particles from the rest of the window (inner), in
    `itertools.combinations` order, one label row each.  A block's dhat
    values come from one stacked Cauchy determinant, and its weights
    E^(-2)(mu_l) from one array exponential.  The weighted terms are then
    added one at a time in enumeration order with scalar complex products,
    so X_N is bit for bit the sum taken one configuration at a time
    (numpy's array complex multiply can differ from its scalar one in the
    last bit).
    """
    if inst.nu.is_zero:
        return nu_zero_limit(inst)
    if 2 * inst.w + 1 > _MAX_WINDOW:
        raise EnumerationSizeError(
            f"window size {2 * inst.w + 1} exceeds {_MAX_WINDOW}")
    total_terms = _config_count(inst)
    if total_terms > _MAX_TERMS:
        raise EnumerationSizeError(f"{total_terms} configurations exceed {_MAX_TERMS}")

    interior = list(range(1, inst.N + 2))
    exterior = [a for a in inst.window.tolist() if a not in interior]
    log_e_sq_lam = -inst.phase.log_inv_sq(inst.lam)
    lam_weight = np.exp(np.sum(log_e_sq_lam))
    lam_factors = _lam_factors(inst)

    total = 0.0 + 0.0j
    for n in range(0, min(len(exterior), inst.N + 1) + 1):
        ell = _ell_block(inst.N, list(itertools.combinations(exterior, n)),
                         list(itertools.combinations(interior, n)))
        mu_l = inst.mu_at(ell)
        dh = _dhat_rows(inst, mu_l, *lam_factors).tolist()
        weights = np.exp(np.sum(inst.phase.log_inv_sq(mu_l), axis=1))
        for weight, dhat in zip(weights, dh):
            total += lam_weight * weight * dhat
    return complex(total)


def xn_determinant(inst: FFLabInstance) -> complex:
    """X_N as a finite determinant built from discrete singular sums.

    With S_r the discrete sums at the shifted points lam_k, the
    auxiliary values are O_k = i*S_1(lam_k) and

        O'_k = i*S_2(lam_k) - i*pi*L*xi_nu'(lam_k)*E^(-2)(lam_k) / (2*sin^2(pi*nu_k)),

    and X_N = det(I + V) * (S_0 + v . (I+V)^(-1) u) with the rank-one
    update folded into column weights E^2(lam_l)/(L*xi_nu'(lam_l)).
    """
    if inst.nu.is_zero:
        return nu_zero_limit(inst)

    lam = inst.lam
    L = inst.L
    base = inst.mu_weights

    s0 = np.sum(base)
    diff = inst.mu[:, None] - lam[None, :]
    if np.min(np.abs(diff)) < 1e-14:
        raise CoincidentRapidityError("a shifted point collides with an occupation point")
    s1 = base @ (1.0 / diff)
    s2 = base @ (1.0 / diff**2)

    nu_lam = inst.nu(lam)
    s_lam = np.sin(np.pi * nu_lam)
    if np.min(np.abs(s_lam)) < 1e-13:
        raise CoincidentRapidityError("sin(pi*nu) vanishes at a shifted point")
    e_inv_lam = inst.phase.e_inv_sq(lam)
    e_sq_lam = 1.0 / e_inv_lam
    dxin_lam = L * inst.xi_nu_d1(lam)

    o_val = 1j * s1
    o_der = 1j * s2 - 1j * np.pi * dxin_lam * e_inv_lam / (2.0 * s_lam**2)

    return integrable_resummation(lam, o_val, o_der, s_lam, e_sq_lam / dxin_lam, s0)


def integrable_resummation(pts, o_val, o_der, s, col, s0) -> complex:
    """det(I + V) * (s0 + 2/pi * sum_k s_k o_k col_k g_k) with (I + V) g = s o.

    V is the integrable kernel of the auxiliary values o at the points pts,

        V_jk = 4 s_j s_k / (2 i pi) * (o_j - o_k) / (pts_j - pts_k) * col_k,

    with the derivative o'_j in place of the divided difference on the
    diagonal; col folds the column weights (and quadrature weights) in.
    """
    dl = pts[:, None] - pts[None, :]
    np.fill_diagonal(dl, 1.0)
    kern = (o_val[:, None] - o_val[None, :]) / dl
    np.fill_diagonal(kern, o_der)
    V = (4.0 * s[:, None] * s[None, :] / (2j * np.pi)) * kern * col[None, :]

    M = np.eye(len(pts), dtype=complex) + V
    u_vec = s * o_val
    v_vec = (2.0 / np.pi) * s * o_val * col
    try:
        det_m = np.linalg.det(M)
        sol = np.linalg.solve(M, u_vec)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if det_m == 0.0 or not np.isfinite(det_m):
        raise SingularMatrixError("resummation matrix is singular")
    return complex(det_m * (s0 + v_vec @ sol))
