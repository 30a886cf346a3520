"""Shift functions, the combination u = p - (t/x) eps and its saddle point,
critical exponents, and the ledger of subleading harmonics.

A shift function for an excitation with particles {z+} and holes {z-} is the
finite combination

    nu(lam) = -Z(lam)/2 - sum_{z in {z+}} phi(lam, z) + sum_{z in {z-}} phi(lam, z).

The three combinations entering the explicit asymptotic terms are built by
`special_shift`:

    empty   : -Z/2 - phi(., q)        (N -> N+1 ground state)
    minus_q : -Z/2 - phi(., -q)       (particle at -q, hole at q)
    saddle  : -Z/2 - phi(., lam0)     (particle at lam0, hole at q)

(the hole at q implicit in these combinations is *not* added by `ShiftFn`;
callers build custom excitations from the literal sets).

Critical exponents are squares of boundary values of shift functions.  The
harmonic ledger carries, for each pair of integers (l+, l-) subject to
eta (l+ + l-) >= 0, the frequency l+ u(q) + l- u(-q) - (l+ + l-) u(lam0)
and the exponent (1 + l+ + D+)^2 + (D- - l-)^2 + |l+ + l-|/2 with

    D(+-) = -Z(+-q)/2 - l- phi(+-q, -q) - (l+ + 1) phi(+-q, q)
            + (l+ + l-) phi(+-q, lam0).

The three explicit terms are rows of this ledger (`TERMS`): at their pairs
D(+-) is the boundary value of the matching special shift.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dressing import DressedSet, safeguarded_newton


class NoSaddleError(RuntimeError):
    """u' has one sign at both ends of the bracket [-s, s], or Newton ends short of a maximum."""


class MultipleSaddlesError(RuntimeError):
    """u'(-s) < 0 < u'(s): u' cannot change sign just once from + to -, so u has
    no unique maximum (working hypothesis of a unique saddle violated)."""


class DegenerateSaddleError(RuntimeError):
    """The saddle point collides with a Fermi boundary (|lam0 -+ q| < 1e-6)."""


SPACE_LIKE = "space-like"
TIME_LIKE = "time-like"

MAX_ABS_ELL = 2  # the harmonic ladder's default bound |l+-| <= MAX_ABS_ELL

# label -> (shift and amplitude kind, ledger pair (l+, l-)) of each explicit term
TERMS = {
    "saddle": ("saddle", (-1, 0)),
    "two_pF": ("minus_q", (-1, 1)),
    "zero_freq": ("empty", (0, 0)),
}


def active_terms(regime: str) -> dict:
    """The entries of TERMS whose amplitude is predicted: the saddle term only in
    the space-like regime (in the time-like one the saddle-vicinity physics lives
    in the (-1, 0) harmonic)."""
    return {label: entry for label, entry in TERMS.items()
            if label != "saddle" or regime == SPACE_LIKE}


@dataclass
class ShiftFn:
    """nu(lam) = -Z/2 - sum phi(lam, z+) + sum phi(lam, z-), with derivatives, for
    particles z+ (anywhere in the strip) and holes z- (in [-q, q]).

    Each evaluation builds one weighted kernel matrix at lam and extends Z and
    every phi(., z) from it (`NystromOperator.extend`); a caller that holds
    that matrix for nu itself, `dressed.op.weighted_kernel(lam, 0)`, passes it
    as kzw.
    nu on the dressed set's own grid nodes is computed once and returned,
    read-only, whenever the shift is called with `dressed.grid.nodes` itself.
    """

    dressed: DressedSet
    particles: tuple
    holes: tuple

    def __post_init__(self) -> None:
        q = self.dressed.q
        for z in self.holes:
            if np.imag(z) != 0 or not (-q - 1e-12 <= np.real(z) <= q + 1e-12):
                raise ValueError(f"hole rapidity {z} not real in [-q, q] = [{-q}, {q}]")

    def _combine(self, lam, order: int, kzw=None):
        d = self.dressed
        charge, *phases = d.op.extend(
            lam, order, (d.Z, *map(d.phi_solution, (*self.particles, *self.holes))), kzw)
        out = -0.5 * charge
        for phase in phases[:len(self.particles)]:
            out = out - phase
        for phase in phases[len(self.particles):]:
            out = out + phase
        return out

    @cached_property
    def _on_nodes(self) -> np.ndarray:
        vals = self._combine(self.dressed.grid.nodes, 0)
        vals.flags.writeable = False
        return vals

    def __call__(self, lam, kzw=None):
        if lam is self.dressed.grid.nodes:
            return self._on_nodes
        return self._combine(lam, 0, kzw)

    def d1(self, lam):
        return self._combine(lam, 1)

    @cached_property
    def at_q(self) -> float:
        return float(self(self.dressed.q))

    @cached_property
    def at_minus_q(self) -> float:
        return float(self(-self.dressed.q))


def special_shift(kind: str, dressed: DressedSet, lambda0: float | None = None) -> ShiftFn:
    """The three shift functions of the explicit asymptotic terms."""
    if kind == "empty":
        zp = (dressed.q,)
    elif kind == "minus_q":
        zp = (-dressed.q,)
    elif kind == "saddle":
        if lambda0 is None:
            raise ValueError("saddle kind needs lambda0")
        zp = (float(lambda0),)
    else:
        raise ValueError(f"unknown shift kind {kind!r}")
    return ShiftFn(dressed, zp, ())


# ----------------------------------------------------------------------
# u(lam) = p(lam) - (t/x) eps(lam) and its saddle point
# ----------------------------------------------------------------------

def u_combination(lam, ratio_t_over_x: float, dressed: DressedSet):
    """u(lam) = p(lam) - (t/x) eps(lam), from the dressed solves."""
    return dressed.p(lam) - ratio_t_over_x * dressed.eps(lam)


def u_d1(lam, ratio_t_over_x: float, dressed: DressedSet):
    """u'(lam) = p'(lam) - (t/x) eps'(lam), both from one kernel matrix."""
    p_d1, eps_d1 = dressed.op.extend(lam, 0, (dressed.p_d1, dressed.eps_d1))
    return p_d1 - ratio_t_over_x * eps_d1


def u_d2(lam, ratio_t_over_x: float, dressed: DressedSet):
    """u''(lam) = p''(lam) - (t/x) eps''(lam), both from one kernel matrix."""
    p_d2, eps_d2 = dressed.op.extend(lam, 1, (dressed.p_d1, dressed.eps_d1))
    return p_d2 - ratio_t_over_x * eps_d2


def find_saddle(ratio_t_over_x: float, dressed: DressedSet):
    """Unique lam0 with u'(lam0) = 0, u''(lam0) < 0; returns (lam0, regime).

    `safeguarded_newton` on -u' (slope -u'') from the bare saddle x/(2t), in
    the bracket [-s, s] with s = max(5q, x/t) and u'(-s) > 0 > u'(s), until
    |u'| < 1e-14.  u' = p' (1 - (t/x) v) changes sign once where p' > 0 and
    v = eps'/p' increases (`verify` checks both).  Errors: ValueError (t/x
    not positive, or x/t not finite), NoSaddleError (u' of one sign at both
    ends, |u'| above 1e-10 after Newton, or u'' >= 0), MultipleSaddlesError
    (u'(-s) < 0 < u'(s)) and DegenerateSaddleError (|lam0 -+ q| < 1e-6).
    """
    if not (ratio_t_over_x > 0):
        raise ValueError("saddle search needs t/x > 0")
    q = dressed.q
    s = max(5.0 * q, 1.0 / ratio_t_over_x)
    if not np.isfinite(s):
        raise ValueError(f"saddle scan range x/t = 1/{ratio_t_over_x!r} is not finite")
    f_lo, f_hi = u_d1(np.array([-s, s]), ratio_t_over_x, dressed)
    if f_lo < 0 < f_hi:
        raise MultipleSaddlesError(f"u'(-{s}) < 0 < u'({s}): u has no unique maximum on [-s, s]")
    if not f_lo > 0 > f_hi:
        raise NoSaddleError(f"u' has no zero on [-{s}, {s}]")

    def minus_u_slopes(lam):  # -u' rises through the saddle, with slope -u''
        return tuple(-float(u(lam, ratio_t_over_x, dressed)) for u in (u_d1, u_d2))
    lam0 = 0.5 / ratio_t_over_x
    lam0, (f, minus_u_d2) = safeguarded_newton(
        minus_u_slopes, -s, s, lam0, minus_u_slopes(lam0), 1e-14)
    if abs(f) > 1e-10:
        raise NoSaddleError(f"Newton failed to reach |u'| < 1e-10 at lam0={lam0}")
    if minus_u_d2 <= 0:
        raise NoSaddleError(f"u''(lam0) >= 0 at lam0={lam0}: not a maximum of u")
    if min(abs(lam0 - q), abs(lam0 + q)) < 1e-6:
        raise DegenerateSaddleError(f"lam0 = {lam0} within 1e-6 of a Fermi boundary +-{q}")
    regime = SPACE_LIKE if lam0 > q else TIME_LIKE
    return float(lam0), regime


# ----------------------------------------------------------------------
# harmonic ledger
# ----------------------------------------------------------------------

class ShiftValues(NamedTuple):
    """D+ and D-: the values at +q and -q of the shift function of a ledger pair."""

    at_q: float
    at_minus_q: float


def ledger_sides(dressed: DressedSet, lambda0: float) -> tuple:
    """(Z, phi(., -q), phi(., q), phi(., lambda0)) at +q, then at -q: the eight
    boundary values that every D+- of the ledger combines."""
    q = dressed.q
    return tuple((float(dressed.Z(lam)), *(float(dressed.phi(lam, m)) for m in (-q, q, lambda0)))
                 for lam in (q, -q))


def ledger_shifts(pairs, sides: tuple) -> list[ShiftValues]:
    """D+- of each pair (l+, l-) from `ledger_sides`, by the formula of the module docstring."""
    return [
        ShiftValues(*(-0.5 * z - lm * phi_mq - (lp + 1) * phi_q + (lp + lm) * phi_0
                      for z, phi_mq, phi_q, phi_0 in sides))
        for lp, lm in pairs
    ]


def ledger_exponents(nu, pair) -> tuple:
    """(1 + l+ + D+)^2, (D- - l-)^2 and |l+ + l-|/2: the powers of (x - vF t),
    (x + vF t) and x of the pair (l+, l-) whose shift takes the values D+- =
    (nu.at_q, nu.at_minus_q) of a ShiftFn or ShiftValues."""
    lp, lm = pair
    return (nu.at_q + (1 + lp)) ** 2, (nu.at_minus_q + (-lm)) ** 2, 0.5 * abs(lp + lm)


@dataclass(frozen=True)
class LedgerRow:
    """One harmonic (l+, l-) of the expansion: x^{-exponent} split into its
    powers of (x - vF t) (right Fermi boundary +q), (x + vF t) (left boundary
    -q) and x.  `amplitude` is None where it is not predicted; only active rows
    enter evaluated values."""

    label: str
    ell_plus: int
    ell_minus: int
    frequency: float
    exponent_plus: float
    exponent_minus: float
    extra_power: float
    amplitude: float | None = None
    active: bool = False

    @property
    def exponent(self) -> float:
        return self.exponent_plus + self.exponent_minus + self.extra_power


def harmonic_table(max_abs_ell: int, regime: str, sides: tuple, u_values: tuple) -> list[LedgerRow]:
    """All harmonics with |l+-| <= max_abs_ell and eta (l+ + l-) >= 0 except the
    pairs of the active terms of TERMS, as inactive rows with amplitude None,
    from the boundary values `ledger_sides` and u_values = (u(q), u(-q), u(lam0))."""
    eta = 1 if regime == SPACE_LIKE else -1
    explicit = {pair for _, pair in active_terms(regime).values()}
    ells = range(-max_abs_ell, max_abs_ell + 1)
    pairs = [(lp, lm) for lp in ells for lm in ells
             if eta * (lp + lm) >= 0 and (lp, lm) not in explicit]
    uq, umq, ul0 = u_values
    return [
        LedgerRow(f"harmonic({lp:+d},{lm:+d})", lp, lm, lp * uq + lm * umq - (lp + lm) * ul0,
                  *ledger_exponents(nu, (lp, lm)))
        for (lp, lm), nu in zip(pairs, ledger_shifts(pairs, sides))
    ]
