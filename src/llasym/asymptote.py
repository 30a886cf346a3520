"""Assembly and pointwise evaluation of the long-time / large-distance
expansion of the one-particle density matrix at fixed ratio t/x.

The expansion is a sum over harmonics (l+, l-), each one `LedgerRow`: three
explicit oscillating terms, the pairs of `TERMS` (one particle / one hole
excitations pinned to the Fermi boundaries or the saddle point), plus the
subleading harmonics, whose amplitudes the method does not predict:

rho(x,t) ~ e^{-i pi/4} sqrt(2 pi / (t eps'' - x p'')(lam0)) p'(lam0)
             e^{i x [u(lam0) - u(q)]} Amp_saddle
             / { [i(x + vF t)]^{a-} [-i(x - vF t)]^{a+} }        (space-like only)
         + e^{-2 i x pF} Amp_2pF / { [i(x + vF t)]^{b-} [-i(x - vF t)]^{b+} }
         + Amp_0 / { [i(x + vF t)]^{c-} [-i(x - vF t)]^{c+} }
         + sum* C_{l+, l-} e^{i x phi_{l+, l-}} x^{-Delta_{l+, l-}}   (C unknown),

with t eps''(lam0) - x p''(lam0) = -x u''(lam0) > 0 and all complex powers
taken on the principal branch.  The exponent on (x - vF t) is driven by the
shift value at the right boundary +q, the exponent on (x + vF t) by the one
at -q.  Harmonic entries are reported but never summed into a value.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# called through this module's globals, where benchmarks/spans.py patches them by name
from .amplitudes import ContourSpec, amplitude, contour_on
from .dressing import DressedSet, dress_all
from .excitations import (
    MAX_ABS_ELL,
    TERMS,
    LedgerRow,
    active_terms,
    find_saddle,
    harmonic_table,
    ledger_exponents,
    ledger_shifts,
    ledger_sides,
    u_combination,
    u_d2,
)


RATIO_RTOL = 1e-12  # relative tolerance of an evaluation point's t/x against the ratio


class LightConeError(ValueError):
    """Evaluation point too close to the light cone x = vF t."""


class RatioMismatchError(ValueError):
    """Evaluation point (x, t) inconsistent with the ratio the expansion was built at."""


class RhoOverflowError(ValueError):
    """A term of rho(x, t), or their sum, overflows at the evaluation point (tiny or huge x)."""


@dataclass
class ExpansionReport:
    """The expansion at one ratio t/x, computed stage by stage on first use.

    dressed -> saddle -> sides -> shift_values -> exponents -> amplitudes ->
    terms, with the harmonic ledger beside, built from the same sides and
    u(lambda0): reading `exponents` never assembles an amplitude, and an error
    of a stage is raised by the first read that needs it.  A contour of None
    is `default_contour(dressed)`.
    """

    dressed: DressedSet
    ratio_t_over_x: float
    max_abs_ell: int = MAX_ABS_ELL
    contour: ContourSpec | None = None

    @property
    def q(self) -> float:
        return self.dressed.q

    @property
    def vF(self) -> float:
        return self.dressed.vF

    @property
    def pF(self) -> float:
        return self.dressed.pF

    @cached_property
    def saddle(self) -> tuple:
        """(lambda0, regime) of u = p - (t/x) eps."""
        return find_saddle(self.ratio_t_over_x, self.dressed)

    @property
    def lambda0(self) -> float:
        return self.saddle[0]

    @property
    def regime(self) -> str:
        return self.saddle[1]

    @cached_property
    def u_at_lambda0(self) -> float:
        return float(u_combination(self.lambda0, self.ratio_t_over_x, self.dressed))

    @cached_property
    def u_boundaries(self) -> tuple:
        """(u(q), u(-q)): the saddle term and every harmonic take their frequency from these."""
        return tuple(float(u_combination(lam, self.ratio_t_over_x, self.dressed))
                     for lam in (self.q, -self.q))

    @property
    def saddle_frequency(self) -> float:
        """u(lambda0) - u(q): the saddle term's and the (-1, 0) harmonic's frequency."""
        return self.u_at_lambda0 - self.u_boundaries[0]

    @cached_property
    def u_dd_at_lambda0(self) -> float:
        return float(u_d2(self.lambda0, self.ratio_t_over_x, self.dressed))

    @cached_property
    def p_d1_at_lambda0(self) -> float:
        return float(self.dressed.p_d1(self.lambda0))

    @cached_property
    def sides(self) -> tuple:
        """Z, phi(., -q), phi(., q) and phi(., lambda0) at +q and -q (`ledger_sides`):
        the boundary values of every ledger pair's shift, explicit or harmonic."""
        return ledger_sides(self.dressed, self.lambda0)

    @cached_property
    def shift_values(self) -> dict:
        """ShiftValues D+- of each explicit term's ledger pair, by label."""
        pairs = [pair for _, pair in TERMS.values()]
        return dict(zip(TERMS, ledger_shifts(pairs, self.sides)))

    @cached_property
    def exponents(self) -> dict:
        """(power of x - vF t, power of x + vF t, extra power of x) of each
        explicit term, by label."""
        return {label: ledger_exponents(self.shift_values[label], pair)
                for label, (_, pair) in TERMS.items()}

    @cached_property
    def amplitudes(self) -> dict:
        """AmplitudeResult of each active term, by label, all on one `Contour`,
        which is released with this call: the report keeps no contour matrix."""
        contour = contour_on(self.dressed, self.contour)
        return {
            label: amplitude(kind, self.dressed, lambda0=self.lambda0, regime=self.regime,
                             contour=contour)
            for label, (kind, _) in active_terms(self.regime).items()
        }

    @cached_property
    def terms(self) -> list:
        """One LedgerRow per entry of TERMS, inactive ones with amplitude None."""
        frequency = {"saddle": self.saddle_frequency, "two_pF": -2.0 * self.pF, "zero_freq": 0.0}
        amps = self.amplitudes
        return [
            LedgerRow(label, *pair, frequency[label], *self.exponents[label],
                      amps[label].value if label in amps else None, label in amps)
            for label, (_, pair) in TERMS.items()
        ]

    @cached_property
    def harmonics(self) -> list:
        """The ledger rows |l+-| <= max_abs_ell beside the explicit terms, never summed."""
        return harmonic_table(self.max_abs_ell, self.regime, self.sides,
                              (*self.u_boundaries, self.u_at_lambda0))


def assemble_expansion(params_or_dressed, ratio_t_over_x: float) -> ExpansionReport:
    """Build the term table at fixed ratio t/x > 0 on the default contour.

    The saddle term is active only in the space-like regime; in the time-like
    regime it is listed inactive with no amplitude.  Harmonics up to |l+-| <=
    MAX_ABS_ELL are appended with amplitude None, never summed.  Parameters
    are dressed at `dress_all`'s default node count.
    """
    if isinstance(params_or_dressed, DressedSet):
        dressed = params_or_dressed
    else:
        dressed = dress_all(params_or_dressed)
    report = ExpansionReport(dressed, ratio_t_over_x)
    report.terms, report.harmonics  # every stage runs here, so evaluate_rho only sums
    return report


@dataclass(slots=True)
class RhoValue:
    x: float
    t: float
    value: complex
    term_moduli: dict


def evaluate_rho(report: ExpansionReport, x: float, t: float) -> RhoValue:
    """Sum the active explicit terms at one point (x, t) with t/x equal to the
    report's ratio (to RATIO_RTOL relative).

    Harmonic envelopes are excluded from the value; each active term's modulus
    is reported alongside.
    """
    # written so that a NaN fails each test
    if not (0 < x < math.inf):
        raise ValueError(f"need finite x > 0, got x = {x}")
    ratio = t / x
    if not (abs(ratio - report.ratio_t_over_x) <= RATIO_RTOL * abs(report.ratio_t_over_x)):
        raise RatioMismatchError(
            f"t/x = {ratio} but the expansion was assembled at {report.ratio_t_over_x}"
        )
    vF = report.vF
    if not (abs(x - vF * t) > 1e-9 * x):  # an underflow to 0 fails it too
        raise LightConeError(f"(x, t) = ({x}, {t}) within 1e-9 x of the light cone")

    # principal branch.  The logs stay on numpy: for 0.5 < |z| < 2 its complex
    # log and cmath.log differ in the last bit.  cmath.exp and math.sqrt below
    # give numpy's bits at a fraction of the cost of its 0-d ufunc calls.
    log_plus = complex(np.log(1j * (x + vF * t)))
    log_minus = complex(np.log(-1j * (x - vF * t)))

    total = 0.0 + 0.0j
    moduli: dict = {}
    try:
        for term in report.terms:
            if not term.active:
                continue
            decay = cmath.exp(
                -term.exponent_minus * log_plus - term.exponent_plus * log_minus
            )
            osc = cmath.exp(1j * x * term.frequency)
            if term.label == "saddle":
                # sqrt(-2 i pi / (t eps'' - x p'')) = e^{-i pi/4} sqrt(2 pi / (-x u'')),
                # with u'' < 0 at the saddle (find_saddle) and x > 0
                curv = -x * report.u_dd_at_lambda0
                pref = (
                    cmath.exp(-0.25j * math.pi)
                    * math.sqrt(2.0 * math.pi / curv)
                    * report.p_d1_at_lambda0
                )
            else:
                pref = 1.0
            contrib = pref * osc * term.amplitude * decay
            total += contrib
            moduli[term.label] = float(abs(contrib))
    except (OverflowError, ValueError) as exc:  # cmath.exp of an infinite phase: ValueError
        raise RhoOverflowError(f"rho overflows at (x, t) = ({x}, {t}): {exc}") from None
    if not cmath.isfinite(total):
        raise RhoOverflowError(f"rho is not finite at (x, t) = ({x}, {t}): {total}")
    return RhoValue(x=float(x), t=float(t), value=complex(total), term_moduli=moduli)
