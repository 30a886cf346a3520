"""Assembly and pointwise evaluation of the long-time / large-distance
expansion of the one-particle density matrix at fixed ratio t/x.

The expansion is the sum of three explicit oscillating terms (one per
one particle / one hole excitation pinned to the Fermi boundaries or the
saddle point) plus a ledger of subleading harmonics whose amplitudes are
not predicted by the method:

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# called through this module's globals, where benchmarks/spans.py patches them by name
from .amplitudes import ContourSpec, amplitude
from .dressing import DressedSet, dress_all
from .excitations import (
    SPACE_LIKE,
    critical_exponent_pair,
    find_saddle,
    harmonic_table,
    special_shift,
    u_combination,
    u_d2,
)


class LightConeError(ValueError):
    """Evaluation point too close to the light cone x = vF t."""


class RatioMismatchError(ValueError):
    """Evaluation point (x, t) inconsistent with the ratio the expansion was built at."""


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term of the expansion.

    exponent_plus  : power of (x - vF t)   (right Fermi boundary +q)
    exponent_minus : power of (x + vF t)   (left Fermi boundary -q)
    extra_power    : additional power of x (1/2 for the saddle term,
                     |l+ + l-|/2 for harmonics)
    amplitude      : assembled amplitude, or None when not predicted
    active         : whether the term enters evaluated values
    """

    label: str
    frequency: float
    exponent_plus: float
    exponent_minus: float
    extra_power: float = 0.0
    amplitude: float | None = None
    active: bool = True


# label -> (shift kind, exponent offsets at (+q, -q), extra power of x); the
# shift kind is also the amplitude kind
TERMS = {
    "saddle": ("saddle", (0.0, 0.0), 0.5),
    "two_pF": ("minus_q", (0.0, -1.0), 0.0),
    "zero_freq": ("empty", (1.0, 0.0), 0.0),
}


@dataclass
class ExpansionReport:
    """The expansion at one ratio t/x, computed stage by stage on first use.

    dressed -> saddle -> shifts -> exponents -> amplitudes -> terms, with the
    harmonic ledger beside: reading `exponents` never assembles an amplitude,
    and an error of a stage is raised by the first read that needs it.  A
    contour of None is `default_contour(dressed)`.
    """

    dressed: DressedSet
    ratio_t_over_x: float
    max_abs_ell: int = 2
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
    def u_dd_at_lambda0(self) -> float:
        return float(u_d2(self.lambda0, self.ratio_t_over_x, self.dressed))

    @cached_property
    def p_d1_at_lambda0(self) -> float:
        return float(self.dressed.p_d1(self.lambda0))

    @cached_property
    def shifts(self) -> dict:
        """Shift function of each explicit term, by label."""
        return {label: special_shift(kind, self.dressed, self.lambda0)
                for label, (kind, _, _) in TERMS.items()}

    @cached_property
    def exponents(self) -> dict:
        """(power of x - vF t, power of x + vF t) of each explicit term, by label."""
        return {label: critical_exponent_pair(self.shifts[label], *offsets)
                for label, (_, offsets, _) in TERMS.items()}

    @cached_property
    def amplitudes(self) -> dict:
        """AmplitudeResult of each active term, by label.

        The saddle term is active only in the space-like regime; in the
        time-like regime the saddle-vicinity physics lives in the (-1, 0)
        harmonic and its amplitude is not predicted.
        """
        return {
            label: amplitude(kind, self.dressed, lambda0=self.lambda0, regime=self.regime,
                             contour=self.contour)
            for label, (kind, _, _) in TERMS.items()
            if label != "saddle" or self.regime == SPACE_LIKE
        }

    @cached_property
    def terms(self) -> list:
        """One AsymptoticTerm per entry of TERMS, inactive ones with amplitude None."""
        frequency = {"saddle": self.u_at_lambda0 - self.pF,  # u(q) = p(q) since eps(q) = 0
                     "two_pF": -2.0 * self.pF, "zero_freq": 0.0}
        amps = self.amplitudes
        return [
            AsymptoticTerm(label, frequency[label], *self.exponents[label], extra_power,
                           amps[label].value if label in amps else None, label in amps)
            for label, (_, _, extra_power) in TERMS.items()
        ]

    @cached_property
    def harmonic_entries(self) -> list:
        """HarmonicEntry of each pair |l+-| <= max_abs_ell in the ledger."""
        return harmonic_table(self.max_abs_ell, self.dressed, self.lambda0, self.regime,
                              self.ratio_t_over_x)

    @cached_property
    def harmonics(self) -> list:
        """The harmonic ledger as inactive terms with amplitude None, never summed."""
        return [
            AsymptoticTerm(f"harmonic({e.ell_plus:+d},{e.ell_minus:+d})", e.frequency,
                           e.exponent_plus, e.exponent_minus, e.extra_power, None, False)
            for e in self.harmonic_entries
        ]


def assemble_expansion(
    params_or_dressed,
    ratio_t_over_x: float,
    max_abs_ell: int = 2,
    contour: ContourSpec | None = None,
    n_nodes: int = 96,
) -> ExpansionReport:
    """Build the term table at fixed ratio t/x > 0.

    The saddle term is active only in the space-like regime; in the time-like
    regime it is listed inactive with no amplitude.  Harmonics up to |l+-| <=
    max_abs_ell are appended with amplitude None, never summed.
    """
    if isinstance(params_or_dressed, DressedSet):
        dressed = params_or_dressed
    else:
        dressed = dress_all(params_or_dressed, n_nodes=n_nodes)
    report = ExpansionReport(dressed, ratio_t_over_x, max_abs_ell, contour)
    report.terms, report.harmonics  # every stage runs here, so evaluate_rho only sums
    return report


@dataclass(frozen=True)
class RhoValue:
    x: float
    t: float
    value: complex
    term_moduli: dict


def evaluate_rho(report: ExpansionReport, x: float, t: float) -> RhoValue:
    """Sum the active explicit terms at one point (x, t) with t/x equal to the
    report's ratio (to 1e-12 relative).

    Harmonic envelopes are excluded from the value; each active term's modulus
    is reported alongside.
    """
    if not (x > 0):
        raise ValueError(f"need x > 0, got x = {x}")
    ratio = t / x
    if abs(ratio - report.ratio_t_over_x) > 1e-12 * abs(report.ratio_t_over_x):
        raise RatioMismatchError(
            f"t/x = {ratio} but the expansion was assembled at {report.ratio_t_over_x}"
        )
    vF = report.vF
    if abs(x - vF * t) < 1e-9 * x:
        raise LightConeError(f"(x, t) = ({x}, {t}) within 1e-9 x of the light cone")

    log_plus = np.log(1j * (x + vF * t))  # principal branch
    log_minus = np.log(-1j * (x - vF * t))

    total = 0.0 + 0.0j
    moduli: dict = {}
    for term in report.terms:
        if not term.active:
            continue
        decay = np.exp(
            -term.exponent_minus * log_plus - term.exponent_plus * log_minus
        )
        osc = np.exp(1j * x * term.frequency)
        if term.label == "saddle":
            # sqrt(-2 i pi / (t eps'' - x p'')) = e^{-i pi/4} sqrt(2 pi / (-x u''))
            curv = -x * report.u_dd_at_lambda0
            if curv <= 0:
                raise ValueError("saddle curvature t eps'' - x p'' must be positive")
            pref = (
                np.exp(-0.25j * np.pi)
                * np.sqrt(2.0 * np.pi / curv)
                * report.p_d1_at_lambda0
            )
        else:
            pref = 1.0
        contrib = pref * osc * term.amplitude * decay
        total += contrib
        moduli[term.label] = float(abs(contrib))
    return RhoValue(x=float(x), t=float(t), value=complex(total), term_moduli=moduli)
