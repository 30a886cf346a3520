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

from dataclasses import dataclass, field

import numpy as np

from .amplitudes import ContourSpec, amplitude
from .dressing import DressedSet, dress_all
from .excitations import (
    SPACE_LIKE,
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


@dataclass
class ExpansionReport:
    """Everything needed to tabulate and evaluate the expansion at one ratio."""

    dressed: DressedSet
    ratio_t_over_x: float
    lambda0: float
    regime: str
    terms: list = field(default_factory=list)
    harmonics: list = field(default_factory=list)

    # cached scalars for evaluation
    u_at_lambda0: float = 0.0
    u_dd_at_lambda0: float = 0.0
    p_d1_at_lambda0: float = 0.0

    @property
    def q(self) -> float:
        return self.dressed.q

    @property
    def vF(self) -> float:
        return self.dressed.vF

    @property
    def pF(self) -> float:
        return self.dressed.pF


def assemble_expansion(
    params_or_dressed,
    ratio_t_over_x: float,
    max_abs_ell: int = 2,
    contour: ContourSpec | None = None,
    n_nodes: int = 96,
) -> ExpansionReport:
    """Build the term table at fixed ratio t/x > 0.

    The saddle term is active only in the space-like regime; in the time-like
    regime it is listed inactive with no amplitude (there the saddle-vicinity
    physics lives in the (-1, 0) harmonic).  Harmonics up to |l+-| <=
    max_abs_ell are appended with amplitude None, never summed.
    """
    if isinstance(params_or_dressed, DressedSet):
        dressed = params_or_dressed
    else:
        dressed = dress_all(params_or_dressed, n_nodes=n_nodes)
    lam0, regime = find_saddle(ratio_t_over_x, dressed)

    nu_sad = special_shift("saddle", dressed, lam0)
    nu_mq = special_shift("minus_q", dressed)
    nu_ee = special_shift("empty", dressed)

    u_l0 = float(u_combination(lam0, ratio_t_over_x, dressed))
    u_q = dressed.pF  # u(q) = p(q) since eps(q) = 0
    terms = []

    space_like = regime == SPACE_LIKE
    amp_sad = (
        amplitude("saddle", dressed, lambda0=lam0, regime=regime, contour=contour).value
        if space_like
        else None
    )
    terms.append(
        AsymptoticTerm(
            label="saddle",
            frequency=u_l0 - u_q,
            exponent_plus=nu_sad.at_q**2,
            exponent_minus=nu_sad.at_minus_q**2,
            extra_power=0.5,
            amplitude=amp_sad,
            active=space_like,
        )
    )
    terms.append(
        AsymptoticTerm(
            label="two_pF",
            frequency=-2.0 * dressed.pF,
            exponent_plus=nu_mq.at_q**2,
            exponent_minus=(nu_mq.at_minus_q - 1.0) ** 2,
            amplitude=amplitude("minus_q", dressed, contour=contour).value,
        )
    )
    terms.append(
        AsymptoticTerm(
            label="zero_freq",
            frequency=0.0,
            exponent_plus=(nu_ee.at_q + 1.0) ** 2,
            exponent_minus=nu_ee.at_minus_q**2,
            amplitude=amplitude("empty", dressed, contour=contour).value,
        )
    )

    harmonics = []
    for entry in harmonic_table(max_abs_ell, dressed, lam0, regime, ratio_t_over_x):
        harmonics.append(
            AsymptoticTerm(
                label=f"harmonic({entry.ell_plus:+d},{entry.ell_minus:+d})",
                frequency=entry.frequency,
                exponent_plus=entry.exponent_plus,
                exponent_minus=entry.exponent_minus,
                extra_power=entry.extra_power,
                amplitude=None,
                active=False,
            )
        )

    report = ExpansionReport(
        dressed=dressed,
        ratio_t_over_x=ratio_t_over_x,
        lambda0=lam0,
        regime=regime,
        terms=terms,
        harmonics=harmonics,
        u_at_lambda0=u_l0,
        u_dd_at_lambda0=float(u_d2(lam0, ratio_t_over_x, dressed)),
        p_d1_at_lambda0=float(dressed.p_d1(lam0)),
    )
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
