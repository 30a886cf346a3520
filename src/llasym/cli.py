"""Command-line front end.

Configuration is a flat key=value file (``--config``) with command-line
overrides.  Output is CSV with a '#'-prefixed metadata header block,
17 significant digits, no timestamps: re-runs are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 config/solver error or
unwritable output, 3 saddle/regime error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .amplitudes import CONTOUR_NODES, amplitude, contour_on, default_contour
from .asymptote import (
    RATIO_RTOL,
    TERMS,
    ExpansionReport,
    assemble_expansion,  # noqa: F401 -- patched by name in benchmarks/spans.py
    evaluate_rho,
)
from .dressing import N_NODES, BracketFailureError, SingularSystemError, dress_all
from .excitations import (
    MAX_ABS_ELL,
    DegenerateSaddleError,
    MultipleSaddlesError,
    NoSaddleError,
    find_saddle,  # noqa: F401 -- patched by name in benchmarks/spans.py
    harmonic_table,  # noqa: F401 -- patched by name in benchmarks/spans.py
    ledger_exponents,
    special_shift,
    u_d1,
)
from .model import ModelParams
from .specfun import barnes_g_log

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_SADDLE = 3

SADDLE_ERRORS = (NoSaddleError, MultipleSaddlesError, DegenerateSaddleError)
# ValueError covers StripError, ResonanceError, NonFiniteAmplitudeError,
# LightConeError, RatioMismatchError, RhoOverflowError, np.linalg.LinAlgError and
# a Gamma or ln G argument outside the domain of `specfun`
SOLVER_ERRORS = (BracketFailureError, SingularSystemError, ValueError)


class ConfigError(ValueError):
    """Malformed configuration file or inconsistent option set."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class RunConfig:
    c: float = 1.0
    h: float = 1.0
    ratio_t_over_x: float = 0.2
    n_nodes: int = N_NODES
    contour_nodes: int = CONTOUR_NODES
    max_abs_ell: int = MAX_ABS_ELL
    eval_points: tuple = ()
    output_path: str = ""
    perturb: float = 0.0

    def validate(self) -> None:
        # each test is written so that a NaN fails it
        for key in ("c", "h", "ratio_t_over_x"):
            val = getattr(self, key)
            if not (0 < val < math.inf):
                raise ConfigError(f"need {key} > 0 and finite, got {key} = {val}")
        # the upper bounds keep the n x n Nystrom and contour matrices and the
        # ladder's ~(2K+1)^2/2 rows within memory
        for key, lo, hi in (("n_nodes", 8, 2048), ("contour_nodes", 16, 2048),
                            ("max_abs_ell", 0, 50)):
            if not lo <= getattr(self, key) <= hi:
                raise ConfigError(f"need {lo} <= {key} <= {hi}, got {getattr(self, key)}")
        for x, t in self.eval_points:
            if not (0 < x < math.inf):
                raise ConfigError(f"eval point needs finite x > 0, got ({x}, {t})")
            # evaluate_rho's test, so a point accepted here is on the ray there
            if not (abs(t / x - self.ratio_t_over_x) <= RATIO_RTOL * abs(self.ratio_t_over_x)):
                raise ConfigError(
                    f"eval point ({x}, {t}) has t/x = {t / x}, inconsistent "
                    f"with ratio_t_over_x = {self.ratio_t_over_x} (relative tol {RATIO_RTOL:g})"
                )

    def points(self) -> list:
        """Configured eval points, or a default triple on the configured ray."""
        if self.eval_points:
            return [tuple(pt) for pt in self.eval_points]
        r = self.ratio_t_over_x
        return [(x, r * x) for x in (20.0, 40.0, 80.0)]


def _as_number(kind: type, key: str, val: str):
    try:
        return kind(val)
    except ValueError:
        what = "an integer" if kind is int else "a real number"
        raise ConfigError(f"config key {key} needs {what}, got {val!r}") from None


def _parse_eval_points(text: str) -> tuple:
    """Parse 'x1:t1, x2:t2, ...' (';' also accepted between pairs)."""
    pts = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad eval point {chunk!r}, expected x:t")
        pts.append(tuple(_as_number(float, "eval_points", part) for part in parts))
    return tuple(pts)


# how a config file value is read, by the type of its RunConfig field
_READERS = {
    "float": lambda key, val: _as_number(float, key, val),
    "int": lambda key, val: _as_number(int, key, val),
    "tuple": lambda key, val: _parse_eval_points(val),
    "str": lambda key, val: val,
}


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored; a key
    given twice is an error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw: dict = {}
    first: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, val = (s.strip() for s in stripped.split("=", 1))
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated, first on line {first[key]}")
        raw[key], first[key] = val, lineno
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the config file, then the options given on the command line."""
    types = {f.name: f.type for f in fields(RunConfig)}
    raw = load_config_file(args.config) if args.config else {}
    values = {}
    for key, val in raw.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _READERS[types[key]](key, val)
    values.update((key, val) for key, val in vars(args).items() if key in types and val is not None)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def expansion(cfg: RunConfig, dressed=None) -> ExpansionReport:
    """The lazy expansion pipeline at the configured ratio, contour nodes and
    ladder bound; `dressed` defaults to the configured couplings."""
    if dressed is None:
        dressed = dress_all(ModelParams(c=cfg.c, h=cfg.h), n_nodes=cfg.n_nodes)
    return ExpansionReport(
        dressed, cfg.ratio_t_over_x, cfg.max_abs_ell, default_contour(dressed, cfg.contour_nodes)
    )


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _g(v) -> str:
    return format(float(v), ".17g")


def _row(*vals) -> str:
    """One CSV line: strings as they are, numbers with 17 significant digits."""
    return ",".join(v if isinstance(v, str) else _g(v) for v in vals)


def _output(lines: list, code: int = EXIT_OK) -> tuple:
    """(text, exit code) of a command: its lines, each ended by a newline."""
    return "\n".join(lines) + "\n", code


def _header(title: str, cfg: RunConfig, keys: tuple, source, fields: tuple) -> list:
    """'# name = value' lines: the config's `keys`, then the attributes `fields` of `source`."""
    lines = [f"# llasym {title}"]
    for key in keys:
        val = getattr(cfg, key)
        lines.append(f"# {key} = {val if isinstance(val, int) else _g(val)}")
    for key in fields:
        lines.append(f"# {key} = {_row(getattr(source, key))}")
    return lines


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

_SADDLE_FIELDS = ("q", "lambda0", "regime")


def cmd_dress(cfg: RunConfig) -> tuple:
    dressed = expansion(cfg).dressed
    nodes = dressed.grid.nodes
    lines = _header("dress", cfg, ("c", "h", "n_nodes"), dressed, ("q", "D", "pF", "vF", "det_IK"))
    lines.append("lambda,p,p_prime,eps,Z")
    for row in zip(nodes, dressed.p(nodes), dressed.p_d1(nodes), dressed.eps(nodes), dressed.Z(nodes)):
        lines.append(_row(*row))
    return _output(lines)


def cmd_saddle(cfg: RunConfig) -> tuple:
    report = expansion(cfg)
    lam0, regime = report.saddle
    lines = _header("saddle", cfg, ("c", "h", "ratio_t_over_x", "n_nodes"), report, ("q", "vF"))
    lines.append("lambda0,regime,u_lambda0,u_d1_residual,u_d2_lambda0,frequency")
    u_d1_residual = abs(float(u_d1(lam0, cfg.ratio_t_over_x, report.dressed)))
    lines.append(_row(lam0, regime, report.u_at_lambda0, u_d1_residual, report.u_dd_at_lambda0,
                      report.saddle_frequency))
    return _output(lines)


def cmd_exponents(cfg: RunConfig) -> tuple:
    report = expansion(cfg)
    lines = _header("exponents", cfg, ("c", "h", "ratio_t_over_x", "n_nodes"), report, _SADDLE_FIELDS)
    lines.append("label,nu_at_q,nu_at_minus_q,exponent_plus,exponent_minus")
    for label, nu in report.shift_values.items():
        lines.append(_row(label, nu.at_q, nu.at_minus_q, *report.exponents[label][:2]))
    return _output(lines)


def cmd_amplitudes(cfg: RunConfig) -> tuple:
    report = expansion(cfg)
    keys = ("c", "h", "ratio_t_over_x", "n_nodes", "contour_nodes")
    lines = _header("amplitudes", cfg, keys, report, _SADDLE_FIELDS)
    lines.append("label,amplitude,phase_residual,active")
    for label in reversed(TERMS):
        res = report.amplitudes.get(label)
        if res is None:
            lines.append(f"{label},UNKNOWN,UNKNOWN,no")
        else:
            lines.append(_row(label, res.value, res.phase_residual, "yes"))
    return _output(lines)


def cmd_harmonics(cfg: RunConfig) -> tuple:
    report = expansion(cfg)
    keys = ("c", "h", "ratio_t_over_x", "n_nodes", "max_abs_ell")
    lines = _header("harmonics", cfg, keys, report, _SADDLE_FIELDS)
    lines.append("ell_plus,ell_minus,frequency,exponent,amplitude")
    for e in report.harmonics:
        lines.append(_row(str(e.ell_plus), str(e.ell_minus), e.frequency, e.exponent, "UNKNOWN"))
    return _output(lines)


def cmd_asymptotics(cfg: RunConfig) -> tuple:
    report = expansion(cfg)
    # the header reads the saddle first, so a degenerate saddle on the light
    # cone exits 3 before evaluate_rho can raise LightConeError
    keys = ("c", "h", "ratio_t_over_x", "n_nodes", "contour_nodes", "max_abs_ell")
    lines = _header("asymptotics", cfg, keys, report, ("q", "pF", "vF", "lambda0", "regime"))
    lines.append("# terms")
    lines.append("label,frequency,exponent_plus,exponent_minus,amplitude,active")
    for term in report.terms + report.harmonics:
        amp = "UNKNOWN" if term.amplitude is None else term.amplitude
        lines.append(_row(term.label, term.frequency, term.exponent_plus, term.exponent_minus, amp,
                          "yes" if term.active else "no"))
    lines.append("")
    lines.append("# evaluations")
    lines.append("x,t,re_rho,im_rho,mod_saddle,mod_two_pF,mod_zero_freq")
    for x, t in cfg.points():
        rho = evaluate_rho(report, x, t)
        moduli = (rho.term_moduli.get(label, 0.0) for label in TERMS)
        lines.append(_row(rho.x, rho.t, rho.value.real, rho.value.imag, *moduli))
    return _output(lines)


# ----------------------------------------------------------------------
# check registry, shared by `verify` and tests/test_acceptance.py
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """An identity that holds when residual(*inputs) < tol.

    `inputs` names the bound values the residual takes, in argument order
    (see `verify_inputs`); `what` names the residual in the report line.
    """

    name: str
    tol: float
    what: str
    residual: Callable[..., float]
    inputs: tuple = ()

    def run(self, bound: dict) -> tuple:
        """(passed, report line) with the inputs taken from `bound`."""
        resid = float(self.residual(*(bound[key] for key in self.inputs)))
        ok = resid < self.tol
        return ok, f"{'PASS' if ok else 'FAIL'} {self.name}: {self.what} {resid:.3e} (tol {self.tol:.0e})"


def _rel_err(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def _z_phi_residual(d, perturb: float) -> float:
    """Z(lam) = 1 + phi(lam, -q) - phi(lam, q), worst over the nodes."""
    nodes = d.grid.nodes
    z_vals = d.Z(nodes) + perturb
    return float(np.max(np.abs(z_vals - 1.0 - d.phi(nodes, -d.q) + d.phi(nodes, d.q))))


def _z_boundary_residual(d, perturb: float) -> float:
    """1/Z(q) = 1 + phi(-q, q) - phi(q, q)."""
    q = d.q
    zq = float(d.Z(q)) + perturb
    return abs(1.0 / zq - 1.0 - float(d.phi(-q, q)) + float(d.phi(q, q)))


def _edge_exponents(d, label: str) -> tuple:
    """(e+, e-) of an edge term of TERMS: no saddle needed."""
    kind, pair = TERMS[label]
    return ledger_exponents(special_shift(kind, d), pair)[:2]


def _exponent_deviation(d, label: str, expected: tuple) -> float:
    """Exponent pair of an edge term of TERMS against `expected`."""
    return max(abs(e - x) for e, x in zip(_edge_exponents(d, label), expected))


def _luttinger(d) -> tuple:
    """(1/(4K), 1/(2K) + 2K) with K = 2pF/vF: each zero-frequency exponent and the
    2pF exponent sum of a Luttinger liquid (Haldane, PRL 47, 1840 (1981))."""
    k = 2.0 * d.pF / d.vF
    return 0.25 / k, 0.5 / k + 2.0 * k


# The four fflab residuals import the lab themselves, so no other command loads it.

def _xn_residual() -> float:
    """Exhaustive particle-hole sum against its finite determinant."""
    from . import fflab

    return max(
        _rel_err(fflab.xn_bruteforce(inst), fflab.xn_determinant(inst))
        for inst in fflab.standard_matrix()
    )


_SINGSUM_POINTS = tuple(np.pi * (a + 0.5) / 10.0 for a in (-7, -2, 0, 3, 9))


def _singsum_closure() -> float:
    from . import fflab

    inst = fflab.singular_sum_instance(40)
    return max(fflab.singular_sum(inst, r, lam).residual for r in (0, 1, 2) for lam in _SINGSUM_POINTS)


def _singsum_scaling() -> float:
    """|log2(I1(w=40)/I1(w=80)) - 2|.

    The remainder falls as w^-(k+r-1) = w^-2 (quadratic phase k = 2, r = 1),
    so doubling the window divides it by 4; tolerance 1 is the open band
    (2, 8) for the ratio.
    """
    from . import fflab

    i40, i80 = (
        abs(fflab.singular_sum(fflab.singular_sum_instance(w), 1, _SINGSUM_POINTS[0]).remainder_closure)
        for w in (40, 80)
    )
    return abs(np.log2(i40 / i80) - 2.0)


# (phis, f) of the fixed-point maps: constant, geometric, coupled pair
_LAGRANGE_MAPS = (
    ([lambda a: 0.4 + 0.0 * a], lambda a: 1.0 + 2.0 * a),
    ([lambda a: 0.1 * a], np.exp),
    ([lambda a, b: 0.1 + 0.05 * b, lambda a, b: 0.2 + 0.05 * a], lambda a, b: np.exp(0.5 * (a + b))),
)


def _lagrange_residual() -> float:
    from . import fflab

    return max(
        _rel_err(fflab.lagrange_series(phis, f, max_order=8)[8], fflab.lagrange_closed_form(phis, f))
        for phis, f in _LAGRANGE_MAPS
    )


def _tonks_amplitude_residual(d, contour_nodes: int) -> float:
    value = amplitude("empty", d, contour=default_contour(d, contour_nodes)).value
    return _rel_err(value, float(np.pi * np.exp(4.0 * barnes_g_log(0.5)) * np.sqrt(d.q / 2.0)))


def _tonks_two_pF_ratio(d, contour_nodes: int) -> float:
    """|16 two_pF / zero_freq - 1|: Vaidya and Tracy's ratio 1/16 (PRL 42, 3 (1979))."""
    contour = contour_on(d, default_contour(d, contour_nodes))
    two_pF, zero_freq = (amplitude(kind, d, contour=contour).value for kind in ("minus_q", "empty"))
    return abs(16.0 * two_pF / zero_freq - 1.0)


def _velocity_residual(*sets) -> float:
    """-min(p', steps of v = eps'/p') on 1001 points of [-s, s], s = max(5q, 50),
    worst over the sets.  Negative where p' > 0 and v increases: then
    u' = p' (1 - (t/x) v) has one zero in `find_saddle`'s bracket for every
    t/x >= 0.02, the smallest of the benchmark's sweep box."""
    worst = -np.inf
    for d in sets:
        s = max(5.0 * d.q, 1.0 / 0.02)
        p_d1, eps_d1 = d.op.extend(np.linspace(-s, s, 1001), 0, (d.p_d1, d.eps_d1))
        worst = max(worst, -np.min(p_d1), -np.min(np.diff(eps_d1 / p_d1)))
    return worst


CHECKS = {check.name: check for check in (
    Check("Z_phi_identity(c=1,h=1)", 1e-7, "max node residual", _z_phi_residual, ("d11", "perturb")),
    Check("Z_boundary_inverse(c=1,h=1)", 1e-7, "residual", _z_boundary_residual, ("d11", "perturb")),
    Check("Z_phi_identity(c=4,h=1)", 1e-7, "max node residual", _z_phi_residual, ("d41", "perturb")),
    Check("Z_phi_identity(c=16,h=2)", 1e-7, "max node residual", _z_phi_residual, ("d162", "perturb")),
    Check("tonks_fermi_boundary", 1e-5, "|q - 1|", lambda d: abs(d.q - 1.0), ("tonks",)),
    Check("tonks_dressed_charge", 1e-5, "max |Z - 1|",
          lambda d: np.max(np.abs(d.Z(d.grid.nodes) - 1.0)), ("tonks",)),
    Check("tonks_fermi_velocity", 1e-4, "|vF - 2|", lambda d: abs(d.vF - 2.0), ("tonks",)),
    Check("tonks_exponents_zero_freq", 1e-5, "worst deviation from (1/4, 1/4)",
          lambda d: _exponent_deviation(d, "zero_freq", (0.25, 0.25)), ("tonks",)),
    Check("tonks_exponents_two_pF", 1e-4, "worst deviation from (1/4, 9/4)",
          lambda d: _exponent_deviation(d, "two_pF", (0.25, 2.25)), ("tonks",)),
    Check("xn_sum_vs_determinant", 1e-10, "12 instances, worst rel err", _xn_residual),
    Check("singular_sum_closure", 1e-8, "r in {0,1,2} at 5 points, worst residual", _singsum_closure),
    Check("singular_sum_tail_scaling", 1.0, "|log2(I1(w=40)/I1(w=80)) - 2|", _singsum_scaling),
    Check("lagrange_order8", 1e-8, "three maps, worst |S_8 - closed|/|closed|", _lagrange_residual),
    Check("amplitude_phase_residual(c=1,h=1)", 1e-6, "worst |Im|/Re",
          lambda amps: max(res.phase_residual / abs(res.value) for res in amps), ("amps",)),
    Check("tonks_amplitude_closed_form", 1e-4, "rel err vs pi G(1/2)^4 sqrt(q/2)",
          _tonks_amplitude_residual, ("tonks", "contour_nodes")),
    Check("tonks_two_pF_ratio", 1e-4, "|16 two_pF/zero_freq - 1|",
          _tonks_two_pF_ratio, ("tonks", "contour_nodes")),
    Check("luttinger_zero_freq_exponents", 1e-10, "worst deviation from 1/(4K), K = 2pF/vF",
          lambda d: _exponent_deviation(d, "zero_freq", (_luttinger(d)[0],) * 2), ("d11",)),
    Check("luttinger_two_pF_exponent_sum", 1e-10, "|e+ + e- - 1/(2K) - 2K|",
          lambda d: abs(sum(_edge_exponents(d, "two_pF")) - _luttinger(d)[1]), ("d11",)),
    Check("dressed_velocity_increasing", 0.0, "-min(p', dv), v = eps'/p', 1001 points",
          _velocity_residual, ("d11", "d41", "d162")),
)}

# Run by the acceptance gate only: it re-dresses at 192 nodes and re-assembles on
# a 512-node contour, work that `verify` does not do.
NODE_DOUBLING = Check(
    "amplitude_node_doubling", 1e-6, "worst rel change",
    lambda amps, fine: max(_rel_err(f.value, a.value) for a, f in zip(amps, fine)), ("amps", "amps_fine"),
)

# dressed-set inputs of the registry and their couplings (c, h)
_VERIFY_COUPLINGS = {"d11": (1.0, 1.0), "d41": (4.0, 1.0), "d162": (16.0, 2.0), "tonks": (1e6, 1.0)}


def verify_inputs(cfg: RunConfig) -> dict:
    """The registry's inputs at the verify couplings."""
    bound = {
        key: dress_all(ModelParams(c=c, h=h), n_nodes=cfg.n_nodes)
        for key, (c, h) in _VERIFY_COUPLINGS.items()
    }
    amps = list(expansion(cfg, bound["d11"]).amplitudes.values())
    return {**bound, "amps": amps, "perturb": cfg.perturb, "contour_nodes": cfg.contour_nodes}


def cmd_verify(cfg: RunConfig) -> tuple:
    # Load the lab before the dressing allocates: loaded later, between the
    # dressing's arrays, it left the process's peak resident memory slightly higher.
    from . import fflab  # noqa: F401

    bound = verify_inputs(cfg)
    results = [check.run(bound) for check in CHECKS.values()]
    lines = ["# llasym verify"]
    if cfg.perturb != 0.0:
        lines.append(f"# perturb = {_g(cfg.perturb)} (added to Z before identity checks)")
    lines += [line for _, line in results]
    n_fail = sum(1 for ok, _ in results if not ok)
    lines.append(f"# checks = {len(results)}, failures = {n_fail}")
    return _output(lines, EXIT_OK if n_fail == 0 else EXIT_VERIFY)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

# subcommand -> (command, help); a command returns (text, exit code)
_COMMANDS = {
    "dress": (cmd_dress, "dressed momentum/energy/charge table and scalar summary"),
    "saddle": (cmd_saddle, "saddle point of u = p - (t/x) eps"),
    "exponents": (cmd_exponents, "critical exponent pairs of the explicit terms"),
    "amplitudes": (cmd_amplitudes, "term amplitudes with phase residuals"),
    "asymptotics": (cmd_asymptotics, "full term table and rho(x,t) evaluations"),
    "harmonics": (cmd_harmonics, "subleading harmonic frequencies and exponents"),
    "verify": (cmd_verify, "run the self-check suite (exit 1 on any FAIL)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llasym",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None, help="key=value config file")
        p.add_argument("--out", dest="output_path", metavar="PATH", default=None,
                       help="output file (default stdout)")
        p.add_argument("--nodes", dest="n_nodes", metavar="N", type=int, default=None,
                       help="quadrature nodes")
        p.add_argument(
            "--contour-nodes", metavar="N", type=int, default=None, help="contour quadrature nodes"
        )
        p.add_argument("--max-ell", dest="max_abs_ell", metavar="K", type=int, default=None,
                       help="harmonic ladder bound")
        if command is cmd_verify:
            p.add_argument(
                "--perturb",
                metavar="EPS",
                type=float,
                default=None,
                help="inject EPS into Z to demonstrate identity sensitivity",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        text, code = _COMMANDS[args.command][0](cfg)
    except SADDLE_ERRORS as exc:
        print(f"saddle error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SADDLE
    except SOLVER_ERRORS as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return code


def entry(argv=None) -> int:
    """`main` for a process that exits next: `python -m llasym.cli` and the
    `llasym` console script.

    After the command it freezes the garbage collector, so the interpreter's
    collections at exit skip the objects still alive instead of traversing
    them all.  `main` itself does not freeze: tests and the benchmark's
    traced run call it in a process that goes on.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
