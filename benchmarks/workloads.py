"""The three workloads: parameter sweep, ray fan and cold command line.

Each workload draws its inputs from the seed, sets up (the median of
SETUP_REPEATS set-ups is `setup_s`), runs one untimed warm-up operation
inside each set-up, then runs whole rounds of operations until the run
length has passed, timing each operation and checking its output.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 7
LIBRARY_MODULES = (
    "llasym", "llasym.model", "llasym.dressing", "llasym.excitations",
    "llasym.specfun", "llasym.amplitudes", "llasym.asymptote",
)
CLI_MODULES = LIBRARY_MODULES + ("llasym.cli", "llasym.fflab", "llasym.fflab.discrete")

# Input box of `sweep`: c log-uniform on [0.5, 64], h log-uniform on [0.5, 4],
# t/x alternating between a space-like and a time-like band.  Over the box
# v_F lies in [1.07, 3.95], so (t/x) v_F <= 0.79 or >= 1.29.
C_RANGE = (0.5, 64.0)
H_RANGE = (0.5, 4.0)
SPACE_BAND = (0.02, 0.2)
TIME_BAND = (1.2, 4.0)
# Where the fixed contour fails to converge, as a function of g = c / sqrt(h)
# (the dressed equations depend on c and h only through g): weak coupling, and
# narrow resonances where e^{+-2 i pi nu(w)} - 1 nearly vanishes at a contour
# node.  Seeded draws skip these bands; FAILING_INPUTS carry the fault instead.
EXCLUDED_G = ((0.0, 0.85), (2.0, 2.16))
# Inputs on which the 2p_F amplitude fails the contour-doubling check every
# time.  Each sweep round runs them once, so `failed` is the same share of
# `attempted` in every run.
FAILING_INPUTS = ((0.6, 3.09, 0.1), (0.5, 1.0, 0.1), (2.625, 1.549, 0.1))
SWEEP_DRAWS = 24          # seeded points per sweep round
SWEEP_RHO_POINTS = 8      # evaluate_rho points per sweep operation
X_RANGE = (10.0, 2000.0)

RAY_COUPLINGS = (1.0, 2.0, 4.0)   # at h = 1; every amplitude converges there
RAY_RHO_POINTS = 1000
RAY_DOUBLING_SHARE = 0.25         # share of ray_fan operations doubling-checked

CLI_CONFIGS = ((1.0, 1.0, 0.2), (2.0, 1.0, 1.5), (8.0, 2.0, 0.05))
CLI_EVAL_POINTS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import llasym.cli; "
    "print(time.perf_counter() - t); print(llasym.cli.__file__)"
)

MIN_OPS = {"sweep": 100, "ray_fan": 100, "cli": 1}
WARMUP = (1.0, 1.0, 0.2)  # the ROADMAP's end-to-end reference point


class SourceTreeError(RuntimeError):
    """The checkout has no llasym source tree to benchmark."""


def fresh_import(names) -> dict:
    """Import llasym's modules from the checkout's src/, dropping earlier imports."""
    if not (SRC / "llasym" / "__init__.py").is_file():
        raise SourceTreeError(f"no llasym source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "llasym" or k.startswith("llasym.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(name) for name in names}
    where = Path(mods["llasym"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceTreeError(f"llasym imported from {where}, not from {SRC}")
    return mods


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _excluded(c: float, h: float) -> bool:
    g = c / np.sqrt(h)
    return any(lo <= g <= hi for lo, hi in EXCLUDED_G)


def draw_ray(rng, index: int) -> float:
    lo, hi = SPACE_BAND if index % 2 == 0 else TIME_BAND
    return float(rng.uniform(lo, hi))


def draw_xs(rng, n: int) -> np.ndarray:
    return np.sort(np.exp(rng.uniform(np.log(X_RANGE[0]), np.log(X_RANGE[1]), n)))


def sweep_inputs(seed: int) -> list:
    """SWEEP_DRAWS seeded (c, h, t/x, xs) outside EXCLUDED_G, then FAILING_INPUTS."""
    rng = np.random.default_rng([seed, 1])
    points = []
    while len(points) < SWEEP_DRAWS:
        c, h = _log_uniform(rng, *C_RANGE), _log_uniform(rng, *H_RANGE)
        if _excluded(c, h):
            continue
        r = draw_ray(rng, len(points))
        points.append((c, h, r, draw_xs(rng, SWEEP_RHO_POINTS)))
    for c, h, r in FAILING_INPUTS:
        points.append((c, h, r, draw_xs(rng, SWEEP_RHO_POINTS)))
    return points


# ----------------------------------------------------------------------
# operations on the library
# ----------------------------------------------------------------------

@dataclass
class Expansion:
    """One expansion and the rho values the operation asked for."""

    report: object
    xs: np.ndarray
    ts: np.ndarray
    rhos: list
    rho_seconds: float = 0.0

    def fingerprint(self) -> tuple:
        rep = self.report
        terms = tuple(
            (t.label, t.frequency, t.exponent_plus, t.exponent_minus, t.extra_power,
             t.amplitude, t.active)
            for t in list(rep.terms) + list(rep.harmonics)
        )
        rho = tuple((r.value, tuple(sorted(r.term_moduli.items()))) for r in self.rhos)
        return (rep.q, rep.pF, rep.vF, rep.lambda0, rep.regime, rep.u_dd_at_lambda0,
                rep.p_d1_at_lambda0, terms, rho)


def expand(mods: dict, params_or_dressed, ratio: float, xs: np.ndarray) -> Expansion:
    """assemble_expansion at `ratio`, then evaluate_rho at each x on the ray."""
    asym = mods["llasym.asymptote"]
    report = asym.assemble_expansion(params_or_dressed, ratio)
    t0 = perf_counter()
    ts = ratio * xs
    rhos = [asym.evaluate_rho(report, x, t) for x, t in zip(xs.tolist(), ts.tolist())]
    return Expansion(report, xs, ts, rhos, perf_counter() - t0)


def _active_terms(report) -> list:
    return [
        (t.label, t.frequency, t.exponent_plus, t.exponent_minus, t.amplitude)
        for t in report.terms if t.active
    ]


def check_expansion(exp: Expansion) -> list:
    """Every check on one expansion except contour doubling."""
    rep = exp.report
    d = rep.dressed
    q = d.q
    fails = checks.luttinger(float(d.Z(q)), d.pF, d.vF)
    fails += checks.eps_at_q(float(d.eps(q)))
    fails += checks.exponents(
        {t.label: (t.exponent_plus, t.exponent_minus) for t in rep.terms}, d.pF, d.vF
    )
    fails += checks.regime(rep.ratio_t_over_x, d.vF, rep.regime)
    fails += checks.saddle_maximum(
        d.p, d.eps, d.p_d1, d.eps_d1, rep.ratio_t_over_x, rep.lambda0, rep.u_dd_at_lambda0
    )
    terms = _active_terms(rep)
    fails += checks.amplitudes_positive({t[0]: t[4] for t in terms})
    active = {t.label for t in rep.terms if t.active}
    expected = {"two_pF", "zero_freq"} | ({"saddle"} if rep.regime == "space-like" else set())
    if active != expected:
        fails.append(f"active terms {sorted(active)} in the {rep.regime} regime")
    values = [r.value for r in exp.rhos]
    moduli = {t[0]: [r.term_moduli[t[0]] for r in exp.rhos] for t in terms}
    fails += checks.rho_matches(
        values, moduli, terms, d.vF, rep.u_dd_at_lambda0, rep.p_d1_at_lambda0, exp.xs, exp.ts
    )
    return fails


def check_doubling(mods: dict, report, labels) -> list:
    """Contour doubling for the given active terms: default nodes against twice as many."""
    amp = mods["llasym.amplitudes"]
    d = report.dressed
    contour = amp.default_contour(d, 2 * amp.default_contour(d).n_nodes)
    kinds = {"zero_freq": "empty", "two_pF": "minus_q", "saddle": "saddle"}
    saddle = {"lambda0": report.lambda0, "regime": report.regime}
    doubled = {
        label: amp.amplitude(kinds[label], d, contour=contour,
                             **(saddle if label == "saddle" else {})).value
        for label in labels
    }
    amps = {t.label: t.amplitude for t in report.terms if t.label in labels}
    return checks.contour_doubling(amps, doubled)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class Record:
    """One timed operation."""

    seconds: float
    traced: bool
    failed: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class RunState:
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # failed checks: correct = False
    failures: list = field(default_factory=list)   # failed operations, by input
    setup_times: list = field(default_factory=list)
    probes: dict = field(default_factory=dict)


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, float), q))


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def op_metrics(records: list, rss_mb: float) -> tuple:
    """The end-to-end metrics every workload reports, from its untraced
    operations, and the throughput and tail as notes."""
    times = [r.seconds for r in records]
    notes = [f"# operations per second {len(times) / sum(times):.4f}"]
    if len(times) >= 100:   # ten operations beyond the p90
        notes.append(f"# operation p90 {1e3 * _percentile(times, 90):.3f} ms")
    return {"op_p50_ms": (1e3 * _percentile(times, 50), "ms"), "peak_rss_mb": (rss_mb, "MB")}, notes


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

class Sweep:
    """A fresh parameter point per operation: assemble_expansion from ModelParams."""

    name = "sweep"
    modules = LIBRARY_MODULES

    def __init__(self, seed: int):
        self.seed = seed
        self.points = []
        self.mods = {}
        self.seen: dict = {}   # input index -> (fingerprint, failure messages)

    def setup(self, state: RunState) -> None:
        self.mods = fresh_import(self.modules)
        self.points = sweep_inputs(self.seed)
        c, h, r = WARMUP
        self.warm = expand(self.mods, self.mods["llasym.model"].ModelParams(c, h), r,
                           draw_xs(np.random.default_rng(0), SWEEP_RHO_POINTS))

    def check_setup(self, state: RunState) -> None:
        state.problems += [f"warm-up: {m}" for m in check_expansion(self.warm)]

    def round(self, k: int) -> list:
        return list(range(len(self.points)))

    def run(self, i: int, traced: bool) -> tuple:
        c, h, r, xs = self.points[i]
        params = self.mods["llasym.model"].ModelParams(c, h)
        t0 = perf_counter()
        exp = expand(self.mods, params, r, xs)
        return Record(perf_counter() - t0, traced), exp

    def check(self, i: int, rec: Record, exp: Expansion, state: RunState) -> None:
        c, h, r, _ = self.points[i]
        label = f"c={c!r} h={h!r} t/x={r!r}"
        problems = [f"sweep {label}: {m}" for m in check_expansion(exp)]
        fp = exp.fingerprint()
        if i not in self.seen:
            active = [t.label for t in exp.report.terms if t.active]
            doubling = check_doubling(self.mods, exp.report, active)
            self.seen[i] = (fp, doubling)
            if doubling:
                state.failures.append(f"sweep {label}: " + "; ".join(doubling))
        elif fp != self.seen[i][0]:
            problems.append(f"sweep {label}: output differs from the first run of this input")
        rec.failed = bool(self.seen[i][1])
        state.problems += problems

    def metrics(self, state: RunState) -> tuple:
        return op_metrics([r for r in state.records if not r.traced], peak_rss_mb())


# ----------------------------------------------------------------------
# ray_fan
# ----------------------------------------------------------------------

class RayFan:
    """Dressed sets built in set-up; each operation takes a fresh ray."""

    name = "ray_fan"
    modules = LIBRARY_MODULES

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.mods = {}
        self.dressed = []
        self.fixed_terms: dict = {}

    def setup(self, state: RunState) -> None:
        self.mods = fresh_import(self.modules)
        model, dressing = self.mods["llasym.model"], self.mods["llasym.dressing"]
        self.dressed = [dressing.dress_all(model.ModelParams(c, 1.0)) for c in RAY_COUPLINGS]
        self.warm = expand(self.mods, self.dressed[0], WARMUP[2],
                           draw_xs(np.random.default_rng(0), RAY_RHO_POINTS))

    def check_setup(self, state: RunState) -> None:
        state.problems += [f"warm-up: {m}" for m in check_expansion(self.warm)]
        # the ray-independent terms, their convergence under doubling, per coupling
        for k, d in enumerate(self.dressed):
            rep = self.warm.report if k == 0 else self.mods["llasym.asymptote"].assemble_expansion(
                d, WARMUP[2])
            fixed = {t.label: t for t in rep.terms if t.label in ("two_pF", "zero_freq")}
            self.fixed_terms[k] = fixed
            state.problems += [f"ray_fan c={RAY_COUPLINGS[k]!r}: {m}"
                               for m in check_doubling(self.mods, rep, list(fixed))]

    def round(self, k: int) -> list:
        """Each coupling once on a fresh space-like ray and once on a fresh time-like one."""
        return [
            (j, draw_ray(self.rng, band), draw_xs(self.rng, RAY_RHO_POINTS),
             self.rng.random() < RAY_DOUBLING_SHARE)
            for j in range(len(self.dressed)) for band in (0, 1)
        ]

    def run(self, op, traced: bool) -> tuple:
        j, r, xs, _ = op
        t0 = perf_counter()
        exp = expand(self.mods, self.dressed[j], r, xs)
        rec = Record(perf_counter() - t0, traced)
        rec.extra["rho_seconds"] = exp.rho_seconds
        rec.extra["rho_points"] = len(xs)
        return rec, exp

    def check(self, op, rec: Record, exp: Expansion, state: RunState) -> None:
        j, r, _, doubling = op
        label = f"c={RAY_COUPLINGS[j]!r} t/x={r!r}"
        problems = [f"ray_fan {label}: {m}" for m in check_expansion(exp)]
        for t in exp.report.terms:
            if t.label in self.fixed_terms[j] and t != self.fixed_terms[j][t.label]:
                problems.append(f"ray_fan {label}: {t.label} term differs between rays")
        if doubling and exp.report.regime == "space-like":
            problems += [f"ray_fan {label}: {m}"
                         for m in check_doubling(self.mods, exp.report, ["saddle"])]
        state.problems += problems

    def metrics(self, state: RunState) -> tuple:
        recs = [r for r in state.records if not r.traced]
        values, notes = op_metrics(recs, peak_rss_mb())
        rho_s = sum(r.extra["rho_seconds"] for r in recs)
        notes.append(f"# rho points per second {sum(r.extra['rho_points'] for r in recs) / rho_s:.1f}")
        return values, notes


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def _config_text(c: float, h: float, r: float, xs) -> str:
    pts = ", ".join(f"{x!r}:{r * x!r}" for x in np.asarray(xs).tolist())
    return f"c = {c!r}\nh = {h!r}\nratio_t_over_x = {r!r}\neval_points = {pts}\n"


class Cli:
    """Fresh interpreters: `asymptotics --config <cfg>`, then `verify`.

    One operation is that pair of invocations.  The traced run calls
    `llasym.cli.main` in process instead, so the layer spans can be
    recorded, and probes interpreter start and import on their own.
    """

    name = "cli"
    modules = CLI_MODULES

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.configs = [
            _config_text(c, h, r, draw_xs(rng, CLI_EVAL_POINTS)) for c, h, r in CLI_CONFIGS
        ]
        self.order = [int(k) for k in rng.permutation(len(CLI_CONFIGS))]
        self.workdir = workdir
        self.paths = []
        self.reference: dict = {}
        self.n_setups = 0
        self.mods = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def _spawn(self, args) -> tuple:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return perf_counter() - t0, proc

    def _argv(self, j) -> list:
        return ["asymptotics", "--config", str(self.paths[j])] if j is not None else ["verify"]

    def _invoke(self, j) -> tuple:
        """One command: `asymptotics` on config j, or `verify` when j is None."""
        if not self.mods:
            return self._spawn(["-m", "llasym.cli", *self._argv(j)])
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.mods["llasym.cli"].main(self._argv(j))
        t = perf_counter() - t0
        return t, subprocess.CompletedProcess(self._argv(j), code, buf.getvalue(), "")

    def setup(self, state: RunState) -> None:
        if not (SRC / "llasym" / "__init__.py").is_file():
            raise SourceTreeError(f"no llasym source tree at {SRC}")
        self.paths = []
        for k, text in enumerate(self.configs):
            path = self.workdir / f"asym{k}.cfg"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        # the warm-up invocation; successive set-ups cover every config
        j = self.n_setups % len(self.paths)
        self.n_setups += 1
        _, proc = self._invoke(j)
        self._keep(j, proc, state)

    def check_setup(self, state: RunState) -> None:
        pass

    def _keep(self, j, proc, state: RunState) -> None:
        """Check one invocation's output and compare it with the first of its kind."""
        name = "cli verify" if j is None else f"cli asymptotics config {j}"
        if proc.returncode != 0 or proc.stderr:
            state.problems.append(f"{name}: exit {proc.returncode}, stderr {proc.stderr!r}")
            return
        fails = checks.cli_verify(proc.stdout) if j is None else checks.cli_asymptotics(proc.stdout)
        if proc.stdout != self.reference.setdefault(j, proc.stdout):
            fails.append("output differs from the first run of this command")
        state.problems += [f"{name}: {m}" for m in fails]

    def round(self, k: int) -> list:
        return list(self.order)

    def run(self, j, traced: bool) -> tuple:
        t_asym, asym = self._invoke(j)
        t_verify, verify = self._invoke(None)
        rec = Record(t_asym + t_verify, traced,
                     failed=asym.returncode != 0 or verify.returncode != 0)
        rec.extra.update(asymptotics_s=t_asym, verify_s=t_verify)
        return rec, (asym, verify)

    def check(self, j, rec: Record, procs, state: RunState) -> None:
        self._keep(j, procs[0], state)
        self._keep(None, procs[1], state)

    def in_process(self) -> None:
        """Switch to in-process calls of llasym.cli.main (the traced run)."""
        self.mods = fresh_import(self.modules)

    def probe(self, state: RunState) -> None:
        """Interpreter start and `import llasym.cli`, each in a fresh interpreter."""
        t, proc = self._spawn(["-c", "pass"])
        state.probes.setdefault("cli.interpreter_s", []).append(t)
        _, proc = self._spawn(["-c", IMPORT_PROBE])
        out = proc.stdout.split()
        if proc.returncode != 0 or len(out) != 2 or SRC.resolve() not in Path(out[1]).resolve().parents:
            state.problems.append(f"import probe: exit {proc.returncode}, output {proc.stdout!r}")
            return
        state.probes.setdefault("cli.import_s", []).append(float(out[0]))

    def metrics(self, state: RunState) -> tuple:
        recs = [r for r in state.records if not r.traced]
        values, notes = op_metrics(recs, peak_rss_mb(resource.RUSAGE_CHILDREN))
        notes += [
            f"# asymptotics p50 {_percentile([r.extra['asymptotics_s'] for r in recs], 50):.4f} s",
            f"# verify p50 {_percentile([r.extra['verify_s'] for r in recs], 50):.4f} s",
        ]
        return values, notes


def make(name: str, seed: int, workdir: Path):
    if name == "sweep":
        return Sweep(seed)
    if name == "ray_fan":
        return RayFan(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
