"""Tests of the benchmark itself: tiny runs of every workload, each output
check against a deliberately wrong value, and traced == untraced outputs.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def tiny(monkeypatch):
    """Smallest sizes at which every workload still runs all its checks."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MIN_OPS", {"sweep": 1, "ray_fan": 1, "cli": 1})
    monkeypatch.setattr(workloads, "SWEEP_DRAWS", 2)
    monkeypatch.setattr(workloads, "RAY_RHO_POINTS", 50)
    monkeypatch.setattr(workloads, "CLI_CONFIGS", workloads.CLI_CONFIGS[:1])


@pytest.fixture(scope="module")
def mods():
    return workloads.fresh_import(workloads.LIBRARY_MODULES)


@pytest.fixture(scope="module")
def space_like(mods):
    params = mods["llasym.model"].ModelParams(1.0, 1.0)
    return workloads.expand(mods, params, 0.2, np.geomspace(10.0, 2000.0, 16))


# ----------------------------------------------------------------------
# tiny runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [7, 8])
def test_sweep_tiny_run_counts_the_named_fault(tiny, tmp_path, seed):
    result, lines, _ = run.run("sweep", seed, 0.0, False, tmp_path)
    assert result["correct"], lines
    # one round: two seeded draws plus the three inputs that fail contour
    # doubling, whatever the seed
    assert result["attempted"] == 5
    assert result["failed"] == 3
    assert sum(ln.startswith("# FAILED") for ln in lines) == 3
    assert set(result["metrics"]) == {"op_p50_ms", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("name", ["ray_fan", "cli"])
def test_tiny_run_passes_its_checks(tiny, tmp_path, name):
    result, lines, _ = run.run(name, 7, 0.0, False, tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_sweep_inputs_are_seeded_and_skip_the_fault_bands():
    a, b = workloads.sweep_inputs(3), workloads.sweep_inputs(3)
    assert [p[:3] for p in a] == [p[:3] for p in b]
    assert [p[:3] for p in a] != [p[:3] for p in workloads.sweep_inputs(4)]
    seeded = a[: workloads.SWEEP_DRAWS]
    assert not any(workloads._excluded(c, h) for c, h, _, _ in seeded)
    assert [p[:3] for p in a[workloads.SWEEP_DRAWS:]] == list(workloads.FAILING_INPUTS)
    for k, (_, _, r, _) in enumerate(seeded):
        lo, hi = workloads.SPACE_BAND if k % 2 == 0 else workloads.TIME_BAND
        assert lo <= r <= hi


# ----------------------------------------------------------------------
# each check rejects a wrong value
# ----------------------------------------------------------------------

def test_checks_pass_on_a_correct_expansion(mods, space_like):
    assert workloads.check_expansion(space_like) == []
    assert workloads.check_doubling(mods, space_like.report, ["saddle", "two_pF", "zero_freq"]) == []


def test_luttinger_rejects_a_perturbed_charge(space_like):
    d = space_like.report.dressed
    z = float(d.Z(d.q))
    assert checks.luttinger(z, d.pF, d.vF) == []
    assert checks.luttinger(z * (1 + 1e-9), d.pF, d.vF)


def test_eps_at_q_rejects_a_missed_boundary():
    assert checks.eps_at_q(1e-11) == []
    assert checks.eps_at_q(1e-7)


def test_exponents_reject_a_swap(space_like):
    rep = space_like.report
    terms = {t.label: (t.exponent_plus, t.exponent_minus) for t in rep.terms}
    assert checks.exponents(terms, rep.pF, rep.vF) == []
    swapped = dict(terms)
    swapped["zero_freq"] = (terms["two_pF"][0], terms["zero_freq"][1])
    swapped["two_pF"] = (terms["zero_freq"][0], terms["two_pF"][1])
    assert checks.exponents(swapped, rep.pF, rep.vF)


def test_regime_rejects_the_wrong_label():
    assert checks.regime(0.2, 1.5, "space-like") == []
    assert checks.regime(0.2, 1.5, "time-like")
    assert checks.regime(1.2, 1.5, "space-like")


def test_saddle_maximum_rejects_a_shifted_point_and_a_wrong_curvature(space_like):
    rep = space_like.report
    d = rep.dressed
    args = (d.p, d.eps, d.p_d1, d.eps_d1, rep.ratio_t_over_x)
    assert checks.saddle_maximum(*args, rep.lambda0, rep.u_dd_at_lambda0) == []
    assert checks.saddle_maximum(*args, rep.lambda0 + 1e-3, rep.u_dd_at_lambda0)
    assert checks.saddle_maximum(*args, rep.lambda0, rep.u_dd_at_lambda0 * 1.01)


def test_amplitudes_positive_rejects_bad_values():
    assert checks.amplitudes_positive({"a": 0.3}) == []
    assert checks.amplitudes_positive({"a": -0.3})
    assert checks.amplitudes_positive({"a": float("nan")})
    assert checks.amplitudes_positive({"a": 0.0})


def test_contour_doubling_rejects_a_moving_amplitude():
    assert checks.contour_doubling({"two_pF": 1.0}, {"two_pF": 1.0 + 1e-8}) == []
    assert checks.contour_doubling({"two_pF": 1.0}, {"two_pF": 1.0 + 1e-5})


def test_rho_rejects_a_value_off_by_1e_9(space_like):
    exp = dataclasses.replace(space_like)
    assert workloads.check_expansion(exp) == []
    rhos = list(exp.rhos)
    rhos[-1] = dataclasses.replace(rhos[-1], value=rhos[-1].value * (1 + 1e-9))
    assert workloads.check_expansion(dataclasses.replace(exp, rhos=rhos))


def test_ray_fan_rejects_a_ray_dependent_fixed_term(tiny, tmp_path):
    wl = workloads.make("ray_fan", 1, tmp_path)
    state = workloads.RunState()
    wl.setup(state)
    wl.check_setup(state)
    op = wl.round(0)[0]
    rec, exp = wl.run(op, False)
    wl.check(op, rec, exp, state)
    assert state.problems == []
    bad = [dataclasses.replace(t, amplitude=t.amplitude * (1 + 1e-15))
           if t.label == "two_pF" else t for t in exp.report.terms]
    exp.report.terms = bad
    wl.check(op, rec, exp, state)
    assert any("differs between rays" in p for p in state.problems)


def _asymptotics_text(tmp_path) -> str:
    cfg = tmp_path / "a.cfg"
    cfg.write_text(workloads._config_text(1.0, 1.0, 0.2, [20.0, 400.0]), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "llasym.cli", "asymptotics", "--config", str(cfg)],
        capture_output=True, text=True, cwd=workloads.ROOT,
        env={**os.environ, "PYTHONPATH": str(workloads.SRC)}, check=True,
    )
    return proc.stdout


def test_cli_checks_reject_a_changed_exponent_and_a_failed_verify(tmp_path):
    text = _asymptotics_text(tmp_path)
    assert checks.cli_asymptotics(text) == []
    row = next(ln for ln in text.splitlines() if ln.startswith("zero_freq,"))
    fields = row.split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-9))
    assert checks.cli_asymptotics(text.replace(row, ",".join(fields)))
    good = "# llasym verify\nPASS a: ok\n# checks = 1, failures = 0\n"
    assert checks.cli_verify(good) == []
    assert checks.cli_verify(good.replace("PASS", "FAIL"))
    assert checks.cli_verify(good.replace("failures = 0", "failures = 1"))


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_traced_expansion_equals_untraced(mods):
    params = mods["llasym.model"].ModelParams(2.0, 1.5)
    xs = np.geomspace(10.0, 2000.0, 8)
    plain = workloads.expand(mods, params, 0.1, xs).fingerprint()
    originals = {name: getattr(mods["llasym.asymptote"], name)
                 for name in ("assemble_expansion", "dress_all", "amplitude")}
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        tracer.op = 0
        traced = workloads.expand(mods, params, 0.1, xs).fingerprint()
        tracer.op = None
    finally:
        tracer.restore()
    assert traced == plain
    for name, fn in originals.items():
        assert getattr(mods["llasym.asymptote"], name) is fn
    table = tracer.per_op()[0]
    assert table["dressing.dress_all"][0] == 1
    assert table["dressing.lu_factor"][0] > 1
    for calls, count, incl, self_s in table.values():
        assert 0 <= self_s <= incl + 1e-9 or incl == 0


def test_traced_cli_output_equals_untraced(tiny, tmp_path):
    wl = workloads.make("cli", 1, tmp_path)
    state = workloads.RunState()
    wl.setup(state)                 # a fresh interpreter's output is the reference
    wl.in_process()
    tracer = spans.Tracer()
    tracer.install(wl.mods)
    try:
        tracer.op = 0
        rec, procs = wl.run(0, True)
        tracer.op = None
    finally:
        tracer.restore()
    wl.check(0, rec, procs, state)
    assert state.problems == []
    assert procs[0].stdout == wl.reference[0]


def test_traced_run_reports_every_layer_metric(tiny, tmp_path):
    result, lines, span_list = run.run("ray_fan", 3, 0.0, True, tmp_path)
    assert result["correct"], lines
    names = set(result["metrics"])
    assert set(spans.LAYER_METRICS) <= names
    assert set(run.CLI_LAYER_METRICS) | {"trace.overhead_pct"} <= names
    assert result["metrics"]["amplitudes.fredholm_det_count"]["value"] > 0
    assert span_list


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(spans.LAYER_METRICS) | set(run.CLI_LAYER_METRICS) | {"trace.overhead_pct"}
    assert {m["name"] for m in spec["end_to_end"]} == {"op_p50_ms", "peak_rss_mb", "setup_s"}


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".work-*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
