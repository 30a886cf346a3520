"""Acceptance gate: one test per shipped guarantee, with PASS/FAIL lines.

Criteria 1-6 run the identities of `llasym.cli.CHECKS`, the registry that
`llasym verify` prints, on the conftest fixtures.  Run with
python3 -m pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from llasym import ExpansionReport, ModelParams, default_contour, dress_all, find_saddle
from llasym.cli import CHECKS, NODE_DOUBLING
from llasym.excitations import u_d1, u_d2

from golden_diff import golden_mismatch

DATA = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _gate(criterion: str, results: list):
    """Print each registry check's line; the criterion holds when every check passes."""
    for _, line in results:
        print(f"{criterion} {line}")
    assert all(ok for ok, _ in results), "; ".join(line for ok, line in results if not ok)


def _run(names, **bound) -> list:
    return [CHECKS[name].run(bound) for name in names]


# ----------------------------------------------------------------- 1

def test_criterion_1_dressed_charge_phase_identity(dressed_11, dressed_41, dressed_162):
    names = ("Z_phi_identity(c=1,h=1)", "Z_boundary_inverse(c=1,h=1)",
             "Z_phi_identity(c=4,h=1)", "Z_phi_identity(c=16,h=2)",
             "luttinger_zero_freq_exponents", "luttinger_two_pF_exponent_sum")
    _gate("criterion_1", _run(names, d11=dressed_11, d41=dressed_41, d162=dressed_162,
                              perturb=0.0))


# ----------------------------------------------------------------- 2

def test_criterion_2_impenetrable_limit(dressed_tonks):
    names = ("tonks_fermi_boundary", "tonks_dressed_charge", "tonks_fermi_velocity",
             "tonks_exponents_zero_freq", "tonks_exponents_two_pF", "tonks_two_pF_ratio")
    _gate("criterion_2", _run(names, tonks=dressed_tonks, contour_nodes=256))


# ----------------------------------------------------------------- 3

def test_criterion_3_enumeration_vs_determinant():
    t0 = time.monotonic()
    results = _run(("xn_sum_vs_determinant",))
    elapsed = time.monotonic() - t0
    _gate("criterion_3", results)
    _report("criterion_3", elapsed < 10.0, f"12 instances in {elapsed:.2f}s (< 10s)")


# ----------------------------------------------------------------- 4

def test_criterion_4_singular_sum_closure():
    _gate("criterion_4", _run(("singular_sum_closure", "singular_sum_tail_scaling")))


# ----------------------------------------------------------------- 5

def test_criterion_5_lagrange_series():
    _gate("criterion_5", _run(("lagrange_order8",)))


# ----------------------------------------------------------------- 6

def _amplitudes(d, contour_nodes: int) -> list:
    return list(ExpansionReport(d, 0.2, contour=default_contour(d, contour_nodes)).amplitudes.values())


def test_criterion_6_amplitudes(dressed_11, dressed_41, dressed_tonks):
    results = []
    for d in (dressed_11, dressed_41):
        at = f"(c={d.params.c:g},h={d.params.h:g})"
        bound = {"amps": _amplitudes(d, 256),
                 "amps_fine": _amplitudes(dress_all(d.params, n_nodes=192), 512)}
        phase = replace(CHECKS["amplitude_phase_residual(c=1,h=1)"],
                        name=f"amplitude_phase_residual{at}")
        doubling = replace(NODE_DOUBLING, name=f"amplitude_node_doubling{at}")
        results += [phase.run(bound), doubling.run(bound)]
    results += _run(("tonks_amplitude_closed_form",), tonks=dressed_tonks, contour_nodes=256)
    _gate("criterion_6", results)


# ----------------------------------------------------------------- 7

def _scalar_panel(params, n_nodes):
    d = dress_all(params, n_nodes=n_nodes)
    out = [d.q, d.pF, d.vF, d.det_IK]
    for pair in ExpansionReport(d, 0.2).exponents.values():
        out.extend(pair)
    return np.array(out)


def test_criterion_7_node_doubling_stability():
    worst = 0.0
    for c, h in ((1.0, 1.0), (4.0, 1.0)):
        a = _scalar_panel(ModelParams(c=c, h=h), 64)
        b = _scalar_panel(ModelParams(c=c, h=h), 128)
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-7
    _report("criterion_7", ok,
            f"q, pF, vF, det(I-K/2pi), 3 exponent pairs: "
            f"worst 64->128 node change {worst:.3e} (tol 1e-07)")


# ----------------------------------------------------------------- 8

def test_criterion_8_saddle_point(dressed_11):
    d = dressed_11
    worst_grad = 0.0
    worst_curv = -np.inf
    worst_grid = 0.0
    for ratio in (0.1, 0.2, 2.0):
        lam0, _ = find_saddle(ratio, d)
        worst_grad = max(worst_grad, abs(float(u_d1(lam0, ratio, d))))
        worst_curv = max(worst_curv, float(u_d2(lam0, ratio, d)))
        span = max(5.0 * d.q, 1.0 / ratio)
        grid = np.linspace(-span, span, 10_000)
        idx = int(np.argmin(np.abs(u_d1(grid, ratio, d))))
        spacing = grid[1] - grid[0]
        worst_grid = max(worst_grid, abs(grid[idx] - lam0) / spacing)
    ok = worst_grad < 1e-10 and worst_curv < 0.0 and worst_grid <= 1.0
    _report("criterion_8", ok,
            f"3 ratios: |u'(lambda0)| <= {worst_grad:.2e} (tol 1e-10), u'' < 0, "
            f"10^4-point grid argmin within {worst_grid:.2f} grid spacings")


# ----------------------------------------------------------------- 9

def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "llasym.cli", *argv],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, dressed_11):
    probs = []

    for cfg, golden, cmd in (("dress_c4.cfg", "dress_c4.golden", "dress"),
                             ("asym_c1.cfg", "asym_c1.golden", "asymptotics")):
        res = _run_cli(cmd, "--config", str(DATA / cfg))
        expected = (DATA / golden).read_text()
        if res.returncode != 0:
            probs.append(f"{cmd} exited {res.returncode}")
        elif res.stdout != expected:
            probs.append(f"{cmd} output differs from {golden}: "
                         f"{golden_mismatch(res.stdout, expected)}")
        rerun = _run_cli(cmd, "--config", str(DATA / cfg))
        if rerun.stdout != res.stdout:
            probs.append(f"{cmd} output changes between reruns")

    bad = tmp_path / "bad.cfg"
    bad.write_text("c = -1.0\n")
    if _run_cli("dress", "--config", str(bad)).returncode != 2:
        probs.append("config error did not exit 2")

    cone = tmp_path / "cone.cfg"
    cone.write_text(f"ratio_t_over_x = {1.0 / dressed_11.vF!r}\n")
    res = _run_cli("saddle", "--config", str(cone))
    if res.returncode != 3 or "DegenerateSaddleError" not in res.stderr:
        probs.append(f"degenerate saddle exited {res.returncode}")

    _report("criterion_9", not probs,
            "golden outputs byte-identical across reruns; "
            "exit codes 0/2/3 as documented" if not probs else "; ".join(probs))
