"""Command-line interface: golden outputs, exit codes, determinism."""

import functools
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from llasym.cli import CHECKS, entry, main

from golden_diff import golden_mismatch

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "llasym.cli", *argv], capture_output=True, text=True)


@functools.cache
def run_verify(*argv):
    """`llasym verify` run once per argument list, shared by the tests below."""
    return run_cli("verify", *argv)


def run_python(code: str):
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _column(stdout: str, header_prefix: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(header_prefix):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no line starting with {header_prefix!r}")


def _csv_row(stdout: str, label: str) -> list:
    for line in stdout.splitlines():
        if line.startswith(label + ","):
            return line.split(",")
    raise AssertionError(f"no csv row labelled {label!r}")


def assert_golden(stdout: str, name: str):
    expected = (DATA / name).read_text()
    assert stdout == expected, golden_mismatch(stdout, expected)


@pytest.mark.parametrize("cmd,cfg,golden", [
    pytest.param("dress", "dress_c4.cfg", "dress_c4.golden", id="dress-dress_c4"),
    pytest.param("asymptotics", "asym_c1.cfg", "asym_c1.golden", id="asymptotics-asym_c1"),
    *(pytest.param(cmd, f"{cfg}.cfg", f"{cfg}.{cmd}.golden", id=f"{cmd}-{cfg}")
      for cfg in ("asym_c1", "asym_tl")
      for cmd in ("saddle", "exponents", "amplitudes", "harmonics")),
])
def test_golden(cmd, cfg, golden):
    res = run_cli(cmd, "--config", str(DATA / cfg))
    assert res.returncode == 0, res.stderr
    assert_golden(res.stdout, golden)


@pytest.mark.parametrize("argvs", [
    *(pytest.param([(cmd, "--config", str(DATA / f"{cfg}.cfg")) for cmd in ("asymptotics", "amplitudes")],
                   id=cfg) for cfg in ("asym_c1", "asym_tl")),
    pytest.param([("verify",)], id="verify"),
])
def test_bytes_do_not_depend_on_the_blas_thread_count(argvs):
    """`asymptotics`, `amplitudes` and `verify` print the same bytes on one
    OpenBLAS thread and on two: the contour determinants are r x r with r within
    the cap, and OpenBLAS gives determinants that small, and the contour's
    matrix-vector products, the same bits at either count."""
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        runs = [subprocess.run([sys.executable, "-m", "llasym.cli", *argv],
                               capture_output=True, text=True, env=env)
                for argv in argvs]
        assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
        out[threads] = [r.stdout for r in runs]
    assert out["1"] == out["2"]


def test_thread_count_does_not_change_output():
    """Two runs of the same command print the same bytes."""
    argv = ("asymptotics", "--config", str(DATA / "asym_c1.cfg"))
    one = run_cli(*argv)
    two = run_cli(*argv)
    assert one.returncode == 0, one.stderr
    assert two.returncode == 0, two.stderr
    assert two.stdout == one.stdout


def test_out_writes_file_and_keeps_stdout_empty(tmp_path):
    target = tmp_path / "dress.csv"
    argv = ("dress", "--config", str(DATA / "dress_c4.cfg"))
    res = run_cli(*argv, "--out", str(target))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    plain = run_cli(*argv)
    assert plain.returncode == 0, plain.stderr
    assert target.read_bytes() == plain.stdout.encode()


@pytest.mark.parametrize("lines,fragment", [
    (["c = -1.0"], "need c > 0"),
    (["coupling = 1.0"], "unknown config key"),
    (["ratio_t_over_x = 0.5", "eval_points = 10:2"], "inconsistent"),
    # off the ray by 2.5e-12 relative: for t/x < 1 evaluate_rho would reject it
    (["ratio_t_over_x = 0.02", "eval_points = 100.0:2.00000000005"], "inconsistent"),
    # non-finite values: a NaN fails every comparison, so each test is written to reject it
    (["eval_points = 40:nan"], "inconsistent"),
    (["eval_points = inf:inf"], "finite x > 0"),
    (["c = inf"], "need c > 0 and finite"),
    (["h = nan"], "need h > 0 and finite"),
    (["ratio_t_over_x = inf"], "need ratio_t_over_x > 0 and finite"),
    # sizes: each bound is checked before any array is allocated
    (["n_nodes = 7"], "need 8 <= n_nodes <= 2048"),
    (["n_nodes = 100000"], "need 8 <= n_nodes <= 2048"),
    (["contour_nodes = 100000"], "need 16 <= contour_nodes <= 2048"),
    (["max_abs_ell = -1"], "need 0 <= max_abs_ell <= 50"),
    (["max_abs_ell = 100000"], "need 0 <= max_abs_ell <= 50"),
    (["c = 1.0", "c = 2.0"], "repeated"),
])
def test_config_errors_exit_2(tmp_path, lines, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    res = run_cli("dress", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("config error:")
    assert fragment in res.stderr


def test_degenerate_saddle_exit_3(tmp_path, dressed_11):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(f"ratio_t_over_x = {1.0 / dressed_11.vF!r}\n")
    res = run_cli("saddle", "--config", str(cfg))
    assert res.returncode == 3
    assert res.stdout == ""
    assert "DegenerateSaddleError" in res.stderr


def test_overflowing_scan_range_exit_2(tmp_path):
    # x/t = 1/1e-320 overflows, so the saddle scan has no finite range
    cfg = tmp_path / "tiny_ratio.cfg"
    cfg.write_text("ratio_t_over_x = 1e-320\n")
    res = run_cli("saddle", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error (ValueError): saddle scan range")
    assert res.stderr.count("\n") == 1
    assert "RuntimeWarning" not in res.stderr
    assert run_cli("dress", "--config", str(cfg)).returncode == 0


@pytest.mark.parametrize("cmd", ["amplitudes", "asymptotics"])
def test_non_finite_amplitude_exit_2(tmp_path, cmd):
    # at c = 0.05 det(I + V) overflows and the 2pF amplitude is NaN
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("c = 0.05\nh = 1.0\nratio_t_over_x = 0.2\n")
    res = run_cli(cmd, "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "NonFiniteAmplitudeError" in res.stderr


@pytest.mark.parametrize("point", ["1e-100:5e-101", "1e-323:5e-324"])
def test_tiny_x_exits_2(tmp_path, point):
    # rho's powers overflow at 1e-100; at 1e-323 x - vF t underflows onto the light cone
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"ratio_t_over_x = 0.5\neval_points = {point}\n")
    res = run_cli("asymptotics", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error (")
    assert "Traceback" not in res.stderr


def test_huge_x_exits_2(tmp_path):
    # the two_pF phase x * (-2 pF) is -1.9e308 at x = 4e307: beyond the largest double
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("ratio_t_over_x = 0.2\neval_points = 4e307:8e306\n")
    res = run_cli("asymptotics", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error (RhoOverflowError)")


def test_no_file_written_on_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c = -2.0\n")
    target = tmp_path / "never.csv"
    res = run_cli("dress", "--config", str(cfg), "--out", str(target))
    assert res.returncode == 2
    assert not target.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "dress.csv"
    assert main(["dress", "--config", str(DATA / "dress_c4.cfg"), "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


def test_help_lists_each_command_once(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    words = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
    for name in ("dress", "saddle", "exponents", "amplitudes", "asymptotics", "harmonics", "verify"):
        assert words.count(name) == 1, name


def test_numpy_is_the_only_runtime_dependency():
    code = "import sys, llasym.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python(code) == "[]\n"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_only_verify_loads_fflab():
    """The finite-size lab is imported by the verify checks that use it, not by the CLI module."""
    code = (
        "import contextlib, io, sys\n"
        "from llasym.cli import main\n"
        f"for argv in (['asymptotics', '--config', {str(DATA / 'asym_c1.cfg')!r}], ['dress'], ['verify']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, 'llasym.fflab' in sys.modules)\n"
    )
    assert run_python(code) == "asymptotics 0 False\ndress 0 False\nverify 0 True\n"


@pytest.mark.parametrize("argv,code", [
    (["dress", "--config", str(DATA / "dress_c4.cfg")], 0),
    (["dress", "--config", str(DATA / "missing.cfg")], 2),
    (["verify", "--perturb", "1e-3"], 1),
], ids=["success", "config_error", "verify_failure"])
def test_entry_returns_the_exit_code_of_main(argv, code, capsys):
    gc.unfreeze()
    try:
        assert main(argv) == code
        assert gc.get_freeze_count() == 0  # main leaves the collector alone
        by_main = capsys.readouterr()
        assert entry(argv) == code
        assert gc.get_freeze_count() > 0   # entry freezes it for the exit
        assert capsys.readouterr() == by_main
    finally:
        gc.unfreeze()


def test_module_and_console_script_run_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"llasym": "llasym.cli:entry"}
    code = (
        "import gc, runpy, sys\n"
        f"sys.argv = ['llasym', 'dress', '--config', {str(DATA / 'dress_c4.cfg')!r}]\n"
        "try:\n"
        "    runpy.run_module('llasym.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.stderr == "exit 0 True\n"
    assert_golden(res.stdout, "dress_c4.golden")


def _verify_body(stdout: str) -> list:
    """(status, check name) of each non-comment line of `verify` output."""
    return [tuple(l.split(":", 1)[0].split(" ", 1)) for l in stdout.splitlines()
            if l and not l.startswith("#")]


def test_verify_passes():
    # the time-like config predicts no saddle amplitude, so none enters the phase check
    for argv in ((), ("--config", str(DATA / "asym_tl.cfg"))):
        res = run_verify(*argv)
        assert res.returncode == 0, res.stdout + res.stderr
        body = _verify_body(res.stdout)
        assert [name for _, name in body] == list(CHECKS)  # one line per check, registry order
        assert all(status == "PASS" for status, _ in body)
        assert "failures = 0" in res.stdout


def test_verify_perturbation_is_detected():
    res = run_verify("--perturb", "1e-3")
    assert res.returncode == 1
    failed = [name for status, name in _verify_body(res.stdout) if status == "FAIL"]
    assert failed == [name for name in CHECKS if name.startswith("Z_")]
    assert len(failed) == 4


@pytest.mark.parametrize("argv,golden,code", [
    ((), "verify.golden", 0),
    (("--perturb", "1e-3"), "verify_perturb.golden", 1),
], ids=["verify", "verify_perturb"])
def test_verify_golden(argv, golden, code):
    res = run_verify(*argv)
    assert res.returncode == code, res.stderr
    assert res.stderr == ""
    assert_golden(res.stdout, golden)


def test_impenetrable_limit_header(tmp_path):
    cfg = tmp_path / "tonks.cfg"
    cfg.write_text("c = 1e6\nh = 1.0\n")
    res = run_cli("dress", "--config", str(cfg), "--nodes", "96")
    assert res.returncode == 0, res.stderr
    assert abs(_column(res.stdout, "# q =") - 1.0) < 1e-5
    assert abs(_column(res.stdout, "# vF =") - 2.0) < 1e-4


def test_time_like_saddle_reported_unknown(tmp_path):
    cfg = tmp_path / "time.cfg"
    cfg.write_text("c = 1.0\nh = 1.0\nratio_t_over_x = 2.0\n"
                   "n_nodes = 48\ncontour_nodes = 64\nmax_abs_ell = 1\n")
    res = run_cli("asymptotics", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert "# regime = time-like" in res.stdout
    row = _csv_row(res.stdout, "saddle")
    assert row[4] == "UNKNOWN" and row[5] == "no"
    res2 = run_cli("harmonics", "--config", str(cfg))
    assert res2.returncode == 0, res2.stderr
    harm_rows = [l for l in res2.stdout.splitlines()
                 if l and not l.startswith(("#", "ell_plus"))]
    assert harm_rows and all(l.split(",")[4] == "UNKNOWN" for l in harm_rows)


def test_impenetrable_exponents(tmp_path):
    cfg = tmp_path / "tonks.cfg"
    cfg.write_text("c = 1e6\nh = 1.0\nratio_t_over_x = 0.2\nn_nodes = 96\n")
    res = run_cli("exponents", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    zf = _csv_row(res.stdout, "zero_freq")
    assert abs(float(zf[3]) - 0.25) < 1e-5 and abs(float(zf[4]) - 0.25) < 1e-5
    tp = _csv_row(res.stdout, "two_pF")
    assert abs(float(tp[3]) - 0.25) < 1e-4 and abs(float(tp[4]) - 2.25) < 1e-4
