"""Command-line interface: golden outputs, exit codes, determinism."""

import subprocess
import sys
from pathlib import Path

import pytest

from llasym.cli import CHECKS

from golden_diff import golden_mismatch

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "llasym.cli", *argv], capture_output=True, text=True)


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


def test_no_file_written_on_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c = -2.0\n")
    target = tmp_path / "never.csv"
    res = run_cli("dress", "--config", str(cfg), "--out", str(target))
    assert res.returncode == 2
    assert not target.exists()


def _verify_body(stdout: str) -> list:
    """(status, check name) of each non-comment line of `verify` output."""
    return [tuple(l.split(":", 1)[0].split(" ", 1)) for l in stdout.splitlines()
            if l and not l.startswith("#")]


def test_verify_passes():
    # the time-like config predicts no saddle amplitude, so none enters the phase check
    for argv in ((), ("--config", str(DATA / "asym_tl.cfg"))):
        res = run_cli("verify", *argv)
        assert res.returncode == 0, res.stdout + res.stderr
        body = _verify_body(res.stdout)
        assert [name for _, name in body] == list(CHECKS)  # one line per check, registry order
        assert all(status == "PASS" for status, _ in body)
        assert "failures = 0" in res.stdout


def test_verify_perturbation_is_detected():
    res = run_cli("verify", "--perturb", "1e-3")
    assert res.returncode == 1
    failed = [name for status, name in _verify_body(res.stdout) if status == "FAIL"]
    assert failed == [name for name in CHECKS if name.startswith("Z_")]
    assert len(failed) == 4


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
