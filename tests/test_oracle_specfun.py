"""Smoke test of scripts/oracle_specfun.py: the special functions against mpmath."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def oracle_stdout():
    pytest.importorskip("mpmath")
    res = subprocess.run([sys.executable, "scripts/oracle_specfun.py"], cwd=ROOT,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _worst(stdout: str, label: str) -> float:
    found = re.search(rf"^  {label}worst rel err: (\S+)$", stdout, re.M)
    assert found is not None, label
    return float(found.group(1))


def test_script_runs_and_matches_mpmath(oracle_stdout):
    assert _worst(oracle_stdout, "") < 1e-14  # barnes_g_log


def test_gamma_and_zeta_table_match_mpmath(oracle_stdout):
    assert _worst(oracle_stdout, "gamma ") <= 2e-15
    assert _worst(oracle_stdout, "lgam ") <= 2e-15
    assert "lgam wrong signs: 0\n" in oracle_stdout
    assert "58 of 58 literals are the double nearest zeta(k)" in oracle_stdout
    assert _worst(oracle_stdout, "zeta table ") <= 1.2e-16
