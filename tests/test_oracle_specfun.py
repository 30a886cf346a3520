"""Smoke test of scripts/oracle_specfun.py: the special functions against mpmath."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_script_runs_and_matches_mpmath():
    pytest.importorskip("mpmath")
    res = subprocess.run([sys.executable, "scripts/oracle_specfun.py"], cwd=ROOT,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    worst = re.search(r"worst rel err: (\S+)", res.stdout)
    assert worst is not None
    assert float(worst.group(1)) < 1e-14
