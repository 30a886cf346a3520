"""Smoke test of scripts/check_xn_identity.py: twelve instances and the nu -> 0 scan."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_xn_identity.py"


def test_script_reports_a_worst_deviation_below_tolerance(capsys):
    spec = importlib.util.spec_from_file_location("check_xn_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert sum(line.startswith("N=") for line in out.splitlines()) == 12
    worst = re.search(r"^worst relative deviation: (\S+)", out, re.MULTILINE)
    assert worst is not None
    assert float(worst.group(1)) < 1e-10
    assert out.count("amp=") == 3
