"""Smoke test of scripts/reach.py: the reachability audit of src/llasym."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reach.py"
HEADER = re.compile(r"^(\S+\.py): (\d+) statements, (\d+) unreached and (\d+) unreached raise$")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_docstrings_and_own_their_header_lines(reach, tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""doc"""\n@dec\ndef f(\n    a,\n):\n    """doc"""\n    global g\n'
                   '    return (a +\n            1)\n')
    stmts = reach.statements(src)
    assert [type(n) for n in stmts] == [ast.FunctionDef, ast.Return]
    assert list(reach._own_lines(stmts[0])) == [2, 3, 4, 5]  # decorator to signature
    assert list(reach._own_lines(stmts[1])) == [8, 9]


def test_audit_reports_every_module_and_its_totals():
    # a fresh interpreter, so that tracing starts before llasym is imported
    res = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    lines = res.stdout.splitlines()
    heads = {i: HEADER.match(line) for i, line in enumerate(lines) if HEADER.match(line)}
    want = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "llasym").rglob("*.py")
                  if p.name != "__init__.py")
    assert [m.group(1) for m in heads.values()] == want
    starts = [*heads, len(lines) - 1]
    for (i, m), end in zip(heads.items(), starts[1:]):
        listed = lines[i + 1:end]
        assert all(re.match(r"^  \d+: \S", line) for line in listed), m.group(1)
        assert len(listed) == int(m.group(3)), m.group(1)
    sums = [sum(int(m.group(k)) for m in heads.values()) for k in (2, 3, 4)]
    assert lines[-1] == (f"total: {sums[0]} statements, {sums[1]} unreached and {sums[2]} "
                         "unreached raise")
    assert sums[1] < sums[0]  # the workloads ran the program
