"""scripts/dump_outputs.py: one coupling line by line, the full grid by its digest."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from golden_diff import golden_mismatch

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_outputs.py"
GOLDEN = Path(__file__).parent / "data" / "dump_c4.golden"
DIGEST = Path(__file__).parent / "data" / "dump_outputs.sha256"


@pytest.fixture(scope="module")
def dump():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_coupling_dumps_every_reported_number(dump):
    lines = list(dump.dump_lines([(4.0, 1.0)]))
    assert lines[0].startswith("c=4.0 h=1.0 q=")
    for r in dump.RATIOS:
        head = f"c=4.0 h=1.0 t/x={r!r} "
        rows = [ln for ln in lines if ln.startswith(head)]
        assert not any("Error" in ln for ln in rows)
        assert sum("LedgerRow(label=" in ln for ln in rows) == 3 + 13  # terms, harmonics |l| <= 2
        active = 3 if r < 1.0 else 2  # no saddle amplitude on a time-like ray
        assert sum(" raw=(" in ln for ln in rows) == active * len(dump.CONTOUR_NODES)
        assert sum("RhoValue(" in ln for ln in rows) == len(dump.RHO_XS)
    assert len(lines) == 1 + sum(1 + 16 + 2 * (3 if r < 1.0 else 2) + 3 for r in dump.RATIOS)
    text, expected = "".join(line + "\n" for line in lines), GOLDEN.read_text()
    assert text == expected, golden_mismatch(text, expected)


def test_full_dump_matches_its_digest(dump):
    text = "".join(line + "\n" for line in dump.dump_lines())
    got, want = hashlib.sha256(text.encode()).hexdigest(), DIGEST.read_text().split()[0]
    assert got == want, (
        f"the {text.count(chr(10))}-line dump has SHA-256 {got}, {DIGEST.name} holds {want}. "
        "To find the lines that moved, run `PYTHONPATH=src python scripts/dump_outputs.py "
        "> new.txt` here and `> old.txt` in a checkout of the commit that wrote the digest, "
        "then `cmp old.txt new.txt` and `diff old.txt new.txt`.")
