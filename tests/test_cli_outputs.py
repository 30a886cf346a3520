"""Every CLI command's exit code, stdout and stderr against a SHA-256 manifest.

`tests/data/cli_outputs.sha256` holds one digest per argv, config paths given
relative to `tests/data`. Rewrite it with
`PYTHONPATH=src python tests/test_cli_outputs.py > tests/data/cli_outputs.sha256`
only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

from llasym.cli import _COMMANDS, main

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "cli_outputs.sha256"

ARGVS = [
    *(f"{cmd} --config {cfg}.cfg" for cfg in ("asym_c1", "asym_tl", "dress_c4")
      for cmd in _COMMANDS if cmd != "verify"),
    "verify", "verify --perturb 1e-3",
    "--help", *(f"{cmd} --help" for cmd in _COMMANDS),
]


def digest(argv: str) -> str:
    """SHA-256 of the exit code, stdout and stderr of `llasym argv`, run in process."""
    words = [str(DATA / w) if w.endswith(".cfg") else w for w in argv.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(words)
        except SystemExit as exc:  # --help
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def test_every_command_prints_the_pinned_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    want = dict(line.split("  ", 1)[::-1] for line in MANIFEST.read_text().splitlines())
    assert list(want) == ARGVS
    moved = [argv for argv in ARGVS if digest(argv) != want[argv]]
    assert not moved, f"the bytes of `llasym ARGV` moved for ARGV in {moved}; see {MANIFEST.name}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for argv in ARGVS:
        print(f"{digest(argv)}  {argv}")
