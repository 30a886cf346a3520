"""Which statements of `src/llasym` the program's outputs reach.

    python scripts/reach.py

Runs the stdlib `trace` over four workloads, in one process:

* the six non-verify commands on each of `tests/data/{asym_c1,asym_tl,dress_c4}.cfg`,
* `verify`,
* `verify --perturb 1e-3`,
* `scripts/dump_outputs.py`.

Tracing starts before `llasym` is imported, so module-level lines count.  For
each file it prints the statements that never ran, except `raise` statements,
which are only counted: they are validation, and the tests reach them.  A
statement counts as run when any line of its own (its header, for a compound
statement) produced a line event.  Docstrings and `global` declarations
compile to no code and are not counted.
"""
from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "llasym"
CONFIGS = ("asym_c1", "asym_tl", "dress_c4")


def workloads() -> None:
    """The four workloads, their output discarded; imports llasym on first use.

    Exits if a command's exit code is not the one it has on a working tree:
    0, and 1 for `verify --perturb 1e-3`, whose checks are meant to fail.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from llasym.cli import _COMMANDS, main

    argvs = [[cmd, "--config", str(ROOT / "tests" / "data" / f"{cfg}.cfg")]
             for cfg in CONFIGS for cmd in _COMMANDS if cmd != "verify"]
    argvs += [["verify"], ["verify", "--perturb", "1e-3"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
        runpy.run_path(str(ROOT / "scripts" / "dump_outputs.py"), run_name="__main__")
    if codes != [0] * (len(argvs) - 1) + [1]:
        sys.exit(f"reach.py: unexpected exit codes {codes} for {argvs}")


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that belong to it and not to a nested body."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
              for child in getattr(node, field, ())]
    return range(first, min(nested) if nested else node.end_lineno + 1)


def statements(path: Path) -> list:
    """Every statement of a file that compiles to code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue  # a docstring
        found.append(node)
    return sorted(found, key=lambda n: n.lineno)


def report(hits: dict) -> str:
    """Per file: the unreached non-raise statements, then the totals."""
    out, totals = [], [0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        ran = hits.get(str(path), set())
        stmts = statements(path)
        missed = [n for n in stmts if ran.isdisjoint(_own_lines(n))]
        raises = sum(isinstance(n, ast.Raise) for n in missed)
        rel = path.relative_to(ROOT)
        out.append(f"{rel}: {len(stmts)} statements, {len(missed) - raises} unreached "
                   f"and {raises} unreached raise")
        lines = path.read_text().splitlines()
        out += [f"  {n.lineno}: {lines[n.lineno - 1].strip()}"
                for n in missed if not isinstance(n, ast.Raise)]
        totals = [totals[0] + len(stmts), totals[1] + len(missed) - raises, totals[2] + raises]
    out.append(f"total: {totals[0]} statements, {totals[1]} unreached and {totals[2]} "
               "unreached raise")
    return "\n".join(out)


def main() -> None:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(workloads)
    hits: dict = {}
    for filename, lineno in tracer.results().counts:
        hits.setdefault(str(Path(filename).resolve()), set()).add(lineno)
    print(report(hits))


if __name__ == "__main__":
    main()
