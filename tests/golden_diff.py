"""Readable messages for the exact golden-output comparisons."""

import re

_SEP = re.compile(r"[,\s=]+")


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def golden_mismatch(actual: str, expected: str) -> str:
    """Describe how `actual` differs from the golden text `expected`.

    Names the first differing line.  When both texts have the same lines and
    the same non-numeric tokens, also gives the largest relative and absolute
    deviation over the numeric fields: deviations of a few 1e-15 relative on
    otherwise identical output point to the rounding of another numerical
    stack (BLAS kernel, numpy build), anything else to a change in the
    program.  The comparison itself stays exact; this only explains it.
    """
    got, want = actual.splitlines(), expected.splitlines()
    first = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
    if first == len(got) == len(want):
        return "lines agree; texts differ only in line endings or a final newline"
    w_first = repr(want[first]) if first < len(want) else "<end of text>"
    g_first = repr(got[first]) if first < len(got) else "<end of text>"
    msg = f"first difference at line {first + 1}: expected {w_first}, got {g_first}"
    if len(got) != len(want):
        return f"{msg}; {len(got)} lines vs {len(want)} expected"
    worst_rel = worst_abs = 0.0
    n_fields = 0
    for g_line, w_line in zip(got, want):
        g_tok, w_tok = _SEP.split(g_line), _SEP.split(w_line)
        if len(g_tok) != len(w_tok):
            return f"{msg}; token count differs on {w_line!r}"
        for g, w in zip(g_tok, w_tok):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None:
                if g != w:
                    return f"{msg}; non-numeric token {g!r} vs expected {w!r}"
                continue
            n_fields += 1
            dev = abs(gv - wv)
            worst_abs = max(worst_abs, dev)
            worst_rel = max(worst_rel, dev / abs(wv) if wv else dev)
    return (f"{msg}; non-numeric tokens identical; over {n_fields} numeric fields "
            f"max rel deviation {worst_rel:.2e}, max abs deviation {worst_abs:.2e}")
