"""In-memory span tracer for the per-layer run.

The tracer replaces public functions of ``llasym`` under the names their
callers look them up by (``llasym.asymptote.dress_all``,
``llasym.amplitudes.log_kappa``, ...) with wrappers that record one span per
call: name, start, end, parent span, operation id and a work count.  Spans
are recorded only while an operation is active (``Tracer.op`` is set), so the
benchmark's own checks between operations leave no spans.  Every wrapper
returns exactly what the wrapped function returns.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size_of_result(args, kwargs, out) -> int:
    return int(np.size(out))


def _size_of_first_arg(args, kwargs, out) -> int:
    # bound methods: args[0] is the instance, args[1] the evaluation points
    return int(np.size(args[1]))


# (module, attribute path, span name, work count).  A function looked up in
# several modules is listed once per module.
SITES = [
    ("llasym.dressing", "lieb_kernel", "model.kernel", _size_of_result),
    ("llasym.dressing", "lieb_kernel_d1", "model.kernel", _size_of_result),
    ("llasym.dressing", "lieb_kernel_d2", "model.kernel", _size_of_result),
    ("llasym.amplitudes", "lieb_kernel", "model.kernel", _size_of_result),
    ("llasym.dressing", "dress_all", "dressing.dress_all", None),
    ("llasym.asymptote", "dress_all", "dressing.dress_all", None),
    ("llasym.cli", "dress_all", "dressing.dress_all", None),
    ("llasym.dressing", "find_fermi_boundary", "dressing.find_fermi_boundary", None),
    ("llasym.dressing", "lu_factor", "dressing.lu_factor", None),
    ("llasym.dressing", "QuadGrid.build", "dressing.quadgrid_build", None),
    ("llasym.dressing", "NystromOperator.solve", "dressing.solve", None),
    ("llasym.dressing", "SecondKindSolution.__call__", "dressing.extension", _size_of_first_arg),
    ("llasym.dressing", "SecondKindSolution.d1", "dressing.extension", _size_of_first_arg),
    ("llasym.dressing", "SecondKindSolution.d2", "dressing.extension", _size_of_first_arg),
    ("llasym.dressing", "DressedSet.p", "dressing.p", None),
    ("llasym.asymptote", "find_saddle", "excitations.find_saddle", None),
    ("llasym.cli", "find_saddle", "excitations.find_saddle", None),
    ("llasym.excitations", "ShiftFn.__call__", "excitations.shift", None),
    ("llasym.excitations", "ShiftFn.d1", "excitations.shift", None),
    ("llasym.asymptote", "harmonic_table", "excitations.harmonic_table", None),
    ("llasym.cli", "harmonic_table", "excitations.harmonic_table", None),
    ("llasym.amplitudes", "log_kappa", "specfun.log_kappa", None),
    ("llasym.amplitudes", "c0_double_integral", "specfun.c0", None),
    ("llasym.amplitudes", "barnes_g_log", "specfun.barnes_g", None),
    ("llasym.cli", "barnes_g_log", "specfun.barnes_g", None),
    ("llasym.asymptote", "amplitude", "amplitudes.amplitude", None),
    ("llasym.cli", "amplitude", "amplitudes.amplitude", None),
    ("llasym.amplitudes", "functional_B", "amplitudes.functional_B", None),
    ("llasym.amplitudes", "smooth_part_G", "amplitudes.smooth_part_G", None),
    ("llasym.amplitudes", "fredholm_det_contour", "amplitudes.fredholm_det", None),
    ("llasym.asymptote", "assemble_expansion", "asymptote.assemble_expansion", None),
    ("llasym.cli", "assemble_expansion", "asymptote.assemble_expansion", None),
    ("llasym.asymptote", "evaluate_rho", "asymptote.evaluate_rho", None),
    ("llasym.cli", "evaluate_rho", "asymptote.evaluate_rho", None),
    ("llasym.fflab", "xn_bruteforce", "fflab.xn_bruteforce", None),
    ("llasym.fflab.discrete", "dhat_N", "fflab.dhat_N", None),
    ("llasym.fflab", "xn_determinant", "fflab.xn_determinant", None),
    ("llasym.fflab", "singular_sum", "fflab.singular_sum", None),
    ("llasym.fflab", "lagrange_series", "fflab.lagrange", None),
    ("llasym.fflab", "lagrange_closed_form", "fflab.lagrange", None),
]

# per-layer metric -> (span name, statistic, unit).  Statistics are means per
# operation: "calls", "count" (work count), "ms" (inclusive time), "self_ms"
# (time not covered by child spans); "us_per_call" is the mean call time.
LAYER_METRICS = {
    "model.kernel_evals": ("model.kernel", "count", "count"),
    "model.kernel_ms": ("model.kernel", "ms", "ms"),
    "dressing.dress_all_ms": ("dressing.dress_all", "ms", "ms"),
    "dressing.find_fermi_boundary_ms": ("dressing.find_fermi_boundary", "ms", "ms"),
    "dressing.lu_count": ("dressing.lu_factor", "calls", "count"),
    "dressing.quadgrid_builds": ("dressing.quadgrid_build", "calls", "count"),
    "dressing.solve_count": ("dressing.solve", "calls", "count"),
    "dressing.extension_points": ("dressing.extension", "count", "count"),
    "dressing.extension_ms": ("dressing.extension", "ms", "ms"),
    "dressing.p_ms": ("dressing.p", "ms", "ms"),
    "excitations.find_saddle_ms": ("excitations.find_saddle", "ms", "ms"),
    "excitations.shift_ms": ("excitations.shift", "ms", "ms"),
    "excitations.harmonic_table_ms": ("excitations.harmonic_table", "ms", "ms"),
    "specfun.log_kappa_ms": ("specfun.log_kappa", "ms", "ms"),
    "specfun.c0_ms": ("specfun.c0", "ms", "ms"),
    "specfun.barnes_g_ms": ("specfun.barnes_g", "ms", "ms"),
    "amplitudes.amplitude_count": ("amplitudes.amplitude", "calls", "count"),
    "amplitudes.amplitude_ms": ("amplitudes.amplitude", "ms", "ms"),
    "amplitudes.functional_B_ms": ("amplitudes.functional_B", "ms", "ms"),
    "amplitudes.smooth_part_G_ms": ("amplitudes.smooth_part_G", "ms", "ms"),
    "amplitudes.fredholm_det_count": ("amplitudes.fredholm_det", "calls", "count"),
    "amplitudes.fredholm_det_ms": ("amplitudes.fredholm_det", "ms", "ms"),
    "asymptote.assemble_self_ms": ("asymptote.assemble_expansion", "self_ms", "ms"),
    "asymptote.evaluate_rho_us": ("asymptote.evaluate_rho", "us_per_call", "us"),
    "fflab.xn_bruteforce_ms": ("fflab.xn_bruteforce", "ms", "ms"),
    "fflab.configurations": ("fflab.dhat_N", "calls", "count"),
    "fflab.xn_determinant_ms": ("fflab.xn_determinant", "ms", "ms"),
    "fflab.singular_sum_ms": ("fflab.singular_sum", "ms", "ms"),
    "fflab.lagrange_ms": ("fflab.lagrange", "ms", "ms"),
}


class Tracer:
    """Records spans (name, start, end, parent, op, count, nested) in a list.

    ``nested`` marks a span opened while another span of the same name was
    open; its time is already inside the outer one.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._open_names: dict = defaultdict(int)
        self._patches: list = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            nested = tracer._open_names[name] > 0
            tracer._open_names[name] += 1
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                tracer._open_names[name] -= 1
                tracer._stack.pop()
                n = count(args, kwargs, out) if count is not None and out is not None else 1
                tracer.spans[idx] = (name, start, end, parent, tracer.op, n, nested)

        return traced

    def install(self, modules: dict) -> None:
        """Patch every site in SITES whose module is in `modules` (name -> module)."""
        for mod_name, path, span, count in SITES:
            if mod_name not in modules:
                continue
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(span, raw.__func__, count))
            else:
                new = self.wrap(span, raw, count)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def per_op(self) -> dict:
        """{op: {span name: [calls, count, inclusive s, self s]}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, n, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0, 0.0]))
        for i, (name, start, end, parent, op, n, nested) in enumerate(self.spans):
            row = table[op][name]
            row[0] += 1
            row[1] += n
            if not nested:
                row[2] += end - start
            row[3] += end - start - child_time[i]
        return table


def layer_metrics(table: dict, ops: list) -> dict:
    """Means per operation over `ops` of each LAYER_METRICS entry."""
    n_ops = max(len(ops), 1)
    out = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        calls = sum(table.get(op, {}).get(span, [0, 0, 0.0, 0.0])[0] for op in ops)
        count = sum(table.get(op, {}).get(span, [0, 0, 0.0, 0.0])[1] for op in ops)
        incl = sum(table.get(op, {}).get(span, [0, 0, 0.0, 0.0])[2] for op in ops)
        self_s = sum(table.get(op, {}).get(span, [0, 0, 0.0, 0.0])[3] for op in ops)
        if stat == "calls":
            value = calls / n_ops
        elif stat == "count":
            value = count / n_ops
        elif stat == "ms":
            value = 1e3 * incl / n_ops
        elif stat == "self_ms":
            value = 1e3 * self_s / n_ops
        else:  # us_per_call
            value = 1e6 * incl / calls if calls else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def span_table_lines(table: dict, ops: list) -> list:
    """Human-readable per-operation means: calls, inclusive and self ms per span."""
    totals: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for op in ops:
        for name, row in table.get(op, {}).items():
            for k in range(4):
                totals[name][k] += row[k]
    n_ops = max(len(ops), 1)
    lines = [f"# span table, means per operation over {len(ops)} operations",
             f"# {'span':34s} {'calls':>10s} {'count':>12s} {'incl_ms':>10s} {'self_ms':>10s}"]
    for name in sorted(totals, key=lambda k: -totals[k][2]):
        calls, count, incl, self_s = totals[name]
        lines.append(
            f"# {name:34s} {calls / n_ops:10.1f} {count / n_ops:12.1f} "
            f"{1e3 * incl / n_ops:10.3f} {1e3 * self_s / n_ops:10.3f}"
        )
    return lines
