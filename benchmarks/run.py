"""Benchmark of the llasym expansion chain, end to end and per layer.

    python3 benchmarks/run.py --workload {sweep,ray_fan,cli} --seed N --seconds S --trace {0,1}

Runs the checkout's src/ tree.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
from a run whose odd rounds are traced and whose even rounds run without the
tracer (their difference is `trace.overhead_pct`).  Lines before it describe
the run; the result, and with --trace 1 the spans, are also written under
benchmarks/results/.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

RESULTS_DIR = workloads.BENCH_DIR / "results"
WORKLOADS = ("sweep", "ray_fan", "cli")
CLI_LAYER_METRICS = ("cli.interpreter_s", "cli.import_s",
                     "cli.asymptotics_compute_s", "cli.verify_compute_s")


def _rounds(wl, state, seconds: float, tracer) -> None:
    """Whole rounds until `seconds` have passed and enough operations ran.

    With a tracer, odd rounds run with the wrappers installed and even rounds
    without them.  The traced run needs rounds 1 and 2 besides round 0, whose
    operations meet cold caches and first-seen checks.
    """
    begin = perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if tracer is not None and wl.name == "cli":
            wl.probe(state)
        if traced:
            tracer.install(wl.mods)
        try:
            for op in wl.round(k):
                op_id = len(state.records)
                if traced:
                    tracer.op = op_id
                try:
                    rec, out = wl.run(op, traced)
                finally:
                    if traced:
                        tracer.op = None
                rec.extra.update(op_id=op_id, round=k)
                state.records.append(rec)
                wl.check(op, rec, out, state)
        finally:
            if traced:
                tracer.restore()
        k += 1
        enough = (perf_counter() - begin >= seconds
                  and len(state.records) >= workloads.MIN_OPS[wl.name])
        if enough and (tracer is None or k >= 3):
            return


def _layer_metrics(wl, state, tracer) -> tuple:
    traced = [r.extra["op_id"] for r in state.records if r.traced]
    table = tracer.per_op()
    out = spans.layer_metrics(table, traced)
    # round 0 is left out of the untraced side: its operations meet cold
    # caches (in-process cli) and first-seen checks (sweep's doubling)
    untraced = [r for r in state.records if not r.traced and r.extra["round"] > 0]
    for name in CLI_LAYER_METRICS:
        if name in state.probes:
            value = float(np.median(state.probes[name]))
        elif name.endswith("_compute_s") and wl.name == "cli":
            key = name.split(".")[1].split("_")[0] + "_s"
            value = float(np.median([r.extra[key] for r in untraced]))
        else:
            value = 0.0
        out[name] = {"value": value, "unit": "s"}
    t_on = np.median([r.seconds for r in state.records if r.traced])
    t_off = np.median([r.seconds for r in untraced])
    out["trace.overhead_pct"] = {"value": float(100.0 * (t_on / t_off - 1.0)), "unit": "%"}
    return out, spans.span_table_lines(table, traced)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    """Returns (result dict, report lines, spans or None)."""
    wl = workloads.make(name, seed, workdir)
    state = workloads.RunState()
    for _ in range(workloads.SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(state)
        state.setup_times.append(perf_counter() - t0)
    wl.check_setup(state)
    tracer = None
    if trace:
        if name == "cli":
            wl.in_process()
        tracer = spans.Tracer()
    _rounds(wl, state, seconds, tracer)

    lines = [f"# workload {name}, seed {seed}: {len(state.records)} operations, "
             f"{sum(r.failed for r in state.records)} failed"]
    lines += [f"# FAILED {m}" for m in state.failures]
    lines += [f"# CHECK {m}" for m in state.problems[:50]]
    if trace:
        metrics, table = _layer_metrics(wl, state, tracer)
        lines += table
    else:
        values, notes = wl.metrics(state)
        lines += notes
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
        metrics["setup_s"] = {"value": float(np.median(state.setup_times)), "unit": "s"}
    result = {
        "correct": not state.problems,
        "attempted": len(state.records),
        "failed": sum(r.failed for r in state.records),
        "metrics": metrics,
    }
    return result, lines, (tracer.spans if tracer is not None else None)


def _write_results(name: str, seed: int, trace: int, result: dict, span_list) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if span_list is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in span_list:
                fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=workloads.BENCH_DIR) as tmp:
            result, lines, span_list = run(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp)
            )
    except workloads.SourceTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_results(args.workload, args.seed, args.trace, result, span_list)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
