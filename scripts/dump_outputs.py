"""Print every number the expansion reports, at full precision, for a fixed grid
of inputs, so that two versions of the code can be compared with `cmp`.

    PYTHONPATH=src python scripts/dump_outputs.py > dump.txt

For each coupling c (with its chemical potential h) and each ratio t/x it
prints the `repr` of every term and harmonic row, the raw amplitude of each
active term on the default contour at 256 and 512 nodes, and rho(x, t) at
three points of the ray.  An input on which the program raises prints the
exception's type and message instead, so the dump is the same length on
every version that fails the same way.
"""
from __future__ import annotations

from llasym import ModelParams, dress_all
from llasym.amplitudes import amplitude, contour_on, default_contour
from llasym.asymptote import assemble_expansion, evaluate_rho
from llasym.excitations import active_terms

# (c, h): h keeps g = c / sqrt(h) out of the bands where the fixed contour
# does not converge (g < 0.85 and 2.0 <= g <= 2.16)
COUPLINGS = ((0.9, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 1.0), (4.0, 1.0),
             (8.0, 2.0), (30.0, 1.0), (64.0, 4.0), (1e6, 1.0))
RATIOS = (0.03, 0.1, 0.2, 1.5, 3.0)
RHO_XS = (10.0, 137.0, 2000.0)
CONTOUR_NODES = (256, 512)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def dump_lines(couplings=COUPLINGS, ratios=RATIOS):
    """Yield the dump line by line."""
    for c, h in couplings:
        try:
            dressed = dress_all(ModelParams(c, h))
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            yield f"c={c!r} h={h!r} dress {_failure(exc)}"
            continue
        yield f"c={c!r} h={h!r} q={dressed.q!r} pF={dressed.pF!r} vF={dressed.vF!r}"
        # one Contour per node count: each of its matrices is built once per coupling
        contours = {n: contour_on(dressed, default_contour(dressed, n)) for n in CONTOUR_NODES}
        for r in ratios:
            head = f"c={c!r} h={h!r} t/x={r!r}"
            try:
                report = assemble_expansion(dressed, r)
            except Exception as exc:  # noqa: BLE001
                yield f"{head} expansion {_failure(exc)}"
                continue
            yield f"{head} saddle {report.saddle!r}"
            for row in report.terms + report.harmonics:
                yield f"{head} {row!r}"
            for label, (kind, _) in active_terms(report.regime).items():
                for n, contour in contours.items():
                    try:
                        amp = amplitude(kind, dressed, report.lambda0, report.regime, contour)
                        yield f"{head} {label} n={n} raw={amp.raw!r}"
                    except Exception as exc:  # noqa: BLE001
                        yield f"{head} {label} n={n} {_failure(exc)}"
            for x in RHO_XS:
                try:
                    yield f"{head} {evaluate_rho(report, x, r * x)!r}"
                except Exception as exc:  # noqa: BLE001
                    yield f"{head} x={x!r} rho {_failure(exc)}"


def main() -> None:
    for line in dump_lines():
        print(line)


if __name__ == "__main__":
    main()
