"""Output checks that do not compare against stored output.

Each check tests a property of the method or recomputes a value apart from
the program, and returns a list of failure messages (empty when it passes).

* Luttinger-liquid identities (Haldane, PRL 47, 1840 (1981)): with
  K = 2 p_F / v_F, Z(q)^2 = K; both zero-frequency exponents equal 1/(4K);
  the two 2p_F exponents sum to 1/(2K) + 2K.
* eps(q) = 0 at the Fermi boundary.
* The regime is space-like exactly when (t/x) v_F < 1.
* lambda0 maximises u = p - (t/x) eps: central differences of the public
  ``p`` and ``eps`` give u' ~ 0, u'' < 0 and u'' equal to the cached value.
* Amplitudes are finite, positive, and stable under doubling the contour
  nodes (the trapezoid rule on the ellipse converges geometrically:
  Bornemann, Math. Comp. 79 (2010), arXiv:0804.2543).
* rho(x, t) recomputed in numpy from the term table, with the formula of
  the ``llasym.asymptote`` docstring.
"""
from __future__ import annotations

import numpy as np

EPS52 = 2.0**-52
LUTTINGER_TOL = 1e-11      # worst seen: 1.1e-14 relative
EXPONENT_TOL = 1e-12       # worst seen: 1.4e-15 (zero-freq), 1.0e-14 (2p_F sum)
EPS_AT_Q_TOL = 1e-9        # find_fermi_boundary stops at |eps(q)| <= 1e-10
DOUBLING_TOL = 1e-6        # acceptance criterion 6
SADDLE_SLOPE_TOL = 1e-6    # central-difference u' relative to |p'| + r |eps'|
SADDLE_CURV_TOL = 1e-4     # central-difference u'' against the cached u''
RHO_ULPS = 8.0             # rho bound: RHO_ULPS * 2^-52 * (4 + x max|freq|) * sum|term|

ACTIVE_LABELS = ("saddle", "two_pF", "zero_freq")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def luttinger(z_at_q: float, pF: float, vF: float) -> list:
    resid = abs(z_at_q**2 * vF / (2.0 * pF) - 1.0)
    if not resid <= LUTTINGER_TOL:
        return [f"Luttinger identity |Z(q)^2 vF/(2pF) - 1| = {resid:.3e} > {LUTTINGER_TOL:g}"]
    return []


def eps_at_q(value: float) -> list:
    if not abs(value) <= EPS_AT_Q_TOL:
        return [f"|eps(q)| = {abs(value):.3e} > {EPS_AT_Q_TOL:g}"]
    return []


def exponents(terms: dict, pF: float, vF: float) -> list:
    """`terms` maps label -> (exponent_plus, exponent_minus)."""
    big_k = 2.0 * pF / vF
    fails = []
    zp, zm = terms["zero_freq"]
    for side, val in (("plus", zp), ("minus", zm)):
        if not _rel(val, 0.25 / big_k) <= EXPONENT_TOL:
            fails.append(
                f"zero_freq exponent_{side} {val!r} != 1/(4K) = {0.25 / big_k!r}"
            )
    tp, tm = terms["two_pF"]
    target = 0.5 / big_k + 2.0 * big_k
    if not _rel(tp + tm, target) <= EXPONENT_TOL:
        fails.append(f"two_pF exponent sum {tp + tm!r} != 1/(2K) + 2K = {target!r}")
    return fails


def regime(ratio: float, vF: float, regime_label: str) -> list:
    expected = "space-like" if ratio * vF < 1.0 else "time-like"
    if regime_label != expected:
        return [f"regime {regime_label} at (t/x) vF = {ratio * vF:.6f}, expected {expected}"]
    return []


def saddle_maximum(p, eps, p_d1, eps_d1, ratio: float, lam0: float, u_dd: float) -> list:
    """Central differences of the public p and eps around lambda0."""
    step = 1e-3 * max(1.0, abs(lam0))
    pts = np.array([lam0 - step, lam0, lam0 + step])
    u = np.asarray(p(pts), float) - ratio * np.asarray(eps(pts), float)
    slope = (u[2] - u[0]) / (2.0 * step)
    curv = (u[2] - 2.0 * u[1] + u[0]) / step**2
    scale = abs(float(p_d1(lam0))) + ratio * abs(float(eps_d1(lam0)))
    fails = []
    if not abs(slope) <= SADDLE_SLOPE_TOL * scale:
        fails.append(f"u'(lambda0) by central difference = {slope:.3e}, not ~0")
    if not curv < 0:
        fails.append(f"u''(lambda0) by central difference = {curv:.3e} >= 0: not a maximum")
    elif not _rel(curv, u_dd) <= SADDLE_CURV_TOL:
        fails.append(f"u''(lambda0) by central difference {curv:.6e} != cached {u_dd:.6e}")
    return fails


def amplitudes_positive(amps: dict) -> list:
    """`amps` maps label -> predicted amplitude of every active term."""
    return [
        f"{label} amplitude {a!r} is not finite and positive"
        for label, a in amps.items()
        if not (np.isfinite(a) and a > 0)
    ]


def contour_doubling(amps: dict, doubled: dict) -> list:
    """Each amplitude must move by at most DOUBLING_TOL when contour nodes double."""
    fails = []
    for label, a in amps.items():
        b = doubled[label]
        rel = abs(a - b) / abs(b) if b != 0 else np.inf
        if not rel <= DOUBLING_TOL:
            fails.append(
                f"{label} amplitude moved {rel:.3e} relative under contour doubling "
                f"({a!r} -> {b!r})"
            )
    return fails


def rho_reference(terms: list, vF: float, u_dd: float, p_d1_l0: float, xs, ts):
    """rho(x, t) summed in numpy from the term table (formula of llasym.asymptote).

    `terms` holds (label, frequency, exponent_plus, exponent_minus, amplitude)
    for every active term.  Returns (total, per-term contributions).
    """
    xs = np.asarray(xs, float)
    ts = np.asarray(ts, float)
    log_plus = np.log(1j * (xs + vF * ts))
    log_minus = np.log(-1j * (xs - vF * ts))
    contribs = {}
    for label, freq, e_plus, e_minus, amp in terms:
        c = amp * np.exp(1j * xs * freq) * np.exp(-e_minus * log_plus - e_plus * log_minus)
        if label == "saddle":
            c = c * np.exp(-0.25j * np.pi) * np.sqrt(2.0 * np.pi / (-xs * u_dd)) * p_d1_l0
        contribs[label] = c
    return sum(contribs.values()), contribs


def rho_matches(values, moduli: dict, terms: list, vF: float, u_dd: float, p_d1_l0: float,
                xs, ts) -> list:
    """`values` are the program's rho values and `moduli` its term moduli per label."""
    ref, contribs = rho_reference(terms, vF, u_dd, p_d1_l0, xs, ts)
    xs = np.asarray(xs, float)
    max_freq = max(abs(t[1]) for t in terms)
    scale = sum(np.abs(c) for c in contribs.values())
    bound = RHO_ULPS * EPS52 * (4.0 + xs * max_freq) * scale
    fails = []
    err = np.abs(np.asarray(values) - ref)
    bad = np.flatnonzero(~(err <= bound))
    if bad.size:
        i = bad[0]
        fails.append(
            f"rho({xs[i]!r}) = {values[i]!r}, numpy recomputation {ref[i]!r} "
            f"(|diff| {err[i]:.3e} > bound {bound[i]:.3e}; {bad.size} points)"
        )
    for label, c in contribs.items():
        m = np.asarray(moduli[label], float)
        merr = np.abs(m - np.abs(c))
        mbad = np.flatnonzero(~(merr <= bound))
        if mbad.size:
            i = mbad[0]
            fails.append(f"{label} modulus at x = {xs[i]!r}: {m[i]!r} vs {abs(c[i])!r}")
    return fails


# ----------------------------------------------------------------------
# command-line output
# ----------------------------------------------------------------------

def parse_asymptotics(text: str) -> tuple:
    """(header dict, {label: term row}, evaluation rows) of `llasym asymptotics` output."""
    header, terms, evals = {}, {}, []
    section = None
    for line in text.splitlines():
        if line.startswith("# terms"):
            section = "terms"
        elif line.startswith("# evaluations"):
            section = "evals"
        elif line.startswith("# ") and " = " in line:
            key, val = line[2:].split(" = ", 1)
            header[key] = val
        elif not line or line.startswith(("label,", "x,")):
            continue
        elif section == "terms":
            label, *fields = line.split(",")
            terms[label] = fields
        elif section == "evals":
            evals.append([float(v) for v in line.split(",")])
    return header, terms, evals


def cli_asymptotics(text: str) -> list:
    """Exponent identities and the non-saddle term moduli of the printed table."""
    try:
        header, terms, evals = parse_asymptotics(text)
        pF, vF = float(header["pF"]), float(header["vF"])
        rows = {k: terms[k] for k in ACTIVE_LABELS}
    except (KeyError, ValueError) as exc:
        return [f"asymptotics output does not parse: {exc!r}"]
    fails = exponents({k: (float(v[1]), float(v[2])) for k, v in rows.items()}, pF, vF)
    fails += regime(float(header["ratio_t_over_x"]), vF, header["regime"])
    if not evals:
        fails.append("asymptotics printed no evaluations")
        return fails
    xs = [row[0] for row in evals]
    ts = [row[1] for row in evals]
    labels = ("two_pF", "zero_freq")
    table = [(k, float(rows[k][0]), float(rows[k][1]), float(rows[k][2]), float(rows[k][3]))
             for k in labels]
    if not all(v[4] == "yes" for v in (rows[k] for k in labels)):
        fails.append("two_pF and zero_freq terms must be active")
    _, contribs = rho_reference(table, vF, 0.0, 0.0, xs, ts)
    for col, k in ((5, "two_pF"), (6, "zero_freq")):
        printed = np.array([row[col] for row in evals])
        ref = np.abs(contribs[k])
        bound = RHO_ULPS * EPS52 * (4.0 + np.asarray(xs) * abs(table[0][1])) * ref + 1e-16 * ref
        if not np.all(np.abs(printed - ref) <= bound):
            fails.append(f"printed {k} moduli differ from the numpy recomputation")
    return fails


def cli_verify(text: str) -> list:
    """`llasym verify` prints only PASS lines, '#' lines, and failures = 0."""
    lines = text.splitlines()
    fails = [f"verify line is not PASS: {ln!r}" for ln in lines
             if not (ln.startswith("PASS ") or ln.startswith("# "))]
    if not lines or not lines[-1].endswith("failures = 0"):
        fails.append(f"verify summary line is {lines[-1] if lines else ''!r}")
    if not any(ln.startswith("PASS ") for ln in lines):
        fails.append("verify printed no PASS lines")
    return fails
