"""Cross-check the exhaustive sum against the determinant resummation."""

import time

import numpy as np

from llasym.fflab import nu_zero_limit, standard_matrix, xn_bruteforce, xn_determinant
from llasym.fflab.instances import (AffineCounting, FFLabInstance, NuFunction,
                                    QuadraticPhase)


def main():
    t0 = time.perf_counter()
    worst = 0.0
    for inst in standard_matrix():
        b = xn_bruteforce(inst)
        d = xn_determinant(inst)
        err = abs(b - d) / max(abs(b), 1e-30)
        worst = max(worst, err)
        print(f"N={inst.N} w={inst.w} nu={inst.nu.kind:8s} "
              f"brute={b:+.12e} det={d:+.12e} rel={err:.3e}")
    print(f"worst relative deviation: {worst:.3e}  ({time.perf_counter() - t0:.2f}s)")

    # small-nu scan against the closed nu == 0 limit
    xi = AffineCounting(slope=1.0 / (2.0 * np.pi), offset=0.5)
    phase = QuadraticPhase(x=5.0, tau=0.1)
    base = FFLabInstance(N=2, L=10.0, w=5, xi=xi, nu=NuFunction("const", 0.0),
                         phase=phase)
    limit = nu_zero_limit(base)
    print(f"nu=0 closed limit: {limit:+.12e}")
    for amp in (1e-2, 1e-3, 1e-4):
        inst = FFLabInstance(N=2, L=10.0, w=5, xi=xi, nu=NuFunction("const", amp),
                             phase=phase)
        b = xn_bruteforce(inst)
        d = xn_determinant(inst)
        print(f"amp={amp:.0e} brute={b:+.12e} det={d:+.12e} "
              f"|brute-limit|={abs(b - limit):.3e}")


if __name__ == "__main__":
    main()
