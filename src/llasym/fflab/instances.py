"""Finite-size test instances.

An instance bundles a strictly increasing counting function xi, a shift
function nu, and an oscillating weight E(z) = exp(i*x*u(z) + g(z)) with
quadratic u.  Occupation points mu_a solve L*xi(mu_a) = a for integers a
in the window [-w, w]; shifted points lam_k solve L*xi(lam_k) + nu(lam_k)
= k for k = 1..N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class AffineCounting:
    """Counting function xi(z) = slope*z + offset with exact inverse."""

    slope: float
    offset: float

    def __call__(self, z):
        return self.slope * z + self.offset

    def d1(self, z):
        return self.slope * np.ones_like(np.asarray(z, dtype=float))

    def inverse(self, s):
        return (s - self.offset) / self.slope


@dataclass(frozen=True)
class NuFunction:
    """Small analytic shift function, one of a few parametric shapes.

    kind "const":    nu(z) = amp
    kind "gauss":    nu(z) = amp * exp(-z^2)
    kind "rational": nu(z) = amp / (1 + z^2)
    """

    kind: str
    amp: float

    def __post_init__(self):
        if self.kind not in ("const", "gauss", "rational"):
            raise ValueError(f"unknown nu kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.amp == 0.0

    def __call__(self, z):
        z = np.asarray(z)
        if self.kind == "const":
            return self.amp * np.ones_like(z)
        if self.kind == "gauss":
            return self.amp * np.exp(-(z**2))
        return self.amp / (1.0 + z**2)

    def d1(self, z):
        z = np.asarray(z)
        if self.kind == "const":
            return np.zeros_like(z)
        if self.kind == "gauss":
            return -2.0 * z * self.amp * np.exp(-(z**2))
        return -2.0 * z * self.amp / (1.0 + z**2) ** 2


@dataclass(frozen=True)
class QuadraticPhase:
    """Weight E(z)^(-2) = exp(i*x*(z - tau*z^2)).

    log_inv_sq is the logarithm of the inverse square weight, e_inv_sq the
    weight itself.  tau > 0 puts the stationary point of the phase
    at 1/(2*tau) on the real line, which is where descending contours
    cross the axis.
    """

    x: float
    tau: float

    def log_inv_sq(self, z):
        return 1j * self.x * (z - self.tau * z * z)

    def dlog_inv_sq(self, z):
        return 1j * self.x * (1.0 - 2.0 * self.tau * z)

    def e_inv_sq(self, z):
        return np.exp(self.log_inv_sq(z))

    @property
    def knee(self) -> float:
        """Real point where |e_inv_sq| is constant along vertical lines."""
        return 1.0 / (2.0 * self.tau)


@dataclass(frozen=True)
class FFLabInstance:
    """One finite-size configuration.

    N       number of shifted points (2..4 for the exhaustive sums,
            larger for determinant-only work)
    L       system scale
    w       half-width of the integer window B = {-w, ..., w}
    xi      counting function (strictly increasing, invertible)
    nu      shift function
    phase   oscillating weight
    """

    N: int
    L: float
    w: int
    xi: AffineCounting
    nu: NuFunction
    phase: QuadraticPhase

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.xi.slope <= 0:
            raise ValueError("counting function must be strictly increasing")
        if 2 * self.w + 1 < self.N + 1:
            raise ValueError("window too small: need 2w+1 >= N+1")
        # xi_nu = xi + nu/L must stay strictly increasing on the window
        zz = np.linspace(self.xi.inverse(-(self.w + 1) / self.L),
                         self.xi.inverse((self.w + 1) / self.L), 512)
        if np.min(self.L * self.xi.d1(zz) + self.nu.d1(zz)) <= 0:
            raise ValueError("xi + nu/L is not strictly increasing on the window")

    @property
    def window(self) -> np.ndarray:
        return np.arange(-self.w, self.w + 1)

    @cached_property
    def mu(self) -> np.ndarray:
        """Occupation points mu_a, a = -w..w (index a+w)."""
        return self.xi.inverse(self.window / self.L)

    @property
    def mu_weights(self) -> np.ndarray:
        """E^(-2)(mu_a)/(2*pi*L*xi'(mu_a)): each occupation point's discrete-sum weight."""
        return self.phase.e_inv_sq(self.mu) / (2.0 * np.pi * self.L * self.xi.d1(self.mu))

    def mu_at(self, a):
        """mu for integer label(s) a in the window."""
        return self.xi.inverse(np.asarray(a) / self.L)

    @cached_property
    def lam(self) -> np.ndarray:
        """Shifted points lam_k, k = 1..N (index k-1), by Newton from mu_k."""
        ks = np.arange(1, self.N + 1)
        z = self.mu_at(ks).astype(float)
        for _ in range(60):
            f = self.L * self.xi(z) + self.nu(z) - ks
            fp = self.L * self.xi.d1(z) + self.nu.d1(z)
            step = f / fp
            z = z - step
            if np.max(np.abs(step)) < 1e-15:
                break
        else:
            raise RuntimeError("shifted-point Newton iteration did not converge")
        return z

    def xi_nu_d1(self, z):
        """Derivative of xi + nu/L."""
        return self.xi.d1(z) + self.nu.d1(z) / self.L


def standard_matrix() -> list[FFLabInstance]:
    """The 12 cross-check instances: N in {2,3} x w in {5,6} x three nu shapes."""
    out = []
    xi = AffineCounting(slope=1.0 / (2.0 * np.pi), offset=0.5)
    phase = QuadraticPhase(x=5.0, tau=0.1)
    for N in (2, 3):
        for w in (5, 6):
            for kind in ("const", "gauss", "rational"):
                out.append(FFLabInstance(N=N, L=10.0, w=w, xi=xi,
                                         nu=NuFunction(kind, 0.1), phase=phase))
    return out


def singular_sum_instance(w: int) -> FFLabInstance:
    """The singular-sum check instance with window half-width w.

    N = 2, L = 20, nu = 0, and a quadratic phase with x small enough that
    e^{ixu} stays box-bounded relative to the window growth
    (x * 2 tau * b_right < L).
    """
    return FFLabInstance(N=2, L=20.0, w=w, xi=AffineCounting(slope=1.0 / (2.0 * np.pi), offset=0.5),
                         nu=NuFunction("const", 0.0), phase=QuadraticPhase(x=2.0, tau=0.1))
