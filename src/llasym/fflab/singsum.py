"""Singular discrete sums and their exact contour closure.

For f(mu) = E^(-2)(mu)/(2*pi*L*xi'(mu)) the sums

    S_r(lam) = sum_{a in window} f(mu_a) / (mu_a - lam)^r,   r = 0, 1, 2,

decompose exactly as  S_r = main_r + local_r + I_r  where main_r is a
plain integral over a descending contour that passes above lam and
crosses the real axis at the stationary point of the phase, local_r
collects the residue at z = lam, and the remainder I_r is a weighted
integral over the window boundary.  The decomposition follows from the
residue theorem applied to E^(-2)(z)/((z-lam)^r (e^{2i*pi*L*xi(z)}-1))
on the rectangle enclosing the window: the weight has simple poles at
the mu_a with residue 1/(2i*pi*L*xi'(mu_a)).

Everything here is exact at finite L for any admissible contour
heights; the remainder is returned both as the closure
discrete - main - local and through its own independent quadrature.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..dressing import legendre_rule
from .instances import FFLabInstance

_MAX_PANEL = 0.2  # longest panel of the composite Gauss-Legendre rule on a polyline leg
_N_GAUSS = 16  # nodes per panel
_HEIGHT = 1.5  # half-height of the contours around the window


class ContourPlacementError(ValueError):
    """The evaluation point sits on or too close to a contour or a pole."""


def polyline_nodes(vertices):
    """Composite Gauss-Legendre nodes and complex weights along a polyline."""
    x, wx = legendre_rule(_N_GAUSS)
    zs, ws = [], []
    for z0, z1 in zip(vertices[:-1], vertices[1:]):
        z0, z1 = complex(z0), complex(z1)
        n_panels = max(1, int(np.ceil(abs(z1 - z0) / _MAX_PANEL)))
        edges = np.linspace(0.0, 1.0, n_panels + 1)
        t = (edges[:-1, None] + np.diff(edges)[:, None] * (x[None, :] + 1.0) / 2.0).ravel()
        wt = (np.diff(edges)[:, None] * wx[None, :] / 2.0).ravel()
        zs.append(z0 + t * (z1 - z0))
        ws.append(wt * (z1 - z0))
    return np.concatenate(zs), np.concatenate(ws)


def descending_nodes(left: float, knee: float, right: float, height: float):
    """Nodes and weights of the descending polyline left+ih, knee+ih, knee-ih, right-ih."""
    return polyline_nodes([left + 1j * height, knee + 1j * height,
                           knee - 1j * height, right - 1j * height])


@dataclass(frozen=True)
class SingularSumResult:
    r: int
    lam: float
    discrete: complex
    main: complex
    local: complex
    remainder_closure: complex
    remainder_quadrature: complex

    @property
    def residual(self) -> float:
        """|discrete - (main + local + remainder-by-quadrature)|."""
        return abs(self.discrete - (self.main + self.local
                                    + self.remainder_quadrature))


def _window_edges(inst: FFLabInstance):
    """Real endpoints where L*xi hits the half-integers +-(w+1/2).

    There the weight denominators satisfy |e^{2i pi L xi} - 1| >= 2 along
    the whole vertical line, so the boundary risers never graze a pole.
    """
    a_left = inst.xi.inverse(-(inst.w + 0.5) / inst.L)
    b_right = inst.xi.inverse((inst.w + 0.5) / inst.L)
    return a_left, b_right


def _weight_lower(inst: FFLabInstance, z):
    """1/(e^{2 i pi L xi} - 1), exponentially small below the axis."""
    return 1.0 / (np.exp(2j * np.pi * inst.L * inst.xi(z)) - 1.0)


def _weight_upper(inst: FFLabInstance, z):
    """1/(1 - e^{-2 i pi L xi}), exponentially small above the axis."""
    return 1.0 / (1.0 - np.exp(-2j * np.pi * inst.L * inst.xi(z)))


@dataclass(frozen=True)
class Leg:
    """One polyline: its nodes, complex weights, E^(-2) on the nodes and an
    optional boundary weight on the nodes."""

    z: np.ndarray
    wz: np.ndarray
    e_inv_sq: np.ndarray
    weight: np.ndarray | None = None

    def integral(self, r: int, lam):
        """Sum of E^(-2)(z)/(z - lam)^r (times the boundary weight) * wz over the
        nodes, for each point of the array `lam` (a number gives a number)."""
        f = self.e_inv_sq / (self.z - np.asarray(lam)[..., None]) ** r
        if self.weight is not None:
            f = f * self.weight
        return np.sum(f * self.wz, axis=-1)


def _leg(inst: FFLabInstance, nodes, weight=None) -> Leg:
    z, wz = nodes
    return Leg(z, wz, inst.phase.e_inv_sq(z), None if weight is None else weight(inst, z))


@dataclass(frozen=True)
class _Contours:
    """Everything of the decomposition that does not depend on (r, lam).

    `main` is the descending contour above the window; `boundary` holds the
    legs of the remainder: the plain risers up to the main contour's
    endpoints, then the weighted upper and lower halves of the window's
    rectangle.
    """

    a_left: float
    b_right: float
    main: Leg
    boundary: tuple


# instance -> its _Contours.  Instances are frozen and hashable, so equal
# instances share an entry; the keys are weak, so an entry lives only as long
# as an instance it serves and the lab holds no arrays once its callers are done.
_CONTOURS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _contours(inst: FFLabInstance) -> _Contours:
    """The contours of `inst`, built once per live instance value."""
    paths = _CONTOURS.get(inst)
    if paths is None:
        paths = _CONTOURS[inst] = _build_contours(inst)
    return paths


def _build_contours(inst: FFLabInstance) -> _Contours:
    a_left, b_right = _window_edges(inst)
    h = _HEIGHT
    # main: from a_left + ih, crossing the axis at the knee, or straight
    # above the axis when the knee lies right of the window
    if inst.phase.knee < b_right:
        main = _leg(inst, descending_nodes(a_left, inst.phase.knee, b_right, h))
        right_end = b_right - 1j * h
    else:
        right_end = b_right + 1j * h
        main = _leg(inst, polyline_nodes([a_left + 1j * h, right_end]))
    boundary = (
        _leg(inst, polyline_nodes([a_left, a_left + 1j * h])),
        _leg(inst, polyline_nodes([right_end, b_right])),
        _leg(inst, polyline_nodes([b_right, b_right + 1j * h, a_left + 1j * h, a_left]), _weight_upper),
        _leg(inst, polyline_nodes([a_left, a_left - 1j * h, b_right - 1j * h, b_right]), _weight_lower),
    )
    return _Contours(a_left, b_right, main, boundary)


def singular_sum(inst: FFLabInstance, r: int, lam: float) -> SingularSumResult:
    """Evaluate S_r(lam) and its exact contour decomposition."""
    if r not in (0, 1, 2):
        raise ValueError("r must be 0, 1 or 2")
    lam = float(lam)
    phase = inst.phase
    L = inst.L
    paths = _contours(inst)
    a_left, b_right = paths.a_left, paths.b_right
    knee = phase.knee
    if not (a_left + 1e-3 < lam < min(knee, b_right) - 1e-3):
        raise ContourPlacementError(
            f"lam={lam} must sit inside ({a_left:.3f}, {min(knee, b_right):.3f}) "
            "with 1e-3 clearance so the descending contour passes above it")
    if np.min(np.abs(inst.mu - lam)) < 1e-6:
        raise ContourPlacementError(
            "lam coincides with an occupation point; the local weight is singular")

    discrete = complex(np.sum(inst.mu_weights / (inst.mu - lam) ** r))
    main = complex(paths.main.integral(r, lam) / (2.0 * np.pi))

    # local residue terms at z = lam
    wl = complex(_weight_lower(inst, np.array(lam)))
    if r == 0:
        local = 0.0 + 0.0j
    elif r == 1:
        local = -1j * complex(phase.e_inv_sq(lam)) * wl
    else:
        e_inv = complex(phase.e_inv_sq(lam))
        d_e_inv = complex(phase.dlog_inv_sq(lam)) * e_inv
        s = np.sin(np.pi * L * float(inst.xi(lam)))
        local = (-1j * d_e_inv * wl
                 + np.pi * e_inv * L * float(inst.xi.d1(lam)) / (2.0 * s * s))

    closure = discrete - main - local

    # independent quadrature of the remainder over the window boundary
    rem = 0.0 + 0.0j
    for leg in paths.boundary:
        rem += leg.integral(r, lam)
    rem /= 2.0 * np.pi

    return SingularSumResult(r=r, lam=lam, discrete=discrete, main=main,
                             local=local, remainder_closure=closure,
                             remainder_quadrature=complex(rem))
