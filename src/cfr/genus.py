"""Boundary Chern-connection integrals, the double-genus identity, q_inf.

On a disc or annulus chart with a positive volume density lambda, the metric
on (1,0)-forms is h*(f dzeta) = |f| / sqrt(lambda) and the connection acts on
the boundary through d ln h*^2, whose (1,0)-part is extracted from two
concentric interior sample rings (radial one-sided differentiation with
Richardson correction) and a spectral tangential derivative.

The absolute value of the disc integral depends on the interplay between the
tangency certificate and the doubling normalization (see the recorded disc
experiments in the tests); the annulus value and all metric-independent
winding differences are unambiguous and are what the acceptance suite gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indicators import RoundingGuard

RING_H = 1e-3           # spacing of the interior sample rings, relative to the radius
N_NODES = 256           # samples per boundary circle


class ZeroOnBoundary(ValueError):
    """The form vanishes on a boundary ring; ln h* is singular there."""


class NegativeCount(ValueError):
    """The estimated number of points at infinity came out negative."""


def lambda_flat(zeta):
    return np.ones_like(np.real(zeta))


def lambda_fubini_study(zeta):
    return (1.0 + np.abs(zeta) ** 2) ** -2


LAMBDAS = {"flat": lambda_flat, "fs": lambda_fubini_study}


@dataclass
class SurfaceModel:
    """Disc (|z| < r_out) or annulus (r_in < |z| < r_out) chart model.

    Boundary circles carry the orientation induced from the domain: the
    outer circle counts +1, an inner circle -1 (both are parameterized
    counterclockwise, the sign flips the contribution).
    """

    kind: str = "disc"
    r_out: float = 1.0
    r_in: float = 0.5

    def circles(self):
        """(radius, orientation sign, inward radial direction) per component."""
        if self.kind == "disc":
            return [(self.r_out, +1, -1.0)]
        if self.kind == "annulus":
            return [(self.r_out, +1, -1.0), (self.r_in, -1, +1.0)]
        raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_components(self):
        return len(self.circles())

    def tangency_certificate(self, lam) -> float:
        """max |d lambda / d rho| over the boundary circles (radial FD); NaN if any is."""
        th = 2.0 * np.pi * np.arange(N_NODES) / N_NODES
        worst = [np.max(np.abs(_radial_fd(lam, R, dirn, th)[1])) for R, _, dirn in self.circles()]
        return float(np.max(worst))     # np.max keeps a NaN that max() would drop


def _radial_fd(f, R, dirn, th):
    """f at the angles th on the circle |zeta| = R, and its one-sided radial derivative
    (-3 f0 + 4 f1 - f2) / (2 dirn h) from the rings R + k dirn h, k = 0, 1, 2, h = RING_H R."""
    h = RING_H * R
    f0, f1, f2 = (f((R + dirn * k * h) * np.exp(1j * th)) for k in range(3))
    return f0, (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * dirn * h)


def chern_boundary_integral(omega, lam, model: SurfaceModel) -> float:
    """(1/2 pi i) * contour integral over the oriented boundary of d ln h*^2 (1,0)-part.

    F = ln h*(omega)^2 is sampled on the boundary ring and on two interior
    rings at distances {h, 2h}; dF/dr comes from the one-sided second-order
    (Richardson) formula, dF/dtheta from FFT differentiation, and

        (dF)_(1,0) = (1/2) e^(-i theta) (F_r - i F_theta / R) dzeta.
    """
    def F(zeta):
        fv = omega(zeta)
        if np.min(np.abs(fv)) < 1e-9:
            raise ZeroOnBoundary("omega vanishes near the boundary ring")
        return 2.0 * np.log(np.abs(fv)) - np.log(lam(zeta))

    total = 0.0 + 0.0j
    n = N_NODES
    th = 2.0 * np.pi * np.arange(n) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    for R, sign, dirn in model.circles():
        F0, Fr = _radial_fd(F, R, dirn, th)
        Fth = np.real(np.fft.ifft(1j * freqs * np.fft.fft(F0)))
        Fz = 0.5 * np.exp(-1j * th) * (Fr - 1j * Fth / R)
        dzeta = 1j * R * np.exp(1j * th)
        total += sign * np.sum(Fz * dzeta) * (2.0 * np.pi / n)
    return float(np.real(total / (2.0j * np.pi)))


def winding_difference(omega1, omega2, lam, model: SurfaceModel) -> float:
    """Integral difference for two forms under the same metric.

    The metric contributions cancel exactly in the quotient omega1/omega2,
    so this equals the boundary winding number of that quotient.
    """
    return (chern_boundary_integral(omega1, lam, model)
            - chern_boundary_integral(omega2, lam, model))


def q_infinity_estimate(chern_integral: float, g: int, c: int) -> int:
    """q_inf = chern integral + 2g - 2 + c, rounded with a 1e-3 guard; a count, so >= 0."""
    val = chern_integral + 2 * g - 2 + c
    n = round(val)
    if abs(val - n) > 1e-3:
        raise RoundingGuard(f"q_inf estimate {val} is not close to an integer")
    if n < 0:
        raise NegativeCount(f"q_inf estimate {val} rounds to {n} < 0")
    return int(n)
