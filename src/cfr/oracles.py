"""Analytic boundary-data fixtures with known closed-form answers.

Each generator returns a BoundaryData built from exact samples and exact
velocities, so quadrature errors are the only numerical noise in tests.

interior_line : Q = {(1 : t : 1 + a t), |t| < 1}, one positively oriented loop,
                delta = 1, no points at infinity, single sheet
                h(z) = -(x+1)/(y+a).
exterior_line : complementary piece {|t| > 1} plus its point at infinity;
                same circle with reversed orientation, delta = -1, q_inf = 1,
                zero sheets, G_1 = P_1 = (1+x)/(y+a).
two_line      : nodal union of z2 = 1 + a z1 and z2 = 1 + b z1 over |z1| = 1,
                delta = 2, two sheets -(x+1)/(y+a), -(x+1)/(y+b).
conic         : Q = {(1 : t : t^2), |t| < 1}, delta = 1, one sheet equal to
                the small root of t^2 + y t + x = 0.
"""

import numpy as np

from .geometry import BoundaryData, BoundaryLoop


def _loop_from_maps(n, wfun, dwfun):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return BoundaryLoop(t, np.stack(wfun(t), axis=1), np.stack(dwfun(t), axis=1))


def _line_loop(a, n):
    """Unit circle |z1| = 1 on the line z2 = 1 + a z1."""
    return _loop_from_maps(
        n, lambda t: (np.ones_like(t), np.exp(1j * t), 1.0 + a * np.exp(1j * t)),
        lambda t: (np.zeros_like(t), 1j * np.exp(1j * t), a * 1j * np.exp(1j * t)))


def interior_line(a=0.5, n=1024) -> BoundaryData:
    return BoundaryData([_line_loop(a, n)], [1])


def exterior_line(a=0.5, n=1024) -> BoundaryData:
    return BoundaryData(interior_line(a=a, n=n).loops, [-1])


def two_line(a=0.5, b=-1.0 / 3.0, n=1024) -> BoundaryData:
    return BoundaryData([_line_loop(a, n), _line_loop(b, n)], [1, 1])


def conic(n=1024) -> BoundaryData:
    lp = _loop_from_maps(n, lambda t: (np.ones_like(t), np.exp(1j * t), np.exp(2j * t)),
                         lambda t: (np.zeros_like(t), 1j * np.exp(1j * t), 2j * np.exp(2j * t)))
    return BoundaryData([lp], [1])


ORACLES = {"interior-line": interior_line, "exterior-line": exterior_line, "two-line": two_line,
           "conic": conic}
