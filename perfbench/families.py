"""Seeded boundary families with answers known in closed form.

Every family here is a union of pieces of lines w2 = w0 + a*w1 (the slope a
is drawn per piece) or the conic w0*w2 = w1^2, each piece parameterized by
|t| < 1 in the chart (1 : t : ...).  The draws only fix slopes and sample
counts; which boundary is built from them is fixed by the family name.

The shipped oracles build interior-line, exterior-line, two-line and conic.
Unions of p >= 3 lines are built here from the public BoundaryLoop and
BoundaryData classes, the same way the oracles build theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfr import geometry, oracles

# Slopes are drawn with modulus in this range, so every boundary sample keeps
# |w2| >= 1 - 0.6 away from zero, and pairwise at least MIN_SLOPE_GAP apart.
SLOPE_MODULUS = (0.2, 0.6)
MIN_SLOPE_GAP = 0.25
SINGLE_LINE_MODULUS = (0.25, 0.75)

FAMILIES = ("interior-line", "exterior-line", "two-line", "conic", "lines-3", "lines-4")


@dataclass(frozen=True)
class Family:
    """One drawn boundary: family name, line slopes and samples per loop."""

    name: str
    slopes: tuple
    n: int

    @property
    def is_conic(self):
        return self.name == "conic"

    @property
    def exterior(self):
        """True when the curve is the outside |t| > 1 of its parameter circle."""
        return self.name == "exterior-line"

    @property
    def expected(self):
        """(delta, r, p): winding integer, B-degree at infinity, sheet count."""
        if self.exterior:
            return -1, 1, 0
        if self.is_conic:
            return 1, 0, 1
        return len(self.slopes), 0, len(self.slopes)

    def boundary(self) -> geometry.BoundaryData:
        if self.name == "interior-line":
            return oracles.interior_line(a=self.slopes[0], n=self.n)
        if self.name == "exterior-line":
            return oracles.exterior_line(a=self.slopes[0], n=self.n)
        if self.name == "two-line":
            return oracles.two_line(a=self.slopes[0], b=self.slopes[1], n=self.n)
        if self.is_conic:
            return oracles.conic(n=self.n)
        return union_of_lines(self.slopes, self.n)


def union_of_lines(slopes, n) -> geometry.BoundaryData:
    """Positively oriented unit circles on the lines z2 = 1 + a z1, one per slope."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e = np.exp(1j * t)
    loops = []
    for a in slopes:
        w = np.stack([np.ones_like(e), e, 1.0 + a * e], axis=1)
        dw = np.stack([np.zeros_like(e), 1j * e, 1j * a * e], axis=1)
        loops.append(geometry.BoundaryLoop(t, w, dw))
    return geometry.BoundaryData(loops, [1] * len(slopes))


def _draw_slope(rng, modulus):
    return complex(rng.uniform(*modulus) * np.exp(2j * np.pi * rng.uniform()))


def draw_slopes(rng, count):
    """count slopes, pairwise at least MIN_SLOPE_GAP apart (rejection sampling)."""
    while True:
        s = [_draw_slope(rng, SLOPE_MODULUS) for _ in range(count)]
        if all(abs(s[i] - s[j]) >= MIN_SLOPE_GAP
               for i in range(count) for j in range(i)):
            return tuple(s)


def draw(rng, name, n) -> Family:
    if name in ("interior-line", "exterior-line"):
        return Family(name, (_draw_slope(rng, SINGLE_LINE_MODULUS),), n)
    if name == "two-line":
        return Family(name, draw_slopes(rng, 2), n)
    if name == "conic":
        return Family(name, (), n)
    if name.startswith("lines-"):
        return Family(name, draw_slopes(rng, int(name.split("-")[1])), n)
    raise ValueError(f"unknown family {name!r}")
