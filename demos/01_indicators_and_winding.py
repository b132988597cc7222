#!/usr/bin/env python3
"""Boundary data, indicator integrals and the winding integer.

A bordered curve is known to us only through sampled loops of its boundary.
This walk-through builds the three analytic fixtures (a line disc, its
exterior, and a nodal union of two lines), evaluates the indicator contour
integrals G_k on admissible lines, and reads off the winding integer delta
and the Laurent data that the rest of the pipeline consumes.
"""

import numpy as np

from cfr import indicators, oracles
from cfr.geometry import m_of_y, rho

# -- the admissible domain -----------------------------------------------------

b = oracles.interior_line(a=0.5)
print("interior line z2 = 1 + z1/2 over |z1| < 1")
print("  rho            =", rho(b))
print("  m(10)          =", m_of_y(b, 10.0))

# Lines L_z with |y| > rho and |x| < m(y) avoid the boundary; on them the
# indicators are spectrally accurate trapezoid sums.  G_lines takes a batch of
# lines z = (x, y) and of k; here one line, z = (0, 10), and k = 0, 1.
g = indicators.G_lines(b, [0.0], [10.0], [0, 1])[:, 0]
print("  G_0(z)         =", g[0], " (sheet count minus q_inf)")
print("  G_1(z)         =", g[1], " exact:", -1.0 / 10.5)
print("  delta          =", indicators.delta(b))

# -- the exterior piece reverses the orientation ---------------------------------

bx = oracles.exterior_line()
print("\nexterior piece of the same line (orientation -1)")
print("  G_1(z)         =", indicators.G_lines(bx, [0.0], [10.0], [1])[0, 0],
      " exact:", 1.0 / 10.5)
print("  delta          =", indicators.delta(bx), " (p = delta + q_inf = 0)")

# -- two loops, two sheets --------------------------------------------------------

b2 = oracles.two_line()
print("\nnodal union of two lines")
print("  delta          =", indicators.delta(b2))

# -- Laurent data -----------------------------------------------------------------

# G_k(x, y) = sum_m G_{k,m}(x) y^-m; the closed-form boundary moments are
# cross-checked against circle sampling + discrete Fourier analysis.
lt = indicators.laurent_extract(b, kmax=3, mmax=8)
print("\nLaurent table of the interior line (cross-checked):")
print("  G_{1,1}^0      =", lt.coeffs[1, 1, 0], " expect -1")
print("  G_{1,1}^1      =", lt.coeffs[1, 1, 1], " expect -delta")
print("  G_{2,2}^2      =", lt.coeffs[2, 2, 2], " expect +delta")
print("  max |G_{0,m}|  =", np.max(np.abs(lt.coeffs[0, 1:, :])), " (vanishes)")
