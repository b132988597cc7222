#!/usr/bin/env python3
"""The shock-wave operator calculus on truncated double series.

Each sheet h_j(z) of the curve over the moving line is a shock wave
(h_y = h h_x).  Sums of d waves are generated from free data (mu, B) through
the operators P (primitivization in y), D = d/dx + (dH/dx), E = P D and
e^H = omega^delta y^-delta exp(H~), whose monomial is kept exact.  This script
builds the machinery on the interior-line fixture and verifies the defining
identities numerically, evaluating series at a point by their truncated sums.
"""

import numpy as np

from cfr import indicators, oracles, shock

b = oracles.interior_line()
lt = indicators.laurent_extract(b, kmax=2, mmax=12)
omega = -4.5
h = shock.H_from_laurent(lt, omega)

print("H~ coefficients (analytic: (-1)^m / (m 2^m)):")
for m in range(1, 5):     # column m - mlo of c holds y^-m, row 0 the x^0 coefficient
    print(f"  m={m}:", h.Htilde.c[0, m - h.Htilde.mlo], " vs", (-1) ** m / (m * 2 ** m))

# e^H factors into an exact monomial and an entire tail: no branch cut ever
# materializes in the numerics.  At x = 0 only the x^0 row of exp(H~) counts.
tail = h.Htilde.exp()
y = 6.0
eh = omega ** lt.delta * y ** -lt.delta * sum(c * y ** -(tail.mlo + i)
                                              for i, c in enumerate(tail.c[0]))
print("e^H(0, 6) =", eh, " exact:", omega / (y + 0.5))

# The E-table decomposes iterates: E^k(f x 1) = sum_j f^(j) E_{k,j}.  Its rows
# come from an iterator, each built from the one before; row 3 is the fourth.
rows = shock.E_decomposition(h)
row3 = [next(rows) for _ in range(4)][-1]
f = np.array([0.0, 2.0, 0.0, 1.0])  # x^3 + 2x
lhs = shock.BiSeries.from_x_poly(f, h.Htilde.nx)
for _ in range(3):
    lhs = shock.op_E(lhs, h)
rhs = None
fj = f.copy()
for j in range(4):
    t = row3[j] * shock.BiSeries.from_x_poly(fj, h.Htilde.nx)
    rhs = t if rhs is None else rhs + t
    fj = np.polynomial.polynomial.polyder(fj)
lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
print("\nE^3 decomposition identity, max coefficient error:",
      np.max(np.abs((lhs - rhs)._window(lo, hi))))

# Free data (mu, B) generate the sheets: on the interior line d = 1, B = 1 and
# mu_1 = (x + 1) / omega give s_1 = -h for the sheet h = -(x + 1)/(y + 1/2).
s = shock.s_k_from_mu([np.array([1.0, 1.0]) / omega], [1.0], h)
s1 = sum(np.polynomial.polynomial.polyval(0.25, c) * 5.0 ** -(s[0].mlo + i)
         for i, c in enumerate(s[0].c.T))
print("s_1(0.25, 5) =", s1, " exact:", (0.25 + 1.0) / 5.5)

# Finite-difference verification of the shock equation on a fiber field: the
# symmetric-function system with the single sheet S_1 = h is h_y = h h_x.
def wave(x, y):
    return -(x + 1.0) / (y + 0.5)

grid = np.array([[wave(i * 0.05, 10 + j * 0.05) for j in range(-4, 5)]
                 for i in range(-4, 5)])
print("shock residual of the line wave:",
      shock.system_residual([grid], 0.05, 0.05))
