#!/usr/bin/env python3
"""The shock-wave operator calculus on truncated double series.

Each sheet h_j(z) of the curve over the moving line is a shock wave
(h_y = h h_x).  Sums of d waves are generated from free data (mu, B) through
the operators P (primitivization in y), D = d/dx + (dH/dx), E = P D and the
exact monomial part of e^H.  This script builds the machinery on the
interior-line fixture and verifies the defining identities numerically.
"""

import numpy as np

from cfr import indicators, oracles, shock

b = oracles.interior_line()
lt = indicators.laurent_extract(b, kmax=2, mmax=12, cross_check=False)
omega = -4.5
h = shock.H_from_laurent(lt, lt.delta, omega)

print("H~ coefficients (analytic: (-1)^m / (m 2^m)):")
for m in range(1, 5):
    print(f"  m={m}:", h.Htilde.coeff(0, m), " vs", (-1) ** m / (m * 2 ** m))

# e^H factors into an exact monomial and an entire tail: no branch cut ever
# materializes in the numerics.
eh = shock.exp_H(h)
y = 6.0
print("e^H(0, 6) =", eh(0.0, y), " exact:", omega / (y + 0.5))

# The E-table decomposes iterates: E^k(f x 1) = sum_j f^(j) E_{k,j}.
tab = shock.E_decomposition(3, h)
f = np.array([0.0, 2.0, 0.0, 1.0])  # x^3 + 2x
lhs = shock.BiSeries.from_x_poly(f, h.Htilde.nx)
for _ in range(3):
    lhs = shock.op_E(lhs, h)
rhs = None
fj = f.copy()
for j in range(4):
    t = tab[(3, j)] * shock.BiSeries.from_x_poly(fj, h.Htilde.nx)
    rhs = t if rhs is None else rhs + t
    fj = np.polynomial.polynomial.polyder(fj)
lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
print("\nE^3 decomposition identity, max coefficient error:",
      np.max(np.abs((lhs - rhs)._window(lo, hi))))

# Free data (mu, B) generate the sheets: on the interior line d = 1, B = 1 and
# mu_1 = (x + 1) / omega give s_1 = -h for the sheet h = -(x + 1)/(y + 1/2).
s = shock.s_k_from_mu([np.array([1.0, 1.0]) / omega], [1.0], h)
print("s_1(0.25, 5) =", s[0](0.25, 5.0), " exact:", (0.25 + 1.0) / 5.5)

# Finite-difference verification of the shock equation on a fiber field: the
# symmetric-function system with the single sheet S_1 = h is h_y = h h_x.
def wave(x, y):
    return -(x + 1.0) / (y + 0.5)

grid = np.array([[wave(i * 0.05, 10 + j * 0.05) for j in range(-4, 5)]
                 for i in range(-4, 5)])
print("shock residual of the line wave:",
      shock.system_residual([grid], 0.05, 0.05))
