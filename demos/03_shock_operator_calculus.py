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

print("\ndelta from the large-|y| slope of ln|e^-H|:",
      shock.delta_from_expH(h))

# e^H factors into an exact monomial and an entire tail: no branch cut ever
# materializes in the numerics.
eh = shock.exp_H(h)
y = 6.0
print("e^H(0, 6) =", eh(0.0, y), " exact:", omega / (y + 0.5))

# The E-table decomposes iterates: E^k(f x 1) = sum_j f^(j) E_{k,j}.
tab = shock.E_decomposition(3, h)
f = np.array([0.0, 2.0, 0.0, 1.0])  # x^3 + 2x
lhs = shock.iterate_E(f, 3, h)
rhs = None
fj = f.copy()
for j in range(4):
    t = tab[(3, j)] * shock.BiSeries.from_x_poly(fj, h.Htilde.nx)
    rhs = t if rhs is None else rhs + t
    fj = np.polynomial.polynomial.polyder(fj)
lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
print("\nE^3 decomposition identity, max coefficient error:",
      np.max(np.abs((lhs - rhs)._window(lo, hi))))

# Random (mu, B) always satisfies the symmetric-function chain with
# dN/dx = dG_1/dx - B'/B; that is the content of the construction.
rng = np.random.default_rng(0)
B = np.array([1.0, 0.5])
g1 = shock.g1_biseries(lt, h.Htilde.nx)
dNx = g1.dx() - shock.rational_tail(np.polynomial.polynomial.polyder(B), B,
                                    h.Htilde.nx, lt.mmax + 2)
mu = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
s = shock.s_k_from_mu(mu, B, h)
print("chain residual for random (mu, B):", shock.eqsym1_residual(s, dNx))

# Finite-difference verification of the shock equation on a fiber field: the
# symmetric-function system with the single sheet S_1 = h is h_y = h h_x.
def wave(x, y):
    return -(x + 1.0) / (y + 0.5)

grid = np.array([[wave(i * 0.05, 10 + j * 0.05) for j in range(-4, 5)]
                 for i in range(-4, 5)])
print("shock residual of the line wave:",
      shock.system_residual([grid], 0.05, 0.05))
