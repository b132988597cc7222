#!/usr/bin/env python3
"""From boundary samples to a reconstructed point cloud.

The pipeline: indicator Laurent data -> recover the rational part (A, B) of
G_1 by a joint least-squares solve of the (E0) differential system -> sheet
count p = delta + deg B -> per-line Newton-identity root recovery -> swept
point cloud.  Everything below starts from samples alone.
"""

import warnings

import numpy as np

from cfr import infinity, linsys, oracles, reconstruct

# -- recover the curve's data at infinity from the boundary ----------------------

bx = oracles.exterior_line()
fit, h, g1 = linsys.fit_infinity(bx)
print("exterior line: the boundary alone recovers the germ polynomial B")
print("  accepted degree r =", fit.r)
print("  B                =", np.round(fit.B, 8))
print("  root of B        =", -1.0 / fit.B[1], " (true -1/2)")
print("  joint residual   =", fit.residual)
print("  root confined    =", fit.confined)

# -- two-line nodal curve: two sheets, full sweep ---------------------------------

b2 = oracles.two_line()
with warnings.catch_warnings():
    warnings.simplefilter("ignore", linsys.RankDeficient)      # its rank is printed below
    fit2, h2, _ = linsys.fit_infinity(b2)
p = h2.delta + fit2.r
print("\ntwo-line nodal curve: delta =", h2.delta, " q_inf =", fit2.r, " p =", p)
print("  (E0) rank =", fit2.rank, " rank-deficient:", fit2.rank_deficient)

fam = infinity.Pk_family([], p)
_, (h,), _ = reconstruct.fibers(b2, [0.0], [10.0], p, fam)      # one line, one row of roots
print("  fiber roots over z=(0,10):", np.round(sorted(h, key=lambda c: c.real), 8))
print("  exact:", sorted([-1.0 / 10.5, -1.0 / (10 - 1.0 / 3.0)]))

cloud = reconstruct.sweep(b2, p, fam, angles=24)
worst = max(min(abs(pt.w2 / pt.w0 - 1 - 0.5 * pt.w1 / pt.w0),
                abs(pt.w2 / pt.w0 - 1 + (pt.w1 / pt.w0) / 3))
            for pt in cloud.points)
print(f"  swept {len(cloud)} points; worst line-membership residual = {worst:.2e}")

# -- the conic: a genuinely transcendental indicator ------------------------------

# The line of z = (0.1, 10) meets the conic (1 : t : t^2) where
# t^2 + 10 t + 0.1 = 0; the sheet is the root inside the unit disc.
bc = oracles.conic()
_, (hc,), _ = reconstruct.fibers(bc, [0.1], [10.0], 1, infinity.Pk_family([], 1))
small = min(np.roots([1.0, 10.0, 0.1]), key=abs)
print("\nconic piece: fiber root:", hc[0], " vs np.roots:", small)
