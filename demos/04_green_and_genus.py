#!/usr/bin/env python3
"""Green functions on plane-curve patches and genus bookkeeping.

The Green kernel pairs two Cauchy-Fantappie style kernels over a curve patch;
the result is symmetric and carries a 1/(2 pi) logarithmic singularity.
Boundary Chern-connection integrals then count zeros against the topology.
"""

import numpy as np

from cfr import genus, green

# -- Green values on the flat disc model ------------------------------------------

model = green.flat_disc_model()
q1, q2 = 0.25 + 0.1j, -0.3 + 0.35j
g12 = green.green_value(q1, q2, model)
print("flat disc patch:")
print("  g(q1, q2)            =", g12)
print("  symmetry defect      =", abs(g12 - green.green_value(q2, q1, model)))
coef = green.fit_log_coefficient(model, 0.2 + 0.1j)
print("  fitted log coefficient =", coef, " (1/2pi =", 1 / (2 * np.pi), ")")

# -- genus side --------------------------------------------------------------------

annulus = genus.SurfaceModel(kind="annulus")
disc = genus.SurfaceModel(kind="disc")
one = lambda z: np.ones_like(z)
zid = lambda z: z

print("\nChern boundary integrals:")
print("  annulus, flat, dz      =",
      genus.chern_boundary_integral(one, genus.lambda_flat, annulus),
      " (= 2 - 2g - c = 0)")
print("  disc winding difference (z dz vs dz) =",
      genus.winding_difference(zid, one, genus.lambda_flat, disc),
      " (metric-independent count of the enclosed zero)")
print("  disc, Fubini-Study, z dz =",
      genus.chern_boundary_integral(zid, genus.lambda_fubini_study, disc),
      " (N_z + 2 - 2g - c = 2)")

# the recorded disc ambiguity: flat passes the tangency certificate yet gives
# 0 where the zero-count relation predicts 1; Fubini-Study fails the
# certificate yet matches the relation
print("  disc, flat, dz (recorded) =",
      genus.chern_boundary_integral(one, genus.lambda_flat, disc))
print("  flat certificate defect:",
      disc.tangency_certificate(genus.lambda_flat),
      " FS certificate defect:",
      disc.tangency_certificate(genus.lambda_fubini_study))

q_inf = genus.q_infinity_estimate(
    genus.chern_boundary_integral(zid, genus.lambda_fubini_study, disc), 0, 1)
print("  q_inf estimate on the FS disc with one interior zero:", q_inf)
