"""Numerical reconstruction of bordered complex curves in CP2 from boundary data.

The library is organized around the stages of the reconstruction pipeline:

- ``geometry``    projective-plane primitives, boundary loops, admissible lines
- ``indicators``  Cauchy-Fantappie indicators G_k, winding integer, Laurent data
- ``infinity``    germs at {w0 = 0}, corrections P_k as residues on stacks of lines
- ``symmetric``   Newton identities, polynomial assembly, root finding
- ``shock``       shock-wave verification and the operator calculus (P, D, E, e^H)
- ``linsys``      assembly/solution of the linear differential system (E0)
- ``reconstruct`` per-line fibers and the curve sweep
- ``green``       Green-function kernel and quadrature on curve patches
- ``genus``       Chern-connection boundary integrals and genus bookkeeping
- ``oracles``     analytic boundary-data fixtures used by tests and the CLI
"""

__version__ = "0.1.0"
