"""Germ data of Q at {w0 = 0} and the corrections P_k at infinity.

A germ is the Taylor data of one branch u1 = g(u0) of Q at a point
q = (0 : b : 1), in the chart (u0, u1) = (w0/w2, w1/w2).  The corrections P_k
are the residues at Q_inf of the indicator integrand: for k >= 1,

    P_k(x, y) = sum_q <[x (g - u g') - g'] g^(k-1) / (1 + x u + y g(u)), u^(k-1)>

over the germs, and P_0 = -(number of germs), so N_{Q,k} = G_k - P_k are the
power sums of the fiber.  Each P_k is evaluated on a stack of lines at once,
one line per column of the truncated series; y with some |1 + y b_q| below
RESONANT_EPS is a pole and raises ResonantY.  Everything here is exact
truncated-series arithmetic, no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symmetric

RESONANT_EPS = 1e-9


class ResonantY(ValueError):
    """1 + y*b_q is numerically zero: y hits a pole of the germ correction."""


@dataclass
class GermAtInfinity:
    """One branch of Q at (0 : b : 1): value b = g(0) and Taylor tail g_1..g_K."""

    b: complex
    taylor: list

    def series(self, order):
        """Coefficient vector [g_0, ..., g_order] of g; raises if depth is short.

        The residue of P_k genuinely involves g_k (the order-k jet), so the
        stored tail must reach that far.
        """
        if order > len(self.taylor):
            raise ValueError(f"germ Taylor depth {len(self.taylor)} < required order {order}")
        return np.concatenate(([self.b], np.asarray(self.taylor[:order], dtype=complex)))


def _trim(c):
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if len(nz) else np.zeros(1, dtype=complex)


class Correction:
    """P_k as a callable on lines (x, y), scalars or arrays that broadcast.

    A call builds x (g - u g') - g' and 1 + x u + y g(u) through u^(k-1) as
    stacks with one column per line and germ, multiplies the first by
    g^(k-1), which no line changes, divides by the second and sums the
    u^(k-1) coefficients over the germs.
    """

    def __init__(self, germs, k: int):
        self.germs, self.k = germs, k
        self.g = np.array([q.series(k) for q in germs], dtype=complex).reshape(len(germs), k + 1).T
        self.gpow = np.zeros((k, len(germs)), dtype=complex)      # g^(k-1)
        self.gpow[:1] = 1.0
        for _ in range(k - 1):
            self.gpow = symmetric.series_mul(self.g, self.gpow, k - 1)

    def __bool__(self):
        return bool(self.germs)         # no germs: P_k is exactly 0

    def __call__(self, x, y):
        k = self.k
        x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
        if k == 0:
            out = np.full(x.shape, -len(self.germs), dtype=complex)
            return complex(out) if out.ndim == 0 else out
        X, Y = x[..., None], y[..., None]       # the lines, then the germs
        j = np.arange(k).reshape((k,) + (1,) * X.ndim)
        g = np.expand_dims(self.g, tuple(range(1, X.ndim)))       # the series axis first
        num = X * (1.0 - j) * g[:k] - (j + 1.0) * g[1:]
        den = Y * g[:k]
        den[0] += 1.0
        if np.any(np.abs(den[0]) < RESONANT_EPS):
            raise ResonantY("1 + y b_q vanishes")
        if k > 1:
            den[1] += X
        q = symmetric.series_mul(self.gpow, num, k - 1)
        out = np.sum(q * symmetric.series_inv(den, k - 1)[::-1], axis=(0, -1))
        return complex(out) if out.ndim == 0 else out


def Pk_family(germs, kmax: int):
    """The corrections P_0..P_kmax, entry k a Correction; every germ must reach order kmax."""
    for q in germs:
        q.series(kmax)
    return [Correction(germs, k) for k in range(kmax + 1)]


def check_confinement(Binf, rho: float) -> bool:
    """True iff every root of B_inf has modulus <= rho."""
    c = _trim(Binf)
    if len(c) == 1:
        return True
    rts = symmetric.roots(c[::-1])
    return bool(np.all(np.abs(rts) <= rho * (1.0 + 1e-9) + 1e-12))


def germs_from_json(obj) -> list:
    return [GermAtInfinity(complex(g["b"][0], g["b"][1]),
                           [complex(p[0], p[1]) for p in g.get("taylor", [])])
            for g in obj["germs"]]
