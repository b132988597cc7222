"""Germ data of Q at {w0 = 0}: the polynomial B_inf and rational corrections P_k.

A germ is the Taylor data of one branch u1 = g(u0) of Q at a point
q = (0 : b : 1), in the chart (u0, u1) = (w0/w2, w1/w2).  The corrections P_k
are the residues at Q_inf of the indicator integrand; they are polynomials of
degree k in X whose coefficients are rational in Y with denominators dividing
B_inf^k.  Pk_family builds them all at once from the series residue of each
germ's p_{k,0} and a recursion for the higher X-coefficients; the pointwise
residue route and the closed form of P_1 are test references.  Everything
here is exact truncated-series arithmetic, no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as P

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
            raise ValueError(
                f"germ Taylor depth {len(self.taylor)} < required order {order}"
            )
        return np.concatenate(([self.b], np.asarray(self.taylor[:order], dtype=complex)))


def _trim(c):
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if len(nz) else np.zeros(1, dtype=complex)


@dataclass
class RationalY:
    """Rational fraction num(Y) / B(Y)^j with a shared base polynomial B."""

    num: np.ndarray
    j: int
    base: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))

    def __post_init__(self):
        self.num = _trim(self.num)
        self.base = _trim(self.base)

    def with_power(self, j):
        """Rewrite with denominator B^j (j >= self.j)."""
        if j < self.j:
            raise ValueError("cannot lower denominator power")
        num = self.num
        for _ in range(j - self.j):
            num = P.polymul(num, self.base)
        return RationalY(num, j, self.base)

    def __add__(self, other):
        j = max(self.j, other.j)
        a, b = self.with_power(j), other.with_power(j)
        return RationalY(P.polyadd(a.num, b.num), j, self.base)

    def scale(self, c):
        return RationalY(self.num * c, self.j, self.base)

    def deriv(self):
        """d/dY: (N/B^j)' = (N'B - j N B') / B^(j+1)."""
        if self.j == 0:
            return RationalY(P.polyder(self.num), 0, self.base)
        t = P.polysub(
            P.polymul(P.polyder(self.num), self.base),
            self.j * P.polymul(self.num, P.polyder(self.base)),
        )
        return RationalY(t, self.j + 1, self.base)

    def __call__(self, y):
        den = P.polyval(y, self.base) ** self.j
        if np.min(np.abs(den)) < RESONANT_EPS:
            raise ResonantY("evaluation at a root of B_inf")
        return P.polyval(y, self.num) / den


@dataclass
class RationalAffinePoly:
    """Polynomial in X with RationalY coefficients: element of C_k[X, Y)."""

    coeffs: list  # ascending powers X^0, X^1, ...

    def __call__(self, x, y):
        tot = 0.0 + 0.0j
        for m, c in enumerate(self.coeffs):
            tot = tot + c(y) * np.asarray(x) ** m
        return tot


# -- truncated series helpers (plain coefficient vectors) ---------------------


def _ser_pow(a, p, order):
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    for _ in range(p):
        out = symmetric.series_mul(out, a, order)
    return out


# -- operations ---------------------------------------------------------------


def B_infinity(germs) -> np.ndarray:
    """Ascending coefficients of B_inf(Y) = prod (1 + Y b_q)."""
    out = np.ones(1, dtype=complex)
    for g in germs:
        out = P.polymul(out, np.array([1.0, g.b], dtype=complex))
    return _trim(out)


def _bracket(germ, k, n):
    """<g' g^(k-1) (g - g0)^(n-1), u^(k-1)> for the p_{k,0} closed form."""
    order = k - 1
    g = germ.series(k)
    gp = P.polyder(g)[: order + 1] if k >= 1 else np.zeros(1, dtype=complex)
    gm = g.copy()
    gm[0] = 0.0
    term = symmetric.series_mul(gp, _ser_pow(g, k - 1, order), order)
    term = symmetric.series_mul(term, _ser_pow(gm, n - 1, order), order)
    return complex(term[order])


def _pk0_germ(germ, k, base) -> RationalY:
    """p_{k,0} contribution of one germ, with denominator committed to B_inf^k.

    Uses the expansion of the residue in powers of 1/(1 + Y b):

        p_{k,0}^q = sum_{n=1..k} (-1)^n Y^(n-1) <g' g^(k-1) (g-g0)^(n-1), u^(k-1)>
                    / (1 + Y b)^n
    """
    lin = np.array([1.0, germ.b], dtype=complex)
    num = np.zeros(1, dtype=complex)
    for n in range(1, k + 1):
        c = (-1) ** n * _bracket(germ, k, n)
        if c == 0:
            continue
        t = np.concatenate((np.zeros(n - 1, dtype=complex), [c]))  # c * Y^(n-1)
        for _ in range(k - n):
            t = P.polymul(t, lin)
        num = P.polyadd(num, t)
    return RationalY(num, k, lin)


def Pk_family(germs, kmax: int):
    """The corrections P_0..P_kmax as RationalAffinePoly over B_inf.

    p_{k,0} comes from the series-residue route; the higher X-coefficients
    follow the recursion p_{k,m} = (k/(m!(k-m))) p_{k-m,0}^{(m)} and
    p_{k,k} = p_{1,1}^{(k-1)}/(k-1)!.
    """
    base = B_infinity(germs)
    zero = RationalY(np.zeros(1), 0, base)
    out = [RationalAffinePoly([RationalY(np.array([-float(len(germs))]), 0, base)])]
    if kmax == 0:
        return out
    if not germs:
        for k in range(1, kmax + 1):
            out.append(RationalAffinePoly([zero] * (k + 1)))
        out[0] = RationalAffinePoly([zero])
        return out

    # per-germ p_{k,0} lifted to the common denominator B_inf^k
    pk0 = {}
    for k in range(1, kmax + 1):
        acc = RationalY(np.zeros(1), k, base)
        for q in germs:
            frac = _pk0_germ(q, k, base)
            rest = np.ones(1, dtype=complex)
            for other in germs:
                if other is not q:
                    rest = P.polymul(rest, np.array([1.0, other.b], dtype=complex))
            lift = frac.num
            for _ in range(k):
                lift = P.polymul(lift, rest)
            acc = acc + RationalY(lift, k, base)
        pk0[k] = acc

    p11 = RationalY(P.polyder(base), 1, base)
    for k in range(1, kmax + 1):
        coeffs = [pk0[k]]
        for m in range(1, k):
            d = pk0[k - m]
            for _ in range(m):
                d = d.deriv()
            coeffs.append(d.scale(k / (factorial(m) * (k - m))))
        top = p11
        for _ in range(k - 1):
            top = top.deriv()
        coeffs.append(top.scale(1.0 / factorial(k - 1)))
        out.append(RationalAffinePoly(coeffs))
    return out


def check_confinement(Binf, rho: float) -> bool:
    """True iff every root of B_inf has modulus <= rho."""
    c = _trim(Binf)
    if len(c) == 1:
        return True
    rts = symmetric.roots(c[::-1])
    return bool(np.all(np.abs(rts) <= rho * (1.0 + 1e-9) + 1e-12))


def germs_from_json(obj) -> list:
    return [
        GermAtInfinity(
            complex(g["b"][0], g["b"][1]),
            [complex(p[0], p[1]) for p in g.get("taylor", [])],
        )
        for g in obj["germs"]
    ]
