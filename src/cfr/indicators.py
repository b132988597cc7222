"""Cauchy-Fantappie indicators G_k, their Laurent data and the winding integer.

All contour integrals are composite trapezoid sums over the uniform periodic
sample grids, which is spectrally accurate for the analytic integrands at
hand; G_lines takes each line's sum at a certified stride, the others sum every
sample.  Differentials are read from each loop's velocities: the given dw, or
without it the spectral derivative of the loop's chart (geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _comb

import numpy as np

from .geometry import BoundaryData, tiles

DENOM_EPS = 1e-9
DELTA_ROUND_TOL = 1e-6
LAURENT_XCHECK_TOL = 1e-6
STRIDE_MIN = 32                     # fewest samples a certified G_lines sum may take
STRIDE_TOL = 4 * np.finfo(float).eps    # its largest gap to half as many, over sum |terms|


class NearIncidence(ValueError):
    """The line passes too close to a boundary sample for stable quadrature."""


class RoundingGuard(ValueError):
    """An integer-valued integral landed too far from an integer."""


class TruncationMismatch(ValueError):
    """The moments' exactness residual |a I1(a-1, b) + b I2(a, b-1)| passes LAURENT_XCHECK_TOL."""


def _stride_sums(arrs, part, x, y, ks, sized=True):
    """S[i, j] = sum z1^k q, size[i, j] = sum |z1^k| |q| (None unless sized), k = ks[i], on a[part].

    q = (y dz1 + dz2) / ((x + y z1) + z2) on line (x[j], y[j]), checked against DENOM_EPS per tile
    of lines (TILE_ENTRIES); each sum is its line's own np.add.reduce row, one k at a time.
    """
    z1, z2, dz1, dz2 = (np.ascontiguousarray(a[part]) for a in arrs)
    zk = [(z, np.abs(z) if sized else None) for z in (z1 ** k for k in ks)]
    S, size = np.empty((len(ks), len(x)), dtype=complex), np.empty((len(ks), len(x)))
    for sl in tiles(len(x), len(z1)):
        den = (x[sl, None] + y[sl, None] * z1) + z2
        if np.min(np.abs(den)) <= DENOM_EPS:
            raise NearIncidence("line parameter too close to the boundary image")
        q = (y[sl, None] * dz1 + dz2) / den
        aq = np.abs(q) if sized else None
        for i, (z, az) in enumerate(zk):
            np.add.reduce(z * q, axis=-1, out=S[i, sl])
            if sized:
                np.add.reduce(az * aq, axis=-1, out=size[i, sl])
    return S, size if sized else None


def G_lines(b: BoundaryData, xs, ys, ks):
    """G_{ks[i]} on the line (xs[j], ys[j]) at [i, j] of a (len(ks), len(xs)) array.

    Per loop and line, the sum S_2s over every 2s-th sample comes first, s the coarsest
    power of two dividing N with N/s >= STRIDE_MIN.  S_s = S_2s + U_s adds only U_s over
    the odd multiples of s, and T_s = s h S_s is accepted once |U_s - S_2s| <= STRIDE_TOL
    (size_2s + size_U) for every k, i.e. |T_s - T_2s| <= STRIDE_TOL s |h| sum |z1^k q|;
    else s halves.  s = 1 is one fresh pass over all N samples with no test (so no size sum),
    the full sum's bits.  Each line decides and sums alone, so an entry is its one-line call's bits.
    """
    ks = [int(k) for k in np.atleast_1d(ks)]
    x, y = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    if len(x) != len(y):
        raise ValueError(f"{len(x)} values of x for {len(y)} values of y")
    acc = np.zeros((len(ks), len(x)), dtype=complex)
    for sign, lp in b.signed_loops():
        arrs, n, h = (lp.z1, lp.z2, lp.dz1, lp.dz2), len(lp), lp.t[1] - lp.t[0]
        s = min(n & -n, 1 << (max(1, n // STRIDE_MIN).bit_length() - 1))   # coarsest s
        todo = np.arange(len(x))
        S, size = _stride_sums(arrs, slice(0, None, 2 * s), x, y, ks) if s > 1 else (0, 0)
        while s > 1 and len(todo):
            U, size_u = _stride_sums(arrs, slice(s, None, 2 * s), x[todo], y[todo], ks)
            done = np.all(np.abs(U - S) <= STRIDE_TOL * (size + size_u), axis=0)
            S, size = S + U, size + size_u
            acc[:, todo[done]] += sign * (s * h) * S[:, done]
            todo, S, size, s = todo[~done], S[:, ~done], size[:, ~done], s // 2
        if len(todo):
            acc[:, todo] += sign * h * _stride_sums(arrs, slice(None), x[todo], y[todo], ks,
                                                    sized=False)[0]
    return acc / (2.0j * np.pi)


def delta(b: BoundaryData) -> int:
    """Winding integer (1/2 pi i) * contour integral of d(w1/w0)/(w1/w0), by trapezoid sums."""
    val = sum(sign * (lp.t[1] - lp.t[0]) * np.sum(lp.dz1 / lp.z1) for sign, lp in b.signed_loops())
    val /= 2.0j * np.pi
    n = round(val.real)
    if abs(val - n) > DELTA_ROUND_TOL:
        raise RoundingGuard(f"winding integral {val} is not close to an integer")
    return int(n)


@dataclass
class LaurentTable:
    """Coefficients G_{k,m}^n of G_k(x,y) = sum_m (sum_n G_{k,m}^n x^n) / y^m.

    coeffs[k, m, n] is nonzero only for n <= m; the degree-m coefficient of
    G_{k,m} is (-1)^m * delta when k = m and zero otherwise, and G_{0,m} = 0
    for m >= 1.
    """

    kmax: int
    mmax: int
    delta: int
    coeffs: np.ndarray


def _moment_integrals(b: BoundaryData, kmax: int, mmax: int):
    """I1[a,b], I2[a,b] = (1/2 pi i) contour integrals of z1^a z2^b dz1, dz2.

    Only laurent_extract's read set is formed: a + b <= kmax - 1, I1 at
    a >= -mmax - 1, 1 <= b <= mmax and I2 at a >= -mmax, b <= mmax - 1, indexed
    [a + mmax + 1, b] with zeros elsewhere.  Each entry is its own row's np.sum
    over the samples, so its bits do not depend on the rows formed.
    """
    na = kmax + mmax + 1                                # rows a = -mmax-1 .. kmax-1
    I1, I2 = np.zeros((2, na, mmax + 1), dtype=complex)
    for sign, lp in b.signed_loops():
        z1, z2, h = lp.z1, lp.z2, lp.t[1] - lp.t[0]
        w1, w2 = (sign * h * d / (2.0j * np.pi) for d in (lp.dz1, lp.dz2))
        za = np.empty((na, len(z1)), dtype=complex)     # row ia holds z1^(ia - mmax - 1)
        za[0] = z1 ** float(-mmax - 1)
        for ia in range(1, na):
            za[ia] = za[ia - 1] * z1
        zb = np.ones_like(z2)
        for bb in range(mmax + 1):
            p = za[: na - bb] * zb                      # rows a <= kmax - 1 - bb
            if bb > 0:                                  # I1 is read at b >= 1
                I1[: na - bb, bb] += np.sum(p * w1, axis=-1)
            if bb < mmax:                               # I2 at a >= -mmax, b <= mmax - 1
                I2[1 : na - bb, bb] += np.sum(p[1:] * w2, axis=-1)
            zb = zb * z2
    return I1, I2


def laurent_extract(b: BoundaryData, kmax: int, mmax: int) -> LaurentTable:
    """Laurent table of G_0..G_kmax up to order y^-mmax, certified by its exactness residual.

    The coefficients come from the closed-form boundary moment integrals

        G_{k,m}^n = (-1)^m [ C(m,n) I1(k-m-1, m-n) - C(m-1,n) I2(k-m, m-n-1) ]

    for 0 <= n < m, with the diagonal G_{k,k}^k = (-1)^k delta and all other
    entries zero.  Both reads have a + b = k - n - 1 <= kmax - 1 (as n >= 0)
    and b <= m <= mmax: the set _moment_integrals forms.  All entries are taken
    in one array pass; the multipliers are real integers, so each rounds as its
    scalar formula does.

    On closed loops the contour integral of d(z1^a z2^b) is 0, so
    a I1(a-1, b) + b I2(a, b-1) = 0; its trapezoid sum is the quadrature's own
    error.  I1(a-1, b) and I2(a, b-1) are formed for the same (a, b), so the
    residual is taken over all rows at once, the zeros outside the set pairing
    with zeros (I1(-1, b) is multiplied by a = 0 and goes unseen).  Above
    LAURENT_XCHECK_TOL, or NaN, it raises TruncationMismatch: too few samples
    for the caps (aliasing), moments too large to round to the tolerance, or
    velocities that are not the loops' derivatives.  `cfr pipeline` builds one
    table per run and hands it to linsys.fit_infinity.
    """
    if not (0 <= kmax <= 12 and 0 <= mmax <= 12):
        raise ValueError(f"truncation caps are 0 <= kmax, mmax <= 12 (got {kmax}, {mmax})")
    dlt = delta(b)
    I1, I2 = _moment_integrals(b, kmax, mmax)
    a, bb = np.arange(-mmax, kmax)[:, None], np.arange(1, mmax + 1)
    bad = float(np.max(np.abs(a * I1[:-1, 1:] + bb * I2[1:, :-1]), initial=0.0))
    if not bad <= LAURENT_XCHECK_TOL:
        raise TruncationMismatch(f"laurent moments miss exactness by {bad:.3e}")
    comb = np.array([[_comb(m, n) for n in range(mmax + 1)] for m in range(mmax + 1)], dtype=float)
    coeffs = np.zeros((kmax + 1, mmax + 1, mmax + 1), dtype=complex)
    d = np.arange(min(kmax, mmax) + 1)
    coeffs[d, d, d] = (-1) ** d * dlt
    m, n = np.tril_indices(mmax + 1, -1)                # 0 <= n < m
    k = np.arange(kmax + 1)[:, None]
    coeffs[k, m, n] = (-1) ** m * (comb[m, n] * I1[k - m + mmax, m - n]
                                   - comb[m - 1, n] * I2[k - m + mmax + 1, m - n - 1])
    return LaurentTable(kmax=kmax, mmax=mmax, delta=dlt, coeffs=coeffs)
