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

# x-points of the Laurent cross-check.  Per sample, the y^-m coefficient of
# G_k is a polynomial of degree m in x (see _circle_coeffs).  A DFT of n_x
# points on |x| = r folds the order n + n_x onto n, and m <= mmax <= 12 < 16,
# so 16 points recover every coefficient of the table with no aliasing.
XCHECK_NX = 16


class NearIncidence(ValueError):
    """The line passes too close to a boundary sample for stable quadrature."""


class RoundingGuard(ValueError):
    """An integer-valued integral landed too far from an integer."""


class TruncationMismatch(ValueError):
    """The moment table and the per-sample 1/y expansion of G_k disagree."""


def flat_lines(xs, ys):
    """Per-line arrays (x, y) of a (y, x) grid of lines or of a flat list (1-D xs), row-major."""
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} rows of x for {len(ys)} values of y")
    return xs.ravel(), np.repeat(ys, xs.shape[1] if xs.ndim == 2 else 1)


def _stride_sums(arrs, part, x, y, ks):
    """S[i, j] = sum z1^k q and size[i, j] = sum |z1^k| |q|, k = ks[i], over the samples a[part].

    q = (y dz1 + dz2) / ((x + y z1) + z2) on line (x[j], y[j]), checked against DENOM_EPS per tile
    of lines (TILE_ENTRIES); each sum is its line's own np.add.reduce row, one k at a time.
    """
    z1, z2, dz1, dz2 = (np.ascontiguousarray(a[part]) for a in arrs)
    zk = [(z, np.abs(z)) for z in (z1 ** k for k in ks)]
    S, size = np.empty((len(ks), len(x)), dtype=complex), np.empty((len(ks), len(x)))
    for sl in tiles(len(x), len(z1)):
        den = (x[sl, None] + y[sl, None] * z1) + z2
        if np.min(np.abs(den)) <= DENOM_EPS:
            raise NearIncidence("line parameter too close to the boundary image")
        q = (y[sl, None] * dz1 + dz2) / den
        aq = np.abs(q)
        for i, (z, az) in enumerate(zk):
            np.add.reduce(z * q, axis=-1, out=S[i, sl])
            np.add.reduce(az * aq, axis=-1, out=size[i, sl])
    return S, size


def G_lines(b: BoundaryData, xs, ys, ks):
    """Indicators G_k on a (y, x) grid of lines, shape (len(ks),) + xs.shape.

    Entry [i, a, c] is G_{ks[i]} on the line (xs[a, c], ys[a]) for xs of shape
    (n_y, n_x) and ys of shape (n_y,); a 1-D xs pairs xs[j] with ys[j] (n_x = 1).
    Per loop and line, the sum S_2s over every 2s-th sample comes first, s the coarsest
    power of two dividing N with N/s >= STRIDE_MIN.  S_s = S_2s + U_s adds only U_s over
    the odd multiples of s, and T_s = s h S_s is accepted once |U_s - S_2s| <= STRIDE_TOL
    (size_2s + size_U) for every k, i.e. |T_s - T_2s| <= STRIDE_TOL s |h| sum |z1^k q|;
    else s halves.  s = 1 is one fresh pass over all N samples with no test, the full
    sum's bits.  Each line decides and sums alone, so an entry is its one-line call's bits.
    """
    ks = [int(k) for k in np.atleast_1d(ks)]
    x, y = flat_lines(xs, ys)
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
            acc[:, todo] += sign * h * _stride_sums(arrs, slice(None), x[todo], y[todo], ks)[0]
    return (acc / (2.0j * np.pi)).reshape((len(ks),) + np.shape(xs))


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


def laurent_extract(b: BoundaryData, kmax: int, mmax: int, cross_check=True) -> LaurentTable:
    """Laurent table of G_0..G_kmax up to order y^-mmax.

    The coefficients come from the closed-form boundary moment integrals

        G_{k,m}^n = (-1)^m [ C(m,n) I1(k-m-1, m-n) - C(m-1,n) I2(k-m, m-n-1) ]

    for 0 <= n < m, with the diagonal G_{k,k}^k = (-1)^k delta and all other
    entries zero.  Both reads have a + b = k - n - 1 <= kmax - 1 (as n >= 0)
    and b <= m <= mmax: the set _moment_integrals forms.  All entries are taken
    in one array pass; the multipliers are real integers, so each rounds as its
    scalar formula does.  When cross_check is set the table is validated against
    the exact 1/y expansion of G_k per sample and a DFT in x (_circle_coeffs).
    `cfr pipeline` builds one checked table per run and hands it to
    linsys.fit_infinity.
    """
    if not (0 <= kmax <= 12 and 0 <= mmax <= 12):
        raise ValueError(f"truncation caps are 0 <= kmax, mmax <= 12 (got {kmax}, {mmax})")
    dlt = delta(b)
    I1, I2 = _moment_integrals(b, kmax, mmax)
    comb = np.array([[_comb(m, n) for n in range(mmax + 1)] for m in range(mmax + 1)], dtype=float)
    coeffs = np.zeros((kmax + 1, mmax + 1, mmax + 1), dtype=complex)
    d = np.arange(min(kmax, mmax) + 1)
    coeffs[d, d, d] = (-1) ** d * dlt
    m, n = np.tril_indices(mmax + 1, -1)                # 0 <= n < m
    k = np.arange(kmax + 1)[:, None]
    coeffs[k, m, n] = (-1) ** m * (comb[m, n] * I1[k - m + mmax, m - n]
                                   - comb[m - 1, n] * I2[k - m + mmax + 1, m - n - 1])
    table = LaurentTable(kmax=kmax, mmax=mmax, delta=dlt, coeffs=coeffs)
    if cross_check:
        _circle_cross_check(b, table)
    return table


def _circle_coeffs(b: BoundaryData, kmax: int, mmax: int):
    """Laurent coefficients [k, m, n <= mmax] from the exact 1/y expansion per sample.

    With t = -(x + z2)/z1, 1/(x + y z1 + z2) = sum_j t^j / (y z1 y^j), so

        G_{k,m}(x) = (1/2 pi i) sum sign h z1^(k-1) [t^m dz1 + t^(m-1) dz2]

    (the second term for m >= 1), a polynomial of degree m in x, taken at
    x_l = r e^(2 pi i l / n_x), r = max |z2| (> 0 as |w2| > CHART_EPS), by one
    (x rows, N) @ (N, 2 (kmax + 1)) product per power t^m; an FFT over l divided
    by n_x r^n gives x^n.  Only z1 is divided by; no moment or C(m, n) is read.
    """
    r = max(float(np.max(np.abs(lp.z2))) for lp in b.loops)
    xs = r * np.exp(2j * np.pi * np.arange(XCHECK_NX) / XCHECK_NX)
    kk = np.arange(kmax + 1) - 1.0
    s = np.zeros((mmax + 1, XCHECK_NX, 2 * (kmax + 1)), dtype=complex)   # [m, l, dz1 | dz2 by k]
    for sign, lp in b.signed_loops():
        z1, z2 = lp.z1, lp.z2
        hz = sign * (lp.t[1] - lp.t[0]) * z1[:, None] ** kk
        W = np.concatenate([hz * lp.dz1[:, None], hz * lp.dz2[:, None]], axis=1)
        for sl in tiles(XCHECK_NX, len(z1)):
            t = -(xs[sl, None] + z2) / z1
            tm = np.ones_like(t)
            for m in range(mmax + 1):
                s[m, sl] += tm @ W
                tm *= t
    g = s[:, :, : kmax + 1]
    g[1:] += s[:-1, :, kmax + 1 :]
    c = np.fft.fft(g, axis=1) / (2.0j * np.pi * XCHECK_NX * r ** np.arange(XCHECK_NX)[:, None])
    return c[:, : mmax + 1].transpose(2, 0, 1)


def _circle_cross_check(b: BoundaryData, table: LaurentTable):
    """Largest gap to _circle_coeffs; TruncationMismatch above LAURENT_XCHECK_TOL."""
    n_le_m = np.tri(table.mmax + 1, dtype=bool)
    bad = float(np.max(np.abs(_circle_coeffs(b, table.kmax, table.mmax) - table.coeffs)[:, n_le_m]))
    if bad > LAURENT_XCHECK_TOL:
        raise TruncationMismatch(f"laurent extraction routes disagree by {bad:.3e}")
    return bad
