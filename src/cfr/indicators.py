"""Cauchy-Fantappie indicators G_k, their Laurent data and the winding integer.

All contour integrals are composite trapezoid sums over the uniform periodic
sample grids, which is spectrally accurate for the analytic integrands at
hand.  Differentials are read from each loop's velocities: the given dw, or
without it the spectral derivative of the loop's chart (geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _comb

import numpy as np

from .geometry import BoundaryData, tile_rows, tiles

DENOM_EPS = 1e-9
DELTA_ROUND_TOL = 1e-6
LAURENT_XCHECK_TOL = 1e-6

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


def G_lines(b: BoundaryData, xs, ys, ks):
    """Indicators G_k on a (y, x) grid of lines, shape (len(ks),) + xs.shape.

    Entry [i, a, c] is G_{ks[i]} on the line (xs[a, c], ys[a]) for xs of shape
    (n_y, n_x) and ys of shape (n_y,); a 1-D xs pairs xs[j] with ys[j] (n_x = 1).
    Per loop, tiles of whole y rows (geometry.tiles, at least one row) form y z1
    and y dz1 + dz2 once per y, then (x + y z1) + z2, the DENOM_EPS check, the
    division and one np.add.reduce row (as np.sum) per line and k, into buffers
    made once per call, so an entry equals G_lines(b, [x], [y], ks)[:, 0] bit for bit.
    """
    ys = np.asarray(ys, dtype=complex)
    xs = np.asarray(xs, dtype=complex)
    grid = xs if xs.ndim == 2 else xs[:, None]
    if len(grid) != len(ys):
        raise ValueError(f"{len(grid)} rows of x for {len(ys)} values of y")
    ks = [int(k) for k in np.atleast_1d(ks)]
    n_x = grid.shape[1]
    size = max(tile_rows(n_x * len(lp)) * n_x * len(lp) for lp in b.loops)
    bufs, mod = np.empty((4, size), dtype=complex), np.empty(size)
    acc = np.zeros((len(ks),) + grid.shape, dtype=complex)
    sums = np.empty_like(acc)
    for sign, lp in b.signed_loops():
        z1, z2, dz1, dz2, n = lp.z1, lp.z2, lp.dz1, lp.dz2, len(lp)
        z1k = [z1 ** k for k in ks]
        for sl in tiles(len(ys), n_x * n):
            y = ys[sl, None, None]
            yz1, num, den, prod, dmod = (f[: len(y) * w].reshape(len(y), -1, n)   # 1 or n_x per y
                                         for f, w in zip([*bufs, mod], (n, n) + (n_x * n,) * 3))
            np.add(grid[sl, :, None], np.multiply(y, z1, out=yz1), out=den)
            den += z2
            if np.minimum.reduce(np.abs(den, out=dmod), axis=None) <= DENOM_EPS:
                raise NearIncidence("line parameter too close to the boundary image")
            np.divide(np.add(np.multiply(y, dz1, out=num), dz2, out=num), den, out=den)
            for i, zk in enumerate(z1k):
                np.add.reduce(np.multiply(zk, den, out=prod), axis=-1, out=sums[i, sl])
        acc += sign * (lp.t[1] - lp.t[0]) * sums
    acc /= 2.0j * np.pi
    return acc.reshape((len(ks),) + xs.shape)


def delta(b: BoundaryData) -> int:
    """Winding integer (1/2 pi i) * contour integral of d(w1/w0)/(w1/w0), by trapezoid sums."""
    val = 0.0 + 0.0j
    for sign, lp in b.signed_loops():
        val += sign * (lp.t[1] - lp.t[0]) * np.sum(lp.dz1 / lp.z1)
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
    I1 = np.zeros((na, mmax + 1), dtype=complex)
    I2 = np.zeros((na, mmax + 1), dtype=complex)
    for sign, lp in b.signed_loops():
        z1, z2 = lp.z1, lp.z2
        h = lp.t[1] - lp.t[0]
        w1 = sign * h * lp.dz1 / (2.0j * np.pi)
        w2 = sign * h * lp.dz2 / (2.0j * np.pi)
        za = np.empty((na, len(z1)), dtype=complex)     # row ia holds z1^(ia - mmax - 1)
        za[0] = z1 ** float(-mmax - 1)
        for ia in range(1, na):
            za[ia] = za[ia - 1] * z1
        zb = np.ones_like(z2)
        for bb in range(mmax + 1):
            if bb > 0:
                zb = zb * z2
            p = za[: na - bb] * zb                      # rows a <= kmax - 1 - bb
            if bb > 0:                                  # I1 is read at b >= 1
                I1[: na - bb, bb] += np.sum(p * w1, axis=-1)
            if bb < mmax:                               # I2 at a >= -mmax, b <= mmax - 1
                I2[1 : na - bb, bb] += np.sum(p[1:] * w2, axis=-1)
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
