"""Cauchy-Fantappie indicators G_k, their Laurent data and the winding integer.

All contour integrals are composite trapezoid sums over the uniform periodic
sample grids, which is spectrally accurate for the analytic integrands at
hand.  Differentials are taken from the stored velocities, never from finite
differences of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _comb

import numpy as np

from .geometry import BoundaryData, LineParam, rho, tile_rows, tiles

DENOM_EPS = 1e-9
DELTA_ROUND_TOL = 1e-6
LAURENT_XCHECK_TOL = 1e-6

# Circle grid of the Laurent cross-check, sized by the aliasing bound of the
# trapezoid rule (Trefethen & Weideman, SIAM Rev. 56, 2014).  A DFT of n
# samples folds the coefficient of order j + n onto order j.  In 1/y the
# series converges for |y| > rho (up to the small |x|), so on |y| = 2 rho the
# fold is damped by 2^-n_y: 64 samples give 5e-20.  In x it converges for
# |x| < m(y), so on |x| = 0.3 min m the fold is damped by 0.3^n_x: 16 samples
# give 4e-9, far under LAURENT_XCHECK_TOL, and n_x > 12 >= mmax keeps every
# n <= m of the table in the check.  n_x is a power of two (q^n_x by squaring).
XCHECK_NY = 64
XCHECK_NX = 16


class NearIncidence(ValueError):
    """The line passes too close to a boundary sample for stable quadrature."""


class RoundingGuard(ValueError):
    """An integer-valued integral landed too far from an integer."""


class TruncationMismatch(ValueError):
    """Closed-form and circle-sampled Laurent coefficients disagree."""


class NegativeSheets(ValueError):
    """delta + q_inf came out negative."""


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


def G_k(b: BoundaryData, z: LineParam, k: int):
    """Indicator G_k(z): contour integral of z1^k d(x + y z1 + z2)/(x + y z1 + z2).

    k may be an int or a sequence of ints; a sequence returns an array (the
    denominators are shared, so batching is essentially free).  This is the
    one-line case of G_lines.
    """
    acc = G_lines(b, [z.x], [z.y], k)[:, 0]
    return acc[0] if np.ndim(k) == 0 else acc


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


def sheet_count(delta_: int, q_inf: int) -> int:
    """Number of sheets p = delta + q_inf."""
    p = delta_ + q_inf
    if p < 0:
        raise NegativeSheets(f"delta + q_inf = {p} < 0")
    return p


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

    def poly_Gkm(self, k, m):
        """x-Taylor vector of the polynomial G_{k,m}."""
        return self.coeffs[k, m, : m + 1].copy()


def _moment_integrals(b: BoundaryData, kmax: int, mmax: int):
    """I1[a,b], I2[a,b] = (1/2 pi i) contour integrals of z1^a z2^b dz1, dz2.

    Only laurent_extract's read set a >= -mmax - 1, b <= mmax, a + b <= kmax - 1
    is formed, indexed [a + mmax + 1, b] with zeros elsewhere.  Each entry is its
    own row's np.sum over the samples, so its bits do not depend on the rows formed.
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
            I1[: na - bb, bb] += np.sum(p * w1, axis=-1)
            I2[: na - bb, bb] += np.sum(p * w2, axis=-1)
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
    the 2-D DFT of G_k on two circles, in x summed in closed form (_circle_coeffs).
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
    """Laurent coefficients [k, m, n <= min(mmax, XCHECK_NX - 1)] read off two circles.

    The grid is XCHECK_NY points of |y| = R = 2 rho by XCHECK_NX points of
    |x| = r_x = 0.3 min m(y).  Per sample, with c = y z1 + z2, u = -1/c and
    q = r_x u (|q| <= 0.3), the x-DFT of the Cauchy kernel is exact, aliasing
    included: (1/n_x) sum_l w^(-ln) / (r_x w^l + c) = q^n / (c (1 - q^n_x)),
    so x^n has the coefficient -u^(n+1) / (1 - q^n_x), with no division by
    r_x^n.  An inverse FFT over y gives the orders y^-m.  |x + c| >= 0.7 m(y)
    on the grid, so NearIncidence is raised when 0.7 min m(y) <= DENOM_EPS.
    """
    R = 2.0 * rho(b)
    n_y, n_x = XCHECK_NY, XCHECK_NX
    ys = R * np.exp(2j * np.pi * np.arange(n_y) / n_y)
    # c = y z1 + z2 per loop and y tile; the least |c| is min m(y) on the grid
    cs = [[ys[sl, None] * lp.z1 + lp.z2 for sl in tiles(n_y, len(lp.z1))] for lp in b.loops]
    m_min = min(float(np.min(np.abs(c))) for row in cs for c in row)
    if 0.7 * m_min <= DENOM_EPS:
        raise NearIncidence("cross-check circle too close to the boundary image")
    r_x = 0.3 * m_min
    nn = min(mmax, n_x - 1) + 1
    cx = np.zeros((kmax + 1, nn, n_y), dtype=complex)     # [k, n, y sample]
    for (sign, lp), row in zip(b.signed_loops(), cs):
        z1, dz1, dz2 = lp.z1, lp.dz1, lp.dz2
        wz = sign * (lp.t[1] - lp.t[0]) * z1[:, None] ** np.arange(kmax + 1)   # (N, k)
        for sl, c in zip(tiles(n_y, len(z1)), row):
            yb = ys[sl, None]
            u = -1.0 / c
            qn = r_x * u
            for _ in range(n_x.bit_length() - 1):        # q^n_x by squaring
                qn *= qn
            term = -u * (yb * dz1 + dz2) / (1.0 - qn)
            for n in range(nn):
                cx[:, n, sl] += (term @ wz).T
                term *= u
    # The 1/y Laurent tail lives at negative frequencies, hence ifft along y.
    cxy = np.fft.ifft(cx / (2.0j * np.pi), axis=2)[:, :, : mmax + 1]
    return (cxy * R ** np.arange(mmax + 1)).transpose(0, 2, 1)


def _circle_cross_check(b: BoundaryData, table: LaurentTable):
    """Largest gap to _circle_coeffs; TruncationMismatch above LAURENT_XCHECK_TOL."""
    got = _circle_coeffs(b, table.kmax, table.mmax)
    nn = got.shape[2]
    n_le_m = np.arange(nn) <= np.arange(table.mmax + 1)[:, None]
    bad = float(np.max(np.abs(got - table.coeffs[:, :, :nn])[:, n_le_m]))
    if bad > LAURENT_XCHECK_TOL:
        raise TruncationMismatch(f"laurent extraction routes disagree by {bad:.3e}")
    return bad
