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

from .geometry import BoundaryData, LineParam, rho

DENOM_EPS = 1e-9
DELTA_ROUND_TOL = 1e-6
LAURENT_XCHECK_TOL = 1e-6
GRID_TILE = 32          # y values per G_grid tile; bounds its work arrays


class NearIncidence(ValueError):
    """The line passes too close to a boundary sample for stable quadrature."""


class RoundingGuard(ValueError):
    """An integer-valued integral landed too far from an integer."""


class TruncationMismatch(ValueError):
    """Closed-form and circle-sampled Laurent coefficients disagree."""


class NegativeSheets(ValueError):
    """delta + q_inf came out negative."""


def _contour_sum(b: BoundaryData, values_per_loop):
    """Orientation-signed trapezoid sum of per-loop integrand arrays / (2 pi i)."""
    total = 0.0 + 0.0j
    for (sign, lp), vals in zip(b.signed_loops(), values_per_loop):
        h = lp.t[1] - lp.t[0]
        total += sign * h * np.sum(vals)
    return total / (2.0j * np.pi)


def G_grid(b: BoundaryData, xs, ys, ks):
    """Indicators G_k on the tensor grid xs x ys, shape (len(ks), len(xs), len(ys)).

    y runs in tiles of GRID_TILE values; each sum runs over one loop's samples
    as for a single line, so an entry does not depend on the rest of the grid.
    """
    ys = np.asarray(ys, dtype=complex)
    ks = [int(k) for k in np.atleast_1d(ks)]
    acc = np.zeros((len(ks), len(xs), len(ys)), dtype=complex)
    for sign, lp in b.signed_loops():
        z1, z2 = lp.z1, lp.z2
        h = lp.t[1] - lp.t[0]
        z1k = [z1 ** k for k in ks]
        for j0 in range(0, len(ys), GRID_TILE):
            yb = ys[j0 : j0 + GRID_TILE, None]
            yz1 = yb * z1
            num = yb * lp.dz1 + lp.dz2
            for ix, x in enumerate(xs):
                den = x + yz1
                den += z2       # in place: a broadcast add into a fresh array is slow
                if np.min(np.abs(den)) <= DENOM_EPS:
                    raise NearIncidence("line parameter too close to the boundary image")
                base = num / den
                for i, zk in enumerate(z1k):
                    acc[i, ix, j0 : j0 + GRID_TILE] += sign * h * np.sum(zk * base, axis=-1)
    acc /= 2.0j * np.pi
    return acc


def G_k(b: BoundaryData, z: LineParam, k: int):
    """Indicator G_k(z): contour integral of z1^k d(x + y z1 + z2)/(x + y z1 + z2).

    k may be an int or a sequence of ints; a sequence returns an array (the
    denominators are shared, so batching is essentially free).
    """
    acc = G_grid(b, [z.x], [z.y], k)[:, 0, 0]
    return acc[0] if np.ndim(k) == 0 else acc


def delta(b: BoundaryData) -> int:
    """Winding integer (1/2 pi i) * contour integral of d(w1/w0)/(w1/w0)."""
    val = _contour_sum(b, (lp.dz1 / lp.z1 for lp in b.loops))
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

    def evaluate(self, k, x, y):
        """Partial sum of the Laurent series of G_k at (x, y)."""
        tot = 0.0 + 0.0j
        for m in range(self.mmax + 1):
            tot += np.polynomial.polynomial.polyval(x, self.coeffs[k, m, : m + 1]) * y ** (-m)
        return tot


def _moment_integrals(b: BoundaryData, a_range, b_max):
    """I1[a,b], I2[a,b] = (1/2 pi i) contour integrals of z1^a z2^b dz1, dz2.

    a_range is (a_min, a_max) inclusive; returns arrays indexed [a - a_min, b].
    """
    a_min, a_max = a_range
    na, nb = a_max - a_min + 1, b_max + 1
    I1 = np.zeros((na, nb), dtype=complex)
    I2 = np.zeros((na, nb), dtype=complex)
    for sign, lp in b.signed_loops():
        z1, z2 = lp.z1, lp.z2
        h = lp.t[1] - lp.t[0]
        w1 = sign * h * lp.dz1 / (2.0j * np.pi)
        w2 = sign * h * lp.dz2 / (2.0j * np.pi)
        zb = np.ones_like(z2)
        for bb in range(nb):
            if bb > 0:
                zb = zb * z2
            za = z1 ** float(a_min)
            for ia in range(na):
                if ia > 0:
                    za = za * z1
                p = za * zb
                I1[ia, bb] += np.sum(p * w1)
                I2[ia, bb] += np.sum(p * w2)
    return I1, I2


def laurent_extract(b: BoundaryData, kmax: int, mmax: int, cross_check=True) -> LaurentTable:
    """Laurent table of G_0..G_kmax up to order y^-mmax.

    The coefficients come from the closed-form boundary moment integrals

        G_{k,m}^n = (-1)^m [ C(m,n) I1(k-m-1, m-n) - C(m-1,n) I2(k-m, m-n-1) ]

    for 0 <= n < m, with the diagonal G_{k,k}^k = (-1)^k delta and all other
    entries zero.  When cross_check is set the table is validated against an
    independent extraction that samples G_k on circles |y| = 2 rho and
    |x| = r_x and reads coefficients off a 2-D discrete Fourier transform.
    """
    if kmax > 12 or mmax > 12:
        raise ValueError("truncation caps are kmax, mmax <= 12")
    dlt = delta(b)
    a_min = 0 - mmax - 1
    a_max = kmax
    I1, I2 = _moment_integrals(b, (a_min, a_max), mmax + 1)
    comb = np.zeros((mmax + 1, mmax + 1))
    for m in range(mmax + 1):
        for n in range(m + 1):
            comb[m, n] = _comb(m, n)

    coeffs = np.zeros((kmax + 1, mmax + 1, mmax + 1), dtype=complex)
    for k in range(kmax + 1):
        if k <= mmax:
            coeffs[k, k, k] = (-1) ** k * dlt
        for m in range(1, mmax + 1):
            for n in range(m):
                t1 = comb[m, n] * I1[k - m - 1 - a_min, m - n]
                t2 = comb[m - 1, n] * I2[k - m - a_min, m - n - 1]
                coeffs[k, m, n] = (-1) ** m * (t1 - t2)
    table = LaurentTable(kmax=kmax, mmax=mmax, delta=dlt, coeffs=coeffs)
    if cross_check:
        _circle_cross_check(b, table)
    return table


def _circle_cross_check(b: BoundaryData, table: LaurentTable, n_y=256, n_x=32):
    """Validate the table against circle sampling + discrete Fourier analysis."""
    r = rho(b)
    R = 2.0 * r
    m_min = min(
        float(np.min(np.abs(R * np.exp(1j * th) * lp.z1 + lp.z2)))
        for lp in b.loops
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False)
    )
    r_x = 0.3 * m_min
    ys = R * np.exp(2j * np.pi * np.arange(n_y) / n_y)
    xs = r_x * np.exp(2j * np.pi * np.arange(n_x) / n_x)
    ks = list(range(table.kmax + 1))
    # Taylor in x lives at positive frequencies, the 1/y Laurent tail at
    # negative ones, hence fft along x and ifft along y.
    cx = np.fft.fft(G_grid(b, xs, ys, ks), axis=1) / n_x    # coefficient of x^n: / r_x^n
    cxy = np.fft.ifft(cx, axis=2)                       # coefficient of y^-m: * R^m
    bad = 0.0
    for k in ks:
        for m in range(table.mmax + 1):
            for n in range(min(m, n_x - 1) + 1):
                sampled = cxy[k, n, m] * (R ** m) / (r_x ** n)
                bad = max(bad, abs(sampled - table.coeffs[k, m, n]))
    if bad > LAURENT_XCHECK_TOL:
        raise TruncationMismatch(f"laurent extraction routes disagree by {bad:.3e}")
