"""Shock-wave verification and the operator calculus (J, H, P, D, E, s_k).

All operator algebra runs on BiSeries values: truncated sums

    sum_{n, m}  c[n, m] x^n y^(-m),   0 <= n <= nx,   mlo <= m <= mhi,

where negative m carries positive powers of y (used by the polynomial parts
(Y - omega)^k of the E-table).  The log-bearing term J never materializes:
s_k_from_mu forms e^H = omega^delta y^(-delta) exp(H~) by an exact y-shift, so
no branch cut enters the numerics.  Products run on the shared kernel
symmetric.series_mul; the anchor omega lives in HData and is handed to P.

Each series tracks the m-range on which its coefficients are exact.  The
primitivization P and multiplications by positive y-powers move information
downward in m, so validity shrinks by a bounded amount per operator
application; `exact=True` marks series that are finite (polynomials), whose
validity never shrinks.  E_decomposition yields the E-table row by row, each
from the one before, so a scan over r builds each row once and ends at the
first row whose primitivization meets a y^-1 term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import symmetric

RESIDUE_EPS = 1e-12
E_KMAX = 8                          # largest E-table row k that the r scan reads


class ResidueObstruction(ValueError):
    """Primitivization hit a y^-1 term (would require the log term J)."""


class GridTooSmall(ValueError):
    """Finite-difference verification needs at least a 5x5 grid."""


class NonFiniteResidual(ValueError):
    """The finite-difference residual is NaN or infinite, so it verifies nothing."""


class BInversionDiverged(ValueError):
    """Roots of B leave no 1/y-expansion margin at the anchor point omega."""


@dataclass
class BiSeries:
    """Truncated double series sum c[n, i] x^n y^-(mlo+i)."""

    c: np.ndarray
    mlo: int
    mhi: int
    exact: bool = False

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        assert self.c.shape[1] == self.mhi - self.mlo + 1

    @property
    def nx(self):
        return self.c.shape[0] - 1

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nx):
        return BiSeries(np.zeros((nx + 1, 1), dtype=complex), 0, 0, exact=True)

    @staticmethod
    def from_x_poly(coeffs, nx):
        """Embed an x-polynomial as a y-independent series (f ⊗ 1)."""
        c = np.zeros((nx + 1, 1), dtype=complex)
        coeffs = np.asarray(coeffs, dtype=complex)
        c[: min(len(coeffs), nx + 1), 0] = coeffs[: nx + 1]
        return BiSeries(c, 0, 0, exact=True)

    # -- bookkeeping -----------------------------------------------------

    def _window(self, mlo, mhi):
        out = np.zeros((self.nx + 1, mhi - mlo + 1), dtype=complex)
        lo = max(mlo, self.mlo)
        hi = min(mhi, self.mhi)
        if hi >= lo:
            out[:, lo - mlo : hi - mlo + 1] = self.c[:, lo - self.mlo : hi - self.mlo + 1]
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        mlo = min(self.mlo, other.mlo)
        exact = self.exact and other.exact      # an inexact term is valid to its top
        mhi = max(self.mhi, other.mhi) if exact else min(s.mhi for s in (self, other)
                                                         if not s.exact)
        c = self._window(mlo, mhi) + other._window(mlo, mhi)
        return BiSeries(c, mlo, mhi, exact)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, a):
        return replace(self, c=self.c * a)

    def __mul__(self, other):
        a, b = self, other
        mlo = a.mlo + b.mlo
        exact = a.exact and b.exact
        # an inexact factor is valid to its top, reached with the other factor's lowest order
        mhi = a.mhi + b.mhi if exact else min(s.mhi + t.mlo for s, t in ((a, b), (b, a))
                                              if not s.exact)
        # column i of a meets column j of b at column i + j of c: stack[:, i, i + j] = b.c[:, j]
        nc = mhi - mlo + 1
        na = min(a.c.shape[1], nc)
        i, j = np.nonzero(np.add.outer(np.arange(na), np.arange(b.c.shape[1])) < nc)
        stack = np.zeros((b.nx + 1, na, nc), dtype=complex)
        stack[:, i, i + j] = b.c[:, j]
        # one left column stays 1-D: a one-element broadcast product skips numpy's FMA loop
        left, right = (a.c[:, 0], stack[:, 0]) if na == 1 else (a.c[:, :na, None], stack)
        parts = symmetric.series_mul(left, right, a.nx).reshape(a.nx + 1, na, nc)
        c = sum(parts.transpose(1, 0, 2))       # ascending i, as one product per column
        return BiSeries(c, mlo, mhi, exact)

    def shift_y(self, j):
        """Multiply by y^j (exact index shift m -> m - j)."""
        return replace(self, mlo=self.mlo - j, mhi=self.mhi - j)

    # -- calculus ----------------------------------------------------------

    def dx(self):
        c = np.zeros_like(self.c)
        n = np.arange(1, self.nx + 1)
        c[:-1, :] = self.c[1:, :] * n[:, None]
        return replace(self, c=c)

    def primitivize(self, w):
        """Antiderivative in y vanishing at the anchor w: c y^-m -> c (y^(1-m) - w^(1-m))/(1-m).

        A nonzero y^-1 coefficient is an obstruction (it would demand the
        multivalued J term) and raises ResidueObstruction.
        """
        if self.mlo <= 1 <= self.mhi:
            res = self.c[:, 1 - self.mlo]
            if np.max(np.abs(res)) > RESIDUE_EPS:
                raise ResidueObstruction(f"y^-1 coefficient of size {np.max(np.abs(res)):.2e}")
        mlo = min(self.mlo - 1, 0)
        mhi = max(self.mhi - 1, 0)
        c = np.zeros((self.nx + 1, mhi - mlo + 1), dtype=complex)
        for m in range(self.mlo, self.mhi + 1):
            if m == 1:
                continue
            col = self.c[:, m - self.mlo] / (1.0 - m)
            c[:, (m - 1) - mlo] += col
            c[:, 0 - mlo] -= col * w ** (1 - m)
        return BiSeries(c, mlo, mhi, self.exact)

    def exp(self):
        """exp of a series with no y^0-or-lower content."""
        if self.mlo < 1 and np.max(np.abs(self._window(min(self.mlo, 0), 0))) > 0:
            raise ValueError("exp expects a pure 1/y tail (mlo >= 1)")
        if self.mhi < 1:
            return BiSeries.from_x_poly([1.0], self.nx)
        M = self.mhi
        nx = self.nx
        h = self._window(1, M)
        e = np.zeros((nx + 1, M + 1), dtype=complex)  # orders 0..M
        e[0, 0] = 1.0
        for m in range(1, M + 1):
            # column j - 1 is h_j e_{m-j}; cumsum adds the j terms in order
            terms = symmetric.series_mul(h[:, :m], e[:, m - 1 :: -1], nx)
            e[:, m] = np.cumsum(np.arange(1, m + 1) * terms, axis=1)[:, -1] / m
        return BiSeries(e, 0, M)

    def invert_tail(self):
        """1/self for series of shape c0(x) + O(1/y) with c0(0) != 0."""
        if self.mlo != 0:
            raise ValueError("invert_tail expects leading order y^0")
        nx, M = self.nx, self.mhi
        a0 = self.c[:, 0]
        if abs(a0[0]) < 1e-13:
            raise ZeroDivisionError("leading x-coefficient vanishes")
        inv0 = symmetric.series_inv(a0, nx)
        out = np.zeros((nx + 1, M + 1), dtype=complex)
        out[:, 0] = inv0
        for m in range(1, M + 1):
            terms = symmetric.series_mul(self.c[:, 1 : m + 1], out[:, m - 1 :: -1], nx)
            out[:, m] = -symmetric.series_mul(inv0, np.cumsum(terms, axis=1)[:, -1], nx)
        return BiSeries(out, 0, M)


# -- H data -------------------------------------------------------------------


@dataclass
class HData:
    """delta plus the single-valued part H~ of H = -delta*J + H~."""

    delta: int
    Htilde: BiSeries
    omega: complex

    @functools.cached_property
    def dHx(self):
        return self.Htilde.dx()


def H_from_laurent(lt, omega) -> HData:
    """H~ = -sum_{m>=1} G'_{1,m+1}(x)/m * y^-m and delta from a LaurentTable."""
    nx = max(lt.mmax + 1, 12)
    M = lt.mmax - 1
    if M < 1:
        return HData(lt.delta, BiSeries.zero(nx), omega)
    c = np.zeros((nx + 1, M), dtype=complex)
    i, n = np.tril_indices(M, 1, M + 1)     # column i holds y^-m, m = i + 1, and n <= m
    c[n, i] = -((n + 1) * lt.coeffs[1, i + 2, n + 1]) / (i + 1)
    return HData(lt.delta, BiSeries(c, 1, M), omega)


# -- operators ---------------------------------------------------------------


def op_D(s: BiSeries, h: HData) -> BiSeries:
    """D = d/dx + (dH/dx)* ; note dH/dx = dH~/dx since J carries no x."""
    return s.dx() + s * h.dHx


def op_E(s: BiSeries, h: HData) -> BiSeries:
    """E = P . D."""
    return op_D(s, h).primitivize(h.omega)


def E_decomposition(h: HData):
    """Rows [E_{k,0} .. E_{k,k}] of the triangular E-table, k = 0, 1, 2, ...

    E_{k,k} = (Y-omega)^k / k!,  E_{k+1,0} = E^k P(dH/dx),
    E_{k+1,j} = P E_{k,j-1} + E E_{k,j}.  Row k + 1 is built from row k alone,
    E_{k+1,k+1} first, then j = 1..k, then E_{k+1,0}; the first row that meets
    a y^-1 term raises ResidueObstruction and ends the iteration.
    """
    w = h.omega
    row = [BiSeries.from_x_poly([1.0], h.Htilde.nx)]
    while True:
        yield row
        top = row[-1].primitivize(w)
        mid = [row[j - 1].primitivize(w) + op_E(row[j], h) for j in range(1, len(row))]
        row = [op_E(row[0], h) if mid else h.dHx.primitivize(w)] + mid + [top]


def s_k_from_mu(mu, B, h: HData):
    """Shock-wave candidates s_k(mu, B) = e^H~ / ((Y/w)^delta B) * sum E^(j-k) mu_j.

    mu is a list of d x-Taylor vectors, B the ascending coefficients of a
    polynomial with B(0) = 1 and roots confined well inside |y| < |omega|/1.5.
    Returns the list [s_1 .. s_d].
    """
    B = np.atleast_1d(np.asarray(B, dtype=complex))
    nx = h.Htilde.nx
    if len(B) > 1:
        rts = symmetric.roots(B[::-1])
        if 1.5 * float(np.max(np.abs(rts))) > abs(h.omega):
            raise BInversionDiverged("roots of B too close to the series anchor |omega|")
    invB = _inverse_y_poly(B, nx, h.Htilde.mhi + 2)

    pref = (h.Htilde.exp() * invB).shift_y(-h.delta).scale(h.omega ** h.delta)

    eks = []            # E_k(mu) built backwards: eks[0] = mu_k + E(E_{k+1}(mu))
    for mj in reversed(mu):
        term = BiSeries.from_x_poly(mj, nx)
        eks.insert(0, term + op_E(eks[0], h) if eks else term)
    return [pref * e for e in eks]


# -- finite-difference verification -------------------------------------------


def _fd4(vals, h, axis):
    """4th-order centered first derivative along axis; edges are invalid."""
    v = np.moveaxis(vals, axis, 0)
    d = np.full_like(v, np.nan + 0j)
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def system_residual(S, hx: float, hy: float) -> float:
    """Max residual of the symmetric-function system over the d equations.

    S is the list of grids [S_1 .. S_d]; with Sig_k = (-1)^k S_k the system is
    Sig_d dSig_1/dx + dSig_d/dy = 0 and
    Sig_k dSig_1/dx + dSig_k/dy = dSig_{k+1}/dx for k < d.  For d = 1 this
    is the shock equation dh/dy = h dh/dx of the single sheet h = S_1.
    """
    d = len(S)
    sig = [((-1) ** (k + 1)) * np.asarray(S[k], dtype=complex) for k in range(d)]
    if sig[0].shape[0] < 5 or sig[0].shape[1] < 5:
        raise GridTooSmall("need at least 5 nodes per axis")
    ds1x = _fd4(sig[0], hx, 0)
    res = [(sig[k - 1] * ds1x + _fd4(sig[k - 1], hy, 1)
            - (_fd4(sig[k], hx, 0) if k < d else 0.0))[2:-2, 2:-2] for k in range(1, d + 1)]
    worst = float(np.max(np.abs(res)))      # np.max keeps a NaN that max() would drop
    if not np.isfinite(worst):
        raise NonFiniteResidual(f"residual {worst} is not finite")
    return worst


def _inverse_y_poly(den, nx, mcap) -> BiSeries:
    """1/den(y) for ascending coefficients: y^-r times the inverse of a unit tail to order mcap."""
    den = np.atleast_1d(np.asarray(den, dtype=complex))
    r = len(den) - 1
    unit = np.zeros((nx + 1, mcap + 1), dtype=complex)
    unit[0, : r + 1] = den[::-1]
    return BiSeries(unit, 0, mcap).invert_tail().shift_y(-r)


def g1_biseries(lt, nx) -> BiSeries:
    """G_1 as a BiSeries, straight from a LaurentTable."""
    M = lt.mmax
    c = np.zeros((nx + 1, M + 1), dtype=complex)
    c[: M + 1] = np.triu(lt.coeffs[1, :, : nx + 1].T)       # c[n, m] = G_{1,m}^n, n <= m
    return BiSeries(c, 0, M)
