"""Reference routes that the tests compare the program against.

Nothing in ``cfr`` calls these; each one is an independent or more literal
route to a quantity the program computes another way, a part of the paper's
construction that no ``cfr`` command runs, or a small identity from the
paper that the tests check:

- (E0) assembled one Laurent order at a time from per-order copies of its
  series and a table-driven row assembler, which the program's one-read
  assembly must equal, and the systems (E1)/(E2) built with that assembler;
  the (E0) residual with (A, B) pinned uses the program's rows;
- the E-table rows 0..kmax as a list, and the Laurent coefficient
  c_{j,m}^{0,n} read off one E-table entry;
- BiSeries products with one series_mul per left column;
- y-polynomials as series, d/dy of a series, E^k applied by iteration, a
  rational function of y expanded in 1/y, the residual of the
  symmetric-function chain that the s_k of (mu, B) satisfy, and delta from
  the large-|y| slope of ln|e^-H|;
- the corrections P_k as polynomials in X with coefficients rational in Y
  over B_inf^k, from the closed form of p_{k,0} and the recursion for the
  higher X-coefficients, which the program's residue on the line stack
  must match; P_1 in closed form, the pointwise residue route for P_k one
  germ and one line at a time, the same residue in 50-digit mpmath
  arithmetic, and the partial derivatives of a rational correction in X
  and Y;
- the term-by-term G_{1,1}^0 display, the metric h*, the genus of the
  double, affine charts, the domain Z, line incidence, the inverse Newton
  identities, the series inverse one scalar coefficient at a time, and the
  exterior-line germ;
- G_k on one line, the one-line case of G_lines; m(y) from every sample for
  every y, which the bounded search must equal bit for bit; the Laurent partial sum
  of G_k, and the conic's small root by the quadratic formula;
- a BiSeries coefficient, x-polynomial and value at a point, and e^H as its
  exact monomial times a series, which the program forms only inside
  s_k_from_mu;
- the rational-affine test of G_1 = (A0(y) + x A1(y)) / B(y) by least
  squares over the denominator degree, which tells line unions from the
  conic;
- the discriminant as a Sylvester determinant of p and p', and the fiber
  skip rule on it, which the rule read off the roots must equal;
- the sweep one line at a time: m(y) per y, G_k, and the batch's Newton,
  root, discriminant and point-row expressions on a one-line stack, then a
  pairwise merge per point, which the batched sweep must equal;
- the dedup's close pairs by testing every pair of rows, and the merge read
  off them through per-row lists of earlier close rows;
- the Laurent table from the whole moment rectangle, one entry at a time,
  which the read-set moments and array assembly must equal bit for bit;
- the Laurent table by three routes that read neither the moments nor
  C(m, n): the exact 1/y expansion of G_k per sample with a DFT on a circle
  in x (circle_coeffs), and a circle grid in (x, y), |y| = 2 rho, with the
  x-DFT of each sample's Cauchy kernel in closed form, or by sampling G_lines
  with an FFT along x and an inverse FFT along y;
- the boundary JSON parse one number pair at a time, and the generic
  recursive JSON writer, which the array parse and the writer's exact-type
  paths must equal;
- the boundary file read by the json module and parsed by numpy's discovery
  of nested lists, whose arrays and errors the orjson read and the flat-list
  parse must repeat (it refuses a [re, im] part spelled as an integer past
  64 bits, which they read as a float); the boundary dict one float() per
  part, which the array build must equal;
- Green values term by term: Psi summed over its nonzero (z1', z2', z1, z2)
  monomials, the q*-side kernel on every node of every target's grids, the
  cut by the bump on the whole full grid, and sub-patch z2 by the Newton
  continuation from the patch center; the polar mesh from a meshgrid of
  (r, theta), which the cached-phase nodes must equal bit for bit;
- the principal Green function of the unit disc from a non-principal one:
  the harmonic extension T on a boundary grid, the Nystrom matrix of the
  smooth part, and the Fredholm solve of v = w + Sw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss

from cfr import green, indicators, reconstruct, shock, symmetric
from cfr.green import COINCIDENT_EPS, Coincident, _bump, _polar_nodes_gl
from cfr.geometry import (CHART_EPS, BoundaryData, BoundaryLoop, LineParam, OutsideDomain,
                          ProjPoint, m_of_y, rho, tiles)
from cfr.indicators import LAURENT_XCHECK_TOL, TruncationMismatch
from cfr.infinity import RESONANT_EPS, GermAtInfinity, ResonantY, _trim
from cfr.linsys import Layout, assemble_E0, valid_window
from cfr.reconstruct import PointCloud
from cfr.shock import BiSeries, HData


# -- linsys: (E0) order by order, coefficient extraction, pinned residual, (E1), (E2)


def shifted_coeffs(series: BiSeries, shift: int, window, nx_rows: int):
    """Coefficient arrays of y^shift * series on the window of Laurent orders n.

    Entry [i, t] is the x^t coefficient of y^(window[i]); orders where the
    shifted series is not valid are flagged by NaN in column 0.
    """
    out = np.zeros((len(window), nx_rows + 1), dtype=complex)
    sh = series.shift_y(shift)
    for i, n in enumerate(window):
        m = -n
        if m < sh.mlo:
            continue  # exactly zero above the top of the series
        if m > sh.mhi:
            if not sh.exact:
                out[i, 0] = np.nan
            continue
        v = biseries_x_poly(sh, m)
        out[i, :] = v[: nx_rows + 1]
    return out


def k0_components(h: HData, g1: BiSeries, r: int, window, nx_rows: int):
    """Laurent data of [A + X B' - B G_1] e^(-H), split by its (A, B) linearity.

    e^(-H) = w^(-delta) y^delta e^(-H~); multiplication by the monomials Y^i
    of A and B is an exact index shift, so each unknown coefficient a_i,
    beta_i contributes a fixed known series.  beta_0 = 1 feeds the constant
    part.  Returns (const, [a_0 .. a_{r-1} parts], [beta_1 .. beta_r parts]).
    """
    d = h.delta
    em = h.Htilde.scale(-1.0).exp()          # e^(-H~)
    # X * e^(-H~): multiply by x, i.e. shift coefficients up one x-degree.
    cx = np.zeros_like(em.c)
    cx[1:, :] = em.c[:-1, :]
    xem = BiSeries(cx, em.mlo, em.mhi, em.exact)

    wmd = h.omega ** (-d)
    a_parts = [wmd * shifted_coeffs(em, i + d, window, nx_rows) for i in range(r)]
    const, b_parts = k_parts(h, xem, g1 * em, r, window, nx_rows)
    return const, a_parts, b_parts


def k_parts(h: HData, lin: BiSeries, f: BiSeries, r: int, window, nx_rows: int):
    """Right-side parts of [B' lin - B f] e^(-H~) w^(-delta) y^delta, linear in B.

    B = 1 + sum beta_i Y^i, so beta_0 = 1 gives const = -f and each beta_i
    the part i Y^(i-1) lin - Y^i f.  Returns (const, [beta_1 .. beta_r parts]).
    """
    d = h.delta
    wmd = h.omega ** (-d)
    const = -wmd * shifted_coeffs(f, d, window, nx_rows)
    b_parts = []
    for i in range(1, r + 1):
        t = wmd * (
            i * shifted_coeffs(lin, i - 1 + d, window, nx_rows)
            - shifted_coeffs(f, i + d, window, nx_rows)
        )
        b_parts.append(t)
    return const, b_parts


def mu_columns(cvec, m, dmu, nx_rows):
    """Rows x columns block of the term c(x) * mu^{(m)} for one (j, m, n)."""
    block = np.zeros((nx_rows + 1, dmu + 1), dtype=complex)
    for i in range(m, min(dmu, nx_rows + m) + 1):
        lo = i - m
        t = min(nx_rows + 1 - lo, len(cvec))
        block[lo : lo + t, i] = factorial(i) / factorial(i - m) * cvec[:t]
    return block


def assemble_rows(layout: Layout, window, nx_rows: int, terms, const, a_parts, b_parts):
    """Rows of sum c^n_{j,m} mu_j^(m) - sum a_i K_i^a - sum beta_i K_i^b = const.

    terms maps (j, m) to the series whose y^n coefficient c^n_{j,m}(x)
    multiplies mu_j^(m); const and the parts are (window, nx_rows + 1)
    arrays, NaN where not valid.  An order n is dropped when a part or a
    term is not exactly valid there.
    """
    dmu = layout.dmu
    rows = len(window) * (nx_rows + 1)
    M = np.zeros((rows, layout.n_unknowns), dtype=complex)
    rhs = np.zeros(rows, dtype=complex)
    keep = np.ones(len(window), dtype=bool)
    for i, n in enumerate(window):
        n = int(n)
        if (any(np.isnan(p[i, 0]) for p in [const, *a_parts, *b_parts])
                or any(-n > s.mhi and not s.exact for s in terms.values())):
            keep[i] = False
            continue
        r0, r1 = i * (nx_rows + 1), (i + 1) * (nx_rows + 1)
        rhs[r0:r1] = const[i]
        for (j, m), s in terms.items():
            if not s.mlo <= -n <= s.mhi:
                continue  # zero coefficient (or exactly zero beyond an exact series)
            cvec = s.c[:, -n - s.mlo]
            if np.any(cvec):
                col0 = (j - 1) * (dmu + 1)
                M[r0:r1, col0 : col0 + dmu + 1] += mu_columns(cvec, m, dmu, nx_rows)
        for ii, p in enumerate(a_parts):
            M[r0:r1, layout.n_mu + ii] -= p[i]
        for ii, p in enumerate(b_parts):
            M[r0:r1, layout.n_mu + layout.r + ii] -= p[i]
    mask = np.repeat(keep, nx_rows + 1)
    return M[mask], rhs[mask]


def assemble_E0_by_order(h: HData, g1: BiSeries, etab, layout: Layout):
    """(E0) one Laurent order at a time, the route linsys.assemble_E0 must equal."""
    nx_rows = h.Htilde.nx
    window = valid_window(h, g1, layout.r, layout.d)
    const, a_parts, b_parts = k0_components(h, g1, layout.r, window, nx_rows)
    terms = {(j, m): etab[j - 1][m] for j in range(1, layout.d + 1) for m in range(j)}
    return assemble_rows(layout, window, nx_rows, terms, const, a_parts, b_parts)


class TruncationExceeded(ValueError):
    """Requested Laurent order is outside the validated range."""


class E2Degenerate(ValueError):
    """d^2 G_1 / dx^2 vanishes: system (E2) is unavailable."""


def e_rows(h: HData, kmax: int):
    """Rows 0..kmax of the E-table, etab[k][j] = E_{k,j}, from shock.E_decomposition."""
    return list(islice(shock.E_decomposition(h), kmax + 1))


def coeff_c0(j: int, m: int, n: int, etab) -> np.ndarray:
    """x-Taylor vector c_{j,m}^{0,n}: the coefficient of y^n in E_{j-1,m}."""
    s = etab[j - 1][m]
    if -n < s.mlo:
        return np.zeros(s.nx + 1, dtype=complex)
    if -n > s.mhi and not s.exact:
        raise TruncationExceeded(f"order y^{n} beyond validated range of E_{j-1},{m}")
    return biseries_x_poly(s, -n)


def fixed_AB_residual(h, g1, etab, layout: Layout, A, B, extra_blocks=()):
    """(E0) residual with (A, B) pinned, minimizing over mu only.

    Extra row blocks (E1/E2) may be stacked below (E0).  The (a, beta)
    columns hold the negated K components, so pinned values move to the
    right side with the opposite sign.
    """
    M, rhs = assemble_E0(h, g1, etab, layout)
    for Mb, rb in extra_blocks:
        M = np.vstack([M, Mb])
        rhs = np.concatenate([rhs, rb])
    nm = layout.n_mu
    if layout.r:
        AB = np.concatenate((np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)[1:]))
        rhs = rhs - M[:, nm:] @ AB
    if nm:
        sol, *_ = np.linalg.lstsq(M[:, :nm], rhs, rcond=None)
        resid = M[:, :nm] @ sol - rhs
    else:
        resid = -rhs
    return float(np.linalg.norm(resid)) / (1.0 + float(np.linalg.norm(rhs)))


def e1_table(etab, h: HData, d: int):
    """E^1_{j,m} for 1 <= j <= d, 0 <= m <= j (x-derivative system)."""
    out = {}
    for j in range(1, d + 1):
        out[(j, 0)] = shock.op_D(etab[j - 1][0], h)
        for m in range(1, j):
            out[(j, m)] = etab[j - 1][m - 1] + shock.op_D(etab[j - 1][m], h)
        out[(j, j)] = etab[j - 1][j - 1]
    return out


def assemble_E1(h: HData, g1: BiSeries, etab, layout: Layout):
    """Rows of (E1): sum c^{1,n}_{j,m} mu_j^{(m)} = coeffs of (B' - B dG1/dx) e^-H."""
    nx_rows = h.Htilde.nx
    window = valid_window(h, g1, layout.r, layout.d)
    tab1 = e1_table(etab, h, layout.d)
    em = h.Htilde.scale(-1.0).exp()
    const, b_parts = k_parts(h, em, g1.dx() * em, layout.r, window, nx_rows)
    return assemble_rows(layout, window, nx_rows, tab1, const, [], b_parts)


def e2_table(etab, h: HData, d: int, gxx_inv: BiSeries):
    """E^2_{j,m}/Gxx for 1 <= j <= d, 0 <= m <= j+1 (second-derivative system)."""
    hx = h.dHx
    hxx = hx.dx()
    out = {}
    for j in range(1, d + 1):
        # E_{j-1,m-2} + 2 D E_{j-1,m-1} + D^2 E_{j-1,m}, over the indices that exist
        for m in range(j + 2):
            acc = etab[j - 1][m - 2] if m >= 2 else None
            if 1 <= m <= j:
                dd = shock.op_D(etab[j - 1][m - 1], h).scale(2.0)
                acc = dd if acc is None else acc + dd
            if m < j:
                t = etab[j - 1][m]
                dd = t.dx().dx() + (t.dx() * hx).scale(2.0) + t * (hx * hx + hxx)
                acc = dd if acc is None else acc + dd
            out[(j, m)] = acc * gxx_inv
    return out


def invert_gxx(g1: BiSeries):
    """1/(d^2 G_1/dx^2) as a BiSeries; raises E2Degenerate when unusable."""
    gxx = g1.dx().dx()
    mags = np.abs(gxx.c).max(axis=0)
    nz = np.nonzero(mags > 1e-8)[0]
    if not len(nz):
        raise E2Degenerate("d^2 G_1/dx^2 vanishes within tolerance")
    m0 = gxx.mlo + nz[0]
    lead = biseries_x_poly(gxx, m0)
    if abs(lead[0]) < 1e-10:
        raise E2Degenerate("leading coefficient of d^2 G_1/dx^2 has no constant term")
    u = gxx.shift_y(m0)  # unit series with mlo = 0
    u = BiSeries(u._window(0, u.mhi), 0, u.mhi, u.exact)
    return u.invert_tail().shift_y(m0)


def assemble_E2(h: HData, g1: BiSeries, etab, layout: Layout):
    """Rows of (E2): sum c^{2,n}_{j,m} mu_j^{(m)} = coeffs of -B e^-H."""
    nx_rows = h.Htilde.nx
    window = valid_window(h, g1, layout.r, layout.d)
    tab2 = e2_table(etab, h, layout.d, invert_gxx(g1))
    zero = BiSeries.zero(h.Htilde.nx)
    const, b_parts = k_parts(h, zero, h.Htilde.scale(-1.0).exp(), layout.r, window, nx_rows)
    return assemble_rows(layout, window, nx_rows, tab2, const, [], b_parts)


# -- shock: BiSeries products one left column at a time ---------------------------


def biseries_mul_per_column(a: BiSeries, b: BiSeries) -> BiSeries:
    """a * b with one series_mul per column of a, added into the window in order."""
    mlo = a.mlo + b.mlo
    if a.exact and b.exact:
        mhi, exact = a.mhi + b.mhi, True
    elif a.exact:
        mhi, exact = a.mlo + b.mhi, False
    elif b.exact:
        mhi, exact = b.mlo + a.mhi, False
    else:
        mhi, exact = min(a.mhi + b.mlo, b.mhi + a.mlo), False
    c = np.zeros((a.nx + 1, mhi - mlo + 1), dtype=complex)
    for i in range(a.c.shape[1]):
        # column i of a meets columns 0..nb-1 of b at columns i..i+nb-1 of c
        nb = min(b.c.shape[1], mhi - mlo - i + 1)
        if nb <= 0:
            break
        c[:, i : i + nb] += symmetric.series_mul(a.c[:, i], b.c[:, :nb], a.nx)
    return BiSeries(c, mlo, mhi, exact)


# -- shock: BiSeries coefficients and values, e^H as a monomial times a series


def biseries_coeff(s: BiSeries, n: int, m: int) -> complex:
    """The x^n y^-m coefficient of s; zero outside its index ranges."""
    if n < 0 or n > s.nx or m < s.mlo or m > s.mhi:
        return 0.0 + 0.0j
    return s.c[n, m - s.mlo]


def biseries_x_poly(s: BiSeries, m: int) -> np.ndarray:
    """x-Taylor vector of the coefficient of y^-m in s; zeros outside its m range."""
    if m < s.mlo or m > s.mhi:
        return np.zeros(s.nx + 1, dtype=complex)
    return s.c[:, m - s.mlo].copy()


def biseries_eval(s: BiSeries, x, y):
    """The truncated sum of s at (x, y), one x-polynomial per column in ascending m."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    tot = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for i in range(s.c.shape[1]):
        tot = tot + P.polyval(x, s.c[:, i]) * y ** (-float(s.mlo + i))
    return tot if tot.shape else complex(tot)


def exp_H(h: HData, sign: int = 1):
    """e^(sign H) = c y^-j S with the monomial kept exact, as the triple (c, j, S).

    c = omega^(sign delta), j = sign delta and S = exp(sign H~); shock.s_k_from_mu
    forms its prefactor from the same three for sign = 1.
    """
    return h.omega ** (sign * h.delta), sign * h.delta, h.Htilde.scale(float(sign)).exp()


# -- shock: y-polynomials, d/dy, E^k by iteration, 1/y tails, the chain residual, delta


DELTA_FIT_X = 0.0                   # x of the slope fit in delta_from_expH
DELTA_FIT_RADII = (1e2, 1e3, 1e4)   # |y| of its sample points


def biseries_from_y_poly(coeffs, nx) -> BiSeries:
    """Embed a y-polynomial sum b_j y^j: exponent j sits at m = -j."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    c = np.zeros((nx + 1, deg + 1), dtype=complex)
    c[0, :] = coeffs[::-1]  # m = -deg .. 0 maps to y^deg .. y^0
    return BiSeries(c, -deg, 0, exact=True)


def biseries_dy(s: BiSeries) -> BiSeries:
    """d/dy: c x^n y^-m -> -m c x^n y^-(m+1)."""
    ms = np.arange(s.mlo, s.mhi + 1)
    return BiSeries(s.c * (-ms)[None, :], s.mlo + 1, s.mhi + 1, s.exact)


def delta_from_expH(h: HData) -> float:
    """Slope fit of ln|e^-H| against ln|y| over large radii; converges to delta.

    ln|e^-H| = delta ln|y| + const + O(1/y), so the fit basis includes the
    known first-order 1/y correction; the slope is then exact to O(1/y^2).
    """
    c, j, series = exp_H(h, -1)                 # e^-H = c y^-j exp(-H~)
    r = np.asarray(DELTA_FIT_RADII, dtype=float)
    logs = np.log(np.abs(c * r ** -float(j) * biseries_eval(series, DELTA_FIT_X, r)))
    A = np.stack([np.log(r), np.ones_like(r), 1.0 / r], axis=1)
    sol, *_ = np.linalg.lstsq(A, logs, rcond=None)
    return float(sol[0])


def iterate_E(f_coeffs, k: int, h: HData) -> BiSeries:
    """E^k applied to f ⊗ 1 by direct iteration (independent check route)."""
    s = BiSeries.from_x_poly(f_coeffs, h.Htilde.nx)
    for _ in range(k):
        s = shock.op_E(s, h)
    return s


def rational_tail(num, den, nx, mhi) -> BiSeries:
    """num(y)/den(y) expanded in powers of 1/y, valid to order y^-mhi."""
    num = np.atleast_1d(np.asarray(num, dtype=complex))
    inv = shock._inverse_y_poly(den, nx, mhi + np.size(den) - 1)
    return biseries_from_y_poly(num, nx) * inv


def eqsym1_residual(s_list, dNx=None):
    """Residual of the chain -s_k dN/dx + ds_k/dy = ds_{k+1}/dx (zero at k=d).

    dNx is the series of dN/dx with N = G_1 - P; by the equivalence behind the
    construction it equals dG_1/dx - B'/B (independent of A).  When omitted,
    N := -s_1 is used, which is only appropriate for fitted solutions where
    -s_1 reproduces G_1 - P.  The residual series is formed with exact series
    derivatives and measured by its largest coefficient on the range where
    every participating series is valid.
    """
    d = len(s_list)
    if dNx is None:
        dNx = s_list[0].dx().scale(-1.0)
    worst = []
    for k in range(1, d + 1):
        sk = s_list[k - 1]
        term = sk.scale(-1.0) * dNx + biseries_dy(sk)
        if k < d:
            term = term - s_list[k].dx()
        worst.append(np.max(np.abs(term.c)))
    return float(np.max(worst, initial=0.0))    # np.max keeps a NaN that max() would drop


# -- infinity: the rational family, P_1 in closed form, residues, partial derivatives


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


def _ser_pow(a, p, order):
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    for _ in range(p):
        out = symmetric.series_mul(out, a, order)
    return out


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
    gp = P.polyder(g)[: order + 1]
    gm = g.copy()
    gm[0] = 0.0
    term = symmetric.series_mul(gp, _ser_pow(g, k - 1, order), order)
    term = symmetric.series_mul(term, _ser_pow(gm, n - 1, order), order)
    return complex(term[order])


def _pk0_germ(germ, k) -> RationalY:
    """p_{k,0} contribution of one germ, with denominator (1 + Y b)^k.

    Uses the expansion of the residue in powers of 1/(1 + Y b):

        p_{k,0}^q = sum_{n=1..k} (-1)^n Y^(n-1) <g' g^(k-1) (g-g0)^(n-1), u^(k-1)>
                    / (1 + Y b)^n
    """
    lin = np.array([1.0, germ.b], dtype=complex)
    num = np.zeros(1, dtype=complex)
    for n in range(1, k + 1):
        c = (-1) ** n * _bracket(germ, k, n)
        t = np.concatenate((np.zeros(n - 1, dtype=complex), [c]))  # c * Y^(n-1)
        for _ in range(k - n):
            t = P.polymul(t, lin)
        num = P.polyadd(num, t)
    return RationalY(num, k, lin)


def Pk_family_rational(germs, kmax: int):
    """P_1..P_kmax (entry 0 unused) as polynomials in X with coefficients rational in Y.

    The coefficients share the denominator B_inf^k (germs not empty).  p_{k,0}
    comes from the series residue of each germ; the higher X-coefficients
    follow the recursion p_{k,m} = (k/(m!(k-m))) p_{k-m,0}^{(m)} and
    p_{k,k} = p_{1,1}^{(k-1)}/(k-1)!.
    """
    base = B_infinity(germs)
    pk0 = {}
    for k in range(1, kmax + 1):
        acc = RationalY(np.zeros(1), k, base)
        for q in germs:
            rest = np.ones(1, dtype=complex)
            for other in germs:
                if other is not q:
                    rest = P.polymul(rest, np.array([1.0, other.b], dtype=complex))
            lift = _pk0_germ(q, k).num
            for _ in range(k):
                lift = P.polymul(lift, rest)
            acc = acc + RationalY(lift, k, base)
        pk0[k] = acc
    p11 = RationalY(P.polyder(base), 1, base)
    out = [None]
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


def P1(germs) -> RationalAffinePoly:
    """P_1 = p_{1,0} + p_{1,1} X with p_{1,1} = B'/B, p_{1,0} = -sum g_1/(1+Y b)."""
    base = B_infinity(germs)
    if not germs:
        z = RationalY(np.zeros(1), 0, base)
        return RationalAffinePoly([z, z])
    p11 = RationalY(P.polyder(base), 1, base)
    num = np.zeros(1, dtype=complex)
    for q in germs:
        g1 = q.taylor[0] if q.taylor else 0.0
        rest = np.ones(1, dtype=complex)
        for other in germs:
            if other is not q:
                rest = P.polymul(rest, np.array([1.0, other.b], dtype=complex))
        num = P.polyadd(num, -g1 * rest)
    p10 = RationalY(num, 1, base)
    return RationalAffinePoly([p10, p11])


def Pk_residue(germ: GermAtInfinity, k: int, z) -> complex:
    """Residue contribution of one germ to P_k at the line parameter z.

    Equals the coefficient of u^(k-1) in [x(g - u g') - g'] g^(k-1) / (1 + xu + yg),
    computed with exact truncated series arithmetic; P_0 is identically -1.
    """
    if k == 0:
        return -1.0 + 0.0j
    x, y = z.x, z.y
    if abs(1.0 + y * germ.b) < RESONANT_EPS:
        raise ResonantY("1 + y b_q vanishes")
    order = k - 1
    g = germ.series(k)  # length k+1; g' needs g_k for the u^(k-1) coefficient
    j = np.arange(order + 1)
    gmu = (1.0 - j) * g[: order + 1]          # g - u g'
    gp = (j + 1.0) * g[1 : order + 2]         # g'
    num = x * gmu - gp
    num = symmetric.series_mul(num, _ser_pow(g, k - 1, order), order)
    den = y * g[: order + 1].copy()           # 1 + x u + y g(u)
    den[0] += 1.0
    if order >= 1:
        den[1] += x
    q = symmetric.series_mul(num, symmetric.series_inv(den, order), order)
    return complex(q[order])


def Pk_mp(germs, k: int, x, y, dps=50) -> complex:
    """P_k(x, y) from the residue formula of Pk_residue in dps-digit mpmath arithmetic."""
    import mpmath

    def mul(a, b):
        return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(k)]

    if k == 0:
        return complex(-len(germs))
    with mpmath.workdps(dps):
        x, y = mpmath.mpc(complex(x)), mpmath.mpc(complex(y))
        tot = mpmath.mpc(0)
        for q in germs:
            g = [mpmath.mpc(complex(c)) for c in q.series(k)]
            num = [x * (1 - j) * g[j] - (j + 1) * g[j + 1] for j in range(k)]
            power = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (k - 1)
            for _ in range(k - 1):
                power = mul(power, g)
            den = [y * c for c in g[:k]]
            den[0] += 1
            if k > 1:
                den[1] += x
            inv = [1 / den[0]]
            for m in range(1, k):
                inv.append(-sum(den[i] * inv[m - i] for i in range(1, m + 1)) / den[0])
            tot += mul(mul(num, power), inv)[k - 1]
        return complex(tot)


def deriv_x(p: RationalAffinePoly) -> RationalAffinePoly:
    """d/dX of a polynomial in X with RationalY coefficients."""
    return RationalAffinePoly(
        [c.scale(m) for m, c in enumerate(p.coeffs)][1:] or
        [RationalY(np.zeros(1), 0, p.coeffs[0].base)]
    )


def deriv_y(p: RationalAffinePoly) -> RationalAffinePoly:
    """d/dY of a polynomial in X with RationalY coefficients."""
    return RationalAffinePoly([c.deriv() for c in p.coeffs])


# -- indicators, genus, geometry, symmetric, oracles ---------------------------


def G_k(b: BoundaryData, z: LineParam, k):
    """Indicator G_k on one line z: contour integral of z1^k d(x + y z1 + z2)/(x + y z1 + z2).

    The one-line case of indicators.G_lines.  k may be an int or a sequence of
    ints; a sequence returns an array.
    """
    acc = indicators.G_lines(b, [z.x], [z.y], k)[:, 0]
    return acc[0] if np.ndim(k) == 0 else acc


def m_of_y_full(b: BoundaryData, y):
    """geometry.m_of_y from every sample for every y: |y z1 + z2| over each loop in
    TILE_ENTRIES tiles of ys, whose minima the bounded search must equal bit for bit."""
    r = rho(b)
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    if np.any(np.abs(ys) <= r):
        raise OutsideDomain(f"|y| = {np.min(np.abs(ys)):g} <= rho = {r:g}")
    m = np.full(len(ys), np.inf)
    for lp in b.loops:
        z1, z2 = lp.z1, lp.z2
        for sl in tiles(len(ys), len(z1)):
            np.minimum(m[sl], np.min(np.abs(ys[sl, None] * z1 + z2), axis=1), out=m[sl])
    return float(m[0]) if np.ndim(y) == 0 else m


def moment_integrals_full(b: BoundaryData, a_range, b_max):
    """I1[a,b], I2[a,b] on the whole rectangle a_min..a_max by 0..b_max, [a - a_min, b]."""
    a_min, a_max = a_range
    na, nb = a_max - a_min + 1, b_max + 1
    I1 = np.zeros((na, nb), dtype=complex)
    I2 = np.zeros((na, nb), dtype=complex)
    for sign, lp in b.signed_loops():
        z1, z2 = lp.z1, lp.z2
        h = lp.t[1] - lp.t[0]
        w1 = sign * h * lp.dz1 / (2.0j * np.pi)
        w2 = sign * h * lp.dz2 / (2.0j * np.pi)
        za = np.empty((na, len(z1)), dtype=complex)     # row ia holds z1^(a_min + ia)
        za[0] = z1 ** float(a_min)
        for ia in range(1, na):
            za[ia] = za[ia - 1] * z1
        zb = np.ones_like(z2)
        for bb in range(nb):
            if bb > 0:
                zb = zb * z2
            p = za * zb
            I1[:, bb] += np.sum(p * w1, axis=-1)
            I2[:, bb] += np.sum(p * w2, axis=-1)
    return I1, I2


def laurent_coeffs_by_loops(b: BoundaryData, kmax: int, mmax: int):
    """Laurent table coefficients from the full moment rectangle, one entry at a time."""
    dlt = indicators.delta(b)
    a_min = 0 - mmax - 1
    I1, I2 = moment_integrals_full(b, (a_min, kmax), mmax + 1)
    binom = np.zeros((mmax + 1, mmax + 1))
    for m in range(mmax + 1):
        for n in range(m + 1):
            binom[m, n] = comb(m, n)
    coeffs = np.zeros((kmax + 1, mmax + 1, mmax + 1), dtype=complex)
    for k in range(kmax + 1):
        if k <= mmax:
            coeffs[k, k, k] = (-1) ** k * dlt
        for m in range(1, mmax + 1):
            for n in range(m):
                t1 = binom[m, n] * I1[k - m - 1 - a_min, m - n]
                t2 = binom[m - 1, n] * I2[k - m - a_min, m - n - 1]
                coeffs[k, m, n] = (-1) ** m * (t1 - t2)
    return coeffs


# x-points of circle_coeffs.  Per sample, the y^-m coefficient of G_k is a
# polynomial of degree m in x.  A DFT of n_x points on |x| = r folds the order
# n + n_x onto n, and m <= mmax <= 12 < 16, so 16 points recover every
# coefficient of the table with no aliasing.
XCHECK_NX = 16


def circle_coeffs(b: BoundaryData, kmax: int, mmax: int):
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


def circle_coeffs_y_dft(b: BoundaryData, kmax: int, mmax: int, n_y: int = 64, n_x: int = 16):
    """Laurent coefficients [k, m, n <= min(mmax, n_x - 1)] read off two circles.

    The grid is n_y points of |y| = R = 2 rho by n_x points of |x| = r_x =
    0.3 min m(y); the fold of a DFT is damped by 2^-n_y in 1/y and 0.3^n_x in
    x.  Per sample, with c = y z1 + z2, u = -1/c and q = r_x u (|q| <= 0.3),
    the x-DFT of the Cauchy kernel is exact, aliasing included:
    (1/n_x) sum_l w^(-ln) / (r_x w^l + c) = q^n / (c (1 - q^n_x)), so x^n has
    the coefficient -u^(n+1) / (1 - q^n_x).  An inverse FFT over y gives the
    orders y^-m.  |x + c| >= 0.7 m(y) on the grid, so NearIncidence is raised
    when 0.7 min m(y) <= DENOM_EPS.  n_x is a power of two (q^n_x by squaring).
    """
    R = 2.0 * rho(b)
    ys = R * np.exp(2j * np.pi * np.arange(n_y) / n_y)
    cs = [[ys[sl, None] * lp.z1 + lp.z2 for sl in tiles(n_y, len(lp.z1))] for lp in b.loops]
    m_min = min(float(np.min(np.abs(c))) for row in cs for c in row)
    if 0.7 * m_min <= indicators.DENOM_EPS:
        raise indicators.NearIncidence("cross-check circle too close to the boundary image")
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
            for _ in range(n_x.bit_length() - 1):
                qn *= qn
            term = -u * (yb * dz1 + dz2) / (1.0 - qn)
            for n in range(nn):
                cx[:, n, sl] += (term @ wz).T
                term *= u
    cxy = np.fft.ifft(cx / (2.0j * np.pi), axis=2)[:, :, : mmax + 1]   # 1/y: negative frequencies
    return (cxy * R ** np.arange(mmax + 1)).transpose(0, 2, 1)


def cross_check_gap(table, coeffs):
    """Largest |coeffs - table| over k and n <= m <= mmax."""
    nn = coeffs.shape[2]
    n_le_m = np.arange(nn) <= np.arange(table.mmax + 1)[:, None]
    return float(np.max(np.abs(coeffs - table.coeffs[:, :, :nn])[:, n_le_m]))


def sampled_cross_check(b: BoundaryData, table, n_y: int = 64):
    """The Laurent cross-check with G_k sampled on a whole circle grid.

    G_lines gives G_k on the XCHECK_NX x n_y points of |x| = r_x,
    |y| = 2 rho; an FFT along x (divided by r_x^n) and an inverse FFT along
    y (times R^m) give the coefficients.  Returns (gap, coefficients[k, m, n])
    in the layout of circle_coeffs; raises TruncationMismatch
    when the gap exceeds LAURENT_XCHECK_TOL.
    """
    R = 2.0 * rho(b)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    r_x = 0.3 * float(np.min(m_of_y(b, R * np.exp(1j * th))))
    n_x = XCHECK_NX
    ys = R * np.exp(2j * np.pi * np.arange(n_y) / n_y)
    xs = r_x * np.exp(2j * np.pi * np.arange(n_x) / n_x)
    ks = list(range(table.kmax + 1))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = indicators.G_lines(b, X.ravel(), Y.ravel(), ks).reshape(len(ks), n_x, n_y)
    cx = np.fft.fft(grid, axis=1) / n_x
    cxy = np.fft.ifft(cx, axis=2)
    nn = min(table.mmax, n_x - 1) + 1
    out = np.zeros((len(ks), table.mmax + 1, nn), dtype=complex)
    bad = 0.0
    for k in ks:
        for m in range(table.mmax + 1):
            for n in range(nn):
                out[k, m, n] = cxy[k, n, m] * (R ** m) / (r_x ** n)
                if n <= m:
                    bad = max(bad, abs(out[k, m, n] - table.coeffs[k, m, n]))
    if bad > LAURENT_XCHECK_TOL:
        raise TruncationMismatch(f"laurent extraction routes disagree by {bad:.3e}")
    return bad, out


def boundary_from_json_per_element(obj: dict) -> BoundaryData:
    """geometry.boundary_from_json with one complex() per [re, im] pair."""
    loops, signs = [], []
    for entry in obj["loops"]:
        signs.append(int(entry["orientation"]))
        ts, ws, dws = [], [], []
        has_dw = all("dw" in s for s in entry["samples"])
        for s in entry["samples"]:
            ts.append(float(s["t"]))
            ws.append([complex(p[0], p[1]) for p in s["w"]])
            if has_dw:
                dws.append([complex(p[0], p[1]) for p in s["dw"]])
        ts = np.array(ts)
        ws = np.array(ws, dtype=complex)
        dws = np.array(dws, dtype=complex) if has_dw else None
        loops.append(BoundaryLoop(ts, ws, dws))
    return BoundaryData(loops, signs)


def boundary_to_json_per_element(b: BoundaryData) -> dict:
    """geometry.boundary_to_json with one float() per real and imaginary part."""
    loops = []
    for sign, lp in b.signed_loops():
        samples = [{"t": float(t), "w": [[float(np.real(c)), float(np.imag(c))] for c in w],
                    "dw": [[float(np.real(c)), float(np.imag(c))] for c in dw]}
                   for t, w, dw in zip(lp.t, lp.w, lp.dw)]
        loops.append({"orientation": int(sign), "samples": samples})
    return {"loops": loops}


def _pairs_nested(samples, key):
    """samples[i][key] as an (N, 3) complex array by np.array on the nested lists."""
    a = np.array([s[key] for s in samples])
    if a.dtype.kind not in "biuf" or a.shape != (len(samples), 3, 2) or not np.isfinite(a).all():
        raise ValueError(f"'{key}' must hold finite numbers in shape (n, 3, 2)")
    return a.astype(float).view(complex)[..., 0]


def load_boundary_json(path) -> BoundaryData:
    """boundary_from_json(read_json(path)) by json.load, float() per t and np.array on the
    nested pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    loops, signs = [], []
    for entry in obj["loops"]:
        signs.append(int(entry["orientation"]))
        samples = entry["samples"]
        ts = np.array([float(s["t"]) for s in samples])
        if not np.isfinite(ts).all():
            raise ValueError("'t' must hold finite numbers in shape (n)")
        ws = _pairs_nested(samples, "w")
        dws = _pairs_nested(samples, "dw") if all("dw" in s for s in samples) else None
        loops.append(BoundaryLoop(ts, ws, dws))
    return BoundaryData(loops, signs)


def fmt_generic(v) -> str:
    """cli.dumps without its trailing newline, by isinstance tests alone; inf or nan: ValueError."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not np.isfinite(v):
            raise ValueError(f"non-finite number {v}")
        return format(float(v), ".17g")
    if isinstance(v, (complex, np.complexfloating)):
        return fmt_generic([float(v.real), float(v.imag)])
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(fmt_generic(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{fmt_generic(x)}" for k, x in v.items()) + "}"
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v)}")


def _contour_sum(b: BoundaryData, values_per_loop):
    """Orientation-signed trapezoid sum of per-loop integrand arrays / (2 pi i)."""
    total = 0.0 + 0.0j
    for (sign, lp), vals in zip(b.signed_loops(), values_per_loop):
        total += sign * (lp.t[1] - lp.t[0]) * np.sum(vals)
    return total / (2.0j * np.pi)


def G110_check(b: BoundaryData, tol=1e-9):
    """G_{1,1}^0 from the first-order expansion display, term by term.

    The displayed formula carries the extra term (1/2 pi i) * contour
    integral of (w2/w0)^2 d(w2/w0), an exact form that vanishes on closed
    loops; it is evaluated as written and flagged when it fails to vanish.
    Returns (value, exact_term, flagged).
    """
    term1 = -_contour_sum(b, ((lp.z2 / lp.z1) * lp.dz1 for lp in b.loops))
    exact = _contour_sum(b, (lp.z2 ** 2 * lp.dz2 for lp in b.loops))
    flagged = abs(exact) > tol
    return term1 + exact, exact, flagged


def hstar(omega, lam, zeta):
    """Metric h*(omega) = (omega ^ *conj(omega) / mu)^(1/2) = |f| / sqrt(lambda).

    omega is the dzeta-coefficient function f; the conjugation operator acts
    on (0,1)-forms as multiplication by i/2, which pairs f dzeta ^ *conj into
    |f|^2 dA against mu = lambda dA.
    """
    return np.abs(omega(zeta)) / np.sqrt(lam(zeta))


def genus_of_double(g: int, c: int) -> int:
    """Genus of the double: 2g + c - 1."""
    if g < 0 or c < 1:
        raise ValueError("need g >= 0 and c >= 1")
    return 2 * g + c - 1


# Discrete minima overestimate the true minimum of |x + y*z1 + z2| over the
# boundary; in_Z deflates m(y) by this factor to stay safely inside Z.
M_SAFETY = 0.98


class ChartUndefined(ValueError):
    """Requested affine chart divides by a (numerically) vanishing coordinate."""


def affine_chart(p: ProjPoint, chart: int):
    """Affine coordinates of p in the given chart, remaining pair in cyclic order."""
    w = np.array(p, dtype=complex)
    d = w[chart]
    if abs(d) <= CHART_EPS:
        raise ChartUndefined(f"coordinate w{chart} vanishes")
    return w[(chart + 1) % 3] / d, w[(chart + 2) % 3] / d


def in_Z(b: BoundaryData, z: LineParam) -> bool:
    """Membership in the admissible domain Z (with deflated m(y) for safety)."""
    if abs(z.y) <= rho(b):
        return False
    return abs(z.x) < M_SAFETY * m_of_y(b, z.y)


def line_eval(z: LineParam, p: ProjPoint) -> complex:
    """Incidence residual x*w0 + y*w1 + w2 in the normalized gauge."""
    return z.x * p.w0 + z.y * p.w1 + p.w2


def elementary_to_power(S):
    """Power sums from elementary symmetric functions (inverse identities):

        N_k = (-1)^(k-1) k S_k + sum_{j=1..k-1} (-1)^(j-1) S_j N_{k-j}.
    """
    S = list(S)
    N = []
    for k in range(1, len(S) + 1):
        acc = (-1) ** (k - 1) * k * S[k - 1]
        for j in range(1, k):
            acc += (-1) ** (j - 1) * S[j - 1] * N[k - j - 1]
        N.append(acc)
    return np.array(N, dtype=complex)


def series_inv_loop(a, order):
    """1/a as a power series truncated after u^order, one scalar coefficient at a time."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0 / a[0]
    for n in range(1, order + 1):
        s = 0.0 + 0.0j
        for i in range(1, min(n, len(a) - 1) + 1):
            s += a[i] * out[n - i]
        out[n] = -s * out[0]
    return out


def discriminant(coeffs):
    """Resultant-based discriminant of polynomials (descending coefficients on the last axis)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = coeffs.shape[-1] - 1
    if deg < 2:
        raise ValueError("discriminant needs degree >= 2")
    dcoeffs = coeffs[..., :-1] * np.arange(deg, 0, -1)
    n, m = deg, deg - 1
    # Sylvester matrices of p (degree n) and p' (degree m), one per polynomial.
    S = np.zeros(coeffs.shape[:-1] + (n + m, n + m), dtype=complex)
    for i in range(m):
        S[..., i, i : i + n + 1] = coeffs
    for i in range(n):
        S[..., m + i, i : i + m + 1] = dcoeffs
    res = np.linalg.det(S)
    sign = (-1) ** (n * (n - 1) // 2)
    return sign * res / coeffs[..., 0]


def sylvester_skips(C):
    """The fiber skip rule on Sylvester discriminants of monic rows C (lines, p + 1)."""
    p = C.shape[-1] - 1
    if p < 2:
        return np.zeros(len(C), dtype=bool)
    scale = (1.0 + np.max(np.abs(C), axis=-1)) ** (2 * (p - 1))
    return np.abs(discriminant(C)) < reconstruct.DISC_SINGULAR_TOL * scale


def exterior_line_germ(a=0.5):
    """Taylor data of the exterior line's branch at {w0 = 0}.

    In the chart (u0, u1) = (w0/w2, w1/w2) the line w2 = w0 + a w1 reads
    u1 = (1 - u0)/a, so b = 1/a and g_1 = -1/a.
    """
    return complex(1.0 / a), [complex(-1.0 / a)]


def laurent_evaluate(lt, k, x, y):
    """Partial sum of the Laurent series of G_k at (x, y) from a LaurentTable."""
    tot = 0.0 + 0.0j
    for m in range(lt.mmax + 1):
        tot += np.polynomial.polynomial.polyval(x, lt.coeffs[k, m, : m + 1]) * y ** (-m)
    return tot


def conic_small_root(x, y):
    """Root of t^2 + y t + x that lies inside the unit disc for z in Z."""
    r = np.sqrt(y * y - 4.0 * x + 0j)
    t1 = (-y + r) / 2.0
    t2 = (-y - r) / 2.0
    return np.where(np.abs(t1) < np.abs(t2), t1, t2)


# -- reconstruct: the sweep one line at a time -------------------------------------


def sweep_per_line(b: BoundaryData, p: int, pk_family, radii=(2.0, 2.5, 3.0), angles=16,
                   xfracs=(0.0, 0.2, -0.35), merge_eps=1e-6, angle_offset=0.31):
    """reconstruct.sweep with every stage run for one line at a time."""
    cloud = PointCloud()
    r = rho(b)
    zs = []
    for rad_mult in radii:
        R = rad_mult * r
        for j in range(angles):
            y = R * np.exp(2j * np.pi * (j + angle_offset) / angles)
            m = m_of_y(b, y)
            zs.extend(LineParam(f * m, y) for f in xfracs)
    W = np.empty((p * len(zs), 3), dtype=complex)
    norms = np.empty(p * len(zs))
    for z in zs:
        g = G_k(b, z, list(range(1, p + 1)))
        N = np.array([g[i] - (pk_family[k](z.x, z.y) if k < len(pk_family) else 0.0)
                      for i, k in enumerate(range(1, p + 1))], dtype=complex)
        C = symmetric.monic_from_elementary(symmetric.power_to_elementary(N[:, None])).T
        h = symmetric.roots(C)
        i, j = np.triu_indices(p, 1)
        disc = np.prod(np.abs(h[:, i] - h[:, j]) ** 2, axis=1)[0]
        scale = np.power(1.0 + np.max(np.abs(C), axis=1), 2 * (p - 1))[0]
        if disc < reconstruct.DISC_SINGULAR_TOL * scale:
            cloud.skipped.append((z, f"discriminant {disc:.2e} below threshold"))
            continue
        for a in fiber_rows(z, h[0]):
            n = len(cloud)
            na = np.linalg.norm(a)
            dist = np.linalg.norm(np.cross(a, W[:n]), axis=1) / (na * norms[:n])
            hits = np.flatnonzero(dist < merge_eps)
            if hits.size:
                cloud.multiplicity[hits[0]] += 1
                continue
            W[n], norms[n] = a, na
            cloud.points.append(ProjPoint(*a.tolist()))
            cloud.multiplicity.append(1)
            cloud.source.append(z)
    return cloud


def fiber_rows(z: LineParam, h):
    """The sweep's rows (1 : h : -x - y h) for the roots h over one line, scaled as ProjPoint."""
    x, y = np.array([z.x, z.y], dtype=complex)
    A = np.stack([np.ones_like(h), h, -x - y * h], axis=-1)
    s = np.max(np.abs(A), axis=1, keepdims=True)
    return np.where(np.abs(s - 1.0) > 1e-9, A / s, A)


def close_pairs_all(A, merge_eps):
    """reconstruct.close_pairs by testing every pair, in tiles of i x j entries."""
    norms = np.linalg.norm(A, axis=1)
    idx = np.arange(len(A))
    hits = [np.empty((2, 0), dtype=int)]
    for rows in tiles(len(A), max(1, len(A))):
        i = idx[rows]
        for cols in tiles(i[-1] + 1, len(i)):
            j = idx[cols]
            dist = (np.linalg.norm(np.cross(A[i, None], A[None, j]), axis=-1)
                    / (norms[i, None] * norms[None, j]))
            rr, cc = np.nonzero((dist < merge_eps) & (j < i[:, None]))
            hits.append(np.stack([i[rr], j[cc]]))
    i, j = np.concatenate(hits, axis=1)
    o = np.lexsort((j, i))
    return i[o], j[o]


def merge_first_match(n, pairs):
    """reconstruct.merge_rows from the pairs (i, j), j < i: earlier[i] lists the j
    ascending, and row i joins the first of them that was kept."""
    earlier = [[] for _ in range(n)]
    for r, c in zip(*(v.tolist() for v in pairs)):
        earlier[r].append(c)
    slot, kept, mult = {}, [], []                       # kept row -> index in kept
    for i in range(n):
        hit = next((slot[j] for j in earlier[i] if j in slot), None)
        if hit is not None:
            mult[hit] += 1
            continue
        slot[i] = len(kept)
        kept.append(i)
        mult.append(1)
    return np.array(kept, dtype=int), mult


# -- reconstruct: the rational-affine test of G_1 ----------------------------------


# detect_algebraic samples G_1 at x in ALG_XS on ALG_ANGLES points of each
# circle |y| = ALG_RADII * rho, and fits denominators up to degree ALG_DEG_MAX.
ALG_RADII = (2.0, 3.0)
ALG_ANGLES = 16
ALG_XS = (0.0, 0.25, -0.25, 0.2j, -0.2j)
ALG_DEG_MAX = 6
ALG_FIT_TOL = 1e-8


def detect_algebraic(b: BoundaryData):
    """Least-squares test of G_1(x, y) = (A0(y) + x A1(y)) / B(y) on the ALG_* grid.

    Scans denominator degrees up to ALG_DEG_MAX with B monic in its top
    coefficient; returns (True, model) when some degree fits with relative
    residual below ALG_FIT_TOL, else (False, best_model).
    """
    r = rho(b)
    ys = [mult * r * np.exp(2j * np.pi * (j + 0.17) / ALG_ANGLES)
          for mult in ALG_RADII for j in range(ALG_ANGLES)]
    # x runs fastest: sample i is at (ALG_XS[i % len(ALG_XS)], ys[i // len(ALG_XS)])
    xv = np.tile(np.array(ALG_XS, dtype=complex), len(ys))
    yv = np.repeat(np.array(ys), len(ALG_XS))
    gv = indicators.G_lines(b, xv, yv, [1])[0]

    if np.max(np.abs(gv)) < 1e-13:
        return True, {"A0": np.zeros(1), "A1": np.zeros(1), "B": np.ones(1),
                      "residual": 0.0, "degree": 0}

    best = None
    for dB in range(1, ALG_DEG_MAX + 1):
        # unknowns: A0 (deg dB-1), A1 (deg dB-1), low coefficients of monic B
        # columns y^i for A0, x y^i for x A1, -G_1 y^i for -G_1 * beta_i, i < dB
        M = np.stack([f * yv ** i for f in (1.0, xv, -gv) for i in range(dB)], axis=1)
        rhs = gv * yv ** dB
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        A0, A1, Blow = sol[:dB], sol[dB : 2 * dB], sol[2 * dB :]
        B = np.concatenate([Blow, [1.0]])
        Bv = np.polynomial.polynomial.polyval(yv, B)
        model_vals = (np.polynomial.polynomial.polyval(yv, A0)
                      + xv * np.polynomial.polynomial.polyval(yv, A1)) / Bv
        rel = float(np.linalg.norm(model_vals - gv) / np.linalg.norm(gv))
        entry = {"A0": A0, "A1": A1, "B": B, "residual": rel, "degree": dB}
        if best is None or rel < best["residual"]:
            best = entry
        if rel < ALG_FIT_TOL:
            return True, entry
    return False, best


# -- green: term-by-term kernel and per-target quadrature ----------------------


def _eval4(c, zp, z):
    z1p, z2p = zp
    z1, z2 = z
    out = 0.0
    # argwhere lists the nonzero entries in C order, the order of the sum
    for i, j, k, l in np.argwhere(c).tolist():
        out = out + c[i, j, k, l] * z1p ** i * z2p ** j * z1 ** k * z2 ** l
    return out


def psi_terms(psi, zp, z):
    """(Psi1, Psi2) at (z', z), one monomial of the 4-index arrays at a time."""
    return _eval4(psi.c1, zp, z), _eval4(psi.c2, zp, z)


def kernel_k_terms(zp, z, psi):
    """green.kernel_k with Psi summed term by term."""
    d1 = np.asarray(zp[0]) - z[0]
    d2 = np.asarray(zp[1]) - z[1]
    n2 = np.abs(d1) ** 2 + np.abs(d2) ** 2
    if np.min(n2) < COINCIDENT_EPS ** 2:
        raise Coincident("kernel points coincide")
    v1 = np.conj(d1) / n2
    v2 = np.conj(d2) / n2
    p1, p2 = psi_terms(psi, zp, z)
    return v1 * p2 - v2 * p1


def polar_nodes_meshgrid(center, radius, nr, nt):
    """green._polar_nodes_gl from a meshgrid (R, T) of Gauss-Legendre radii and midpoint angles:
    nodes center + R e^(i T), weights w_r R 2 pi / nt, raveled row by row."""
    xr, wr = leggauss(nr)
    r = radius * (xr + 1.0) / 2.0
    wr = wr * radius / 2.0
    th = 2.0 * np.pi * (np.arange(nt) + 0.5) / nt
    R, T = np.meshgrid(r, th, indexing="ij")
    z = center + R * np.exp(1j * T)
    w = wr[:, None] * R * (2.0 * np.pi / nt)
    return z.ravel(), w.ravel()


def green_values_per_target(q_star, targets, model):
    """green._green_values with every grid term built per target, on green.MESH and
    green.SUB_MESH as they stand at the call."""
    qs = complex(q_star)
    pqs = (qs, model.z2_of(qs))

    def q_star_kernel(z1, z2):
        return kernel_k_terms((np.full_like(z1, pqs[0]), np.full_like(z1, pqs[1])), (z1, z2),
                              model.psi)

    z, w, z2, dens = model.grid()
    ck2 = np.conj(q_star_kernel(z, z2))     # the same for every target
    vals = []
    for qq in (complex(q) for q in targets):
        r0 = min(0.1 * model.radius, 0.4 * abs(qs - qq))
        pq = (qq, model.z2_of(qq))
        total = 0.0 + 0.0j
        # singular sub-patches with the smooth bump
        for s in (qq, qs):
            zs, ws = _polar_nodes_gl(s, r0, *green.SUB_MESH)
            zs2 = model.z2_of(zs)
            f = (kernel_k_terms((zs, zs2), pq, model.psi) * np.conj(q_star_kernel(zs, zs2))
                 * model.form_density(zs, zs2))
            total += np.sum(f * _bump(np.abs(zs - s) / r0) * ws)
        # smooth remainder over the full patch
        cut = np.ones(len(z))
        for s in (qq, qs):
            cut = cut * (1.0 - _bump(np.abs(z - s) / r0))
        f = kernel_k_terms((z, z2), pq, model.psi) * ck2 * dens
        total += np.sum(f * cut * w)
        vals.append(float(np.real(total)) / (4.0 * np.pi ** 2))
    return vals


# -- green: the principal Green function by a Fredholm boundary solve ----------


class SingularFredholm(RuntimeError):
    """Discretized I + S is numerically singular."""


@dataclass
class BoundaryGrid:
    """Uniform grid on a boundary circle |zeta - center| = radius."""

    n: int
    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    @property
    def theta(self):
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def zeta(self):
        return self.center + self.radius * np.exp(1j * self.theta)

    @property
    def dzeta(self):
        """d zeta / d theta along the circle."""
        return 1j * self.radius * np.exp(1j * self.theta)


def harmonic_extension_T(v, dbar_g, grid: BoundaryGrid):
    """Tv(q): contour integral of v against the conjugate differential of g_q.

    dbar_g holds the coefficient of d(conj zeta) of dbar g_q at the grid
    nodes; v the boundary samples.  Spectral trapezoid quadrature.

    With the Green function pinned to log coefficient 1/(2 pi), the operator
    that restores boundary values of harmonic extensions is
    Tv = int v * (*d g_q) = 2i int v dbar g_q  (the conjugate differential
    reduces to 2i dbar g on the level set g = 0); a bare (i/2) prefactor
    would reproduce v/4.
    """
    v = np.asarray(v)
    h = 2.0 * np.pi / grid.n
    return complex(2.0j * h * np.sum(v * dbar_g * np.conj(grid.dzeta))).real


def disc_principal_green(q, zeta):
    """Principal Green of the unit disc, (1/2 pi) ln |(zeta-q)/(1 - conj(q) zeta)|."""
    return np.log(np.abs((zeta - q) / (1.0 - np.conj(q) * zeta))) / (2.0 * np.pi)


def disc_principal_dbar(q, zeta):
    """Coefficient of d(conj zeta) in dbar_zeta of the principal disc Green."""
    return np.conj(1.0 / (zeta - q) + np.conj(q) / (1.0 - np.conj(q) * zeta)) / (4.0 * np.pi)


def fredholm_solve_R(v, S):
    """Solve v = w + Sw for the boundary density w (Nystrom matrix S)."""
    S = np.asarray(S)
    A = np.eye(S.shape[0]) + S
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularFredholm(f"condition number {cond:.3e}")
    return np.linalg.solve(A, np.asarray(v, dtype=complex))


def smooth_S_matrix(dbar_e, grid: BoundaryGrid):
    """Nystrom matrix of the boundary trace of the smooth part of T.

    dbar_e(q, zeta) is the d(conj zeta)-coefficient of dbar of e = g - g_P
    (smooth on the closed domain), so S = T_e|_b needs no principal value:
    with the principal part contributing the identity trace, the Sohotsky
    relation leaves S w = (i/2) contour-int w dbar(e_q), q on the boundary.
    """
    h = 2.0 * np.pi / grid.n
    zb = grid.zeta
    S = np.zeros((grid.n, grid.n), dtype=complex)
    for j in range(grid.n):
        S[j, :] = 2.0j * h * dbar_e(zb[j], zb) * np.conj(grid.dzeta)
    return S


@dataclass
class PrincipalGreen:
    """Principal Green assembled from a non-principal g by the Fredholm solve."""

    grid: BoundaryGrid
    g: callable
    dbar_g: callable
    S: np.ndarray

    def extend(self, v):
        """Harmonic extension Ev = T R v; returns a callable of interior q."""
        w = fredholm_solve_R(v, self.S)

        def ev(q):
            return harmonic_extension_T(w, self.dbar_g(q, self.grid.zeta), self.grid)

        return ev

    def value(self, q, z):
        """G_M(q, z) = g(q, z) - E(g_z|_b)(q)."""
        vb = self.g(z, self.grid.zeta)
        return float(np.real(self.g(q, z))) - self.extend(vb)(q)


def principal_green(g, dbar_g, dbar_e, grid: BoundaryGrid) -> PrincipalGreen:
    return PrincipalGreen(grid, g, dbar_g, smooth_S_matrix(dbar_e, grid))
