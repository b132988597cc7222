"""Assembly and least-squares solution of the differential system (E0).

The unknown rational part of the indicator is R = A/B + X B'/B with
deg A < r = deg B and B(0) = 1; the shock data is carried by d = r + delta
unknown functions mu_j, represented as x-Taylor vectors of degree Dmu.  The
master equation behind (E0) is

    sum_{j} E^(j-1)(mu_j ⊗ 1) = [A + X B' - B G_1] e^(-H),

whose y-Laurent coefficients give one x-Taylor equation per order n.  Both
sides are linear in (mu, A, B) jointly, so one orthogonal least-squares
solve recovers everything; beta_0 = 1 is the normalization.

Rows are only assembled for Laurent orders on which every participating
series is exactly valid, so series truncation never perturbs the system; it
merely bounds the number of equations.  The row assembler ``_assemble`` takes
any table of coefficient series; the fit uses it for (E0) only.  Stacking
the derivative systems (E1)/(E2) under (E0) leaves its rank unchanged on the
fixtures ((E2) is undefined on lines, where d^2 G_1/dx^2 vanishes), so they
and the (E0) residual with (A, B) pinned live in the tests as references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import indicators, infinity, shock
from .geometry import rho
from .shock import BiSeries, HData

WINDOW_EXTRA = 4        # orders n above d kept in the (E0) window


class RankDeficient(Warning):
    """Joint system had a nullspace; the smallest-norm solution was returned."""


def _shifted_coeffs(series: BiSeries, shift: int, window, nx_rows: int):
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
        v = sh.x_poly(m)
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
    a_parts = [wmd * _shifted_coeffs(em, i + d, window, nx_rows) for i in range(r)]
    const, b_parts = _k_parts(h, xem, g1 * em, r, window, nx_rows)
    return const, a_parts, b_parts


def _k_parts(h: HData, lin: BiSeries, f: BiSeries, r: int, window, nx_rows: int):
    """Right-side parts of [B' lin - B f] e^(-H~) w^(-delta) y^delta, linear in B.

    B = 1 + sum beta_i Y^i, so beta_0 = 1 gives const = -f and each beta_i
    the part i Y^(i-1) lin - Y^i f.  Returns (const, [beta_1 .. beta_r parts]).
    """
    d = h.delta
    wmd = h.omega ** (-d)
    const = -wmd * _shifted_coeffs(f, d, window, nx_rows)
    b_parts = []
    for i in range(1, r + 1):
        t = wmd * (
            i * _shifted_coeffs(lin, i - 1 + d, window, nx_rows)
            - _shifted_coeffs(f, i + d, window, nx_rows)
        )
        b_parts.append(t)
    return const, b_parts


def valid_window(h: HData, g1: BiSeries, r: int, d: int):
    """Laurent orders n on which every (E0) ingredient is exactly valid."""
    depth = min(h.Htilde.mhi, g1.mhi) - (r + max(d, 1)) - 2
    n_lo = -max(depth, 2)
    return np.arange(n_lo, d + WINDOW_EXTRA + 1)


@dataclass
class Layout:
    d: int
    r: int
    dmu: int

    @property
    def n_mu(self):
        return self.d * (self.dmu + 1)

    @property
    def n_unknowns(self):
        return self.n_mu + 2 * self.r

    def split(self, u):
        mu = [u[j * (self.dmu + 1) : (j + 1) * (self.dmu + 1)] for j in range(self.d)]
        a = u[self.n_mu : self.n_mu + self.r]
        beta = u[self.n_mu + self.r : self.n_mu + 2 * self.r]
        return mu, a, beta


def _mu_columns(cvec, m, dmu, nx_rows):
    """Rows x columns block of the term c(x) * mu^{(m)} for one (j, m, n)."""
    block = np.zeros((nx_rows + 1, dmu + 1), dtype=complex)
    for i in range(m, min(dmu, nx_rows + m) + 1):
        lo = i - m
        t = min(nx_rows + 1 - lo, len(cvec))
        block[lo : lo + t, i] = factorial(i) / factorial(i - m) * cvec[:t]
    return block


def _assemble(layout: Layout, window, nx_rows: int, terms, const, a_parts, b_parts):
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
                M[r0:r1, col0 : col0 + dmu + 1] += _mu_columns(cvec, m, dmu, nx_rows)
        for ii, p in enumerate(a_parts):
            M[r0:r1, layout.n_mu + ii] -= p[i]
        for ii, p in enumerate(b_parts):
            M[r0:r1, layout.n_mu + layout.r + ii] -= p[i]
    mask = np.repeat(keep, nx_rows + 1)
    return M[mask], rhs[mask]


def assemble_E0(h: HData, g1: BiSeries, etab, layout: Layout, window=None, nx_rows=None):
    """Matrix and affine right side of (E0) over the unknowns (mu, A, B)."""
    nx_rows = h.Htilde.nx if nx_rows is None else nx_rows
    if window is None:
        window = valid_window(h, g1, layout.r, layout.d)
    const, a_parts, b_parts = k0_components(h, g1, layout.r, window, nx_rows)
    terms = {(j, m): etab[(j - 1, m)] for j in range(1, layout.d + 1) for m in range(j)}
    return _assemble(layout, window, nx_rows, terms, const, a_parts, b_parts)


def solve_joint(M, rhs, layout: Layout):
    """Least-squares solve, reporting rank and conditioning.

    A rank-deficient system is reported through a RankDeficient warning and
    the flag on the result; the smallest-norm solution is returned.
    """
    sol, _, rank, sv = np.linalg.lstsq(M, rhs, rcond=None)
    res = float(np.linalg.norm(M @ sol - rhs)) / (1.0 + float(np.linalg.norm(rhs)))
    cond = float(sv[0] / sv[-1]) if len(sv) and sv[-1] > 0 else np.inf
    deficient = rank < M.shape[1]
    if deficient:
        warnings.warn(f"nullspace of dimension {M.shape[1] - rank}", RankDeficient)
    mu, a, beta = layout.split(sol)
    return FitResult(
        mu=[np.asarray(m) for m in mu],
        A=np.asarray(a),
        B=np.concatenate(([1.0 + 0.0j], np.asarray(beta))),
        residual=res,
        rank=int(rank),
        cond=cond,
        rank_deficient=bool(deficient),
    )


@dataclass
class FitResult:
    mu: list
    A: np.ndarray
    B: np.ndarray
    residual: float
    rank: int
    cond: float
    rank_deficient: bool
    r: int = -1
    confined: bool = False


# -- the outer (A, B) discovery loop -------------------------------------------


def fit_infinity(b, dmu: int = 10, r_max: int = 6, accept_tol: float = 1e-6,
                 mmax: int = 12, table=None):
    """Recover (r, A, B, mu) from boundary data alone.

    Scans r upward (starting at the smallest r with d = r + delta >= 0) and
    accepts the first candidate whose joint (E0) residual is below accept_tol
    and whose B has all roots confined in the rho-disc.  The minimal-degree
    acceptance mirrors the minimality available from the uniqueness theory.
    An r whose E-table hits shock.ResidueObstruction is skipped.  When no
    candidate is accepted the one with the smallest residual is returned; when
    every r hit the obstruction it is raised, and when there is no r, ValueError.

    table is a Laurent table of b with kmax = 2 that the caller already has
    (its mmax then stands for mmax); without one, a table is built here with
    no circle cross-check.
    """
    lt = table
    if lt is None:
        lt = indicators.laurent_extract(b, kmax=2, mmax=mmax, cross_check=False)
    rh = rho(b)
    omega = -2.0 * rh
    h = shock.H_from_laurent(lt, lt.delta, omega)
    nx = h.Htilde.nx
    g1 = shock.g1_biseries(lt, nx)

    best = obstruction = None
    r_lo = max(0, -lt.delta)
    for r in range(r_lo, r_max + 1):
        d = r + lt.delta
        if d < 0:
            continue
        try:
            etab = shock.E_decomposition(max(d - 1, 0), h)
        except shock.ResidueObstruction as e:
            obstruction = e     # this r would need the log term J; try the next
            continue
        layout = Layout(d=d, r=r, dmu=dmu)
        M, rhs = assemble_E0(h, g1, etab, layout)
        fit = solve_joint(M, rhs, layout)
        fit.r = r
        fit.confined = infinity.check_confinement(fit.B, rh)
        if fit.residual < accept_tol and fit.confined:
            return fit, h, g1
        if best is None or fit.residual < best.residual:
            best = fit
    if best is None:
        raise obstruction or ValueError(f"no candidate r in {r_lo}..{r_max}")
    return best, h, g1
