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
merely bounds the number of equations.  One reader takes the y^n
coefficients of a series on the window as an array, NaN where the series is
not exact, and ``assemble_E0`` reads each series of (E0) once with it.
Stacking the derivative systems (E1)/(E2) under (E0) leaves its rank
unchanged on the fixtures ((E2) is undefined on lines, where d^2 G_1/dx^2
vanishes), so they and the (E0) residual with (A, B) pinned live in the
tests as references.
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


class Underdetermined(ValueError):
    """(E0) leaves the columns of A and beta below rank 2r: they are not determined."""


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


def _read(s: BiSeries, orders):
    """y^n coefficients of s for the contiguous orders n, x^0..x^nx, one row per order.

    Rows above the top of s are zero; rows past its valid range are NaN,
    or zero when s is exact.
    """
    out = s._window(-orders[-1], -orders[0])[:, ::-1].T
    if not s.exact:
        out[-orders > s.mhi] = np.nan
    return out


def assemble_E0(h: HData, g1: BiSeries, etab, layout: Layout):
    """Matrix and affine right side of (E0) over the unknowns (mu, A, B).

    Per order n of the window there are nx + 1 rows, one per x-power.  The
    term E_{j-1,m} mu_j^(m) puts t!/(t-m)! times the read of E_{j-1,m},
    shifted down t - m rows, into the column of mu_j's x^t coefficient.  The
    right side [A + X B' - B G_1] e^(-H) with e^(-H) = w^(-delta) y^delta
    e^(-H~) is linear in a_i, beta_i: multiplication by Y^i is a y-shift, so
    e^(-H~), X e^(-H~) and G_1 e^(-H~) are read once on the orders the
    shifts reach, and beta_0 = 1 gives the constant part.  An order is
    dropped where any read is NaN, including a term no mu column reaches.
    """
    d, r, dmu, delta = layout.d, layout.r, layout.dmu, h.delta
    nx = h.Htilde.nx
    window = valid_window(h, g1, r, d)
    nw = len(window)
    em = h.Htilde.scale(-1.0).exp()          # e^(-H~)
    orders = np.arange(window[0] - delta - r, window[-1] - delta + 1)
    E, GE = _read(em, orders), _read(g1 * em, orders)
    XE = np.zeros_like(E)
    XE[:, 1:] = E[:, :-1]                    # X e^(-H~): one x-degree up

    def y(R, k):
        """y^k times the series read as R, on the window."""
        return R[delta + r - k : delta + r - k + nw]

    wmd = h.omega ** (-delta)
    M = np.zeros((nw, nx + 1, layout.n_unknowns), dtype=complex)
    rhs = -wmd * y(GE, delta)
    for i in range(r):
        M[:, :, layout.n_mu + i] -= wmd * y(E, i + delta)
    for i in range(1, r + 1):
        M[:, :, layout.n_mu + r + i - 1] -= wmd * (i * y(XE, i - 1 + delta) - y(GE, i + delta))
    drop = np.isnan(rhs).any(axis=1) | np.isnan(M).any(axis=(1, 2))
    for j in range(1, d + 1):
        for m in range(j):
            R = _read(etab[j - 1][m], window)
            drop |= np.isnan(R).any(axis=1)
            for t in range(m, min(dmu, nx + m) + 1):
                M[:, t - m :, (j - 1) * (dmu + 1) + t] += (
                    factorial(t) / factorial(t - m) * R[:, : nx + 1 - (t - m)])
    keep = np.repeat(~drop, nx + 1)
    return M.reshape(nw * (nx + 1), layout.n_unknowns)[keep], rhs.reshape(-1)[keep]


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
        r=layout.r,
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
    r: int
    confined: bool = False
    accepted: bool = False


# -- the outer (A, B) discovery loop -------------------------------------------


def fit_infinity(b, dmu: int = 10, r_max: int = 6, accept_tol: float = 1e-6, mmax: int = 12):
    """Recover (r, A, B, mu) from boundary data alone.

    Scans r upward (starting at the smallest r with d = r + delta >= 0) and
    accepts the first candidate whose joint (E0) residual is below accept_tol
    and whose B has all roots confined in the rho-disc (fit.accepted).  The
    minimal-degree acceptance mirrors the minimality available from the
    uniqueness theory.  Each E-table row is built once, when d first needs it.
    An r whose (E0) leaves A and beta below rank 2r (Underdetermined) is
    skipped; the scan ends at the first r whose new row hits
    shock.ResidueObstruction, which every larger r needs, or where d - 1 would
    pass the E-table cap shock.E_KMAX.  When no candidate is accepted the one
    with the smallest residual is returned; when every r is skipped the last
    reason is raised, and when there is no r, ValueError.

    The fit builds the one Laurent table it reads, kmax = 2 at mmax, and it
    passed laurent_extract's exactness residual, or TruncationMismatch was raised.
    """
    lt = indicators.laurent_extract(b, kmax=2, mmax=mmax)
    rh = rho(b)
    omega = -2.0 * rh
    h = shock.H_from_laurent(lt, omega)
    nx = h.Htilde.nx
    g1 = shock.g1_biseries(lt, nx)

    best = skipped = None
    rows, etab = shock.E_decomposition(h), []
    r_lo, r_hi = max(0, -lt.delta), min(r_max, shock.E_KMAX + 1 - lt.delta)
    for r in range(r_lo, r_hi + 1):
        d = r + lt.delta
        try:
            etab += [next(rows) for _ in range(len(etab), d)]       # rows 0..d-1
        except shock.ResidueObstruction as e:
            skipped = e         # this and every larger r would need the log term J
            break
        layout = Layout(d=d, r=r, dmu=dmu)
        M, rhs = assemble_E0(h, g1, etab, layout)
        if r and (rank := np.linalg.matrix_rank(M[:, layout.n_mu:])) < 2 * r:
            skipped = Underdetermined(f"(E0) at mmax = {lt.mmax} gives A and B of r = {r} "
                                      f"rank {rank} of {2 * r}")    # try the next r
            continue
        fit = solve_joint(M, rhs, layout)
        fit.confined = infinity.check_confinement(fit.B, rh)
        fit.accepted = fit.residual < accept_tol and fit.confined
        if fit.accepted:
            return fit, h, g1
        if best is None or fit.residual < best.residual:
            best = fit
    if best is None:
        raise skipped or ValueError(f"no candidate r in {r_lo}..{r_hi}")
    return best, h, g1
