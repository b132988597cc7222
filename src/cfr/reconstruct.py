"""End-to-end reconstruction: per-line fibers and the curve sweep.

For each admissible line L_z the holomorphic extensions N_{Q,k} = G_k - P_k
are the power sums of the fiber ordinates h_j(z); Newton's identities turn
them into elementary symmetric functions, a monic polynomial is assembled and
rooted, and each root h contributes the projective point (1 : h : -x - y h).
Sweeping a grid of lines accumulates the reconstructed point cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import indicators, symmetric
from .geometry import BoundaryData, LineParam, OutsideDomain, ProjPoint, m_of_y, rho, tiles


DISC_SINGULAR_TOL = 1e-12     # relative discriminant below which a line counts as non-transverse
MERGE_EPS = 1e-6              # chordal distance below which two cloud points merge
ANGLE_OFFSET = 0.31           # the sweep's y angles are (j + ANGLE_OFFSET) / angles turns


def N_Qk(b: BoundaryData, xs, ys, p: int, pk_family):
    """Holomorphic extensions N_{Q,k}(z) = G_k(z) - P_k(x, y), k = 1..p, on the lines (xs, ys).

    Returns a (p, lines) array from one G_lines call (each line at its certified stride)
    and one call of each P_k on the lines, taken as complex arrays.  A false P_k (a
    Correction without germs) is exactly 0 and is skipped.
    """
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    out = indicators.G_lines(b, xs, ys, range(1, p + 1))
    for k in range(1, min(p + 1, len(pk_family))):
        if pk_family[k]:
            out[k - 1] -= pk_family[k](xs, ys)
    return out


@dataclass
class PointCloud:
    points: list = field(default_factory=list)        # ProjPoint
    multiplicity: list = field(default_factory=list)  # int
    source: list = field(default_factory=list)        # LineParam of first sighting
    skipped: list = field(default_factory=list)       # degenerate z with reason

    def __len__(self):
        return len(self.points)


def fibers(b: BoundaryData, xs, ys, p: int, pk_family):
    """Fibers over the lines (xs[j], ys[j]) as one batch: (keep, roots, skipped).

    One G_lines call gives the power sums N_{Q,1..p} of every line, and
    Newton's identities, the monic assembly and the companion-eigenvalue solve
    each run once on the whole stack.  A line is skipped when prod_{i<j}
    |h_i - h_j|^2 over its roots falls below DISC_SINGULAR_TOL * (1 +
    max|c|)^(2(p-1)) over its monic coefficients c.  keep masks the accepted
    lines, roots holds their fibers in np.sort_complex order, and skipped a
    (LineParam, reason) per skipped line.  A line near the boundary image
    raises NearIncidence before any line is rooted.
    """
    if p < 1:
        raise ValueError("fiber needs p >= 1")
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    N = N_Qk(b, xs, ys, p, pk_family)
    C = symmetric.monic_from_elementary(symmetric.power_to_elementary(N)).T
    h = symmetric.roots(C)
    i, j = np.triu_indices(p, 1)
    disc = np.prod(np.abs(h[:, i] - h[:, j]) ** 2, axis=1)
    # np.power, not **: on a numpy scalar ** can differ from the array path in the last bit
    skip = disc < DISC_SINGULAR_TOL * np.power(1.0 + np.max(np.abs(C), axis=1), 2 * (p - 1))
    skipped = [(LineParam(xs[k], ys[k]), f"discriminant {disc[k]:.2e} below threshold")
               for k in np.flatnonzero(skip)]
    return ~skip, h[~skip], skipped


def _default_grid(b: BoundaryData, radii, angles, xfracs):
    """The sweep's lines (xs[j], ys[j]), y-major: ys by radius then angle, xs = xfracs m(y)."""
    if np.any(np.abs(xfracs) >= 1):     # |x| < m(y) in Z
        raise OutsideDomain(f"|x| / m(y) = {np.max(np.abs(xfracs)):g} >= 1")
    r = rho(b)
    ys = np.array([rad_mult * r * np.exp(2j * np.pi * (j + ANGLE_OFFSET) / angles)
                   for rad_mult in radii for j in range(angles)], dtype=complex)
    xs = np.array([f * m for m in m_of_y(b, ys).tolist() for f in xfracs], dtype=complex)
    return xs, np.repeat(ys, len(xfracs))


def close_pairs(A):
    """Row pairs (i, j), j < i, of A with |a_i ^ a_j| / (|a_i| |a_j|) < MERGE_EPS, by i then j.

    Unit rows at chordal distance sin(phi) differ in the key |a_0| / |a| by at most 2 sin(phi/2)
    <= phi, so only keys within 1.01 arcsin(MERGE_EPS) + 1e-12 are paired and tested."""
    norms = np.linalg.norm(A, axis=1)   # an ulp off moves a merge only at dist ~ MERGE_EPS
    order = np.argsort(np.abs(A[:, 0]) / norms)
    key = np.abs(A[order, 0]) / norms[order]
    w = 1.01 * np.arcsin(MERGE_EPS) + 1e-12
    # sorted row s has the candidates s + 1 .. s + cnt[s], pairs ends[s] - cnt[s] .. ends[s] - 1
    cnt = np.searchsorted(key, key + w, side="right") - np.arange(1, len(A) + 1)
    ends = np.cumsum(cnt)
    hits = []                           # i * len(A) + j
    for sl in tiles(int(cnt.sum()), 1):             # chunks of at most TILE_ENTRIES pairs
        k = np.arange(sl.start, min(sl.stop, ends[-1]))
        s = np.searchsorted(ends, k, side="right")
        i, j = np.sort([order[s], order[k - ends[s] + cnt[s] + s + 1]], axis=0)[::-1]   # j < i
        dist = np.linalg.norm(np.cross(A[i], A[j]), axis=-1) / (norms[i] * norms[j])
        hits += (i * len(A) + j)[dist < MERGE_EPS].tolist()
    return np.divmod(np.sort(np.array(hits, dtype=int)), len(A))


def merge_rows(A):
    """(kept, multiplicity): in row order, a row joins the first kept row within MERGE_EPS."""
    root = list(range(len(A)))          # root[i]: the kept row that row i counts toward
    for r, c in zip(*(v.tolist() for v in close_pairs(A))):
        if root[r] == r and root[c] == c:
            root[r] = c
    kept = np.flatnonzero(np.array(root) == np.arange(len(A)))
    return kept, np.bincount(np.searchsorted(kept, root), minlength=len(kept)).tolist()


def sweep(b: BoundaryData, p: int, pk_family, radii=(2.0, 2.5, 3.0),
          angles=16, xfracs=(0.0, 0.2, -0.35)) -> PointCloud:
    """Union of fibers over a z-grid, deduplicated in the chordal metric.

    radii are multiples of rho; xfracs are fractions of m(y) (complex values
    allowed).  All lines go through one fibers batch.  Degenerate lines are
    recorded in cloud.skipped, not raised.  A point within MERGE_EPS of a kept
    point counts toward the first such point (merge_rows); only pairs whose
    keys |w0| / |w| lie within about arcsin(MERGE_EPS) are tested (close_pairs).
    """
    cloud = PointCloud()
    if p < 1:
        return cloud
    xs, ys = _default_grid(b, radii, angles, xfracs)
    keep, rts, cloud.skipped = fibers(b, xs, ys, p, pk_family)
    # row i is the point (1 : h : -x - y h) of root i % p over accepted line i // p,
    # scaled to max modulus 1 unless within 1e-9 of it
    x, y = xs[keep, None], ys[keep, None]
    A = np.stack([np.ones_like(rts), rts, -x - y * rts], axis=-1).reshape(-1, 3)
    s = np.max(np.abs(A), axis=1, keepdims=True)
    A = np.where(np.abs(s - 1.0) > 1e-9, A / s, A)
    kept, cloud.multiplicity = merge_rows(A)
    cloud.points = [ProjPoint(*a) for a in A[kept].tolist()]
    cloud.source = list(map(LineParam, x[kept // p, 0], y[kept // p, 0]))
    return cloud
