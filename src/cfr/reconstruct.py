"""End-to-end reconstruction: per-line fibers, curve sweep, algebraicity test.

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
from .geometry import BoundaryData, LineParam, ProjPoint, m_of_y, rho, tiles


class DegenerateFiber(ValueError):
    """Discriminant vanished: the line is treated as non-transverse and skipped."""


MERGE_EPS = 1e-6

# detect_algebraic samples G_1 at x in ALG_XS on ALG_ANGLES points of each
# circle |y| = ALG_RADII * rho, and fits denominators up to degree ALG_DEG_MAX.
ALG_RADII = (2.0, 3.0)
ALG_ANGLES = 16
ALG_XS = (0.0, 0.25, -0.25, 0.2j, -0.2j)
ALG_DEG_MAX = 6
ALG_FIT_TOL = 1e-8


def N_Qk(b: BoundaryData, z, k, pk_family):
    """Holomorphic extension N_{Q,k}(z) = G_k(z) - P_k(x, y).

    z is one LineParam, or a list of them, which gives an array of shape
    (len(k), len(z)) from one G_lines call.  A P_k whose numerators are all
    zero (every P_k without germs) is skipped: its value is exactly 0.
    """
    one = isinstance(z, LineParam)
    lines = [z] if one else list(z)
    ks = np.atleast_1d(k)
    out = indicators.G_lines(b, [l.x for l in lines], [l.y for l in lines], ks)
    for i, kk in enumerate(ks):
        if kk < len(pk_family) and any(np.any(c.num) for c in pk_family[kk].coeffs):
            out[i] -= np.array([pk_family[kk](l.x, l.y) for l in lines], dtype=complex)
    if not one:
        return out
    return out[:, 0] if len(ks) > 1 else complex(out[0, 0])


@dataclass
class FiberResult:
    z: LineParam
    roots: np.ndarray
    points: list
    discriminant: complex


@dataclass
class PointCloud:
    points: list = field(default_factory=list)        # ProjPoint
    multiplicity: list = field(default_factory=list)  # int
    source: list = field(default_factory=list)        # LineParam of first sighting
    skipped: list = field(default_factory=list)       # degenerate z with reason

    def __len__(self):
        return len(self.points)


def fibers(b: BoundaryData, zs, p: int, pk_family):
    """Fibers over the lines zs as one batch: (results, skipped).

    One G_lines call gives the power sums N_{Q,1..p} of every line; Newton's
    identities and the discriminant test run per line, and one batched
    companion-eigenvalue solve roots the lines that pass, each fiber's roots
    in np.sort_complex order.  results holds a FiberResult per
    accepted line and skipped a (z, reason) per line whose |discriminant|
    falls below 1e-12 * scale, both in the order of zs.  A line near the
    boundary image raises NearIncidence before any line is rooted.
    """
    if p < 1:
        raise ValueError("fiber needs p >= 1")
    N = N_Qk(b, zs, list(range(1, p + 1)), pk_family)
    kept, coeffs, discs, skipped = [], [], [], []
    for z, col in zip(zs, N.T):
        c = symmetric.monic_from_elementary(symmetric.power_to_elementary(col))
        if p >= 2:
            disc = symmetric.discriminant(c)
            if abs(disc) < symmetric.DISC_SINGULAR_TOL * symmetric.fiber_scale(c):
                skipped.append((z, f"discriminant {abs(disc):.2e} below threshold"))
                continue
        else:
            disc = 1.0 + 0.0j
        kept.append(z)
        coeffs.append(c)
        discs.append(complex(disc))
    rts = symmetric.roots(np.reshape(coeffs, (len(kept), p + 1)))
    results = [FiberResult(z=z, roots=r, discriminant=d,
                           points=[ProjPoint(1.0, complex(h), complex(-z.x - z.y * h))
                                   for h in r])
               for z, r, d in zip(kept, rts, discs)]
    return results, skipped


def fiber(b: BoundaryData, z: LineParam, p: int, pk_family) -> FiberResult:
    """Roots of the fiber polynomial over L_z and the projective points.

    The one-line case of fibers: p is the sheet count, and a line whose
    discriminant test fails raises DegenerateFiber.
    """
    results, skipped = fibers(b, [z], p, pk_family)
    if skipped:
        raise DegenerateFiber(skipped[0][1])
    return results[0]


def _default_grid(b: BoundaryData, radii, angles, xfracs, angle_offset):
    r = rho(b)
    ys = [rad_mult * r * np.exp(2j * np.pi * (j + angle_offset) / angles)
          for rad_mult in radii for j in range(angles)]
    ms = m_of_y(b, ys)
    return [LineParam(f * m, y) for y, m in zip(ys, ms.tolist()) for f in xfracs]


def sweep(b: BoundaryData, p: int, pk_family, radii=(2.0, 2.5, 3.0),
          angles=16, xfracs=(0.0, 0.2, -0.35), merge_eps=MERGE_EPS,
          angle_offset=0.31) -> PointCloud:
    """Union of fibers over a z-grid, deduplicated in the chordal metric.

    radii are multiples of rho; xfracs are fractions of m(y) (complex values
    allowed).  All lines go through one fibers batch.  Degenerate lines are
    recorded in cloud.skipped, not raised.  A point within merge_eps of an
    accepted point adds to the multiplicity of the first such point in order
    of acceptance.
    """
    cloud = PointCloud()
    if p < 1:
        return cloud
    zs = _default_grid(b, radii, angles, xfracs, angle_offset)
    results, cloud.skipped = fibers(b, zs, p, pk_family)
    pts = [(pt, res.z) for res in results for pt in res.points]
    A = np.array([[pt.w0, pt.w1, pt.w2] for pt, _ in pts], dtype=complex).reshape(-1, 3)
    norms = np.linalg.norm(A, axis=1)   # an ulp off moves a merge only at dist ~ merge_eps
    # earlier[i]: the j < i with chordal distance |a_i ^ a_j| / (|a_i| |a_j|)
    # below merge_eps, ascending; pairs run in tiles of i x j entries
    earlier = [[] for _ in pts]
    idx = np.arange(len(A))
    for rows in tiles(len(A), max(1, len(A))):
        i = idx[rows]
        for cols in tiles(i[-1] + 1, len(i)):
            j = idx[cols]
            dist = (np.linalg.norm(np.cross(A[i, None], A[None, j]), axis=-1)
                    / (norms[i, None] * norms[None, j]))
            rr, cc = np.nonzero((dist < merge_eps) & (j < i[:, None]))
            for r, c in zip(i[rr].tolist(), j[cc].tolist()):
                earlier[r].append(c)
    slot = {}                                          # accepted point -> cloud index
    for i, (pt, z) in enumerate(pts):
        hit = next((slot[j] for j in earlier[i] if j in slot), None)
        if hit is not None:
            cloud.multiplicity[hit] += 1
            continue
        slot[i] = len(cloud)
        cloud.points.append(pt)
        cloud.multiplicity.append(1)
        cloud.source.append(z)
    return cloud


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
        cols = []
        for i in range(dB):
            cols.append(yv ** i)                    # A0
        for i in range(dB):
            cols.append(xv * yv ** i)               # x A1
        for i in range(dB):
            cols.append(-gv * yv ** i)              # -G_1 * beta_i
        M = np.stack(cols, axis=1)
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
