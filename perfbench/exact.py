"""Exact answers and output checks owned by the benchmark.

Nothing here calls into cfr: every reference value is computed from the
family's closed form (defining equation, fiber roots, (delta, r, p), Green
function of a disc, Chern integrals of radial densities), so the checks stay
valid whatever the program does.  A mismatch is reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A cloud point farther than this (chordal) from the exact fiber of its
# source line, or from the curve, is a wrong output.  It equals the
# program's own merge distance: closer points are indistinguishable in the
# cloud.
FIBER_TOL = 1e-6
# An exact fiber point counts as present when a cloud point lies this close;
# merged sightings sit up to the merge distance from their representative.
PRESENT_TOL = 1e-5
# A skipped line is wrong when its exact roots are at least this far apart.
GAP_CLEAR = 1e-3
FIT_TOL = 1e-6
GREEN_TOL = 1e-5
LOGCOEF_TOL = 1e-4
CHERN_TOL = 1e-5
LOG_COEFFICIENT = 1.0 / (2.0 * np.pi)


def digits(err) -> float:
    """-log10 of an error, capped at 16 digits."""
    return float(min(16.0, -np.log10(max(float(err), 1e-16))))


# -- lines and fibers -------------------------------------------------------------


def line_grid(boundary, radii, angles, xfracs, angle_offset=0.31):
    """The (x, y) lines a sweep with these settings visits, as an (L, 2) array.

    y runs over circles of radius rad * rho, x over fractions of
    m(y) = min |y z1 + z2| on the boundary samples, in the sweep's order.
    """
    z1 = [lp.w[:, 1] / lp.w[:, 0] for lp in boundary.loops]
    z2 = [lp.w[:, 2] / lp.w[:, 0] for lp in boundary.loops]
    rho = max(float(np.max(np.abs(b / a))) for a, b in
              ((lp.w[:, 1], lp.w[:, 2]) for lp in boundary.loops))
    out = []
    for rad in radii:
        for j in range(angles):
            y = rad * rho * np.exp(2j * np.pi * (j + angle_offset) / angles)
            m = min(float(np.min(np.abs(y * a + b))) for a, b in zip(z1, z2))
            out.extend((f * m, y) for f in xfracs)
    return np.array(out, dtype=complex)


def fiber_roots(fam, x, y):
    """Exact affine ordinates h of the curve's points on x*w0 + y*w1 + w2 = 0."""
    if fam.is_conic:
        s = np.sqrt(y * y - 4.0 * x + 0j)
        h = np.array([(-y + s) / 2.0, (-y - s) / 2.0])
    else:
        h = np.array([-(x + 1.0) / (y + a) for a in fam.slopes], dtype=complex)
    inside = np.abs(h) > 1.0 if fam.exterior else np.abs(h) < 1.0
    return h[inside]


def fiber_points(h, x, y):
    return np.stack([np.ones_like(h), h, -x - y * h], axis=1)


def min_gap(h) -> float:
    if len(h) < 2:
        return np.inf
    d = np.abs(h[:, None] - h[None, :])
    return float(np.min(d[np.triu_indices(len(h), 1)]))


def curve_residual(fam, W):
    """Gauge-free residual of the defining equation at each row of W."""
    W = np.asarray(W, dtype=complex)
    nrm = np.linalg.norm(W, axis=1)
    if fam.is_conic:
        return np.abs(W[:, 0] * W[:, 2] - W[:, 1] ** 2) / nrm ** 2
    res = [np.abs(W[:, 2] - W[:, 0] - a * W[:, 1]) / (nrm * np.sqrt(2.0 + abs(a) ** 2))
           for a in fam.slopes]
    return np.min(res, axis=0)


def chordal_matrix(A, B):
    """Chordal distances |a ^ b| / (|a| |b|) between the rows of A and of B."""
    a = np.asarray(A, dtype=complex)[:, None, :]
    b = np.asarray(B, dtype=complex)[None, :, :]
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c1 = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    cross = np.sqrt(np.abs(c0) ** 2 + np.abs(c1) ** 2 + np.abs(c2) ** 2)
    return cross / (np.linalg.norm(A, axis=1)[:, None] * np.linalg.norm(B, axis=1)[None, :])


def nearest_distance(A, B, chunk=64):
    """For each row of A, the chordal distance to the nearest row of B."""
    if len(B) == 0:
        return np.full(len(A), np.inf)
    return np.concatenate([np.min(chordal_matrix(A[i:i + chunk], B), axis=1)
                           for i in range(0, len(A), chunk)] or [np.zeros(0)])


def _match_lines(grid, zs):
    """Index of the grid line equal to each (x, y) in zs, -1 when none is."""
    if len(zs) == 0:
        return np.zeros(0, dtype=int)
    d = (np.abs(zs[:, None, 0] - grid[None, :, 0])
         + np.abs(zs[:, None, 1] - grid[None, :, 1]))
    idx = np.argmin(d, axis=1)
    ok = d[np.arange(len(zs)), idx] <= 1e-9 * (1.0 + np.abs(zs[:, 1]))
    return np.where(ok, idx, -1)


@dataclass
class CloudReport:
    """Line-level verdicts for one swept boundary."""

    lines: int = 0
    skipped: int = 0
    fiber_points: int = 0          # points the fibers produced before merging
    merges: int = 0
    failed_lines: int = 0          # lines with a wrong output
    wrong_skips: int = 0           # lines declined although the exact roots are apart
    missing: int = 0
    wrong_points: int = 0
    worst_err: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def wrong(self):
        """Outputs that are false, as opposed to lines the program declined."""
        return self.missing + self.wrong_points


def check_cloud(fam, grid, W, src, mult, skipped_z) -> CloudReport:
    """Judge a swept cloud line by line against the exact fibers.

    W: (n, 3) cloud points, src: (n, 2) line of first sighting, mult: (n,)
    multiplicities, skipped_z: (k, 2) lines the sweep skipped.  A line fails
    when one of its exact points is missing from the cloud, or when it sourced
    a cloud point off its exact fiber or off the curve.  A skipped line is a
    wrong skip, counted apart, when its exact roots are clearly apart.
    """
    W = np.asarray(W, dtype=complex).reshape(-1, 3)
    src = np.asarray(src, dtype=complex).reshape(-1, 2)
    skipped_z = np.asarray(skipped_z, dtype=complex).reshape(-1, 2)
    rep = CloudReport(lines=len(grid), skipped=len(skipped_z),
                      fiber_points=int(np.sum(mult)), merges=int(np.sum(mult) - len(W)))
    failed = np.zeros(len(grid), dtype=bool)
    p = fam.expected[2]

    skip_idx = _match_lines(grid, skipped_z)
    if np.any(skip_idx < 0):
        rep.problems.append("skipped a line outside the grid")
    is_skipped = np.zeros(len(grid), dtype=bool)
    is_skipped[skip_idx[skip_idx >= 0]] = True

    exact_pts, owner = [], []
    for i, (x, y) in enumerate(grid):
        h = fiber_roots(fam, x, y)
        if len(h) != p:
            raise RuntimeError(f"grid line {i} has {len(h)} exact roots, expected {p}")
        if is_skipped[i]:
            if min_gap(h) > GAP_CLEAR:
                rep.wrong_skips += 1
            continue
        exact_pts.append(fiber_points(h, x, y))
        owner.extend([i] * len(h))
    if exact_pts:
        E = np.concatenate(exact_pts)
        absent = nearest_distance(E, W) > PRESENT_TOL
        lost = np.unique(np.asarray(owner)[absent])
        failed[lost] = True
        rep.missing = len(lost)

    if len(W):
        src_idx = _match_lines(grid, src)
        err = curve_residual(fam, W)
        for j, (x, y) in enumerate(src):
            h = fiber_roots(fam, x, y)
            e = nearest_distance(W[j:j + 1], fiber_points(h, x, y))[0]
            # Roots a gap g apart move by (power-sum error)/g: near a double
            # root the error is the fiber's conditioning, not a wrong answer.
            err[j] = max(err[j], e) * min(1.0, min_gap(h) / GAP_CLEAR)
        bad = (err > FIBER_TOL) | (src_idx < 0)
        rep.wrong_points = int(np.sum(bad))
        failed[src_idx[bad & (src_idx >= 0)]] = True
        rep.worst_err = float(np.max(err))
    rep.failed_lines = int(np.sum(failed))
    return rep


# -- fit --------------------------------------------------------------------------


def exact_AB(fam):
    """(A, B) of the rational part at infinity: B(Y) = prod (1 + Y b_q)."""
    if fam.exterior:
        b = 1.0 / fam.slopes[0]
        return np.array([b]), np.array([1.0, b])
    return np.zeros(0), np.ones(1)


def check_fit(fam, delta, r, residual, A, B):
    """Mismatch messages for a fitted (delta, r, A, B) and its residual."""
    d0, r0, _ = fam.expected
    out = []
    if (delta, r) != (d0, r0):
        out.append(f"(delta, r) = ({delta}, {r}), expected ({d0}, {r0})")
        return out
    if not residual <= FIT_TOL:
        out.append(f"fit residual {residual:.2e}")
    A0, B0 = exact_AB(fam)
    if len(A) != len(A0) or len(B) != len(B0):
        out.append("wrong (A, B) sizes")
    elif np.max(np.abs(np.concatenate([A - A0, B - B0]))) > FIT_TOL:
        out.append("(A, B) differ from the exact germ data")
    return out


def exact_P1(fam, x, y):
    """P_1(x, y): (1 + x)/(y + a) for the exterior line, zero without germs."""
    if fam.exterior:
        return (1.0 + x) / (y + fam.slopes[0])
    return 0.0 * x


# -- Green values -----------------------------------------------------------------


def _taylor(fun, radius, n=128, keep=64):
    th = 2.0 * np.pi * np.arange(n) / n
    c = np.fft.fft(fun(radius * np.exp(1j * th))) / n
    return c[:keep] / radius ** np.arange(keep)


def _divided(c, a):
    """Taylor coefficients of (F(z) - F(a)) / (z - a) from those of F."""
    out = np.zeros(len(c) - 1, dtype=complex)
    acc = 0.0
    for k in range(len(c) - 2, -1, -1):
        acc = c[k + 1] + a * acc
        out[k] = acc
    return out


def patch_green(q_star, q, radius, e=0.0, c=0.0):
    """Green value of the patch {z2 + e z2^2 = c z1^2, |z1| < radius}.

    On a graph patch the kernel reduces to k(z', z) = Psi2(z', z) / (z1' - z1)
    and the area density to 1/|dPhi/dz2|^2, so the value is
    Re(G) / (4 pi^2) with G = int [A/(z - q)] conj[B/(q* - z)] dA and A, B
    holomorphic.  Splitting A and B at the poles leaves four disc integrals
    with closed forms in the Taylor coefficients of A and B; for e = 0 it is
    (1/2pi) ln|q - q*| - (1/4pi) ln|1 - conj(q*) q / radius^2|.
    """
    qs, qq, R = complex(q_star), complex(q), float(radius)
    a, b = qq / R, qs / R
    cross = np.pi * (np.log(1.0 - np.conj(b) * a) - np.log(abs(a - b) ** 2))
    if e == 0.0:
        return float(np.real(-cross)) / (4.0 * np.pi ** 2)

    def f(z):
        return (-1.0 + np.sqrt(1.0 + 4.0 * e * c * z * z + 0j)) / (2.0 * e)

    fq, fqs = f(qq), f(qs)
    r_taylor = np.sqrt(R / (2.0 * np.sqrt(abs(e * c))))   # between R and the branch point
    cA = _taylor(lambda z: (1.0 + e * (f(z) + fq)) / (1.0 + 2.0 * e * f(z)), r_taylor)
    cB = _taylor(lambda z: (1.0 + e * (fqs + f(z))) / (1.0 + 2.0 * e * f(z)), r_taylor)
    Aq = np.polynomial.polynomial.polyval(qq, cA)
    Bqs = np.polynomial.polynomial.polyval(qs, cB)
    al, be = _divided(cA, qq), _divided(cB, qs)
    m = np.arange(len(al))
    # int_{|z|<R} conj(z)^m / (z - s) dA = -pi R^(m+1) conj(s/R)^(m+1) / (m+1)
    def J(s):
        return -np.pi * R ** (m + 1) * np.conj(s / R) ** (m + 1) / (m + 1)
    G = (-Aq * np.conj(Bqs) * cross
         - Aq * np.sum(np.conj(be) * J(qq))
         - np.conj(Bqs) * np.conj(np.sum(np.conj(al) * J(qs)))
         - np.sum(al * np.conj(be) * np.pi * R ** (2 * m + 2) / (m + 1)))
    return float(np.real(G)) / (4.0 * np.pi ** 2)


# -- Chern integrals --------------------------------------------------------------


def chern_exact(circles, fubini_study, k):
    """Boundary integral of d ln h*^2 for omega = z^k dz and a radial density.

    circles: (radius, orientation sign) pairs.  On |z| = R the (1,0)-part
    integrates to R F_r / 2 with F = 2k ln r - ln lambda, which is k for the
    flat density and k + 2R^2/(1 + R^2) for Fubini-Study.
    """
    extra = (lambda R: 2.0 * R * R / (1.0 + R * R)) if fubini_study else (lambda R: 0.0)
    return float(sum(s * (k + extra(R)) for R, s in circles))


def winding_exact(circles, k1, k2) -> int:
    """Zeros of z^k1 / z^k2 enclosed, counted with boundary orientation."""
    return int(sum(s * (k1 - k2) for _, s in circles))
