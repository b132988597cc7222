"""Green-function kernel and quadrature for plane-curve models.

The curve is a graph patch {Phi(z1, z2) = 0} over a disc in the z1 chart.
The Cauchy-Fantappie style kernel is

    k(z', z) = det[ (conj(z') - conj(z)) / |z' - z|^2 ,  Psi(z', z) ],

with Psi the symmetrized divided difference of Phi, and the Green value of
the patch is the quadrature

    g(q*, q) = Re (1/4 pi^2) int k(q', q) conj(k(q*, q')) (i/2) w ^ conj(w),

with w the holomorphic 1-form -dz1 / (dPhi/dz2).  The conjugate pairing is
the reading of the kernel product under which the result is symmetric, has
logarithmic coefficient 1/(2 pi), and is harmonic off the diagonal; the
area normalization (i/2) w ^ conj(w) is what pins the coefficient at exactly
1/(2 pi) (calibrated on the flat model).

Quadrature: a smooth partition of unity isolates each singular point inside
a polar sub-patch (radius-weighted nodes kill the 1/|z - s| singularity);
the remainder is C-infinity on the patch and integrates with Gauss-Legendre
radial x trapezoid angular nodes.  Since k(q*, z) = -k(z, q*), the q* factor
-conj(k(z, q*)) times the form density and node weight is one weight per
call on the full grid and on each sub-patch; a target then costs one kernel
pass k(z, q) against it.  The cut 1 - bump(|z - s| / r0) is exactly 1 at
distance r0 or more from s, so it is evaluated only on the nodes inside the
two discs.  The q*-side sub-patch is built once per sub-patch radius within
a call, and sub-patch z2 comes from Newton started at the known z2(s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss


class Coincident(ValueError):
    """Kernel evaluated on the diagonal."""


class MeshTooCoarse(RuntimeError):
    """dPhi/dz2 vanished (or is NaN) on a quadrature node."""


COINCIDENT_EPS = 1e-12
DPHI_EPS = 1e-9         # |dPhi/dz2| below this (or NaN) on a node: MeshTooCoarse


# -- divided differences --------------------------------------------------------


@dataclass
class Psi:
    """Symmetric pair with Phi(z') - Phi(z) = Psi1 (z1'-z1) + Psi2 (z2'-z2).

    Components are polynomials in (z1', z2', z1, z2), stored as 4-index
    coefficient arrays c[i, j, k, l] of z1'^i z2'^j z1^k z2^l.
    """

    c1: np.ndarray
    c2: np.ndarray

    def __call__(self, zp, z):
        return _eval_pair(self.c1, zp, z), _eval_pair(self.c2, zp, z)


def _eval_pair(c, zp, z):
    """sum c[i, j, k, l] z1'^i z2'^j z1^k z2^l.

    Contracting against z's monomials first leaves the (i, j) table of a
    polynomial in z'; for a point z the table is a few scalars, so nodes z'
    cost a few multiply-adds each.
    """
    if not c.size:
        return 0.0
    lift = (slice(None),) * 4 + (None,) * max(np.ndim(z[0]), np.ndim(z[1]))
    table = _horner2(np.transpose(c, (2, 3, 0, 1))[lift], *z)
    return _horner2(table, *zp)


def _horner2(c, x, y):
    """sum_kl c[k, l] x^k y^l by Horner's rule in y, then in x."""
    return _horner([_horner(row, y) for row in c], x)


def _horner(c, x):
    """sum_k c[k] x^k by Horner's rule."""
    out = c[-1]
    for a in c[-2::-1]:
        out = out * x + a
    return out


def psi_of(phi: np.ndarray) -> Psi:
    """Divided-difference construction, symmetrized in (z', z).

    phi[a, b] is the coefficient of z1^a z2^b.  The raw differences are
    Psi1 = (Phi(z1', z2) - Phi(z1, z2)) / (z1' - z1) and
    Psi2 = (Phi(z1', z2') - Phi(z1', z2)) / (z2' - z2); averaging with the
    swapped pair keeps the defining identity exact and makes Psi symmetric.
    """
    phi = np.asarray(phi, dtype=complex)
    na, nb = phi.shape
    c1 = np.zeros((na, 1, na, nb), dtype=complex)
    c2 = np.zeros((na, nb, 1, nb), dtype=complex)
    for a in range(na):
        for b in range(nb):
            v = phi[a, b]
            if v == 0:
                continue
            # (z1'^a - z1^a)/(z1'-z1) = sum_i z1'^i z1^(a-1-i); carries z2^b
            for i in range(a):
                c1[i, 0, a - 1 - i, b] += v
            # (z2'^b - z2^b)/(z2'-z2) = sum_j z2'^j z2^(b-1-j); carries z1'^a
            for j in range(b):
                c2[a, j, 0, b - 1 - j] += v
    return Psi(_trim(_symmetrize4(c1)), _trim(_symmetrize4(c2)))


def _symmetrize4(c):
    na, nb, nc, nd = c.shape
    n1, n2 = max(na, nc), max(nb, nd)
    full = np.zeros((n1, n2, n1, n2), dtype=complex)
    full[:na, :nb, :nc, :nd] += 0.5 * c
    sw = np.transpose(c, (2, 3, 0, 1))
    full[:nc, :nd, :na, :nb] += 0.5 * sw
    return full


def _trim(c):
    """c cut to the smallest box that holds its nonzero entries."""
    nz = np.argwhere(c)
    return c[tuple(slice(m + 1) for m in nz.max(axis=0))] if len(nz) else c[:0, :0, :0, :0]


def kernel_k(zp, z, psi: Psi):
    """k(z', z): determinant of the normalized conjugate difference against Psi."""
    d1 = np.asarray(zp[0]) - z[0]
    d2 = np.asarray(zp[1]) - z[1]
    n2 = np.abs(d1) ** 2 + np.abs(d2) ** 2
    if np.min(n2) < COINCIDENT_EPS ** 2:
        raise Coincident("kernel points coincide")
    p1, p2 = psi(zp, z)
    return (np.conj(d1) * p2 - np.conj(d2) * p1) / n2


# -- curve model ----------------------------------------------------------------


@dataclass
class CurveModel:
    """Graph patch of {Phi = 0} over the disc |z1 - center| < radius.

    The model keeps the full-patch quadrature grid of every mesh it has been
    integrated on, so its fields must not change after the first Green value.
    """

    phi: np.ndarray
    center: complex = 0.0 + 0.0j
    radius: float = 1.0
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        self.psi = psi_of(self.phi)
        self._phi_z2 = P.polyder(self.phi, axis=1)

    def z2_of(self, z1):
        """Track the branch through (center, 0) by Newton continuation."""
        z1 = np.asarray(z1, dtype=complex)
        scalar = z1.ndim == 0
        flat = np.atleast_1d(z1).ravel()
        out = self._graph_z2(flat)
        if out is None:
            out = np.zeros(flat.shape, dtype=complex)
            # continuation along straight segments keeps Newton in the branch basin
            for s in np.linspace(0.15, 1.0, 7):
                out = self._newton(self.center + s * (flat - self.center), out)
        return complex(out[0]) if scalar else out.reshape(z1.shape)

    def _z2_near(self, z1, z2_s):
        """z2 on sub-patch nodes z1 around a point s of the branch, z2(s) = z2_s.

        Newton starts at z2_s: the nodes lie within r0 <= radius / 10 of s
        (default sub-patch radius), a shorter jump than the first 0.15 |z1 -
        center| segment of the continuation in z2_of.
        """
        out = self._graph_z2(z1)
        return self._newton(z1, np.full(z1.shape, z2_s, dtype=complex)) if out is None else out

    def _graph_z2(self, z1):
        """z2 of Phi = c * z2 + p(z1) in closed form; None when Phi is not of that form."""
        if self.phi.shape[1] != 2 or np.any(self.phi[1:, 1]):
            return None
        if not abs(self.phi[0, 1]) >= DPHI_EPS:
            raise MeshTooCoarse("dPhi/dz2 vanished on the patch")
        return -P.polyval(z1, self.phi[:, 0]) / self.phi[0, 1]

    def _newton(self, z1, z2):
        """Newton on Phi(z1, .) = 0 from z2, at most 30 steps, stopping below 1e-14."""
        for _ in range(30):
            f = P.polyval2d(z1, z2, self.phi)
            fw = P.polyval2d(z1, z2, self._phi_z2)
            if not np.min(np.abs(fw)) >= DPHI_EPS:
                raise MeshTooCoarse("dPhi/dz2 vanished on the patch")
            step = f / fw
            z2 = z2 - step
            if np.max(np.abs(step)) < 1e-14:
                break
        return z2

    def point(self, z1):
        return (np.asarray(z1, dtype=complex), self.z2_of(z1))

    def form_density(self, z1, z2):
        """|1/ (dPhi/dz2)|^2, the density of (i/2) w ^ conj(w) against dA(z1)."""
        fz2 = P.polyval2d(z1, z2, self._phi_z2)
        if not np.min(np.abs(fz2)) >= DPHI_EPS:
            raise MeshTooCoarse("dPhi/dz2 vanished on the patch")
        return 1.0 / np.abs(fz2) ** 2

    def full_grid(self, nr, nt):
        """Read-only nodes (z1, weights, z2, form density) of the nr x nt full-patch mesh.

        Built on the first call for a mesh and kept; a mesh whose build raises
        leaves no entry, so it raises again on the next call.
        """
        if (nr, nt) not in self._grids:
            z, w = _polar_nodes_gl(self.center, self.radius, nr, nt)
            z2 = self.z2_of(z)
            nodes = (z, w, z2, self.form_density(z, z2))
            for a in nodes:
                a.flags.writeable = False
            self._grids[nr, nt] = nodes
        return self._grids[nr, nt]


def flat_disc_model(radius=1.0):
    """The Phi = z2 reference model (curve = the z1 disc itself, centred at 0)."""
    phi = np.zeros((1, 2), dtype=complex)
    phi[0, 1] = 1.0
    return CurveModel(phi, radius=radius)


# -- quadrature -----------------------------------------------------------------


def _smooth_step(u):
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _bump(t):
    """C-infinity cutoff: 1 for t <= 0.35, 0 for t >= 1."""
    return 1.0 - _smooth_step((t - 0.35) / 0.65)


@functools.cache
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n, read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _polar_nodes_gl(center, radius, nr, nt):
    xr, wr = _leggauss(nr)
    r = radius * (xr + 1.0) / 2.0
    wr = wr * radius / 2.0
    th = 2.0 * np.pi * (np.arange(nt) + 0.5) / nt
    R, T = np.meshgrid(r, th, indexing="ij")
    z = center + R * np.exp(1j * T)
    w = wr[:, None] * R * (2.0 * np.pi / nt)
    return z.ravel(), w.ravel()


def green_value(q_star, q, model: CurveModel) -> float:
    """Green value g_{q*}(q) of the patch; q_star, q are z1-chart parameters."""
    return _green_values(q_star, [q], model)[0]


def _green_values(q_star, targets, model: CurveModel, nr=256, nt=256, sub_nr=128,
                  sub_nt=64) -> list:
    """Green values g_{q*}(q) for every q in targets, in order.

    nr x nt is the full-patch mesh and sub_nr x sub_nt the polar mesh of the
    sub-patch around each singular point, of radius model.radius / 10 capped
    at 0.4 |q* - q| and taken to 12 significant digits.
    """
    qs = complex(q_star)
    targets = [complex(q) for q in targets]
    if any(abs(qs - qq) < COINCIDENT_EPS for qq in targets):
        raise Coincident("green_value on the diagonal")
    return _green_quad(qs, targets, model, nr, nt, sub_nr, sub_nt)


def _green_quad(qs, targets, model, nr, nt, sub_nr, sub_nt):
    pqs = model.point(qs)
    z, w, z2, dens = model.full_grid(nr, nt)
    weight = _star_weight(model, pqs, z, z2, dens * w)
    star = {}               # sub-patch radius -> q*-side sub-patch
    vals = []
    for qq in targets:
        # to 12 digits, so targets on one circle around q* share the q*-side sub-patch
        r0 = float(f"{min(0.1 * model.radius, 0.4 * abs(qs - qq)):.12g}")
        pq = model.point(qq)
        if r0 not in star:
            star[r0] = _sub_patch(model, pqs, pqs, r0, sub_nr, sub_nt)
        total = 0.0 + 0.0j
        # singular sub-patches with the smooth bump
        for zs, zs2, ws in (_sub_patch(model, pqs, pq, r0, sub_nr, sub_nt), star[r0]):
            total += np.sum(kernel_k((zs, zs2), pq, model.psi) * ws)
        # smooth remainder over the full patch
        total += np.sum(kernel_k((z, z2), pq, model.psi) * weight * _cut(z, (qq, qs), r0))
        vals.append(float(np.real(total)) / (4.0 * np.pi ** 2))
    return vals


def _star_weight(model, pqs, z1, z2, w):
    """conj(k(q*, z)) w on the nodes (z1, z2): k(q*, z) = -k(z, q*), as the
    difference flips sign exactly and Psi is symmetric."""
    return -np.conj(kernel_k((z1, z2), pqs, model.psi)) * w


def _sub_patch(model, pqs, ps, r0, sub_nr, sub_nt):
    """Nodes, z2 and q*-side weight of the polar sub-patch of radius r0 around ps."""
    s = complex(ps[0])
    zs, ws = _polar_nodes_gl(s, r0, sub_nr, sub_nt)
    zs2 = model._z2_near(zs, ps[1])
    w = model.form_density(zs, zs2) * _bump(np.abs(zs - s) / r0) * ws
    return zs, zs2, _star_weight(model, pqs, zs, zs2, w)


def _cut(z, points, r0):
    """prod over s in points of 1 - bump(|z - s| / r0) on the nodes z.

    Each factor is exactly 1.0 at |z - s| >= r0, so the bump is evaluated
    only on the nodes inside the discs.
    """
    cut = np.ones(len(z))
    for s in points:
        t = np.abs(z - s) / r0
        near = np.flatnonzero(t < 1.0)
        cut[near] *= 1.0 - _bump(t[near])
    return cut


def fit_log_coefficient(model: CurveModel, q_star, radii=(0.1, 0.2), n_dir=8) -> float:
    """Radial regression of g_{q*} against ln r near q_star.

    The directional average over a full circle of the harmonic background is
    its center value (mean-value property), so with enough directions the
    averaged data is exactly c * ln r + const and the two-radius slope is c.
    radii must be two distinct positive radii.
    """
    if len(radii) != 2 or radii[0] == radii[1] or not all(r > 0 for r in radii):
        raise ValueError(f"need two distinct positive radii, got {tuple(radii)}")
    qs = complex(q_star)
    targets = [qs + r * np.exp(2j * np.pi * (a + 0.13) / n_dir)
               for r in radii for a in range(n_dir)]
    vals = _green_values(qs, targets, model)
    means = [np.mean(vals[i:i + n_dir]) for i in range(0, len(vals), n_dir)]
    return float((means[1] - means[0]) / (np.log(radii[1]) - np.log(radii[0])))
