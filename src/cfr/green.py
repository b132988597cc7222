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
radial x trapezoid angular nodes.
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
    """Self-refinement estimate exceeded the requested tolerance."""


class SingularFredholm(RuntimeError):
    """Discretized I + S is numerically singular."""


COINCIDENT_EPS = 1e-12


# -- divided differences --------------------------------------------------------


@dataclass
class Psi:
    """Symmetric pair with Phi(z') - Phi(z) = Psi1 (z1'-z1) + Psi2 (z2'-z2).

    Components are polynomials in (z1', z2', z1, z2), stored as 4-index
    coefficient arrays.
    """

    c1: np.ndarray
    c2: np.ndarray

    def __call__(self, zp, z):
        return _eval4(self.c1, zp, z), _eval4(self.c2, zp, z)


def _eval4(c, zp, z):
    z1p, z2p = zp
    z1, z2 = z
    out = 0.0
    # argwhere lists the nonzero entries in C order, the order of the sum
    for i, j, k, l in np.argwhere(c).tolist():
        out = out + c[i, j, k, l] * z1p ** i * z2p ** j * z1 ** k * z2 ** l
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
    return Psi(_symmetrize4(c1), _symmetrize4(c2))


def _symmetrize4(c):
    na, nb, nc, nd = c.shape
    n1, n2 = max(na, nc), max(nb, nd)
    full = np.zeros((n1, n2, n1, n2), dtype=complex)
    full[:na, :nb, :nc, :nd] += 0.5 * c
    sw = np.transpose(c, (2, 3, 0, 1))
    full[:nc, :nd, :na, :nb] += 0.5 * sw
    return full


def kernel_k(zp, z, psi: Psi):
    """k(z', z): determinant of the normalized conjugate difference against Psi."""
    d1 = np.asarray(zp[0]) - z[0]
    d2 = np.asarray(zp[1]) - z[1]
    n2 = np.abs(d1) ** 2 + np.abs(d2) ** 2
    if np.min(n2) < COINCIDENT_EPS ** 2:
        raise Coincident("kernel points coincide")
    v1 = np.conj(d1) / n2
    v2 = np.conj(d2) / n2
    p1, p2 = psi(zp, z)
    return v1 * p2 - v2 * p1


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
    z2_center: complex = 0.0 + 0.0j
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        self.psi = psi_of(self.phi)
        self._phi_z2 = P.polyder(self.phi, axis=1)

    def _pv(self, c, z1, z2):
        return P.polyval2d(z1, z2, c)

    def z2_of(self, z1):
        """Track the branch through (center, z2_center) by Newton continuation."""
        z1 = np.asarray(z1, dtype=complex)
        scalar = z1.ndim == 0
        flat = np.atleast_1d(z1).ravel()
        if self.phi.shape[1] == 2 and not np.any(self.phi[1:, 1]):
            # Phi = c * z2 + p(z1): closed-form graph
            out = -P.polyval(flat, self.phi[:, 0]) / self.phi[0, 1]
        else:
            out = np.full(flat.shape, self.z2_center, dtype=complex)
            # continuation along straight segments keeps Newton in the branch basin
            for s in np.linspace(0.15, 1.0, 7):
                zt = self.center + s * (flat - self.center)
                for _ in range(30):
                    f = self._pv(self.phi, zt, out)
                    fw = self._pv(self._phi_z2, zt, out)
                    if np.min(np.abs(fw)) < 1e-9:
                        raise MeshTooCoarse("dPhi/dz2 vanished on the patch")
                    step = f / fw
                    out = out - step
                    if np.max(np.abs(step)) < 1e-14:
                        break
        return complex(out[0]) if scalar else out.reshape(z1.shape)

    def point(self, z1):
        return (np.asarray(z1, dtype=complex), self.z2_of(z1))

    def form_density(self, z1, z2):
        """|1/ (dPhi/dz2)|^2, the density of (i/2) w ^ conj(w) against dA(z1)."""
        fz2 = self._pv(self._phi_z2, z1, z2)
        if np.min(np.abs(fz2)) < 1e-9:
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


def flat_disc_model(radius=1.0, center=0.0):
    """The Phi = z2 reference model (curve = the z1 disc itself)."""
    phi = np.zeros((1, 2), dtype=complex)
    phi[0, 1] = 1.0
    return CurveModel(phi, center=center, radius=radius)


# -- quadrature -----------------------------------------------------------------


def _smooth_step(u):
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _bump(t, plateau=0.35):
    """C-infinity cutoff: 1 for t <= plateau, 0 for t >= 1."""
    return 1.0 - _smooth_step((t - plateau) / (1.0 - plateau))


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
    WR, _ = np.meshgrid(wr, th, indexing="ij")
    z = center + R * np.exp(1j * T)
    w = WR * R * (2.0 * np.pi / nt)
    return z.ravel(), w.ravel()


def green_value(q_star, q, model: CurveModel, **quad_kw) -> float:
    """Green value g_{q*}(q) of the patch; q_star, q are z1-chart parameters.

    quad_kw are the mesh sizes and the refinement check of _green_values.
    """
    return _green_values(q_star, [q], model, **quad_kw)[0]


def _green_values(q_star, targets, model: CurveModel, nr=256, nt=256, sub_nr=128,
                  sub_nt=64, sub_radius=None, check=False, check_tol=1e-5) -> list:
    """Green values g_{q*}(q) for every q in targets, in order.

    nr x nt is the full-patch mesh and sub_nr x sub_nt the polar mesh of the
    sub-patch of radius sub_radius (default radius / 10) around each singular
    point.  check=True recomputes on meshes twice as fine and raises
    MeshTooCoarse when a value moves by more than check_tol.
    """
    qs = complex(q_star)
    targets = [complex(q) for q in targets]
    if any(abs(qs - qq) < COINCIDENT_EPS for qq in targets):
        raise Coincident("green_value on the diagonal")
    vals = _green_quad(qs, targets, model, nr, nt, sub_nr, sub_nt, sub_radius)
    if check:
        refs = _green_quad(qs, targets, model, 2 * nr, 2 * nt, 2 * sub_nr, 2 * sub_nt,
                           sub_radius)
        for val, ref in zip(vals, refs):
            if abs(ref - val) > check_tol:
                raise MeshTooCoarse(f"refinement changed g by {abs(ref - val):.2e}")
    return vals


def _green_quad(qs, targets, model, nr, nt, sub_nr, sub_nt, sub_radius):
    pqs = model.point(qs)

    def q_star_kernel(z1, z2):
        return kernel_k((np.full_like(z1, pqs[0]), np.full_like(z1, pqs[1])), (z1, z2),
                        model.psi)

    z, w, z2, dens = model.full_grid(nr, nt)
    ck2 = np.conj(q_star_kernel(z, z2))     # the same for every target
    vals = []
    for qq in targets:
        r0 = min(sub_radius or 0.1 * model.radius, 0.4 * abs(qs - qq))
        pq = model.point(qq)
        total = 0.0 + 0.0j
        # singular sub-patches with the smooth bump
        for s in (qq, qs):
            zs, ws = _polar_nodes_gl(s, r0, sub_nr, sub_nt)
            zs2 = model.z2_of(zs)
            f = (kernel_k((zs, zs2), pq, model.psi) * np.conj(q_star_kernel(zs, zs2))
                 * model.form_density(zs, zs2))
            total += np.sum(f * _bump(np.abs(zs - s) / r0) * ws)
        # smooth remainder over the full patch
        cut = np.ones(len(z))
        for s in (qq, qs):
            cut = cut * (1.0 - _bump(np.abs(z - s) / r0))
        f = kernel_k((z, z2), pq, model.psi) * ck2 * dens
        total += np.sum(f * cut * w)
        vals.append(float(np.real(total)) / (4.0 * np.pi ** 2))
    return vals


def fit_log_coefficient(model: CurveModel, q_star, radii=(0.1, 0.2), n_dir=8,
                        **quad_kw) -> float:
    """Radial regression of g_{q*} against ln r near q_star.

    The directional average over a full circle of the harmonic background is
    its center value (mean-value property), so with enough directions the
    averaged data is exactly c * ln r + const and the two-radius slope is c.
    """
    qs = complex(q_star)
    targets = [qs + r * np.exp(2j * np.pi * (a + 0.13) / n_dir)
               for r in radii for a in range(n_dir)]
    vals = _green_values(qs, targets, model, **quad_kw)
    means = [np.mean(vals[i:i + n_dir]) for i in range(0, len(vals), n_dir)]
    return float((means[1] - means[0]) / (np.log(radii[1]) - np.log(radii[0])))


# -- boundary operators on the unit circle ---------------------------------------


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
