import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from cfr import green
from cfr.green import (Coincident, CurveModel, MeshTooCoarse, _bump, _cut, _leggauss,
                       _polar_nodes_gl, fit_log_coefficient, flat_disc_model, green_value,
                       kernel_k, psi_of)
from reference import (BoundaryGrid, SingularFredholm, _eval4, disc_principal_dbar,
                       disc_principal_green, fredholm_solve_R, green_values_per_target,
                       harmonic_extension_T, kernel_k_terms, principal_green, psi_terms)

TWO_PI_INV = 1.0 / (2.0 * np.pi)


@pytest.fixture(scope="module")
def disc():
    return flat_disc_model()


@pytest.fixture(scope="module")
def grid():
    return BoundaryGrid(256)


# -- divided differences and kernel ----------------------------------------------


def test_psi_linear():
    psi = psi_of(np.array([[0.0, 1.0]]))
    p1, p2 = psi((0.4, 0.7), (0.1, -0.2))
    assert p1 == 0 and abs(p2 - 1.0) < 1e-14


def test_psi_parabola():
    phi = np.zeros((3, 2), dtype=complex)
    phi[0, 1] = 1.0
    phi[2, 0] = -1.0  # z2 - z1^2
    psi = psi_of(phi)
    p1, p2 = psi((1.0, 0.0), (0.25, 0.0))
    assert abs(p1 + (1.0 + 0.25)) < 1e-14
    assert abs(p2 - 1.0) < 1e-14


def test_psi_identity_random_cubic(rng):
    phi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    psi = psi_of(phi)
    for _ in range(50):
        zp = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        z = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lhs = P.polyval2d(zp[0], zp[1], phi) - P.polyval2d(z[0], z[1], phi)
        p1, p2 = psi(zp, z)
        rhs = p1 * (zp[0] - z[0]) + p2 * (zp[1] - z[1])
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_eval4_matches_quadruple_loop(rng):
    """The sum over nonzero coefficients runs in the old nested-loop order, bit for bit."""
    c = rng.standard_normal((3, 2, 3, 2)) + 1j * rng.standard_normal((3, 2, 3, 2))
    c[rng.random(c.shape) < 0.4] = 0.0
    zp = tuple(rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
    z = tuple(rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
    ref = 0.0
    for i in range(3):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    if c[i, j, k, l] != 0:
                        ref = ref + c[i, j, k, l] * zp[0] ** i * zp[1] ** j * z[0] ** k * z[1] ** l
    assert np.array_equal(_eval4(c, zp, z), ref)


def test_psi_and_kernel_match_term_sum():
    """The contracted Psi and kernel_k equal the term-by-term sums, array arguments on both sides."""
    # its own generator: draws from the shared rng fixture would shift later tests' inputs
    rng = np.random.default_rng(3843)
    phi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    psi = psi_of(phi)
    zp = tuple(rng.standard_normal((2, 60)) + 1j * rng.standard_normal((2, 60)))
    z = tuple(rng.standard_normal((2, 60)) + 1j * rng.standard_normal((2, 60)))
    for args in ((zp, z), (zp, (z[0][0], z[1][0])), ((zp[0][0], zp[1][0]), z)):
        for new, ref in zip(psi(*args), psi_terms(psi, *args)):
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
        new, ref = kernel_k(*args, psi), kernel_k_terms(*args, psi)
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_flat_reduction(disc):
    k = kernel_k((0.5 + 0.0j, 0.0j), (0.2 + 0.0j, 0.0j), disc.psi)
    assert abs(k - 1.0 / 0.3) < 1e-13
    # |k| = 1/|z' - z| on the flat model
    for zp in (0.3 + 0.4j, -0.2 + 0.1j):
        k = kernel_k((zp, 0.0j), (0.05 - 0.3j, 0.0j), disc.psi)
        assert abs(abs(k) - 1.0 / abs(zp - (0.05 - 0.3j))) < 1e-13


def test_kernel_antisymmetry(disc, rng):
    for _ in range(5):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        k1 = kernel_k((a, 0.0j), (b, 0.0j), disc.psi)
        k2 = kernel_k((b, 0.0j), (a, 0.0j), disc.psi)
        assert abs(k1 + k2) < 1e-12 * (1 + abs(k1))


def test_kernel_coincident(disc):
    with pytest.raises(Coincident):
        kernel_k((0.3 + 0.0j, 0.0j), (0.3 + 0.0j, 0.0j), disc.psi)
    with pytest.raises(Coincident):
        green_value(0.2, 0.2, disc)


# -- green values -----------------------------------------------------------------


def test_green_symmetry(disc):
    q1, q2 = 0.25 + 0.1j, -0.3 + 0.35j
    assert abs(green_value(q1, q2, disc) - green_value(q2, q1, disc)) < 1e-4


def test_green_log_coefficient(disc):
    qs, radii, n_dir = 0.2 + 0.1j, (0.1, 0.2), 8
    coef = fit_log_coefficient(disc, qs, radii=radii, n_dir=n_dir)
    assert abs(coef - TWO_PI_INV) < 1e-3
    # the batch over all 16 targets equals one green_value call per target
    means = [np.mean([green_value(qs, qs + r * np.exp(2j * np.pi * (a + 0.13) / n_dir), disc)
                      for a in range(n_dir)]) for r in radii]
    assert coef == float((means[1] - means[0]) / (np.log(radii[1]) - np.log(radii[0])))


def test_green_harmonicity(disc):
    """g - (1/2pi) ln|q - q*| has small discrete Laplacian on interior nodes."""
    h = 0.3
    qs = 0.45 + 0.25j
    for c in (-0.35 - 0.15j, 0.05 + 0.4j):
        sten = [c, c + h, c - h, c + 1j * h, c - 1j * h]
        vals = [green_value(qs, p, disc) - np.log(abs(p - qs)) * TWO_PI_INV
                for p in sten]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h ** 2
        assert abs(lap) < 1e-3


def test_green_kernel_form(disc):
    """The circle-averaged residue of the curve-d of g matches the kernel form.

    With the 1/(2 pi) log normalization, dg ~ (1/(4 pi)) / (q - q*) near q*;
    equivalently dg = -k~ omega / 2 + smooth with k~ = k(., q*)/(2 pi); the
    smooth part drops out of the directional average by the mean-value
    property.
    """
    qs, r, h = 0.2 + 0.1j, 0.12, 2e-3
    acc = 0.0
    for a in range(8):
        q0 = qs + r * np.exp(2j * np.pi * (a + 0.21) / 8)
        gx = (green_value(qs, q0 + h, disc) - green_value(qs, q0 - h, disc)) / (2 * h)
        gy = (green_value(qs, q0 + 1j * h, disc)
              - green_value(qs, q0 - 1j * h, disc)) / (2 * h)
        acc += 0.5 * (gx - 1j * gy) * (q0 - qs)
    acc /= 8
    assert abs(acc * 4.0 * np.pi - 1.0) < 1e-3


def test_green_curved_model_smoke():
    """Graph patch of z2 = z1^2/4: symmetric, log coefficient preserved."""
    phi = np.zeros((3, 2), dtype=complex)
    phi[0, 1] = 1.0
    phi[2, 0] = -0.25
    model = CurveModel(phi, center=0.0, radius=0.8)
    q1, q2 = 0.2 + 0.05j, -0.25 + 0.2j
    [g12] = green._green_values(q1, [q2], model, nr=128, nt=128, sub_nr=64, sub_nt=32)
    [g21] = green._green_values(q2, [q1], model, nr=128, nt=128, sub_nr=64, sub_nt=32)
    assert abs(g12 - g21) < 1e-6
    coef = fit_log_coefficient(model, 0.1 + 0.05j, radii=(0.06, 0.12))
    assert abs(coef - TWO_PI_INV) < 5e-3


def test_log_coefficient_needs_two_distinct_positive_radii(disc):
    for radii in ((0.1,), (0.1, 0.2, 0.3), (0.1, 0.1), (-0.1, 0.2), (0.0, 0.2)):
        with pytest.raises(ValueError):
            fit_log_coefficient(disc, 0.2 + 0.1j, radii=radii)


def test_mesh_too_coarse():
    """dPhi/dz2 below DPHI_EPS on the patch raises MeshTooCoarse, in closed form and in Newton."""
    for phi in ([[0.0, 1e-12]], [[0.0, 0.0, 1.0]]):     # Phi = 1e-12 z2, and z2^2 from z2 = 0
        with pytest.raises(MeshTooCoarse, match="dPhi/dz2 vanished"):
            green_value(0.25 + 0.1j, -0.3 + 0.35j, CurveModel(np.array(phi)))


# -- cached quadrature grids -------------------------------------------------------

SMALL_MESH = dict(nr=48, nt=48, sub_nr=24, sub_nt=16)


def _patch(e, c, radius):
    """{z2 + e z2^2 = c z1^2}: flat for c = 0, a graph for e = 0, else Newton-continued."""
    phi = np.zeros((3, 3), dtype=complex)
    phi[0, 1] = 1.0
    phi[2, 0] = -c
    phi[0, 2] = e
    return CurveModel(phi if e else phi[:, :2], center=0.0, radius=radius)


PATCHES = {
    "flat": flat_disc_model,
    "graph": lambda: _patch(0.0, 0.5 - 0.2j, 0.9),
    "implicit": lambda: _patch(0.3 + 0.1j, 0.35 - 0.05j, 0.6),
}


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_warm_values_equal_cold(name):
    """Values on a model with a filled grid cache equal those on a fresh model."""
    warm = PATCHES[name]()
    pairs = [(0.1 + 0.05j, -0.2 + 0.1j), (-0.15j, 0.2), (0.1 + 0.05j, 0.25j)]
    for kw in (SMALL_MESH, dict(SMALL_MESH, nr=32)):
        for qs, q in pairs:
            assert (green._green_values(qs, [q], warm, **kw)
                    == green._green_values(qs, [q], PATCHES[name](), **kw))
    assert set(warm._grids) == {(48, 48), (32, 48)}


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_values_match_per_target_reference(name):
    """Values within 1e-13 of the route that builds every grid term per target."""
    model = PATCHES[name]()
    for qs, targets in ((0.1 + 0.05j, [-0.2 + 0.1j, 0.25j, 0.3 - 0.1j]), (-0.15j, [0.2])):
        vals = green._green_values(qs, targets, model, **SMALL_MESH)
        refs = green_values_per_target(qs, targets, model, **SMALL_MESH)
        assert max(abs(v - r) for v, r in zip(vals, refs)) <= 1e-13


def test_cut_near_nodes_equals_full_product():
    z, _, _, _ = flat_disc_model().full_grid(64, 64)
    for pts, r0 in (((0.3 + 0.1j, -0.2 + 0.25j), 0.1), ((0.5j, 0.52j), 0.008),
                    ((0.95, -0.9j), 0.1)):
        full = np.ones(len(z))
        for s in pts:
            full = full * (1.0 - _bump(np.abs(z - s) / r0))
        assert np.array_equal(_cut(z, pts, r0), full)


def test_log_coefficient_builds_one_q_star_sub_patch_per_radius(monkeypatch):
    """16 targets at 2 radii: 16 target-side sub-patches and 2 on the q* side."""
    model = flat_disc_model()
    model.full_grid(256, 256)                   # the default mesh, built before counting
    calls = []

    def counted(*args):
        calls.append(args)
        return _polar_nodes_gl(*args)

    monkeypatch.setattr(green, "_polar_nodes_gl", counted)
    fit_log_coefficient(model, 0.2 + 0.1j, radii=(0.1, 0.2), n_dir=8)
    assert len(calls) == 18
    assert sum(complex(c[0]) == 0.2 + 0.1j for c in calls) == 2


def test_seeded_sub_patch_z2():
    """Sub-patch z2 by Newton from z2(s) agrees with the continuation from the center."""
    model = PATCHES["implicit"]()
    for s in (0.1 + 0.05j, -0.35 + 0.2j, 0.45j):
        zs, _ = _polar_nodes_gl(s, 0.06, 24, 16)
        assert np.max(np.abs(model._z2_near(zs, model.z2_of(s)) - model.z2_of(zs))) <= 1e-15


def test_grid_failure_leaves_no_entry(monkeypatch):
    """A full-patch mesh whose build raises is rebuilt, and raises, on every call."""
    model = PATCHES["implicit"]()
    sizes = []

    def z2_of(z1):
        sizes.append(np.size(z1))
        if np.size(z1) == 16 * 16:
            raise MeshTooCoarse("dPhi/dz2 vanished on the patch")
        return CurveModel.z2_of(model, z1)

    monkeypatch.setattr(model, "z2_of", z2_of)
    for _ in range(2):
        with pytest.raises(MeshTooCoarse):
            green._green_values(0.1, [-0.2j], model, nr=16, nt=16, sub_nr=8, sub_nt=4)
        assert model._grids == {}
    assert sizes.count(16 * 16) == 2


def test_cached_arrays_read_only():
    for a in _leggauss(12):
        with pytest.raises(ValueError):
            a[0] = 0.0
    model = flat_disc_model()
    for a in model.full_grid(8, 8):
        with pytest.raises(ValueError):
            a[0] = 0.0


# -- boundary operators ------------------------------------------------------------


def test_T_poisson(grid):
    zeta = grid.zeta
    for q in (0.3 + 0.2j, -0.5 + 0.1j):
        dbg = disc_principal_dbar(q, zeta)
        assert abs(harmonic_extension_T(np.real(zeta), dbg, grid) - q.real) < 1e-6
        assert abs(harmonic_extension_T(np.real(zeta ** 2), dbg, grid)
                   - (q * q).real) < 1e-6
        assert abs(harmonic_extension_T(np.ones(grid.n), dbg, grid) - 1.0) < 1e-8


def test_fredholm_identity(grid):
    v = np.real(grid.zeta)
    w = fredholm_solve_R(v, np.zeros((grid.n, grid.n)))
    assert np.max(np.abs(w - v)) < 1e-8


def test_fredholm_singular_guard(grid):
    with pytest.raises(SingularFredholm):
        fredholm_solve_R(np.ones(4), -np.eye(4))


@pytest.fixture(scope="module")
def perturbed(grid):
    c = 0.37

    def g_full(q, z):
        return disc_principal_green(q, z) + c * np.real(q * np.conj(z))

    def dbar_g(q, z):
        return disc_principal_dbar(q, z) + c * q / 2 * np.ones_like(z)

    def dbar_e(qb, z):
        return c * qb / 2 * np.ones_like(z)

    return principal_green(g_full, dbar_g, dbar_e, grid)


def test_perturbed_extension(perturbed, grid):
    q = 0.3 + 0.2j
    assert abs(perturbed.extend(np.real(grid.zeta))(q) - q.real) < 1e-5
    assert abs(perturbed.extend(np.real(grid.zeta ** 2))(q) - (q * q).real) < 1e-5


def test_principal_green_boundary(perturbed):
    q = 0.3 + 0.2j
    worst = max(abs(perturbed.value(q, np.exp(1j * a)))
                for a in np.linspace(0.03, 2 * np.pi - 0.03, 17))
    assert worst < 1e-6


def test_principal_green_symmetry(perturbed):
    """Symmetry survives the Fredholm correction."""
    pts = (0.3 + 0.2j, -0.4 + 0.1j)
    v1 = perturbed.value(pts[0], pts[1])
    v2 = perturbed.value(pts[1], pts[0])
    assert abs(v1 - v2) < 1e-4
