import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from cfr import green
from cfr.green import (BranchPoint, Coincident, CurveModel, _bump, _cut, _leggauss, _phases,
                       _polar_nodes_gl, _star_weight, fit_log_coefficient, flat_disc_model,
                       green_value, kernel_k, psi_of)
from reference import (BoundaryGrid, SingularFredholm, _eval4, disc_principal_dbar,
                       disc_principal_green, fredholm_solve_R, green_values_per_target,
                       harmonic_extension_T, kernel_k_terms, polar_nodes_meshgrid, principal_green,
                       psi_terms)

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


def _bits(a, shape):
    """The bit patterns of a, broadcast to shape: equal bits, not only equal values."""
    return np.ascontiguousarray(np.broadcast_to(a, shape), dtype=complex).view(np.int64)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), na=st.integers(1, 5), nb=st.integers(2, 5),
       graph=st.booleans())
def test_horner_equals_numpy_polynomial(seed, na, nb, graph):
    """Phi and dPhi/dz2 by Horner in z1 inside and z2 outside, the dPhi/dz2 table and the graph
    closed form equal numpy.polynomial's polyval2d, polyder and polyval bit for bit, each of the
    nodes' shape (the flat model's dPhi/dz2 is the constant 1)."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
    if graph:                       # Phi = c z2 + p(z1): z2_of's closed form
        phi = phi[:, :2]
        phi[1:, 1] = 0.0
    z1, z2 = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
    model = CurveModel(phi)
    assert np.array_equal(_bits(green._horner2(phi.T, z2, z1), z1.shape),
                          _bits(P.polyval2d(z1, z2, phi), z1.shape))
    assert np.array_equal(_bits(model._phi_z2, model._phi_z2.shape),
                          _bits(P.polyder(phi, axis=1), model._phi_z2.shape))
    assert np.array_equal(_bits(model._dphi(z1, z2), z1.shape),
                          _bits(P.polyval2d(z1, z2, P.polyder(phi, axis=1)), z1.shape))
    if graph:
        assert np.array_equal(_bits(model.z2_of(z1), z1.shape),
                              _bits(-P.polyval(z1, phi[:, 0]) / phi[0, 1], z1.shape))
    flat = flat_disc_model()
    assert np.array_equal(flat.form_density(z1, flat.z2_of(z1)), np.ones(z1.shape))


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


def test_kernel_k_one_reciprocal_equals_division():
    """kernel_k, which scales by 1 / n2, equals the numerator divided by n2 bit for bit, on
    points whose moduli run from 1e-10 to 1e60."""
    rng = np.random.default_rng(3844)
    phi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))    # Psi of degree <= 2

    def points(lo, hi, shape):
        return 10.0 ** rng.uniform(lo, hi, shape) * np.exp(2j * np.pi * rng.random(shape))

    psi = psi_of(phi)
    for lo, hi in ((-10, -5), (-10, 0), (-3, 3), (0, 30), (20, 60)):
        zp, z = tuple(points(lo, hi, (2, 4000))), tuple(points(lo, hi, 2))
        d1, d2 = zp[0] - z[0], zp[1] - z[1]
        p1, p2 = psi(zp, z)
        ref = (np.conj(d1) * p2 - np.conj(d2) * p1) / (np.abs(d1) ** 2 + np.abs(d2) ** 2)
        assert np.all(np.isfinite(ref)) and np.array_equal(kernel_k(zp, z, psi), ref)


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


def test_green_curved_model_smoke(monkeypatch):
    """Graph patch of z2 = z1^2/4: symmetric on a 128 x 128 mesh, log coefficient preserved on
    the default one."""
    phi = np.zeros((3, 2), dtype=complex)
    phi[0, 1] = 1.0
    phi[2, 0] = -0.25
    coef = fit_log_coefficient(CurveModel(phi, center=0.0, radius=0.8), 0.1 + 0.05j,
                               radii=(0.06, 0.12))
    assert abs(coef - TWO_PI_INV) < 5e-3
    _mesh(monkeypatch, (128, 128), (64, 32))
    model = CurveModel(phi, center=0.0, radius=0.8)
    q1, q2 = 0.2 + 0.05j, -0.25 + 0.2j
    [g12] = green._green_values(q1, [q2], model)
    [g21] = green._green_values(q2, [q1], model)
    assert abs(g12 - g21) < 1e-6


def test_log_coefficient_needs_two_distinct_positive_radii(disc):
    for radii in ((0.1,), (0.1, 0.2, 0.3), (0.1, 0.1), (-0.1, 0.2), (0.0, 0.2)):
        with pytest.raises(ValueError):
            fit_log_coefficient(disc, 0.2 + 0.1j, radii=radii)


def test_branch_point():
    """dPhi/dz2 below DPHI_EPS on the patch raises BranchPoint, in closed form and in Newton."""
    for phi in ([[0.0, 1e-12]], [[0.0, 0.0, 1.0]]):     # Phi = 1e-12 z2, and z2^2 from z2 = 0
        with pytest.raises(BranchPoint, match="dPhi/dz2 vanished"):
            green_value(0.25 + 0.1j, -0.3 + 0.35j, CurveModel(np.array(phi)))


# -- cached quadrature grids -------------------------------------------------------

SMALL_MESH = ((48, 48), (24, 16))      # green.MESH and green.SUB_MESH of the small-mesh tests


def _mesh(mp, mesh, sub_mesh=SMALL_MESH[1]):
    """Set green.MESH and green.SUB_MESH on the MonkeyPatch mp; models built after it use them."""
    mp.setattr(green, "MESH", mesh)
    mp.setattr(green, "SUB_MESH", sub_mesh)


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
def test_warm_values_equal_cold(name, monkeypatch):
    """Values on a model whose grid is built equal those on a fresh model, on two meshes, and
    the model builds its one grid once."""
    pairs = [(0.1 + 0.05j, -0.2 + 0.1j), (-0.15j, 0.2), (0.1 + 0.05j, 0.25j)]
    for nr in (48, 32):
        _mesh(monkeypatch, (nr, 48))
        warm = PATCHES[name]()
        grid = warm.grid()
        for qs, q in pairs:
            assert (green._green_values(qs, [q], warm)
                    == green._green_values(qs, [q], PATCHES[name]()))
        assert warm.grid() is grid and len(grid[0]) == nr * 48


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_values_match_per_target_reference(name, monkeypatch):
    """Values within 1e-13 of the route that builds every grid term per target."""
    _mesh(monkeypatch, *SMALL_MESH)
    model = PATCHES[name]()
    for qs, targets in ((0.1 + 0.05j, [-0.2 + 0.1j, 0.25j, 0.3 - 0.1j]), (-0.15j, [0.2])):
        vals = green._green_values(qs, targets, model)
        refs = green_values_per_target(qs, targets, model)
        assert max(abs(v - r) for v, r in zip(vals, refs)) <= 1e-13


def _full_cut(z, points, r0):
    """prod over s in points of 1 - bump(|z - s| / r0), formed on every node."""
    full = np.ones(len(z))
    for s in points:
        full = full * (1.0 - _bump(np.abs(z - s) / r0))
    return full


def _cut_applied(v, model, points, r0):
    """v times the factors _cut lists for each s in points, node by node, as
    green._green_values applies them; each s lists exactly the nodes with |z - s| < r0."""
    v, z = v.copy(), model.grid()[0]
    for s in points:
        near, factor = _cut(model, s, r0)
        assert np.array_equal(near, np.flatnonzero(np.abs(z - s) / r0 < 1.0))
        v[near] *= factor
    return v


def test_cut_near_nodes_equals_full_product(monkeypatch):
    """The factors on the nodes _cut lists, 1.0 elsewhere, are the every-node product, on a
    patch centred at 0 and off it."""
    _mesh(monkeypatch, (64, 64))
    for center in (0.0, 0.3 - 0.2j):
        model = CurveModel(np.array([[0.0, 1.0]]), center=center)
        z = model.grid()[0]
        for pts, r0 in (((0.3 + 0.1j, -0.2 + 0.25j), 0.1), ((0.5j, 0.52j), 0.008),
                        ((0.95, -0.9j), 0.1)):
            pts = tuple(center + s for s in pts)
            assert np.array_equal(_cut_applied(np.ones(len(z)), model, pts, r0),
                                  _full_cut(z, pts, r0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(center=st.complex_numbers(min_magnitude=1e-3, max_magnitude=20.0),
       radius=st.floats(0.01, 4.0), nr=st.integers(8, 64), nt=st.integers(8, 64),
       graph=st.booleans(), u=st.floats(0.05, 1.0),
       at=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.0)),
       to=st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0)))
def test_cut_remainder_equals_full_product(center, radius, nr, nt, graph, u, at, to):
    """The smooth remainder with the cut on the listed nodes equals sum(k w cut) with the cut
    on every node, bit for bit: non-zero centres, any mesh, points inside and outside the
    patch, r0 up to the program's cap min(radius / 10, 0.4 |q* - q|)."""
    qq = complex(center + radius * at[0] * np.exp(2j * np.pi * at[1]))
    qs = complex(qq + radius * to[0] * np.exp(2j * np.pi * to[1]))
    r0 = u * min(0.1 * radius, 0.4 * abs(qq - qs))
    phi = np.array([[0.0, 1.0], [0.0, 0.0], [-0.5 + 0.2j, 0.0]] if graph else [[0.0, 1.0]])
    with pytest.MonkeyPatch.context() as mp:
        _mesh(mp, (nr, nt))
        model = CurveModel(phi, center=center, radius=radius)
        z, w, z2, dens = model.grid()
        pq = (qq, model.z2_of(qq))
        assume(np.min(np.abs(z - qq)) > 1e-9)
        kw = kernel_k((z, z2), pq, model.psi) * _star_weight(model, (qs, model.z2_of(qs)), z, z2,
                                                             dens * w)
        full = _full_cut(z, (qq, qs), r0)
        assert np.sum(_cut_applied(kw, model, (qq, qs), r0)) == np.sum(kw * full)


@pytest.mark.parametrize("outward", [True, False])
def test_cut_tight_edge_node(outward, monkeypatch):
    """A node a few ulps inside |z - s| = r0 on the first row of the band (s radially outward
    of it) or the last (s inward) is cut, where a band of exactly |r_i - |s - center|| < r0,
    with no slack for rounding, leaves its row out."""
    eps = np.finfo(float).eps
    center, nr, nt = 3.0 + 2.0j, 64, 64
    _mesh(monkeypatch, (nr, nt))
    model = CurveModel(np.array([[0.0, 1.0]]), center=center)
    z = model.grid()[0]
    r = (_leggauss(nr)[0] + 1.0) / 2.0
    for k in range(8 * nt, 56 * nt):
        i, e = k // nt, (z[k] - center) / abs(z[k] - center)
        s = complex(center + (r[i] + 0.05 if outward else r[i] - 0.05) * e)
        r0 = float(np.abs(z[k:k + 1] - s)[0] * (1 + 4 * eps))
        d = abs(s - center)
        if np.abs(z[k:k + 1] - s)[0] / r0 < 1.0 and not d - r0 <= r[i] < d + r0:
            break
    else:
        pytest.fail("no node that a slack-free band misses")
    assert k in _cut(model, s, r0)[0]
    assert np.array_equal(_cut_applied(np.ones(len(z)), model, [s], r0),
                          _full_cut(z, [s], r0))


@pytest.mark.parametrize("center, radius, nr, nt", [(0.0, 1.0, 256, 256),
                                                    (0.3 - 0.2j, 1.3, 128, 64),
                                                    (-2.5 + 4.0j, 0.04, 17, 33), (1.0, 2.0, 1, 1)])
def test_polar_nodes_equal_meshgrid_route(center, radius, nr, nt):
    """Nodes from the cached phases and weights by np.repeat equal the meshgrid route."""
    for new, ref in zip(_polar_nodes_gl(center, radius, nr, nt),
                        polar_nodes_meshgrid(center, radius, nr, nt)):
        assert np.array_equal(new, ref)


def test_log_coefficient_builds_one_q_star_sub_patch_per_radius(monkeypatch):
    """16 targets at 2 radii: 16 target-side sub-patches and 2 on the q* side."""
    model = flat_disc_model()
    model.grid()                                # built before counting
    calls = []

    def counted(*args):
        calls.append(args)
        return _polar_nodes_gl(*args)

    monkeypatch.setattr(green, "_polar_nodes_gl", counted)
    fit_log_coefficient(model, 0.2 + 0.1j, radii=(0.1, 0.2), n_dir=8)
    assert len(calls) == 18
    assert sum(complex(c[0]) == 0.2 + 0.1j for c in calls) == 2


def test_log_coefficient_cuts_q_star_once_per_radius(monkeypatch):
    """16 targets at 2 radii: 16 target-side cuts of the full grid and 2 on the q* side."""
    model = flat_disc_model()
    calls = []

    def counted(model, s, r0):
        calls.append(s)
        return _cut(model, s, r0)

    monkeypatch.setattr(green, "_cut", counted)
    fit_log_coefficient(model, 0.2 + 0.1j, radii=(0.1, 0.2), n_dir=8)
    assert len(calls) == 18
    assert calls.count(0.2 + 0.1j) == 2


@pytest.mark.parametrize("name", ["flat", "implicit"])
def test_warm_value_peak_memory(name):
    """A warm Green value on the default mesh peaks under 4 MiB of traced memory: beside the
    q* weight and the remainder, the full-grid passes hold temporaries of TILE_ENTRIES nodes,
    not of all 65 536."""
    model = PATCHES[name]()
    green_value(0.1 + 0.05j, -0.2 + 0.1j, model)
    tracemalloc.start()
    try:
        green_value(0.1 + 0.05j, -0.2 + 0.1j, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_seeded_sub_patch_z2():
    """Sub-patch z2 by Newton from z2(s) agrees with the continuation from the center."""
    model = PATCHES["implicit"]()
    for s in (0.1 + 0.05j, -0.35 + 0.2j, 0.45j):
        zs, _ = _polar_nodes_gl(s, 0.06, 24, 16)
        assert np.max(np.abs(model.z2_of(zs, (s, model.z2_of(s))) - model.z2_of(zs))) <= 1e-15


def test_grid_failure_leaves_no_entry(monkeypatch):
    """A full-patch grid whose build raises is not kept, so it is rebuilt, and raises, on every
    call."""
    _mesh(monkeypatch, (16, 16), (8, 4))
    model = PATCHES["implicit"]()
    sizes = []

    def z2_of(z1, start=None):
        sizes.append(np.size(z1))
        if np.size(z1) == 16 * 16:
            raise BranchPoint("dPhi/dz2 vanished on the patch")
        return CurveModel.z2_of(model, z1, start)

    monkeypatch.setattr(model, "z2_of", z2_of)
    for _ in range(2):
        with pytest.raises(BranchPoint):
            green._green_values(0.1, [-0.2j], model)
        assert model._grid is None
    assert sizes.count(16 * 16) == 2


def test_cached_arrays_read_only(monkeypatch):
    for a in _leggauss(12) + (_phases(12),):
        with pytest.raises(ValueError):
            a[0] = 0.0
    _mesh(monkeypatch, (8, 8))
    model = flat_disc_model()
    for a in model.grid():
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
