import numpy as np
import pytest

from cfr import infinity, oracles, reconstruct
from cfr.geometry import BoundaryData, LineParam, chordal
from cfr.reconstruct import DegenerateFiber, N_Qk, detect_algebraic, fiber, sweep
from reference import exterior_line_germ, line_eval, sweep_per_line


@pytest.fixture(scope="module")
def no_germs():
    return infinity.Pk_family([], 4)


@pytest.fixture(scope="module")
def line_germs():
    b, tay = exterior_line_germ()
    return infinity.Pk_family([infinity.GermAtInfinity(b, tay + [0.0] * 3)], 4)


def test_NQk_exterior_is_zero(exterior, line_germs):
    for y in (8.0, -6.0 + 2.0j):
        for x in (0.0, 0.4):
            assert abs(N_Qk(exterior, LineParam(x, y), 1, line_germs)) < 1e-10


def test_NQk_interior(interior, no_germs):
    assert abs(N_Qk(interior, LineParam(0.0, 10.0), 1, no_germs) + 2.0 / 21.0) < 1e-12


def test_NQk_two_line(twoline, no_germs):
    expect = -(1.0 / 10.5 + 1.0 / (10.0 - 1.0 / 3.0))
    assert abs(N_Qk(twoline, LineParam(0.0, 10.0), 1, no_germs) - expect) < 1e-12


def test_fiber_interior(interior, no_germs):
    fr = fiber(interior, LineParam(0.0, 10.0), 1, no_germs)
    assert abs(fr.roots[0] + 2.0 / 21.0) < 1e-12
    p = fr.points[0]
    assert abs(p.w2 / p.w0 - 20.0 / 21.0) < 1e-12
    assert abs(line_eval(fr.z, p)) < 1e-9


def test_fiber_two_line(twoline, no_germs):
    fr = fiber(twoline, LineParam(0.0, 10.0), 2, no_germs)
    got = sorted(fr.roots, key=lambda r: r.real)
    expect = sorted([-1.0 / 10.5, -1.0 / (10.0 - 1.0 / 3.0)])
    assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-9
    for p in fr.points:
        assert abs(line_eval(fr.z, p)) < 1e-9


def test_fiber_conic_quadratic_oracle(conic, no_germs):
    for (x, y) in [(0.1, 10.0), (0.3, -8.0), (0.2j, 6.0 + 2.0j)]:
        fr = fiber(conic, LineParam(x, y), 1, no_germs)
        assert abs(fr.roots[0] - oracles.conic_small_root(x, y)) < 1e-9


def test_fiber_newton_route_equals_direct(twoline, no_germs):
    """Newton-route fibers match direct root isolation of the intersection."""
    for a in np.linspace(0, 2 * np.pi, 5, endpoint=False):
        y = 6.0 * np.exp(1j * a)
        x = 0.3
        fr = fiber(twoline, LineParam(x, y), 2, no_germs)
        direct = [-(x + 1) / (y + 0.5), -(x + 1) / (y - 1.0 / 3.0)]
        got = sorted(fr.roots, key=lambda r: (r.real, r.imag))
        want = sorted(direct, key=lambda r: (r.real, r.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-7


def test_degenerate_fiber_detection(twoline, no_germs):
    """Lines through the node z1=0, z2=1 collide the two roots."""
    # x*1 + y*0 + ... line through (1:0:1): x + z2 = 0 with z2 = 1: x = -1
    with pytest.raises(DegenerateFiber):
        fiber(twoline, LineParam(-1.0, 8.0), 2, no_germs)


def test_sweep_interior_membership(interior, no_germs):
    cloud = sweep(interior, 1, no_germs, radii=(2.0, 2.5, 3.0), angles=64,
                  xfracs=(0.0, 0.2, -0.35, 0.4j, -0.15))
    assert len(cloud) > 100
    for p in cloud.points:
        z1, z2 = p.w1 / p.w0, p.w2 / p.w0
        assert abs(z2 - 1.0 - 0.5 * z1) < 1e-7


def test_sweep_conic_membership(conic, no_germs):
    cloud = sweep(conic, 1, no_germs, angles=32)
    for p in cloud.points:
        z1, z2 = p.w1 / p.w0, p.w2 / p.w0
        assert abs(z2 - z1 * z1) < 1e-7


def test_sweep_empty_for_p0(exterior, line_germs):
    cloud = sweep(exterior, 0, line_germs)
    assert len(cloud) == 0


def test_sweep_offset_invariance(interior, no_germs):
    """The swept point set is stable under re-randomized angular offsets."""
    c1 = sweep(interior, 1, no_germs, angles=32, angle_offset=0.31)
    c2 = sweep(interior, 1, no_germs, angles=32, angle_offset=0.77)
    # same curve: every point of c2 lies on the c1 model curve; compare
    # against the line equation instead of pointwise pairing
    for p in c2.points:
        z1, z2 = p.w1 / p.w0, p.w2 / p.w0
        assert abs(z2 - 1.0 - 0.5 * z1) < 1e-7
    assert abs(len(c1) - len(c2)) <= 4


def test_sweep_dedup(interior, no_germs):
    cloud = sweep(interior, 1, no_germs, radii=(2.0, 2.0), angles=8,
                  xfracs=(0.0, 0.0))
    # duplicated grid points must merge, with multiplicity counted
    assert all(m >= 2 for m in cloud.multiplicity)


@pytest.mark.parametrize("eps", [1e-2, 3e-2])
def test_sweep_dedup_first_match(twoline, no_germs, eps):
    """The array merge equals a pairwise first-match merge in sighting order.

    At 3e-2 some sightings lie within eps of two accepted points, so the
    order of the match matters.
    """
    cloud = sweep(twoline, 2, no_germs, angles=8, merge_eps=eps)
    points, mult, source = [], [], []
    for z in reconstruct._default_grid(twoline, (2.0, 2.5, 3.0), 8, (0.0, 0.2, -0.35), 0.31):
        try:
            fr = fiber(twoline, z, 2, no_germs)
        except DegenerateFiber:
            continue
        for pt in fr.points:
            for i, q in enumerate(points):
                if chordal(pt.w, q.w) < eps:
                    mult[i] += 1
                    break
            else:
                points.append(pt)
                mult.append(1)
                source.append(z)
    assert len(points) < sum(mult)                      # merges happened
    assert cloud.points == points
    assert cloud.multiplicity == mult
    assert cloud.source == source


def test_detect_algebraic(interior, twoline, conic):
    ok2, model2 = detect_algebraic(twoline)
    assert ok2
    assert model2["residual"] < 1e-8
    okc, modelc = detect_algebraic(conic)
    assert not okc
    assert modelc["residual"] > 1e-4
    oki, _ = detect_algebraic(interior)
    assert oki


def test_detect_algebraic_zero_model(interior, monkeypatch):
    """A zero indicator feed returns True with the zero model."""
    from cfr import indicators as ind
    monkeypatch.setattr(ind, "G_lines",
                        lambda b, xs, ys, ks: np.zeros((1, len(xs)), dtype=complex))
    ok, model = detect_algebraic(interior)
    assert ok
    assert model["residual"] == 0.0
    assert np.all(model["A0"] == 0) and np.all(model["A1"] == 0)


def test_dedup_radius_respected(interior, no_germs):
    cloud = sweep(interior, 1, no_germs, angles=16)
    pts = cloud.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert chordal(pts[i].w, pts[j].w) >= reconstruct.MERGE_EPS


def test_G0_consistency_on_sweep(twoline, no_germs):
    """Rounded G_0 equals p - q_inf at every swept line."""
    from cfr import indicators
    grid = reconstruct._default_grid(twoline, (2.0, 3.0), 6, (0.0, 0.2), 0.31)
    for z in grid:
        g0 = indicators.G_k(twoline, z, 0)
        assert round(g0.real) == 2 and abs(g0 - 2.0) < 1e-8


@pytest.fixture(scope="module")
def threeline():
    return BoundaryData([oracles._line_loop(a, 1024) for a in (0.5, -1.0 / 3.0, 0.25j)],
                        [1, 1, 1])


@pytest.fixture(scope="module")
def fourline():
    return BoundaryData([oracles._line_loop(a, 1024)
                         for a in (0.5, -1.0 / 3.0, 0.25j, -0.6 + 0.1j)], [1, 1, 1, 1])


@pytest.mark.parametrize("name, slopes", [("twoline", (0.5, -1.0 / 3.0)),
                                          ("threeline", (0.5, -1.0 / 3.0, 0.25j))])
def test_fibers_match_closed_form_roots(name, slopes, no_germs, request):
    """Every accepted fiber of the default grid lies within 1e-12 of -(x+1)/(y+a).

    The loops are the lines z2 = 1 + a z1, so the fiber over L_z is exact.
    """
    b = request.getfixturevalue(name)
    zs = reconstruct._default_grid(b, (2.0, 2.5, 3.0), 16, (0.0, 0.2, -0.35), 0.31)
    results, _ = reconstruct.fibers(b, zs, len(slopes), no_germs)
    assert results
    for res in results:
        exact = np.array([-(res.z.x + 1.0) / (res.z.y + a) for a in slopes])
        assert np.array_equal(res.roots, np.sort_complex(res.roots))
        assert np.max(np.min(np.abs(res.roots[:, None] - exact), axis=0)) < 1e-12
        assert np.max(np.min(np.abs(res.roots[:, None] - exact), axis=1)) < 1e-12


@pytest.mark.parametrize("name, p, angles", [("twoline", 2, 16), ("conic", 1, 16),
                                             ("threeline", 3, 16), ("twoline", 2, 32)])
def test_sweep_equals_per_line_loop(name, p, angles, no_germs, request):
    """The batched sweep gives the cloud of one-line-at-a-time fibers exactly."""
    b = request.getfixturevalue(name)
    xfracs = (0.0, 0.2, -0.35, 0.1j)
    cloud = sweep(b, p, no_germs, angles=angles, xfracs=xfracs)
    assert cloud == sweep_per_line(b, p, no_germs, angles=angles, xfracs=xfracs)
    assert len(cloud) > 0
    if name == "threeline":
        assert cloud.skipped            # the discriminant test declines some lines


@pytest.mark.parametrize("name, p, eps", [("threeline", 3, reconstruct.MERGE_EPS),
                                          ("fourline", 4, reconstruct.MERGE_EPS),
                                          ("threeline", 3, 3e-2)])
def test_sweep_in_small_tiles_equals_per_line_loop(name, p, eps, no_germs, request,
                                                  monkeypatch):
    """With 2^8-entry tiles the dedup runs on many i x j tiles and keeps the cloud.

    At 3e-2 sightings merge, some within eps of two accepted points.
    """
    from cfr import geometry
    b = request.getfixturevalue(name)
    monkeypatch.setattr(geometry, "TILE_ENTRIES", 2 ** 8)
    cloud = sweep(b, p, no_germs, angles=32, merge_eps=eps)
    assert cloud == sweep_per_line(b, p, no_germs, angles=32, merge_eps=eps)
    if eps > reconstruct.MERGE_EPS:
        assert len(cloud) < sum(cloud.multiplicity)


def test_sweep_with_germs_equals_per_line_loop(interior, line_germs):
    """Nonzero corrections P_k enter the batch as they enter one line."""
    cloud = sweep(interior, 1, line_germs, angles=8)
    assert cloud == sweep_per_line(interior, 1, line_germs, angles=8)
