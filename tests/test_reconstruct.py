import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfr import geometry, indicators, infinity, linsys, oracles, reconstruct, symmetric
from cfr.geometry import BoundaryData, LineParam, OutsideDomain, ProjPoint, chordal
from cfr.reconstruct import N_Qk, close_pairs, fibers, merge_rows, sweep
from reference import (G_k, Pk_family_rational, close_pairs_all, conic_small_root, detect_algebraic,
                       exterior_line_germ, fiber_rows, line_eval, merge_first_match,
                       sweep_per_line, sylvester_skips)


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
            assert abs(N_Qk(exterior, [x], [y], 1, line_germs)[0, 0]) < 1e-10


def test_NQk_interior(interior, no_germs):
    assert abs(N_Qk(interior, [0.0], [10.0], 1, no_germs)[0, 0] + 2.0 / 21.0) < 1e-12


def test_NQk_two_line(twoline, no_germs):
    expect = -(1.0 / 10.5 + 1.0 / (10.0 - 1.0 / 3.0))
    assert abs(N_Qk(twoline, [0.0], [10.0], 1, no_germs)[0, 0] - expect) < 1e-12


def test_NQk_with_germs_equals_per_line_route(twoline):
    """N_Qk on the line stack is G_k - P_k line by line, P_k from the rational family.

    |P_3| reaches 1.9e3 on this grid, so the 1e-12 bound is relative to 1 + |N|."""
    germs = [infinity.GermAtInfinity(0.1, [0.2, 0.1j, 0.0]),
             infinity.GermAtInfinity(-0.2 + 0.1j, [0.5, 0.0, -0.3])]
    xs, ys = reconstruct._default_grid(twoline, (2.0, 2.5, 3.0), 16, (0.0, 0.2, -0.35))
    N = N_Qk(twoline, xs, ys, 3, infinity.Pk_family(germs, 3))
    rational = Pk_family_rational(germs, 3)
    for i, z in enumerate(map(LineParam, xs.ravel(), np.repeat(ys, xs.shape[1]))):
        for k in (1, 2, 3):
            want = G_k(twoline, z, k) - rational[k](z.x, z.y)
            assert abs(N[k - 1, i] - want) <= 1e-12 * (1 + abs(want))


def test_fiber_interior(interior, no_germs):
    z = LineParam(0.0, 10.0)
    _, (h,), _ = fibers(interior, [z.x], [z.y], 1, no_germs)
    assert abs(h[0] + 2.0 / 21.0) < 1e-12
    p = ProjPoint(*fiber_rows(z, h)[0])
    assert abs(p.w2 / p.w0 - 20.0 / 21.0) < 1e-12
    assert abs(line_eval(z, p)) < 1e-9


def test_fiber_two_line(twoline, no_germs):
    z = LineParam(0.0, 10.0)
    _, (h,), _ = fibers(twoline, [z.x], [z.y], 2, no_germs)
    got = sorted(h, key=lambda r: r.real)
    expect = sorted([-1.0 / 10.5, -1.0 / (10.0 - 1.0 / 3.0)])
    assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-9
    for row in fiber_rows(z, h):
        assert abs(line_eval(z, ProjPoint(*row))) < 1e-9


def test_fiber_conic_quadratic_oracle(conic, no_germs):
    for (x, y) in [(0.1, 10.0), (0.3, -8.0), (0.2j, 6.0 + 2.0j)]:
        _, (h,), _ = fibers(conic, [x], [y], 1, no_germs)
        assert abs(h[0] - conic_small_root(x, y)) < 1e-9


def test_fiber_newton_route_equals_direct(twoline, no_germs):
    """Newton-route fibers match direct root isolation of the intersection."""
    for a in np.linspace(0, 2 * np.pi, 5, endpoint=False):
        y = 6.0 * np.exp(1j * a)
        x = 0.3
        _, (h,), _ = fibers(twoline, [x], [y], 2, no_germs)
        direct = [-(x + 1) / (y + 0.5), -(x + 1) / (y - 1.0 / 3.0)]
        got = sorted(h, key=lambda r: (r.real, r.imag))
        want = sorted(direct, key=lambda r: (r.real, r.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-7


def test_degenerate_fiber_detection(twoline, no_germs):
    """Lines through the node z1=0, z2=1 collide the two roots: the line is skipped, with a reason."""
    # x*1 + y*0 + ... line through (1:0:1): x + z2 = 0 with z2 = 1: x = -1
    keep, rts, skipped = fibers(twoline, [-1.0, 0.0], [8.0, 8.0], 2, no_germs)
    assert keep.tolist() == [False, True] and rts.shape == (1, 2)
    [(z, reason)] = skipped
    assert z == LineParam(-1.0, 8.0) and reason.startswith("discriminant")


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


def test_sweep_offset_invariance(interior, no_germs, monkeypatch):
    """The swept point set is stable under re-randomized angular offsets."""
    c1 = sweep(interior, 1, no_germs, angles=32)
    monkeypatch.setattr(reconstruct, "ANGLE_OFFSET", 0.77)
    c2 = sweep(interior, 1, no_germs, angles=32)
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
def test_sweep_dedup_first_match(twoline, no_germs, eps, monkeypatch):
    """The array merge equals a pairwise first-match merge in sighting order.

    At 3e-2 some sightings lie within eps of two accepted points, so the
    order of the match matters.
    """
    monkeypatch.setattr(reconstruct, "MERGE_EPS", eps)
    cloud = sweep(twoline, 2, no_germs, angles=8)
    points, mult, source = [], [], []
    xs, ys = reconstruct._default_grid(twoline, (2.0, 2.5, 3.0), 8, (0.0, 0.2, -0.35))
    for z in map(LineParam, xs.ravel(), np.repeat(ys, xs.shape[1])):
        keep, rts, _ = fibers(twoline, [z.x], [z.y], 2, no_germs)
        if not keep[0]:
            continue
        for pt in (ProjPoint(*row.tolist()) for row in fiber_rows(z, rts[0])):
            for i, q in enumerate(points):
                if chordal(pt, q) < eps:
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
            assert chordal(pts[i], pts[j]) >= reconstruct.MERGE_EPS


def test_G0_consistency_on_sweep(twoline, no_germs):
    """Rounded G_0 equals p - q_inf at every swept line."""
    xs, ys = reconstruct._default_grid(twoline, (2.0, 3.0), 6, (0.0, 0.2))
    for g0 in indicators.G_lines(twoline, xs, ys, [0])[0].ravel():
        assert round(g0.real) == 2 and abs(g0 - 2.0) < 1e-8


SLOPES = (0.5, -1.0 / 3.0, 0.25j, -0.6 + 0.1j, 0.8j, -0.9 - 0.2j, 0.35 + 0.6j, 1.2)
GENERIC_3 = ((0.5, -1.0 / 3.0, 0.25j), (1.0, 1.5, -1.2))         # (slopes, intercepts)
CONCURRENT_3 = ((0.5, -1.0 / 3.0, 0.25j), (1.0, 1.0, 1.0))


def union_of_lines(p, n=1024):
    """Unit circles on the lines z2 = 1 + a z1 for the first p SLOPES."""
    return BoundaryData([oracles._line_loop(a, n) for a in SLOPES[:p]], [1] * p)


@pytest.fixture(scope="module")
def threeline():
    return union_of_lines(3)


@pytest.fixture(scope="module")
def fourline():
    return union_of_lines(4)


@pytest.mark.parametrize("name, slopes", [("twoline", (0.5, -1.0 / 3.0)),
                                          ("threeline", (0.5, -1.0 / 3.0, 0.25j))])
def test_fibers_match_closed_form_roots(name, slopes, no_germs, request):
    """Every accepted fiber of the default grid lies within 1e-12 of -(x+1)/(y+a).

    The loops are the lines z2 = 1 + a z1, so the fiber over L_z is exact.
    """
    b = request.getfixturevalue(name)
    xs, ys = reconstruct._default_grid(b, (2.0, 2.5, 3.0), 16, (0.0, 0.2, -0.35))
    keep, rts, _ = reconstruct.fibers(b, xs, ys, len(slopes), no_germs)
    assert keep.any()
    assert rts.shape == (keep.sum(), len(slopes))
    xs, ys = xs.ravel(), np.repeat(ys, xs.shape[1])
    for x, y, h in zip(xs[keep], ys[keep], rts):
        exact = np.array([-(x + 1.0) / (y + a) for a in slopes])
        assert np.array_equal(h, np.sort_complex(h))
        assert np.max(np.min(np.abs(h[:, None] - exact), axis=0)) < 1e-12
        assert np.max(np.min(np.abs(h[:, None] - exact), axis=1)) < 1e-12


def _lines(slopes, intercepts, n):
    """Positively oriented unit circles on the lines z2 = c + a z1, one per (a, c), with dw."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e = np.exp(1j * t)
    loops = [geometry.BoundaryLoop(t, np.stack([np.ones_like(e), e, c + a * e], axis=1),
                                   np.stack([0.0 * e, 1j * e, 1j * a * e], axis=1))
             for a, c in zip(slopes, intercepts)]
    return BoundaryData(loops, [1] * len(loops))


# name: (boundary at n samples, (slopes, intercepts) of its lines; None for the conic)
NO_DW_CASES = {
    "interior-line": (lambda n: oracles.interior_line(n=n), ((0.5,), (1.0,))),
    "exterior-line": (lambda n: oracles.exterior_line(n=n), ((0.5,), (1.0,))),
    "two-line": (lambda n: oracles.two_line(n=n), ((0.5, -1.0 / 3.0), (1.0, 1.0))),
    "conic": (lambda n: oracles.conic(n=n), None),
    "generic-3-line": (lambda n: _lines(*GENERIC_3, n), GENERIC_3),
    "concurrent-3-line": (lambda n: _lines(*CONCURRENT_3, n), CONCURRENT_3),
}


def _strip_dw(b):
    """b written to its JSON form and read back with every sample's "dw" deleted."""
    obj = geometry.boundary_to_json(b)
    for loop in obj["loops"]:
        for sample in loop["samples"]:
            del sample["dw"]
    return geometry.boundary_from_json(obj)


def _fit_and_fiber_error(b, lines):
    """Worst distance of the default grid's fibers, at the fit's p, from the exact sheets.

    The sheets are -(x + c) / (y + a) on lines, the conic's small root otherwise.  On
    exterior-line (p = 0) it is the distance of the fit's (B, A) from (1 + 2y, 2).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linsys.RankDeficient)     # (E0) on unions of lines
        fit, h, _ = linsys.fit_infinity(b)
    p = h.delta + fit.r
    if p == 0:
        assert fit.r == 1
        return np.max(np.abs(np.concatenate([fit.B - [1, 2], fit.A - [2]])))
    xs, ys = reconstruct._default_grid(b, (2.0, 2.5, 3.0), 16, (0.0, 0.2, -0.35))
    keep, rts, _ = fibers(b, xs, ys, p, infinity.Pk_family([], p))
    assert keep.any()
    x, y = xs.ravel()[keep, None], np.repeat(ys, xs.shape[1])[keep, None]
    if lines is None:
        exact = conic_small_root(x, y)
    else:
        exact = -(x + np.array(lines[1])) / (y + np.array(lines[0]))
    assert exact.shape == rts.shape
    dist = np.abs(rts[:, :, None] - exact[:, None, :])
    return max(np.max(np.min(dist, axis=1)), np.max(np.min(dist, axis=2)))


@pytest.mark.parametrize("n", [32, 64, 128, 1024])
@pytest.mark.parametrize("name", list(NO_DW_CASES))
def test_fibers_without_dw_match_fibers_with_dw(name, n):
    """Without dw the loops take velocities from their chart: every fit completes (no
    RoundingGuard or ResidueObstruction), and the fibers are within max(10 x the
    dw-given error, 1e-13) of the exact sheets.  The stored w is scaled to max modulus 1,
    which has kinks the chart does not see."""
    build, lines = NO_DW_CASES[name]
    b = build(n)
    given = _fit_and_fiber_error(b, lines)
    assert _fit_and_fiber_error(_strip_dw(b), lines) <= max(10 * given, 1e-13)


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
    monkeypatch.setattr(reconstruct, "MERGE_EPS", eps)
    cloud = sweep(b, p, no_germs, angles=32)
    assert cloud == sweep_per_line(b, p, no_germs, angles=32, merge_eps=eps)
    if eps > reconstruct.MERGE_EPS:
        assert len(cloud) < sum(cloud.multiplicity)


def test_sweep_outside_domain_raises(twoline, no_germs):
    """|x| >= m(y) and |y| <= rho are outside Z; |y| = 2 rho on the negative axis is inside."""
    for kw in ({"xfracs": (0.0, 1.5)}, {"xfracs": (1j,)}, {"radii": (2.0, 1.0)}):
        with pytest.raises(OutsideDomain):
            sweep(twoline, 2, no_germs, angles=4, **kw)
    assert len(sweep(twoline, 2, no_germs, angles=4, radii=(-2.0,))) > 0


def _scaled(W):
    """Rows of W scaled to max modulus 1, as the sweep scales its rows."""
    return W / np.max(np.abs(W), axis=1, keepdims=True)


def _circle_rows(n, r=1.0, phase=0.0):
    """(1 : h : h^2) at n equally spaced h on |h| = r: every row has the same key |a_0| / |a|."""
    h = r * np.exp(1j * (phase + 2 * np.pi * np.arange(n) / n))
    return _scaled(np.stack([np.ones_like(h), h, h * h], axis=1))


def _at_distance(a, d, rng):
    """A row at chordal distance min(d, 1) from the row a, in another gauge."""
    a = a / np.linalg.norm(a)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u -= np.vdot(a, u) * a
    phi = np.arcsin(min(d, 1.0))
    b = np.cos(phi) * a + np.sin(phi) * u / np.linalg.norm(u)
    return _scaled(b[None] * np.exp(2j * np.pi * rng.uniform()))[0]


def _point_set(seed, eps):
    """Random rows (1 : h : w2) with |h| up to 1e12, rows of one key, and one row planted at
    chordal distance eps * (1 - 1e-3) or eps * (1 + 1e-3) from each, shuffled; also the
    count planted below eps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    h = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 12, size=n)
    w2 = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3, size=n)
    rows = [_scaled(np.stack([np.ones(n), h, w2], axis=1)),
            _circle_rows(int(rng.integers(0, 12)), 10.0 ** rng.uniform(-2, 2), rng.uniform())]
    A = np.concatenate(rows)
    below = rng.integers(0, 2, size=len(A)).astype(bool)
    planted = [_at_distance(a, eps * (1 - 1e-3 if lo else 1 + 1e-3), rng)
               for a, lo in zip(A, below)]
    A = np.concatenate([A, planted])
    return A[rng.permutation(len(A))], int(np.count_nonzero(below))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-6, 1e-2, 3e-2, 0.5]))
def test_close_pairs_equal_all_pairs(seed, eps):
    """The key window finds every pair the all-pairs scan finds, and the clouds agree."""
    A, below = _point_set(seed, eps)
    with mock.patch.object(reconstruct, "MERGE_EPS", eps):
        i, j = close_pairs(A)
        kept, mult = merge_rows(A)
    ref = close_pairs_all(A, eps)
    assert np.array_equal(i, ref[0]) and np.array_equal(j, ref[1])
    assert len(i) >= below
    ref_kept, ref_mult = merge_first_match(len(A), ref)
    assert np.array_equal(kept, ref_kept) and mult == ref_mult


def test_key_moves_at_most_arcsin_of_the_chordal_distance():
    """||a_0| - |b_0|| <= arcsin(d) for unit rows a, b at chordal distance d, near and far."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(20000, 3)) + 1j * rng.normal(size=(20000, 3))
    step = 10.0 ** rng.uniform(-12, 1, size=(20000, 1))
    b = (a + step * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))) \
        * np.exp(2j * np.pi * rng.uniform(size=(20000, 1)))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    d = np.minimum(np.linalg.norm(np.cross(a, b), axis=1), 1.0)
    assert np.min(d) < 1e-11 and np.max(d) > 0.9
    assert np.all(np.abs(np.abs(a[:, 0]) - np.abs(b[:, 0])) <= np.arcsin(d) + 1e-15)


def test_close_pairs_in_small_chunks_on_equal_keys(monkeypatch):
    """2000 rows of one key make all 1999000 pairs candidates; in chunks of 2^8 pairs the
    pairs and the merge equal the all-pairs reference."""
    A = _circle_rows(2000)
    assert np.ptp(np.abs(A[:, 0]) / np.linalg.norm(A, axis=1)) < 1e-15
    ref = close_pairs_all(A, 1e-2)
    monkeypatch.setattr(geometry, "TILE_ENTRIES", 2 ** 8)
    monkeypatch.setattr(reconstruct, "MERGE_EPS", 1e-2)
    i, j = close_pairs(A)
    assert len(i) > len(A) and np.array_equal(i, ref[0]) and np.array_equal(j, ref[1])
    kept, mult = merge_rows(A)
    ref_kept, ref_mult = merge_first_match(len(A), ref)
    assert np.array_equal(kept, ref_kept) and mult == ref_mult and len(kept) < len(A)


def test_dedup_memory_is_bounded_on_equal_keys(monkeypatch):
    """On 2000 rows of one key the dedup holds under 2 MB at once, not its 1999000 pairs."""
    A = _circle_rows(2000)
    monkeypatch.setattr(geometry, "TILE_ENTRIES", 2 ** 8)
    monkeypatch.setattr(reconstruct, "MERGE_EPS", 1e-2)
    tracemalloc.start()
    try:
        merge_rows(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("name, p, rows", [("twoline", 2, 288), ("conic", 1, 144)])
def test_dedup_tests_few_pairs_per_point(name, p, rows, no_germs, request, monkeypatch):
    """The dedup evaluates at most 64 pairs per point; all pairs would be (rows - 1) / 2."""
    pairs = []
    cross = np.cross

    def counting_cross(a, b, *args, **kwargs):
        pairs.append(np.broadcast(a[..., 0], b[..., 0]).size)
        return cross(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "cross", counting_cross)
    cloud = sweep(request.getfixturevalue(name), p, no_germs)
    assert sum(cloud.multiplicity) == rows
    assert 0 < sum(pairs) <= 64 * rows


def test_sweep_with_germs_equals_per_line_loop(interior, line_germs):
    """Nonzero corrections P_k enter the batch as they enter one line."""
    cloud = sweep(interior, 1, line_germs, angles=8)
    assert cloud == sweep_per_line(interior, 1, line_germs, angles=8)


@pytest.mark.parametrize("n", [512, 1024, 4096])
@pytest.mark.parametrize("p", [3, 4])
def test_skips_equal_sylvester_rule(p, n, no_germs):
    """The skip test read off the roots declines the lines the Sylvester discriminant declines.

    Grid of 288 lines, N samples per loop.
    """
    b = union_of_lines(p, n)
    xs, ys = reconstruct._default_grid(b, (2.0, 2.5, 3.0), 32, (0.0, 0.2, -0.35))
    keep, _, skipped = reconstruct.fibers(b, xs, ys, p, no_germs)
    C = symmetric.monic_from_elementary(
        symmetric.power_to_elementary(N_Qk(b, xs, ys, p, no_germs))).T
    assert np.array_equal(~keep, sylvester_skips(C))
    assert len(skipped) == np.count_nonzero(~keep)
    if p == 3:
        assert keep.any() and not keep.all()


def test_skips_equal_sylvester_rule_too_many_sheets(interior, no_germs):
    """With p = 3 on the one-sheet interior line every fiber has a double root at 0."""
    xs, ys = reconstruct._default_grid(interior, (2.0, 2.5, 3.0), 16, (0.0, 0.2, -0.35))
    keep, _, _ = reconstruct.fibers(interior, xs, ys, 3, no_germs)
    C = symmetric.monic_from_elementary(
        symmetric.power_to_elementary(N_Qk(interior, xs, ys, 3, no_germs))).T
    assert np.array_equal(~keep, sylvester_skips(C))
    assert not keep.any()


@pytest.mark.parametrize("p", [5, 8])
def test_sweep_of_many_lines_completes(p):
    """Every line of a 5- and an 8-line union is rooted, the lines the gate skips too."""
    cloud = sweep(union_of_lines(p), p, infinity.Pk_family([], p))
    assert len(cloud.skipped) <= 144
    for q in cloud.points:
        assert min(abs(q.w2 - q.w0 - a * q.w1) for a in SLOPES[:p]) < 1e-8
