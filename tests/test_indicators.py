import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfr import cli, indicators, oracles
from cfr.geometry import BoundaryData, BoundaryLoop, LineParam, boundary_to_json, m_of_y, rho
from cfr.indicators import (DENOM_EPS, G_lines, NearIncidence, TruncationMismatch, delta,
                            laurent_extract)
from reference import (G110_check, G_k, circle_coeffs_y_dft, cross_check_gap,
                       laurent_coeffs_by_loops, laurent_evaluate, sampled_cross_check)


def test_G1_interior_residue_oracle(interior):
    # single simple pole of the integrand at t = -(x+1)/(y+a) inside |t|=1
    for (x, y) in [(0.0, 10.0), (0.3, 5.0 + 2.0j), (-0.4, -6.0)]:
        expect = -(x + 1.0) / (y + 0.5)
        assert abs(G_k(interior, LineParam(x, y), 1) - expect) < 1e-12


def test_G0_is_one_on_grid(interior):
    for y in 4.0 * np.exp(2j * np.pi * np.arange(5) / 5):
        for f in np.linspace(-0.5, 0.5, 5):
            val = G_k(interior, LineParam(f, y), 0)
            assert abs(val - 1.0) < 1e-10


def test_G1_exterior(exterior):
    assert abs(G_k(exterior, LineParam(0.0, 10.0), 1) - 2.0 / 21.0) < 1e-12


def test_delta_values(interior, exterior, twoline):
    assert delta(interior) == 1
    assert delta(exterior) == -1
    assert delta(twoline) == 2


def test_near_incidence_guard(interior):
    # a line through a boundary point: x + y z1 + z2 = 0 at t=1
    z1, z2 = 1.0, 1.5
    y = 3.0
    x = -(y * z1 + z2)
    with pytest.raises(NearIncidence):
        G_k(interior, LineParam(x, y), 1)
    # one incident line among the four of a 2 x 2 grid
    with pytest.raises(NearIncidence):
        G_lines(interior, [0.1, x, 0.1, x], [5.0, 5.0, y, y], [0, 1])


def _G_per_line(b, x, y, ks):
    """Reference: one line at a time, one np.sum per loop and k over every sample."""
    acc = np.zeros(len(ks), dtype=complex)
    for sign, lp in b.signed_loops():
        base = (y * lp.dz1 + lp.dz2) / (x + y * lp.z1 + lp.z2)
        h = lp.t[1] - lp.t[0]
        for i, k in enumerate(ks):
            acc[i] += sign * h * np.sum(lp.z1 ** k * base)
    return acc / (2.0j * np.pi)


FULL_SUM_TOL = 1e-13        # |G_lines - _G_per_line|: a certified stride against every sample


@pytest.mark.parametrize("name", ["interior", "twoline", "conic"])
def test_G_grid_matches_per_line_sums(name, request, rng):
    """G_lines on 35 values of y times 3 of x equals its one-line calls bit for bit, and the
    per-line full sums within FULL_SUM_TOL."""
    b = request.getfixturevalue(name)
    ks = [0, 1, 2, 3]
    ys = 3.0 * rho(b) * np.exp(2j * np.pi * rng.random(35))
    xs = [f * m_of_y(b, ys[0]) for f in (0.3 * rng.random(3) - 0.15)]
    # 105 lines, y-major as the sweep lists them: tiles of 128 at 64 samples
    got = G_lines(b, np.tile(xs, 35), np.repeat(ys, 3), ks)
    assert got.shape == (4, 105)
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            one = G_lines(b, [x], [y], ks)[:, 0]
            assert np.array_equal(got[:, 3 * iy + ix], one)
            assert np.max(np.abs(one - _G_per_line(b, x, y, ks))) <= FULL_SUM_TOL


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("n_x", [1, 3, 16])
@pytest.mark.parametrize("n_y", [2, 9])
def test_G_lines_grid_equals_per_line(n, n_x, n_y, rng):
    """n_y values of y times n_x of x listed y-major equal the same lines listed x-major bit
    for bit, and each entry the per-line full sum within FULL_SUM_TOL."""
    b = oracles.two_line(n=n)
    ks = [0, 1, 2]
    ys = rho(b) * (2.0 + rng.random(n_y)) * np.exp(2j * np.pi * rng.random(n_y))
    xs = (0.6 * rng.random((n_y, n_x)) - 0.3) * m_of_y(b, ys)[:, None]
    got = G_lines(b, xs.ravel(), np.repeat(ys, n_x), ks).reshape(3, n_y, n_x)
    x_major = G_lines(b, xs.T.ravel(), np.tile(ys, n_x), ks).reshape(3, n_x, n_y)
    assert np.array_equal(x_major, got.transpose(0, 2, 1))
    for a in range(n_y):
        for c in range(n_x):
            assert np.max(np.abs(got[:, a, c] - _G_per_line(b, xs[a, c], ys[a], ks))) <= FULL_SUM_TOL


@pytest.mark.parametrize("row, col", [(0, 0), (3, 1), (6, 2)])
def test_G_lines_grid_near_incidence(interior, row, col, monkeypatch):
    """One incident line anywhere among 7 x 3 lines, in 2^8-entry tiles, raises NearIncidence."""
    from cfr import geometry
    monkeypatch.setattr(geometry, "TILE_ENTRIES", 2 ** 8)
    ys = np.full(21, 5.0, dtype=complex)
    xs = np.full(21, 0.1, dtype=complex)
    j = 3 * row + col
    ys[j], xs[j] = 3.0, -(3.0 * 1.0 + 1.5)             # through the boundary point z1 = 1
    with pytest.raises(NearIncidence):
        G_lines(interior, xs, ys, [1])


@pytest.mark.parametrize("xs, ys", [([0.1, 0.2, 0.3], [5.0]), ([0.1], [5.0, 6.0]),
                                    ([0.1, 0.2], [5.0, 6.0, 7.0])])
def test_G_lines_rows_must_match_ys(interior, xs, ys):
    """Each line needs its own x and y: a length mismatch is an error, not a broadcast."""
    with pytest.raises(ValueError, match="values of x for"):
        G_lines(interior, xs, ys, [1])


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("count", [1, 8, 9, 32, 33])
def test_G_lines_rows_equal_G_k(n, count, rng):
    """A G_lines column is G_k of its line bit for bit, and the per-line full sum within
    FULL_SUM_TOL; the counts cross the tile edges of every stride."""
    b = oracles.two_line(n=n)
    ks = [0, 1, 2]
    ys = rho(b) * (2.0 + rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    xs = (0.6 * rng.random(count) - 0.3) * m_of_y(b, ys)
    got = G_lines(b, xs, ys, ks)
    assert got.shape == (3, count)
    for j in range(count):
        assert np.array_equal(got[:, j], G_k(b, LineParam(xs[j], ys[j]), ks))
        assert np.max(np.abs(got[:, j] - _G_per_line(b, xs[j], ys[j], ks))) <= FULL_SUM_TOL


def test_G_lines_near_incidence(interior):
    x = -(3.0 * 1.0 + 1.5)            # the line through the boundary point z1 = 1
    with pytest.raises(NearIncidence):
        G_lines(interior, [0.1] * 40 + [x], [5.0] * 40 + [3.0], [1])


@pytest.fixture
def strides(monkeypatch):
    """The (samples per loop, offset, stride, size sums formed) of every pass G_lines makes,
    in call order: the pass sums the samples offset, offset + stride, ..."""
    seen = []
    inner = indicators._stride_sums

    def spy(arrs, part, *args, **kw):
        S, size = inner(arrs, part, *args, **kw)
        seen.append((len(arrs[0]),) + part.indices(len(arrs[0]))[::2] + (size is not None,))
        return S, size

    monkeypatch.setattr(indicators, "_stride_sums", spy)
    return seen


def test_G_lines_odd_n_sums_every_sample(strides):
    """N = 1001 has no power-of-two stride: one pass over every sample, which takes no test and
    so forms no size sum, with the full sum's bits."""
    b = oracles.two_line(n=1001)
    ys = rho(b) * np.array([2.0, 2.5j, -3.0])
    xs = 0.2 * m_of_y(b, ys)
    got = G_lines(b, xs, ys, [0, 1, 2])
    assert strides == [(1001, 0, 1, False)] * 2         # one pass per loop, no size sum
    for j in range(3):
        assert np.array_equal(got[:, j], _G_per_line(b, xs[j], ys[j], [0, 1, 2]))


@pytest.mark.parametrize("n", [512, 1024, 4096])
def test_G_lines_certified_passes_are_disjoint(strides, n):
    """The passes of a certified line touch disjoint samples, and together every s-th sample
    of its final stride s: each sample is summed once."""
    b = oracles.interior_line(n=n)
    for y in rho(b) * np.array([2.0, 2.5j, -3.0 + 0.5j]):
        strides.clear()
        G_lines(b, [0.2 * m_of_y(b, y)], [y], [0, 1, 2])
        s = strides[-1][1]
        assert strides[-1][2] == 2 * s > 2                  # certified: U_s was the last pass
        assert all(sized for *_, sized in strides)          # every tested pass has its sizes
        seen = np.concatenate([np.arange(n)[off::step] for _, off, step, _ in strides])
        assert np.array_equal(np.sort(seen), np.arange(0, n, s))


@pytest.mark.parametrize("j", [1, 3, 513])
@pytest.mark.parametrize("off", [0.0, 1e-10])
def test_G_lines_near_incidence_at_odd_sample(interior, j, off):
    """A line through, or 1e-10 off, a sample only the full sum touches still raises.

    Coarse sums skip odd j, but the pole beside them keeps any two from agreeing,
    so the line falls to s = 1, whose DENOM_EPS check sees the sample.
    """
    lp = interior.loops[0]
    y = 3.0 * np.exp(0.4j)
    x = -(y * lp.z1[j] + lp.z2[j]) + off
    with pytest.raises(NearIncidence):
        G_lines(interior, [x], [y], [1])
    with pytest.raises(NearIncidence):
        G_lines(interior, [0.1] * 40 + [x], [5.0] * 40 + [y], [0, 1])


def test_G_lines_uncertified_line_takes_every_sample(interior, strides):
    """A line 1e-4 off the boundary image certifies at no stride: after stride 64 the odd
    multiples of 32, 16, .., 2 are added, each with its size sums, then one fresh pass over
    every sample, with none, gives the full sum's bits; a line in Z stops at 128 samples
    (stride 8)."""
    lp = interior.loops[0]
    y = 3.0 * np.exp(0.4j)
    x = -(y * lp.z1[5] + lp.z2[5]) + 1e-4
    got = G_lines(interior, [x], [y], [1, 2])[:, 0]
    assert strides == ([(1024, 0, 64, True)] + [(1024, s, 2 * s, True) for s in (32, 16, 8, 4, 2)]
                       + [(1024, 0, 1, False)])
    assert np.array_equal(got, _G_per_line(interior, x, y, [1, 2]))
    strides.clear()
    G_lines(interior, [0.2 * m_of_y(interior, y)], [y], [1, 2])
    assert strides[-1][1] >= 8


def _line_loop(a, c, n):
    """The circle |z1| = 1 on the line z2 = c + a z1."""
    e = lambda t: np.exp(1j * t)
    return oracles._loop_from_maps(n, lambda t: (np.ones_like(e(t)), e(t), c + a * e(t)),
                                   lambda t: (0 * e(t), 1j * e(t), 1j * a * e(t)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.sampled_from([64, 96, 512, 1000, 1024]))
def test_G_lines_certified_on_line_unions(seed, count, n):
    """On unions of generic lines and random lines of Z, batch and one-line results agree bit
    for bit, and each lies within FULL_SUM_TOL of the full sum."""
    r = np.random.default_rng(seed)
    polar = lambda lo, hi, k: (lo + (hi - lo) * r.random(k)) * np.exp(2j * np.pi * r.random(k))
    b = BoundaryData([_line_loop(a, c, n) for a, c in zip(polar(0.1, 1.5, count),
                                                          polar(0.5, 2.0, count))],
                     list(r.choice([1, -1], count)))
    ks = [0, 1, 2, 3]
    ys = rho(b) * polar(1.5, 4.0, 3)
    xs = (0.9 * r.random((3, 2)) - 0.45) * m_of_y(b, ys)[:, None]
    got = G_lines(b, xs.ravel(), np.repeat(ys, 2), ks).reshape(4, 3, 2)
    for a in range(3):
        for c in range(2):
            one = G_lines(b, [xs[a, c]], [ys[a]], ks)[:, 0]
            assert np.array_equal(got[:, a, c], one)
            assert np.max(np.abs(one - _G_per_line(b, xs[a, c], ys[a], ks))) <= FULL_SUM_TOL


def test_quadrature_doubling(interior):
    b2 = oracles.interior_line(n=512)
    b3 = oracles.interior_line(n=1024)
    z = LineParam(0.2, 4.0 + 1.0j)
    for k in (0, 1, 2):
        assert abs(G_k(b2, z, k) - G_k(b3, z, k)) < 1e-10


def test_holomorphy_stencil(interior):
    """4-point discrete Cauchy-Riemann residual in each variable inside Z."""
    h = 1e-3
    z0 = (0.1, 4.5 + 0.5j)
    for var in (0, 1):
        def at(dx):
            zz = list(z0)
            zz[var] = zz[var] + dx
            return G_k(interior, LineParam(*zz), 1)
        # f(z0+h) - f(z0-h) =~ -i (f(z0+ih) - f(z0-ih)) for holomorphic f
        d_re = at(h) - at(-h)
        d_im = at(1j * h) - at(-1j * h)
        assert abs(d_re - (-1j) * d_im) / (2 * h) < 1e-6


def test_G0_constant_on_component(interior):
    vals = [G_k(interior, LineParam(0.1 * f, 4.0 * np.exp(1j * a)), 0)
            for f in range(3) for a in np.linspace(0, 6, 6)]
    assert np.var(np.real(vals)) < 1e-10


def test_laurent_examples(interior, exterior, twoline, interior_lt):
    t = interior_lt
    assert abs(t.coeffs[1, 1, 0] + 1.0) < 1e-10          # G_{1,1}^0 = -1
    assert np.max(np.abs(t.coeffs[0, 1:, :])) < 1e-10    # G_{0,m} = 0
    for k, sign in ((1, -1), (2, 1), (3, -1)):           # (-1)^k delta
        assert abs(t.coeffs[k, k, k] - sign) < 1e-10
    tx = laurent_extract(exterior, 2, 8, cross_check=False)
    assert np.max(np.abs(tx.coeffs[0, 1:, :])) < 1e-10
    t2 = laurent_extract(twoline, 2, 8, cross_check=False)
    assert np.max(np.abs(t2.coeffs[0, 1:, :])) < 1e-10


def test_laurent_cross_check_runs(interior):
    laurent_extract(interior, kmax=2, mmax=6, cross_check=True)


@pytest.mark.parametrize("name", ["interior", "twoline", "conic"])
def test_laurent_cross_check_fires(name, request):
    b = request.getfixturevalue(name)
    t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    indicators._circle_cross_check(b, t)
    t.coeffs[1, 2, 0] += 1e-5
    with pytest.raises(TruncationMismatch):
        indicators._circle_cross_check(b, t)


@pytest.mark.parametrize("name", ["interior", "exterior", "twoline", "conic"])
def test_laurent_cross_check_gap(name, request):
    """The 16-point x-DFT of the 1/y expansion agrees with the moment table to 1e-9.

    A 2e-6 change to one coefficient, twice LAURENT_XCHECK_TOL, is caught.
    """
    b = request.getfixturevalue(name)
    t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    assert indicators.XCHECK_NX == 16
    assert indicators._circle_cross_check(b, t) <= 1e-9
    t.coeffs[2, 5, 3] += 2e-6
    with pytest.raises(TruncationMismatch):
        indicators._circle_cross_check(b, t)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("name", ["interior_line", "exterior_line", "two_line", "conic"])
def test_closed_form_cross_check_equals_sampled_route(name, n):
    """The closed-form x sums agree with G_k sampled on the grid and an FFT.

    Per coefficient within 1e-7, and both routes catch a 2e-6 change to one
    coefficient.
    """
    b = getattr(oracles, name)(n=n)
    t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    got = indicators._circle_coeffs(b, t.kmax, t.mmax)
    _, ref = sampled_cross_check(b, t)
    assert got.shape == ref.shape == (3, 13, 13)
    n_le_m = np.arange(13) <= np.arange(13)[:, None]
    assert np.max(np.abs(got - ref)[:, n_le_m]) <= 1e-7
    t.coeffs[1, 4, 2] += 2e-6
    with pytest.raises(TruncationMismatch):
        indicators._circle_cross_check(b, t)
    with pytest.raises(TruncationMismatch):
        sampled_cross_check(b, t)


def _small_interior_line(s, n=256):
    """The interior line with w2 scaled by s: rho and every m(y) scale by s."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e = np.exp(1j * t)
    w = np.stack([np.ones_like(e), e, s * (1.0 + 0.5 * e)], axis=1)
    dw = np.stack([np.zeros_like(e), 1j * e, s * 0.5j * e], axis=1)
    return BoundaryData([BoundaryLoop(t, w, dw)], [1])


def test_closed_form_cross_check_near_incidence(tmp_path):
    """A loop with every m(y) under DENOM_EPS on |y| = 2 rho: only the y circle is near incidence.

    The sampled route raises NearIncidence there.  The program's check divides
    only by z1 and agrees with the table; `cfr pipeline` still exits 2 with
    NearIncidence, raised by the sweep's line kernel.
    """
    b = _small_interior_line(1e-10)                # m(y) <= 4.5e-10 on |y| = 2 rho
    t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    assert np.max(m_of_y(b, 2 * rho(b) * np.exp(1j * np.arange(8)))) < DENOM_EPS
    with pytest.raises(NearIncidence):
        sampled_cross_check(b, t)
    assert indicators._circle_cross_check(b, t) <= 1e-12
    path = tmp_path / "small.json"
    path.write_text(json.dumps(boundary_to_json(b)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["pipeline", "--boundary", str(path)]) == 2
    assert json.loads(err.getvalue())["type"] == "NearIncidence"


@pytest.fixture(scope="module")
def perfbench_families():
    """perfbench/families.py, loaded from its file (perfbench is not a package on the path)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# Under this gap both routes sit at the rounding of the table's O(1) entries
# (the conic at N = 128: 2.9e-13 here, 2.2e-13 on the y circle), so a ratio
# of the two compares rounding noise.
GAP_RATIO_FLOOR = 5e-13


@pytest.mark.parametrize("n", [128, 1024, 4096])
def test_cross_check_gap_on_perfbench_families(n, perfbench_families):
    """On every perfbench family the gap is <= 1e-10 and <= 1.1 x the y-circle route's."""
    for name in perfbench_families.FAMILIES:
        for seed in range(1 if name == "conic" else 3):
            b = perfbench_families.draw(np.random.default_rng(seed), name, n).boundary()
            t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
            gap = indicators._circle_cross_check(b, t)
            ref = cross_check_gap(t, circle_coeffs_y_dft(b, 2, 12))
            assert gap <= 1e-10, (name, seed, gap)
            assert gap <= 1.1 * max(ref, GAP_RATIO_FLOOR), (name, seed, gap, ref)


@pytest.mark.parametrize("name", ["two_line", "conic"])
def test_cross_check_catches_any_entry(name):
    """A 2e-6 change to any single entry k <= 2, n <= m <= 12 raises TruncationMismatch."""
    b = getattr(oracles, name)(n=256)
    t = laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    indicators._circle_cross_check(b, t)
    for k, m, n in np.ndindex(t.coeffs.shape):
        if n <= m:
            t.coeffs[k, m, n] += 2e-6
            with pytest.raises(TruncationMismatch):
                indicators._circle_cross_check(b, t)
            t.coeffs[k, m, n] -= 2e-6


def test_laurent_reconstructs_Gk(interior, interior_lt):
    R = 2 * 1.5
    for k in (0, 1, 2):
        for a in np.linspace(0.1, 6.0, 5):
            y = R * np.exp(1j * a)
            from cfr.geometry import m_of_y
            x = 0.5 * m_of_y(interior, y) * 0.5
            direct = G_k(interior, LineParam(x, y), k)
            approx = laurent_evaluate(interior_lt, k, x, y)
            assert abs(direct - approx) < 1e-6


def test_laurent_caps():
    """Caps outside 0..12 are a ValueError before any work, checked or not."""
    b = oracles.interior_line(n=64)
    for kmax, mmax in [(13, 4), (4, 13), (-1, 4), (4, -1), (-3, -2)]:
        for cross_check in (True, False):
            with pytest.raises(ValueError, match=r"0 <= kmax, mmax <= 12"):
                laurent_extract(b, kmax=kmax, mmax=mmax, cross_check=cross_check)


LAURENT_CAPS = [(0, 0), (0, 5), (2, 0), (2, 12), (3, 12), (12, 12)]


def _same_bits(x, y):
    """Equal arrays with equal signs of every real and imaginary part, zeros included."""
    return (np.array_equal(x, y) and np.array_equal(np.signbit(x.real), np.signbit(y.real))
            and np.array_equal(np.signbit(x.imag), np.signbit(y.imag)))


@pytest.mark.parametrize("caps", LAURENT_CAPS)
@pytest.mark.parametrize("name", ["interior", "exterior", "twoline", "conic"])
def test_laurent_table_equals_loop_reference(name, caps, request):
    """The read-set moments and array assembly give the full-rectangle loop's bits."""
    b = request.getfixturevalue(name)
    assert _same_bits(laurent_extract(b, *caps, cross_check=False).coeffs,
                      laurent_coeffs_by_loops(b, *caps))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["interior_line", "exterior_line", "two_line", "conic"]),
       st.sampled_from(LAURENT_CAPS), st.integers(0, 2 ** 32 - 1), st.floats(1e-12, 1e-3))
def test_laurent_table_equals_loop_reference_perturbed(name, caps, seed, eps):
    """Same bits on an oracle whose w2 samples carry a relative perturbation eps."""
    rng = np.random.default_rng(seed)
    b = getattr(oracles, name)(n=256)
    loops = []
    for lp in b.loops:
        f = 1.0 + eps * (rng.standard_normal(len(lp)) + 1j * rng.standard_normal(len(lp)))
        w, dw = lp.w.copy(), lp.dw.copy()
        w[:, 2] *= f
        dw[:, 2] *= f
        loops.append(BoundaryLoop(lp.t, w, dw))
    b = BoundaryData(loops, b.orientation)
    assert _same_bits(laurent_extract(b, *caps, cross_check=False).coeffs,
                      laurent_coeffs_by_loops(b, *caps))


def test_G110_first_order_display(interior, interior_lt):
    """The displayed first-order formula, including its exact-form term."""
    val, exact, flagged = G110_check(interior)
    assert abs(exact) < 1e-10 and not flagged
    assert abs(val - interior_lt.coeffs[1, 1, 0]) < 1e-10


def test_delta_rounding_guard():
    """Corrupted velocity data makes the winding integral non-integral."""
    from cfr.geometry import BoundaryData, BoundaryLoop
    th = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), 1 + 0.5 * np.exp(1j * th)], axis=1)
    dw = 0.5 * np.stack([np.zeros_like(th, dtype=complex),
                         1j * np.exp(1j * th), 0.5j * np.exp(1j * th)], axis=1)
    bad = BoundaryData([BoundaryLoop(th, w, dw)], [1])
    with pytest.raises(indicators.RoundingGuard):
        delta(bad)
