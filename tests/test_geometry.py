import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfr import cli, geometry, oracles
from cfr.geometry import (BoundaryData, BoundaryLoop, LineParam, OutsideDomain, ProjPoint,
                          boundary_from_json, boundary_to_json, m_of_y, numbers, read_json, rho)
from reference import (ChartUndefined, affine_chart, boundary_from_json_per_element,
                       boundary_to_json_per_element, in_Z, line_eval, load_boundary_json,
                       m_of_y_full)


def dense_theta_oracle(fn, n=200000):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return fn(np.exp(1j * th))


def test_affine_chart_examples():
    assert np.allclose(affine_chart(ProjPoint(1, 2, 3), 0), (2, 3))
    assert np.allclose(affine_chart(ProjPoint(0, 1, 0.5), 2), (0, 2))
    p = ProjPoint(1.0, np.exp(0.5j * np.pi), 1.5)
    a, b = affine_chart(p, 0)
    assert abs(a - 1j) < 1e-14 and abs(b - 1.5) < 1e-14
    with pytest.raises(ChartUndefined):
        affine_chart(ProjPoint(0, 1, 0.5), 0)


def test_rho_line_oracle(interior):
    # dense-grid oracle of max |e^{-i t} + 1/2|
    expect = dense_theta_oracle(lambda t: np.max(np.abs(1.0 / t + 0.5)))
    assert abs(rho(interior) - 1.5) < 1e-12
    assert abs(rho(interior) - expect) < 1e-7


def test_rho_constant_modulus_loop():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), 0.7 * np.exp(2j * th)], axis=1)
    lp = BoundaryLoop(th, w)
    assert abs(rho(BoundaryData([lp], [1])) - 0.7) < 1e-12


def test_rho_two_line(twoline):
    assert abs(rho(twoline) - max(1.5, 4.0 / 3.0)) < 1e-12


def test_m_of_y(interior):
    assert abs(m_of_y(interior, 10.0) - 9.5) < 1e-12
    assert abs(m_of_y(interior, -10.0) - 8.5) < 1e-12
    expect = dense_theta_oracle(lambda t: np.min(np.abs(10.0 * t + 1 + 0.5 * t)))
    assert abs(m_of_y(interior, 10.0) - expect) < 1e-7
    with pytest.raises(OutsideDomain):
        m_of_y(interior, 1.0)


def _random_loop(r, n, plant=None, top=0.0):
    """A noisy loop on |z1| ~ 1 whose |p|, p = z2/z1, peaks near sample plant; with plant = j,
    |p_j| is then set to 1.05 times the largest of top and the other |p|, so a y just past
    -p_j puts m(y) at sample j."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    noise = lambda: 0.05 * (r.standard_normal(n) + 1j * r.standard_normal(n))
    c = (0.5 + r.random()) * np.exp(2j * np.pi * r.random())
    z1 = np.exp(1j * t) * (1.0 + noise())
    p = c * (2.0 + np.cos(t - t[plant or 0]) + np.exp(1j * t)) + noise()
    if plant is not None:
        p[plant] *= 1.05 * max(top, np.max(np.abs(np.delete(p, plant)))) / abs(p[plant])
    return BoundaryLoop(t, np.stack([np.ones(n), z1, z1 * p], axis=1), np.zeros((n, 3)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from([16, 257, 999, 1001, 1024, 4096]),
                                              min_size=1, max_size=3),
       st.sampled_from(["none", "last", "edge"]))
def test_m_of_y_equals_every_sample(seed, ns, plant):
    """The bounded search gives the every-sample minimum bit for bit on random loops, from
    just above rho to 10 rho, also with the minimum planted at the last sample or at a block
    edge of the first loop; each entry equals its one-y call, also in 64-entry tiles."""
    r = np.random.default_rng(seed)
    edge = geometry.BLOCK * int(r.integers(1, max(2, ns[0] // geometry.BLOCK + 1))) - 1
    j = {"none": None, "last": ns[0] - 1, "edge": min(edge + int(r.integers(0, 2)), ns[0] - 1)}
    rest = [_random_loop(r, n) for n in ns[1:]]
    top = max([np.max(np.abs(lp.z2 / lp.z1)) for lp in rest], default=0.0)
    loops = [_random_loop(r, ns[0], j[plant], top)] + rest
    b = BoundaryData(loops, list(r.choice([1, -1], len(loops))))
    ys = rho(b) * (1.0 + np.array([1e-12, 1e-6, *(9.0 * r.random(6))]))
    ys = ys * np.exp(2j * np.pi * r.random(8))
    if plant != "none":                 # just past -p_j, where sample j is the nearest
        lp, k = loops[0], j[plant]
        ys[:2] = -(lp.z2[k] / lp.z1[k]) * (1.0 + np.array([1e-12, 1e-6]))
        assert np.argmin(np.abs(ys[0] * lp.z1 + lp.z2)) == k
    want = m_of_y_full(b, ys)
    assert np.array_equal(m_of_y(b, ys), want)
    assert np.array_equal([m_of_y(b, y) for y in ys], want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "TILE_ENTRIES", 64)
        assert np.array_equal(m_of_y(b, ys), want)
        assert np.array_equal([m_of_y(b, y) for y in ys], want)


@pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-12, 1e-9])
def test_m_of_y_tight_bound(eps):
    """Block 0 puts p_3 on the segment from p_c to -y, R = |p_3 - p_c| and |z1| = 1, so its
    lower bound is m(y) = |y + p_3| itself; block 1's centre is a factor 1 + eps above it.
    Block 0 must still be evaluated: the slack covers the bound's rounding."""
    r = np.random.default_rng(5)
    n, c = 2 * geometry.BLOCK, geometry.BLOCK // 2
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    for turn in np.exp(2j * np.pi * r.random(8)):
        y, dist, rad = 10.0 * turn, 2.0 * turn, 0.5 * turn
        disc = np.sqrt(r.random(n // 2)) * np.exp(2j * np.pi * r.random(n // 2))
        p = np.concatenate([-y + dist + rad * disc, np.full(n // 2, -y + 2.0 * dist)])
        p[c], p[3] = -y + dist, -y + dist - rad
        p[n // 2 + c] = -y + (dist - rad) * (1.0 + eps)
        z1 = np.exp(1j * t)
        lp = BoundaryLoop(t, np.stack([np.ones(n), z1, z1 * p], axis=1), np.zeros((n, 3)))
        b = BoundaryData([lp], [1])
        assert eps < 1e-12 or np.argmin(np.abs(y * lp.z1 + lp.z2)) == 3   # else a near-tie
        assert m_of_y(b, y) == m_of_y_full(b, y)


def test_m_of_y_non_finite_y(twoline):
    """A NaN or infinite y makes every block's bound NaN or infinite, and every block is
    evaluated: the result is the every-sample one, NaN included."""
    ys = np.array([np.nan, np.inf, -np.inf, complex(np.inf, 1.0), complex(np.nan, 5.0), 7.0,
                   1e300, 1e200j])
    with np.errstate(invalid="ignore", over="ignore"):      # inf * z1 warns on either route
        assert np.array_equal(m_of_y(twoline, ys), m_of_y_full(twoline, ys), equal_nan=True)


def test_m_of_y_lone_last_sample():
    """A loop of 8 BLOCK + 1 samples with the minimum at its last sample: cut into plain blocks,
    that sample would be a one-element product, which numpy can round otherwise than the
    every-sample product.  Its block is completed from the loop's start, and each m(y) keeps
    the every-sample bits."""
    r = np.random.default_rng(3)
    n = 8 * geometry.BLOCK + 1
    for _ in range(20):
        lp = _random_loop(r, n, plant=n - 1)
        b = BoundaryData([lp], [1])
        ys = -(lp.z2[-1] / lp.z1[-1]) * (1.0 + np.geomspace(1e-12, 1e-3, 150))
        want = m_of_y_full(b, ys)
        assert np.all(want == np.abs(ys * lp.z1[-1] + lp.z2[-1]))       # the last sample
        assert np.array_equal(m_of_y(b, ys), want)
        assert np.array_equal([m_of_y(b, y) for y in ys[:10]], want[:10])


def test_m_monotone_divergence(interior):
    vals = [m_of_y(interior, y) for y in (10.0, 100.0, 1000.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 900


def test_in_Z(interior):
    assert in_Z(interior, LineParam(0.0, 10.0))
    assert not in_Z(interior, LineParam(0.0, 1.0))
    assert not in_Z(interior, LineParam(9.6, 10.0))


def test_in_Z_incidence_guard(interior):
    # no boundary sample within 1e-6 of an admissible line
    for y in (4.0, 3.0 + 2.0j, -5.0):
        m = m_of_y(interior, y)
        for f in (0.0, 0.5, -0.7):
            z = LineParam(f * m * 0.98, y)
            if not in_Z(interior, z):
                continue
            res = min(np.min(np.abs(z.x + z.y * lp.z1 + lp.z2))
                      for lp in interior.loops)
            assert res > 1e-6


def test_line_eval():
    assert line_eval(LineParam(0, 0), ProjPoint(1, 5, 0)) == 0
    assert abs(line_eval(LineParam(1, 1), ProjPoint(1, 1, -2))) < 1e-14
    assert abs(line_eval(LineParam(1, 0), ProjPoint(1, 0, 1)) - 2) < 1e-14


def test_gauge_invariance(interior, rng):
    """rho/m are invariant under random per-sample rescalings of the gauge."""
    lp = interior.loops[0]
    scale = np.exp(rng.standard_normal(len(lp)) + 1j * rng.uniform(0, 2 * np.pi, len(lp)))
    w = lp.w * scale[:, None]
    dw = lp.dw * scale[:, None]
    b2 = BoundaryData([BoundaryLoop(lp.t.copy(), w, dw)], [1])
    assert abs(rho(b2) - rho(interior)) < 1e-12
    assert abs(m_of_y(b2, 7.0) - m_of_y(interior, 7.0)) < 1e-12


def test_loop_validation():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), np.exp(2j * th)], axis=1)
    with pytest.raises(ValueError):
        BoundaryLoop(th ** 1.1, w, w)  # non-uniform parameters
    wz = w.copy()
    wz[3, 2] = 0.0
    with pytest.raises(ValueError):
        BoundaryLoop(th, wz, w)  # coordinate hits zero
    with pytest.raises(ValueError):
        BoundaryData([], [])
    lp = BoundaryLoop(th, w, w)
    with pytest.raises(ValueError):
        BoundaryData([lp], [2])


def test_duplicated_endpoint_layout():
    th = np.linspace(0, 2 * np.pi, 65)  # duplicated endpoint
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), 1 + 0.5 * np.exp(1j * th)], axis=1)
    dw = np.stack([np.zeros_like(th, dtype=complex),
                   1j * np.exp(1j * th), 0.5j * np.exp(1j * th)], axis=1)
    lp = BoundaryLoop(th, w, dw)
    assert len(lp) == 64


def test_chart_velocities_with_duplicated_endpoint():
    """A file without dw that repeats its first sample at t = 2pi: the repeat is dropped first.

    The stored w is scaled to max modulus 1, as make-oracle writes it; that scale has a
    kink where |1 + 0.5 e^(it)| crosses 1, and the chart z1 = e^(it), z2 = 1 + 0.5 e^(it)
    does not see it.
    """
    th = np.linspace(0, 2 * np.pi, 65)
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), 1 + 0.5 * np.exp(1j * th)], axis=1)
    w /= np.max(np.abs(w), axis=1, keepdims=True)
    samples = [{"t": float(t), "w": [[c.real, c.imag] for c in row.tolist()]}
               for t, row in zip(th, w)]
    b = boundary_from_json({"loops": [{"orientation": 1, "samples": samples}]})
    lp = b.loops[0]
    assert len(lp) == 64
    e = np.exp(1j * lp.t)
    assert np.max(np.abs(lp.dz1 - 1j * e)) < 1e-12
    assert np.max(np.abs(lp.dz2 - 0.5j * e)) < 1e-12


def test_synth_velocities_accuracy():
    """A loop given without dw takes w0 * (0, dz1, dz2) from the FFT derivative of its chart."""
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    w = np.stack([np.ones_like(th, dtype=complex),
                  np.exp(1j * th), np.exp(2j * th)], axis=1)
    dw = BoundaryLoop(th, w).dw
    exact = np.stack([np.zeros_like(th, dtype=complex),
                      1j * np.exp(1j * th), 2j * np.exp(2j * th)], axis=1)
    assert np.max(np.abs(dw - exact)) < 1e-12


def test_json_roundtrip(interior):
    obj = boundary_to_json(interior)
    b2 = boundary_from_json(obj)
    assert abs(rho(b2) - rho(interior)) < 1e-14
    z = LineParam(0.2, 5.0)
    from reference import G_k
    assert abs(G_k(b2, z, 1) - G_k(interior, z, 1)) < 1e-12


def test_velocity_synthesis_from_smooth_gauge():
    """Velocities absent from the file come from the chart, which no gauge changes."""
    n = 1024
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    samples = [{"t": float(t),
                "w": [[1.0, 0.0],
                      [float(np.cos(t)), float(np.sin(t))],
                      [1 + 0.5 * float(np.cos(t)), 0.5 * float(np.sin(t))]]}
               for t in th]
    b = boundary_from_json({"loops": [{"orientation": 1, "samples": samples}]})
    from reference import G_k
    z = LineParam(0.1, 6.0)
    assert abs(G_k(b, z, 1) - (-(0.1 + 1) / 6.5)) < 1e-9


def _hand_written_loop(n, with_dw):
    """The interior line as a file might spell it: int entries and -0.0 parts."""
    samples = []
    for i, t in enumerate(np.linspace(0, 2 * np.pi, n, endpoint=False)):
        c, s = float(np.cos(t)), float(np.sin(t))
        zero = -0.0 if i % 2 else 0
        sample = {"t": float(t) if i else 0, "w": [[1, zero], [c, s], [1 + 0.5 * c, 0.5 * s]]}
        if with_dw:
            sample["dw"] = [[0, -0.0], [-s, c], [-0.5 * s, 0.5 * c]]
        samples.append(sample)
    return {"orientation": 1 if with_dw else -1, "samples": samples}


def test_boundary_from_json_equals_per_element_parse(twoline):
    """The array parse gives the arrays of one complex() per pair, byte for byte."""
    objs = [boundary_to_json(twoline),
            {"loops": [_hand_written_loop(64, True), _hand_written_loop(64, False)]}]
    for obj in objs:
        obj = json.loads(json.dumps(obj))
        got, ref = boundary_from_json(obj), boundary_from_json_per_element(obj)
        assert got.orientation == ref.orientation
        assert len(got.loops) == len(ref.loops) == 2
        for a, b in zip(got.loops, ref.loops):
            for name in ("t", "w", "dw"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert np.signbit(got.loops[0].w[1, 0].imag)       # a -0.0 part survives the parse


def test_boundary_to_json_equals_per_element_build(twoline):
    """The array build gives the dict, and so the text, of one float() per part."""
    loops = [_hand_written_loop(64, True)]
    hand = boundary_from_json({"loops": loops})
    for b in [hand, twoline] + [make() for make in oracles.ORACLES.values()]:
        got, ref = boundary_to_json(b), boundary_to_json_per_element(b)
        assert got == ref
        assert cli.dumps(got) == cli.dumps(ref) and json.dumps(got) == json.dumps(ref)
    assert "-0.0" in json.dumps(boundary_to_json(hand))


# -- the boundary file: orjson and the flat-list parse against json.load and np.array ---------

BIG = "123456789012345678901234567890"          # past 64 bits: orjson reads a float, json an int


def _interior_text(*edits):
    """The interior line at 32 samples as json.dumps text after each (path, value) edit, a
    path holding the keys and indices from the loop to the entry."""
    obj = boundary_to_json(oracles.interior_line(n=32))
    for path, value in edits:
        node = obj["loops"][0]
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    return json.dumps(obj)


def _edge_texts():
    """name -> bytes of boundary files at the edges of what json and orjson accept."""
    base = _interior_text()
    sentinel = _interior_text((("samples", 5, "w", 1, 0), 1234.5))
    texts = {
        "nan-t": _interior_text((("samples", 5, "t"), float("nan"))),
        "nan-w": _interior_text((("samples", 5, "w", 1, 0), float("nan"))),
        "infinity-dw": _interior_text((("samples", 5, "dw", 2, 1), float("inf"))),
        "minus-infinity-t": _interior_text((("samples", 5, "t"), -float("inf"))),
        "1e400-w": sentinel.replace("1234.5", "1e400"),
        "minus-1e-400-w": sentinel.replace("1234.5", "-1e-400"),
        "big-int-t": _interior_text((("samples", 5, "t"), int(BIG))),
        "big-int-every-t": _interior_text(*((("samples", i, "t"), int(BIG)) for i in range(32))),
        "big-int-orientation": _interior_text((("orientation",), int(BIG))),
        "duplicate-key": base.replace('"t": ', '"t": 9.5, "t": ', 1),
        "bom": "\ufeff" + base,
        "lone-surrogate": base[:-1] + ', "note": "\\ud800"}',
        "trailing-garbage": base + " x",
        "crlf-truncated": json.dumps(json.loads(base), indent=1).replace("\n", "\r\n")[:5000],
        "empty": "",
    }
    out = {name: text.encode("utf-8") for name, text in texts.items()}
    out["invalid-utf8"] = base.encode("utf-8")[:-1] + b', "x": "\xff"}'
    for name, make in oracles.ORACLES.items():
        obj = boundary_to_json(make())
        out[f"oracle-{name}-cli"] = cli.dumps(obj).encode("utf-8")
        out[f"oracle-{name}-json"] = json.dumps(obj).encode("utf-8")
    return out


EDGE_TEXTS = _edge_texts()
ACCEPTED = {"minus-1e-400-w", "big-int-every-t", "duplicate-key", "lone-surrogate"}


def _read_boundary(path):
    """The boundary file at path as the command line reads it: read_json, then
    boundary_from_json (cli._read adds only the error codes)."""
    return boundary_from_json(read_json(path))


def _outcome(load, path):
    """orientation and the bytes of t, w and dw per loop; or the exception's type and text."""
    try:
        b = load(path)
    except Exception as e:          # the two routes must raise alike
        return type(e), str(e)
    return b.orientation, [(lp.t.tobytes(), lp.w.tobytes(), lp.dw.tobytes()) for lp in b.loops]


def _bits(v):
    """v with every leaf as (type name, value) and every float as its bytes."""
    if type(v) is list:
        return [_bits(x) for x in v]
    if type(v) is dict:
        return [(k, _bits(x)) for k, x in v.items()]
    return type(v).__name__, struct.pack("<d", v) if type(v) is float else v


@pytest.mark.parametrize("name", EDGE_TEXTS)
def test_load_boundary_equals_json_module_route(tmp_path, name):
    """The read path gives the arrays of json.load and np.array on the nested pairs bit for
    bit, or raises the same exception with the same message."""
    path = tmp_path / "b.json"
    path.write_bytes(EDGE_TEXTS[name])
    got = _outcome(_read_boundary, path)
    assert got == _outcome(load_boundary_json, path)
    assert isinstance(got[0], list) == (name in ACCEPTED or name.startswith("oracle"))


@pytest.mark.parametrize("name", EDGE_TEXTS)
def test_read_json_equals_json_load(tmp_path, name):
    """read_json gives json.load's value, leaf types and float bits included, or its exception
    and message; an integer past 64 bits comes back as the float nearest to it."""
    path = tmp_path / "b.json"
    path.write_bytes(EDGE_TEXTS[name])
    try:
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)
    except ValueError as e:
        with pytest.raises(type(e)) as info:
            read_json(path)
        assert str(info.value) == str(e)
        return
    if "big-int" in name:
        want = json.loads(json.dumps(want).replace(BIG, repr(float(BIG))))
    assert _bits(read_json(path)) == _bits(want)


def test_integer_past_64_bits_in_w_reads_as_its_float(tmp_path):
    """A [re, im] part spelled as an integer past 64 bits reads as the double nearest to it,
    as its float spelling does; json.load and np.array made it an object array and refused.

    Sample 5's w and dw are scaled by one real factor, a gauge change, to put the integer
    into w0's real part.
    """
    for sign in (1, -1):
        obj = json.loads(_interior_text())
        sample = obj["loops"][0]["samples"][5]
        k = sign * float(BIG) / sample["w"][0][0]
        for key in ("w", "dw"):
            sample[key] = [[re * k, im * k] for re, im in sample[key]]
        sample["w"][0][0] = sign * int(BIG)
        text = json.dumps(obj)
        (tmp_path / "int.json").write_text(text)
        (tmp_path / "float.json").write_text(text.replace(str(sign * int(BIG)),
                                                          repr(sign * float(BIG))))
        got = _outcome(_read_boundary, tmp_path / "int.json")
        assert got == _outcome(_read_boundary, tmp_path / "float.json")
        assert isinstance(got[0], list)
        assert _outcome(load_boundary_json, tmp_path / "int.json")[0] is ValueError


@pytest.mark.parametrize("key", ["w", "dw"])
@pytest.mark.parametrize("value", [
    None, 1.0, "abc", {"a": 1, "b": 2, "c": 3}, [], [[1.0, 0.0]] * 2, [[1.0, 0.0]] * 4,
    [[1.0], [0.5, 0.5], [1.5, 0.0]], [[1.0, 0.0, 0.0], [0.5, 0.5], [1.5, 0.0]],
    [[1.0], [0.5, 0.5, 0.5], [1.5, 0.0]], [[1.0, 0.0], "ab", [1.5, 0.0]],
    [[1.0, 0.0], {"a": 1, "b": 2}, [1.5, 0.0]], [[1.0, 0.0], [[0.5], [0.5]], [1.5, 0.0]],
    [[1.0, 0.0], [0.5, None], [1.5, 0.0]], [[1.0, 0.0], [0.5, 10 ** 400], [1.5, 0.0]],
])
def test_malformed_pairs_name_their_key(key, value):
    """Every shape but three [re, im] number pairs per sample gives the one message."""
    sample = {"t": 0.0, "w": [[1.0, 0.0], [0.5, 0.5], [1.5, 0.0]], "dw": [[0.0, 0.0]] * 3}
    sample[key] = value
    with pytest.raises(ValueError) as info:
        boundary_from_json({"loops": [{"orientation": 1, "samples": [sample]}]})
    assert str(info.value) == f"'{key}' must hold finite numbers in shape (n, 3, 2)"


def test_no_samples_is_refused():
    """A loop without samples has the shapes (0,) and (0, 3, 2): its sample count refuses it."""
    with pytest.raises(ValueError, match="loop needs at least 16 samples"):
        boundary_from_json({"loops": [{"orientation": -1, "samples": []}]})


@pytest.mark.parametrize("value, shape, dims", [
    (1, (), ()), (-0.0, (), ()), ([[1, 2.5]], (None, 2), (1, 2)), ([], (None, 2), (0, 2)),
    ([[], []], (None, None), (2, 0)), ([[0, 1, 2]], (1, 3), (1, 3)), (2 ** 64 + 1, (), ()),
    ([1e308, -5e-324], (2,), (2,)),
])
def test_numbers_reads_json_numbers(value, shape, dims):
    """numbers gives np.array(value, dtype=float) bit for bit, in the shape asked for; a None
    length is the length the lists share."""
    got = numbers(value, "k", shape)
    want = np.array(value, dtype=float).reshape(dims)
    assert got.shape == dims and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value, shape", [
    (True, ()), ("1", ()), (None, ()), (float("nan"), ()), (float("inf"), ()), (10 ** 400, ()),
    ([1.0], ()), (1.0, (1,)), ([[1, 2], [3]], (None, None)), ({}, (None,)), ("", (None,)),
    ([{}], (None, None)), ([""], (None, None)), (["ab"], (None, 2)), ([{"a": 1, "b": 2}], (1, 2)),
    ([1, 2, 3], (2,)), ([[1, 2]], (None, 3)), ([[True, 0]], (None, 2)), ([1.0, "0.5"], (None,)),
    ([0.5, 0, 7], (2,)), ([[0.5, -float("inf")]], (None, 2)), ([None], (1,)),
])
def test_numbers_names_the_key(value, shape):
    """Not a JSON number (bool, str, None), not finite, past the float range, or lists of the
    wrong depth, length or kind: a ValueError that names the key."""
    with pytest.raises(ValueError, match=r"^'k' must hold finite numbers in shape \("):
        numbers(value, "k", shape)
