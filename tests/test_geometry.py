import json

import numpy as np
import pytest

from cfr.geometry import (BoundaryData, BoundaryLoop, LineParam, OutsideDomain, ProjPoint,
                          boundary_from_json, boundary_to_json, m_of_y, rho)
from reference import (ChartUndefined, affine_chart, boundary_from_json_per_element, in_Z,
                       line_eval)


def dense_theta_oracle(fn, n=200000):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return fn(np.exp(1j * th))


def test_projpoint_normalization():
    p = ProjPoint(2.0, 4.0, 6.0)
    assert abs(max(abs(p.w0), abs(p.w1), abs(p.w2)) - 1.0) < 1e-14
    # ratios preserved
    assert abs(p.w1 / p.w0 - 2.0) < 1e-14
    with pytest.raises(ValueError):
        ProjPoint(0.0, 0.0, 0.0)


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
