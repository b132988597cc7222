"""Projective-plane primitives, boundary-data model and the admissible domain Z.

Boundary data is the only physical input of the pipeline: oriented closed
loops sampled uniformly in a parameter t in [0, 2pi), given in homogeneous
coordinates w = (w0, w1, w2), optionally with the parameter derivative dw/dt in
the same gauge.  All downstream contour quadratures only use the gauge
invariant combinations (w1/w0, w2/w0) and their differentials, taken without
dw as spectral t-derivatives of that chart, so the stored per-sample
normalization never enters the results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

# Modulus below which a homogeneous coordinate counts as zero (after
# max-modulus normalization).
CHART_EPS = 1e-12

# Largest (lines x samples) block, (ys x blocks) bound or (candidate blocks x BLOCK) chunk of
# m_of_y, dedup chunk of point pairs or tile of Green full-grid nodes one array operation holds
# (at least one item: a line of a G_lines stride pass), so peak memory stays flat in a sweep.  A
# 128 KiB temporary stays on glibc's heap: a pipeline op has ~700 minor faults, ~3460 at 2^15.
TILE_ENTRIES = 2 ** 13


# m_of_y bounds blocks of BLOCK samples, less M_SLACK (|y| max |z1| + max |z2|): their rounding
# stays below 40 eps of that.  A block costs one bound per y, a candidate BLOCK samples: over the
# 12 sweep-dense cells (seed 1, best of 15, 2-vCPU x86-64 VM) m_of_y took 10.0, 8.1 and 7.4 ms at
# BLOCK = 16, 32 and 64, every sample 26.1 ms; 64 leaves a 512-sample loop 8 blocks to search.
BLOCK = 32
M_SLACK = 256 * np.finfo(float).eps


def tiles(count: int, samples: int):
    """Slices of range(count), TILE_ENTRIES // samples items (at least 1) each but the last."""
    step = max(1, TILE_ENTRIES // samples)
    return (slice(i, i + step) for i in range(0, count, step))


class OutsideDomain(ValueError):
    """Line parameter lies outside the admissible domain Z (|y| <= rho or |x| >= m(y))."""


def _chart_velocities(w, dt):
    """w0 * (0, dz1, dz2), dz1 and dz2 the FFT t-derivatives of z1 = w1/w0, z2 = w2/w0 at step dt.

    Exact up to rounding on trigonometric polynomials of degree below N/2; an
    even N's Nyquist mode has no odd derivative and is set to 0.
    """
    n = len(w)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)        # the period is n dt
    if n % 2 == 0:
        omega[n // 2] = 0.0
    dz = np.fft.ifft(1j * omega[:, None] * np.fft.fft(w[:, 1:] / w[:, :1], axis=0), axis=0)
    return w[:, :1] * np.concatenate([np.zeros((n, 1)), dz], axis=1)


def chordal(a, b) -> float:
    """Gauge-independent chordal distance |a ^ b| / (|a| |b|) on CP2."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.linalg.norm(np.cross(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


class ProjPoint(NamedTuple):
    """Point of CP2 in homogeneous coordinates (the sweep writes them max-modulus normalized)."""

    w0: complex
    w1: complex
    w2: complex


class LineParam(NamedTuple):
    """Parameters (x, y) of the line L_z = {x w0 + y w1 + w2 = 0}."""

    x: complex
    y: complex


@dataclass
class BoundaryLoop:
    """One closed, uniformly sampled loop of the boundary.

    t  : (N,) real parameters, uniform on [0, 2pi)
    w  : (N, 3) complex homogeneous coordinates, max-modulus normalized
    dw : (N, 3) complex parameter derivatives in the same per-sample gauge;
         when omitted, taken from the chart by _chart_velocities
    """

    t: np.ndarray
    w: np.ndarray
    dw: np.ndarray | None = None

    def __post_init__(self):
        self.t, self.w = np.asarray(self.t, dtype=float), np.asarray(self.w, dtype=complex)
        self.dw = None if self.dw is None else np.asarray(self.dw, dtype=complex)
        # accept the duplicated-endpoint layout: drop the final sample when it
        # reproduces the first one (closure must then be exact to 1e-10)
        if len(self.t) > 2 and abs(self.t[-1] - self.t[0] - 2.0 * np.pi) < 1e-9:
            if chordal(self.w[0], self.w[-1]) > 1e-10:
                raise ValueError("duplicated-endpoint loop fails closure")
            self.t, self.w = self.t[:-1], self.w[:-1]
            self.dw = None if self.dw is None else self.dw[:-1]
        if len(self.t) < 16:
            raise ValueError("loop needs at least 16 samples")
        dt = np.diff(self.t)
        if not np.allclose(dt, dt[0], rtol=0, atol=1e-9 * (1 + abs(dt[0]))):
            raise ValueError("loop samples are not uniformly spaced")
        scale = np.max(np.abs(self.w), axis=1)        # each row to max modulus 1
        if np.any(scale == 0.0):
            raise ValueError("zero homogeneous coordinate triple")
        self.w = self.w / scale[:, None]
        if np.min(np.abs(self.w)) <= CHART_EPS:
            raise ValueError("boundary sample with w0*w1*w2 = 0")
        self.dw = _chart_velocities(self.w, dt[0]) if self.dw is None else self.dw / scale[:, None]

    def __len__(self):
        return len(self.t)

    z1 = property(lambda self: self.w[:, 1] / self.w[:, 0])
    z2 = property(lambda self: self.w[:, 2] / self.w[:, 0])
    dz1 = property(lambda self: self._dz(1))
    dz2 = property(lambda self: self._dz(2))

    def _dz(self, i):
        """d(w_i/w0)/dt from w and dw."""
        w, dw = self.w, self.dw
        return (dw[:, i] * w[:, 0] - w[:, i] * dw[:, 0]) / w[:, 0] ** 2


@dataclass
class BoundaryData:
    """Oriented boundary of the curve: loops plus per-loop orientation signs."""

    loops: list = field(default_factory=list)
    orientation: list = field(default_factory=list)

    def __post_init__(self):
        if not self.loops:
            raise ValueError("boundary needs at least one loop")
        if len(self.orientation) != len(self.loops):
            raise ValueError("one orientation sign per loop required")
        if any(s not in (1, -1) for s in self.orientation):
            raise ValueError("orientation signs must be +1 or -1")
        for lp in self.loops:
            # Uniform grids omit the duplicate endpoint; accept either layout but reject
            # visibly open arcs (consecutive samples stay close in the chordal metric).
            if chordal(lp.w[0], lp.w[-1]) > 0.5:
                raise ValueError("loop does not close")

    def signed_loops(self):
        return zip(self.orientation, self.loops)


# -- operations ---------------------------------------------------------------


def rho(b: BoundaryData) -> float:
    """max over boundary samples of |w2/w1|."""
    return max(float(np.max(np.abs(lp.w[:, 2] / lp.w[:, 1]))) for lp in b.loops)


def _blocks(z):
    """(BLOCK, blocks) array of loop samples z, a block a column, the last completed from z[0]."""
    return np.resize(z, -(-len(z) // BLOCK) * BLOCK).reshape(-1, BLOCK).T


def m_of_y(b: BoundaryData, y):
    """min over boundary samples of |y*(w1/w0) + (w2/w0)|, defined for |y| > rho.

    y may be an array, which gives an array of minima.  With p = z2/z1, each sample i of
    a block (_blocks) with centre c has |y z1_i + z2_i| >= L (|y + p_c| - R), L = min |z1_i|,
    R = max |p_i - p_c|.  Per y, only the blocks whose bound, less a slack (M_SLACK), is at
    most the least centre value |z1_c| |y + p_c| are evaluated, by the every-sample product
    y z1 + z2; min and abs are exact, so an entry is the every-sample minimum bit for bit.
    """
    r = rho(b)
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    if np.any(np.abs(ys) <= r):
        raise OutsideDomain(f"|y| = {np.min(np.abs(ys)):g} <= rho = {r:g}")
    m = np.full(len(ys), np.inf)
    Z1, Z2 = (np.concatenate([_blocks(z) for z in zs], axis=1)
              for zs in zip(*((lp.z1, lp.z2) for lp in b.loops)))
    P, A1 = Z2 / Z1, np.abs(Z1)
    pc, ac, L = P[BLOCK // 2], A1[BLOCK // 2], np.min(A1, axis=0)
    LR = L * np.max(np.abs(P - pc), axis=0)
    slack = M_SLACK * (np.abs(ys) * np.max(A1) + np.max(np.abs(Z2)))
    for sl in tiles(len(ys), len(pc)):
        a = np.abs(ys[sl, None] + pc)               # |y + p_c|; a NaN bound keeps its block
        ti, bj = np.nonzero(~(L * a > (np.min(ac * a, axis=1) + slack[sl])[:, None] + LR))
        for g in tiles(len(ti), BLOCK):
            v = np.abs(ys[sl][ti[g]] * Z1[:, bj[g]] + Z2[:, bj[g]])
            np.minimum.at(m, sl.start + ti[g], np.min(v, axis=0))
    return float(m[0]) if np.ndim(y) == 0 else m


# -- boundary JSON i/o --------------------------------------------------------

_NUMBER = {int, float}          # JSON numbers as decoded; bool, str and None are not


def boundary_to_json(b: BoundaryData) -> dict:
    loops = []
    for sign, lp in b.signed_loops():
        w, dw = (np.stack([a.real, a.imag], -1).tolist() for a in (lp.w, lp.dw))
        samples = [{"t": t, "w": wi, "dw": dwi} for t, wi, dwi in zip(lp.t.tolist(), w, dw)]
        loops.append({"orientation": int(sign), "samples": samples})
    return {"loops": loops}


def _pairs(samples, key):
    """samples[i][key], three [re, im] number pairs per sample, as one (N, 3) complex array."""
    rows = [s[key] for s in samples]
    try:                                # TypeError: a row or a pair that is not a list
        pairs = list(chain.from_iterable(rows))
        flat = list(chain.from_iterable(pairs))
        ok = set(map(len, rows)) == {3} and set(map(len, pairs)) == {2}
        a = np.array(flat, dtype=float) if ok and set(map(type, flat)) <= _NUMBER else None
    except (TypeError, OverflowError):  # OverflowError: an integer past the float range
        a = None
    if a is None or not np.isfinite(a).all():
        raise ValueError(f"'{key}' must hold three finite [re, im] number pairs per sample")
    return a.view(complex).reshape(-1, 3)


def boundary_from_json(obj: dict) -> BoundaryData:
    loops, signs = [], []
    for entry in obj["loops"]:
        sign = entry["orientation"]
        if type(sign) not in _NUMBER or sign % 1 != 0:         # nan and inf give nan % 1
            raise ValueError(f"'orientation' must be the number 1 or -1, got {sign!r}")
        signs.append(int(sign))
        samples = entry["samples"]
        ts = [s["t"] for s in samples]
        if not set(map(type, ts)) <= _NUMBER:
            raise ValueError("'t' must be a number in every sample")
        try:
            ts = np.array(ts, dtype=float)
        except OverflowError:           # an integer past the float range
            ts = None
        if ts is None or not np.isfinite(ts).all():
            raise ValueError("'t' must be finite in every sample")
        ws = _pairs(samples, "w")
        dws = _pairs(samples, "dw") if all("dw" in s for s in samples) else None
        loops.append(BoundaryLoop(ts, ws, dws))
    return BoundaryData(loops, signs)


def read_json(path):
    """The JSON value in the file at path, decoded by orjson.

    Texts orjson refuses go to json.load, which reads NaN, Infinity, 1e400 and lone surrogates
    and gives its own message for malformed text.  The two differ only on integers past 64
    bits: orjson gives the nearest float, json the int.
    """
    import orjson       # here, not at the top: runs that read no file do not load it (0.5 MB)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_boundary(path) -> BoundaryData:
    return boundary_from_json(read_json(path))
