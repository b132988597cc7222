import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from cfr import linsys
from cfr.shock import (BInversionDiverged, BiSeries, GridTooSmall, HData, H_from_laurent,
                       NonFiniteResidual, ResidueObstruction, _fd4, g1_biseries, op_E,
                       s_k_from_mu, system_residual)
from reference import (G_k, biseries_coeff, biseries_dy, biseries_eval, biseries_from_y_poly,
                       biseries_mul_per_column, delta_from_expH, eqsym1_residual, exp_H,
                       e_rows, iterate_E, rational_tail)

W = -3.0


def grid_eval(fn, x0, y0, hx, hy, n=9):
    xs = x0 + (np.arange(n) - n // 2) * hx
    ys = y0 + (np.arange(n) - n // 2) * hy
    return np.array([[fn(x, y) for y in ys] for x in xs])


# -- plain BiSeries calculus -----------------------------------------------------


# (a, b) exactness: (mlo, mhi, exact) of a + b and of a * b, for a on orders 1..5, b on -2..3.
# An inexact term of a sum is valid to its top; an inexact factor is valid to its top,
# reached with the other factor's lowest order.
VALIDITY = [(True, True, (-2, 5, True), (-1, 8, True)),
            (True, False, (-2, 3, False), (-1, 4, False)),
            (False, True, (-2, 5, False), (-1, 3, False)),
            (False, False, (-2, 3, False), (-1, 3, False))]


@pytest.mark.parametrize("exact_a, exact_b, total, product", VALIDITY)
def test_biseries_validity_table(exact_a, exact_b, total, product):
    a = BiSeries(np.ones((3, 5)), 1, 5, exact_a)
    b = BiSeries(np.ones((3, 6)), -2, 3, exact_b)
    for s in (a + b, b + a):
        assert (s.mlo, s.mhi, s.exact) == total
    for s in (a * b, b * a):
        assert (s.mlo, s.mhi, s.exact) == product


def test_biseries_mul_and_eval():
    a = BiSeries.from_x_poly([1.0, 2.0], 8)           # 1 + 2x
    b = biseries_from_y_poly([0.0, 1.0], 8)           # y
    c = a * b
    assert abs(biseries_eval(c, 0.5, 3.0) - (1 + 1.0) * 3.0) < 1e-14
    d = c.shift_y(-2)                                  # multiply by y^-2
    assert abs(biseries_eval(d, 0.5, 3.0) - 2.0 / 3.0) < 1e-14


def _naive_product(a, b):
    """Reference for BiSeries.__mul__: one truncated x-convolution per column pair."""
    mlo = a.mlo + b.mlo
    if a.exact and b.exact:
        mhi = a.mhi + b.mhi
    elif a.exact:
        mhi = a.mlo + b.mhi
    elif b.exact:
        mhi = b.mlo + a.mhi
    else:
        mhi = min(a.mhi + b.mlo, b.mhi + a.mlo)
    nx = a.nx
    c = np.zeros((nx + 1, mhi - mlo + 1), dtype=complex)
    for i in range(a.c.shape[1]):
        for j in range(b.c.shape[1]):
            m = a.mlo + i + b.mlo + j
            if m > mhi:
                break
            conv = np.zeros(nx + 1, dtype=complex)
            for t, at in enumerate(a.c[:, i]):
                if at == 0:
                    continue
                hi = min(nx - t, b.nx)
                conv[t : t + hi + 1] += at * b.c[: hi + 1, j]
            c[:, m - mlo] += conv
    return c, mlo, mhi, a.exact and b.exact


def test_biseries_mul_matches_column_pairs():
    """Products equal the column-pair reference bit for bit, validity range included."""
    rng = np.random.default_rng(5)

    def series(nx, mlo, ncol, exact):
        c = rng.standard_normal((nx + 1, ncol)) + 1j * rng.standard_normal((nx + 1, ncol))
        c[rng.random(c.shape) < 0.3] = 0.0          # exercise the zero skip
        return BiSeries(c, mlo, mlo + ncol - 1, exact=exact)

    for ea, eb in [(True, True), (True, False), (False, True), (False, False)]:
        for mlo_a, mlo_b in [(-2, -1), (0, 0), (1, 2), (-3, 2), (2, -1)]:
            for nxb in (6, 4, 9):
                a = series(6, mlo_a, 4, ea)
                b = series(nxb, mlo_b, 5, eb)
                c = a * b
                ref, mlo, mhi, exact = _naive_product(a, b)
                assert (c.mlo, c.mhi, c.exact) == (mlo, mhi, exact)
                assert c.c.shape == ref.shape and np.array_equal(c.c, ref)
    # non-exact x non-exact: valid only up to min(a.mhi + b.mlo, b.mhi + a.mlo)
    a = series(6, 1, 4, False)                      # m = 1..4
    b = series(6, -1, 4, False)                     # m = -1..2
    c = a * b
    assert (c.mlo, c.mhi, c.exact) == (0, 3, False)


@st.composite
def biseries(draw):
    """A BiSeries with drawn shape, range and exactness, and rows and columns of zeros."""
    nx, ncol, mlo = draw(st.integers(0, 7)), draw(st.integers(1, 7)), draw(st.integers(-4, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.standard_normal((nx + 1, ncol)) + 1j * rng.standard_normal((nx + 1, ncol))
    c[rng.random(c.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    c[list(draw(st.sets(st.integers(0, nx))))] = 0.0
    c[:, list(draw(st.sets(st.integers(0, ncol - 1))))] = 0.0
    return BiSeries(c, mlo, mlo + ncol - 1, exact=draw(st.booleans()))


def _series(nx, mlo, ncol, exact, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((nx + 1, ncol)) + 1j * rng.standard_normal((nx + 1, ncol))
    return BiSeries(c, mlo, mlo + ncol - 1, exact=exact)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(biseries(), biseries())
@example(_series(4, 0, 3, True), _series(5, -1, 4, True))           # exact x exact
@example(_series(4, 1, 3, True), _series(3, -2, 5, False))          # exact x inexact
@example(_series(6, 1, 4, False), _series(6, -1, 4, False))         # inexact x inexact
@example(_series(5, 1, 6, False), _series(5, -1, 2, False))         # a wider than the window
@example(_series(3, 0, 1, False), _series(0, 2, 5, True))           # one column, one element
def test_biseries_mul_equals_per_column_reference(a, b):
    """A product over all column pairs at once has the bits of one product per column."""
    c, ref = a * b, biseries_mul_per_column(a, b)
    assert (c.mlo, c.mhi, c.exact) == (ref.mlo, ref.mhi, ref.exact)
    assert np.array_equal(c.c, ref.c)


@pytest.mark.parametrize("name", ["interior", "exterior", "twoline", "conic"])
def test_fit_products_equal_per_column_reference(name, request, monkeypatch):
    """g1 * e^(-H~) and the E-table products of an oracle's fit, against the reference."""
    pairs = []
    mul = BiSeries.__mul__

    def recording(a, b):
        pairs.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(BiSeries, "__mul__", recording)
    with warnings.catch_warnings():     # the two-line system is rank-deficient
        warnings.simplefilter("ignore", linsys.RankDeficient)
        linsys.fit_infinity(request.getfixturevalue(name))
    assert pairs
    for a, b in pairs:
        c, ref = mul(a, b), biseries_mul_per_column(a, b)
        assert (c.mlo, c.mhi, c.exact) == (ref.mlo, ref.mhi, ref.exact)
        assert np.array_equal(c.c, ref.c)


def test_primitivize_calculus():
    s = BiSeries(np.array([[1.0]], dtype=complex), 2, 2)       # y^-2
    p = s.primitivize(W)
    # -y^-1 + 1/omega
    assert abs(biseries_eval(p, 0.0, 5.0) - (-1.0 / 5.0 + 1.0 / W * (-1) * (-1))) < 1e-14
    assert abs(biseries_eval(p, 0.0, W)) < 1e-14
    one = BiSeries.from_x_poly([1.0], 4)
    q = one.primitivize(W)                                      # Y - omega
    assert abs(biseries_eval(q, 0.0, 5.0) - (5.0 - W)) < 1e-14
    bad = BiSeries(np.array([[1.0]], dtype=complex), 1, 1)      # y^-1
    with pytest.raises(ResidueObstruction):
        bad.primitivize(W)


def test_primitivize_inverts_dy():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    s = BiSeries(c, 2, 7)  # no y^0, no y^-1 content
    back = biseries_dy(s).primitivize(W)
    lo, hi = s.mlo, s.mhi
    diff = back._window(lo, hi) - s._window(lo, hi)
    assert np.max(np.abs(diff)) < 1e-12
    # P picks the primitive vanishing at omega: back = s - s(., omega)
    at = lambda f, y: biseries_eval(f, 0.3, y)
    assert abs(at(back, 5.0) - (at(s, 5.0) - at(s, W))) < 1e-12
    assert abs(at(back, W)) < 1e-12


def test_exp_identity():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 6)) * 0.3
    h = BiSeries(c, 1, 6)
    e = h.exp()
    em = h.scale(-1.0).exp()
    prod = e * em
    pc = prod.c.copy()
    pc[0, -prod.mlo] -= 1.0
    assert np.max(np.abs(pc)) < 1e-10


# -- H data on the interior-line oracle -------------------------------------------


def test_H_coefficients(interior_h):
    # H~ = ln y - ln(y + 1/2): coefficients (-1)^m/(m 2^m)
    for m in range(1, 6):
        assert abs(biseries_coeff(interior_h.Htilde, 0, m) - (-1) ** m / (m * 2 ** m)) < 1e-9
    assert np.max(np.abs(interior_h.Htilde.c[1:, :])) < 1e-9  # no x dependence


def test_zero_tail_H():
    lt_zero = type("T", (), {"mmax": 1, "delta": 0})()   # mmax = 1 leaves no y^-m term, m >= 1
    h = H_from_laurent(lt_zero, W)
    _, mono_pow, series = exp_H(h)
    assert mono_pow == 0
    assert abs(biseries_eval(series, 0.2, 4.0) - 1.0) < 1e-14


def test_dH_dy_equals_dG1_dx(interior, interior_h):
    """Identity dH/dy = dG_1/dx on circles |y| in {2 rho, 3 rho}."""
    from cfr.geometry import LineParam
    dhtdy = biseries_dy(interior_h.Htilde)
    for R in (3.0, 4.5):
        for a in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            y = R * np.exp(1j * a)
            x = 0.2
            lhs = biseries_eval(dhtdy, x, y) - interior_h.delta / y
            h = 1e-4
            rhs = (G_k(interior, LineParam(x + h, y), 1)
                   - G_k(interior, LineParam(x - h, y), 1)) / (2 * h)
            assert abs(lhs - rhs) < 1e-7


def test_exp_H_line(interior_h):
    # e^H = omega/(y + 1/2)
    mono_coef, mono_pow, series = exp_H(interior_h)
    for y in (5.0, -4.0 + 2.0j):
        val = mono_coef * y ** (-float(mono_pow)) * biseries_eval(series, 0.0, y)
        assert abs(val - W / (y + 0.5)) < 1e-9


def test_delta_slope_fit(interior_h):
    assert abs(delta_from_expH(interior_h) - 1.0) < 1e-3


def test_op_E_single_term():
    # H~ with single term a x / y^2: E(1) = P(a/y^2) = -a/y + a/omega
    a = 0.7
    c = np.zeros((4, 2), dtype=complex)
    c[1, 1] = a
    h = HData(0, BiSeries(c, 1, 2), W)
    e1 = op_E(BiSeries.from_x_poly([1.0], 3), h)
    y = 6.0
    assert abs(biseries_eval(e1, 0.0, y) - (-a / y + a / W)) < 1e-14
    zero = op_E(BiSeries.zero(3), h)
    assert np.max(np.abs(zero.c)) == 0


def test_E_table_structure(interior_h):
    tab = e_rows(interior_h, 4)
    # E_{2,2} = (Y - omega)^2/2
    e22 = tab[2][2]
    for y in (4.0, -5.0 + 1.0j):
        assert abs(biseries_eval(e22, 0.3, y) - (y - W) ** 2 / 2.0) < 1e-12
    # E_{1,0} = P(dH/dx)
    e10 = tab[1][0]
    direct = interior_h.dHx.primitivize(interior_h.omega)
    lo, hi = max(e10.mlo, direct.mlo), min(e10.mhi, direct.mhi)
    assert np.max(np.abs((e10 - direct)._window(lo, hi))) < 1e-14


def test_operator_identity_Ek(interior_h):
    """E^k(f x 1) = sum_j f^(j) E_{k,j} for f = x^3 + 2x, k = 1..4."""
    f = np.array([0.0, 2.0, 0.0, 1.0])
    tab = e_rows(interior_h, 4)
    for k in range(1, 5):
        lhs = iterate_E(f, k, interior_h)
        rhs = None
        fj = f.copy()
        for j in range(k + 1):
            t = tab[k][j] * BiSeries.from_x_poly(fj, interior_h.Htilde.nx)
            rhs = t if rhs is None else rhs + t
            fj = P.polyder(fj)
        lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
        assert np.max(np.abs((lhs - rhs)._window(lo, hi))) < 1e-9


def test_s_k_from_mu_line_closure(interior_h, interior_lt):
    """mu_1 = (x+1)/omega reproduces -s_1 = G_1 on the interior-line oracle."""
    s = s_k_from_mu([np.array([1.0, 1.0]) / W], [1.0], interior_h)
    for (x, y) in [(0.25, 5.0), (-0.3, -4.0 + 1.0j)]:
        assert abs(-biseries_eval(s[0], x, y) - (-(x + 1) / (y + 0.5))) < 1e-9
    g1 = g1_biseries(interior_lt, interior_h.Htilde.nx)
    assert eqsym1_residual(s, g1.dx()) < 1e-8


def test_s_k_zero_mu(interior_h):
    s = s_k_from_mu([np.zeros(3), np.zeros(3)], [1.0, 0.5], interior_h)
    assert all(np.max(np.abs(t.c)) == 0 for t in s)


def test_s_k_random_mu_chain(interior_lt, rng):
    """(s_1, s_2) from random mu satisfies the chain of Prop-style equations
    with dN/dx = dG_1/dx - B'/B (the A-free closure of the construction)."""
    W2 = -4.5
    h = H_from_laurent(interior_lt, W2)
    nx = h.Htilde.nx
    B = np.array([1.0, 0.5])
    g1 = g1_biseries(interior_lt, nx)
    dNx = g1.dx() - rational_tail(P.polyder(B), B, nx, interior_lt.mmax + 2)
    mu = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
    s = s_k_from_mu(mu, B, h)
    assert eqsym1_residual(s, dNx) < 1e-8
    # sensitivity: perturbing s_2 must be detected
    pert = [s[0], s[1] + BiSeries.from_x_poly([1e-3], nx)]
    assert eqsym1_residual(pert, dNx) > 1e-4


def test_eqsym1_residual_keeps_nan(interior_h):
    """A NaN coefficient makes the residual NaN, not a perfect 0."""
    s = s_k_from_mu([np.zeros(3)], [1.0], interior_h)
    s[0].c[0, 0] = np.nan
    assert np.isnan(eqsym1_residual(s))


def test_systMu_reproduces_inputs(interior_lt, rng):
    """(1 x B) s_k = (sum E^{j-k} mu_j) e^H termwise within validity."""
    W2 = -4.5
    h = H_from_laurent(interior_lt, W2)
    B = np.array([1.0, 0.8])
    mu = [rng.standard_normal(4) for _ in range(2)]
    s = s_k_from_mu(mu, B, h)
    mono_coef, mono_pow, series = exp_H(h)
    tab_mu = [BiSeries.from_x_poly(m, h.Htilde.nx) for m in mu]
    for k in (1, 2):
        acc = tab_mu[k - 1]
        if k == 1:
            acc = acc + op_E(tab_mu[1], h)
        rhs = (series * acc).shift_y(-mono_pow).scale(mono_coef)
        lhs = s[k - 1] * biseries_from_y_poly(B, h.Htilde.nx)
        lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
        assert np.max(np.abs((lhs - rhs)._window(lo, hi))) < 1e-9


def test_B_inversion_guard(interior_h):
    with pytest.raises(BInversionDiverged):
        s_k_from_mu([np.ones(2)], [1.0, 0.4], interior_h)  # root -2.5, |omega|=3


# -- finite-difference residuals ---------------------------------------------------


def test_shock_residual_line_wave():
    h = lambda x, y: -(x + 1.0) / (y + 0.5)
    vals = grid_eval(h, 0.0, 10.0, 0.05, 0.05)
    assert system_residual([vals], 0.05, 0.05) < 1e-8


def test_shock_residual_constant():
    vals = np.full((9, 9), 0.7 + 0.2j)
    assert system_residual([vals], 0.1, 0.1) < 1e-14


def test_shock_residual_not_a_wave():
    vals = grid_eval(lambda x, y: x, 0.0, 10.0, 0.2, 0.2)
    # residual |h_y - h h_x| = |x|, maximized over interior nodes
    assert system_residual([vals], 0.2, 0.2) > 0.1


def test_single_sheet_system_is_the_shock_equation():
    """For d = 1 the system residual is max |S_y - S S_x| bit for bit."""
    vals = grid_eval(lambda x, y: x * x + 0.3j * y - 0.1 * x * y, 0.1, 2.0, 0.1, 0.15)
    Sx, Sy = _fd4(vals, 0.1, 0), _fd4(vals, 0.15, 1)
    direct = float(np.max(np.abs((Sy - vals * Sx)[2:-2, 2:-2])))
    assert direct > 0.1
    assert system_residual([vals], 0.1, 0.15) == direct


def test_grid_too_small():
    with pytest.raises(GridTooSmall):
        system_residual([np.zeros((4, 6), dtype=complex)], 0.1, 0.1)


@pytest.mark.parametrize("sheet", [0, 1])
def test_system_residual_nan_is_not_finite(sheet):
    """A NaN node in either grid raises, where a fold with max() read it as a perfect fit."""
    S = [np.full((9, 9), 0.7 + 0.2j), np.full((9, 9), 0.1 + 0.0j)]
    S[sheet][4, 4] = np.nan
    with pytest.raises(NonFiniteResidual):
        system_residual(S, 0.1, 0.1)


def test_system_residual_two_line():
    ha = lambda x, y: -(x + 1.0) / (y + 0.5)
    hb = lambda x, y: -(x + 1.0) / (y - 1.0 / 3.0)
    S1 = grid_eval(lambda x, y: ha(x, y) + hb(x, y), 0.0, 10.0, 0.05, 0.05)
    S2 = grid_eval(lambda x, y: ha(x, y) * hb(x, y), 0.0, 10.0, 0.05, 0.05)
    assert system_residual([S1, S2], 0.05, 0.05) < 1e-7
    # perturbation of Sigma_2 by 1e-3 must show up above 1e-4
    assert system_residual([S1, S2 + 1e-3], 0.05, 0.05) > 1e-4
