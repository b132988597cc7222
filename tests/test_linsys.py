import collections
import contextlib
import warnings

import numpy as np
import pytest

from cfr import indicators, linsys, oracles, shock
from cfr.geometry import BoundaryData, rho
from cfr.linsys import Layout, RankDeficient, assemble_E0, fit_infinity, valid_window
from reference import (E2Degenerate, G_k, assemble_E0_by_order, assemble_E1, assemble_E2,
                       biseries_eval, biseries_from_y_poly, biseries_x_poly, coeff_c0, e_rows,
                       fixed_AB_residual, invert_gxx, mu_columns)


@pytest.fixture(scope="module")
def ext_parts(exterior_fit):
    fit, h, g1 = exterior_fit
    etab = e_rows(h, 0)
    return fit, h, g1, etab


def test_coeff_c0_constant(interior_h):
    etab = e_rows(interior_h, 1)
    v0 = coeff_c0(1, 0, 0, etab)   # E_{0,0} = 1
    assert abs(v0[0] - 1.0) < 1e-14 and np.max(np.abs(v0[1:])) == 0
    assert np.max(np.abs(coeff_c0(1, 0, 3, etab))) == 0
    assert np.max(np.abs(coeff_c0(1, 0, -2, etab))) == 0


def test_coeff_c0_E11(interior_h):
    etab = e_rows(interior_h, 1)
    # E_{1,1} = Y - omega: coefficient of y^1 is 1, of y^0 is -omega
    assert abs(coeff_c0(2, 1, 1, etab)[0] - 1.0) < 1e-14
    assert abs(coeff_c0(2, 1, 0, etab)[0] - (-interior_h.omega)) < 1e-14


def test_coeff_c0_dual_route(interior_h):
    """Series extraction agrees with 128-point circle quadrature for j+m <= 4.

    The quadrature route is (1/2 pi i) * contour integral of E_{j-1,m}(x, y)
    dy / y^(n+1) over |y| = 4 at a few x points.
    """
    etab = e_rows(interior_h, 3)
    nodes = 128
    y = 4.0 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    dy = 1j * y * (2.0 * np.pi / nodes)
    for (j, m) in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
        for n in (-2, -1, 0, 1):
            series_vec = coeff_c0(j, m, n, etab)
            for x in (0.0, 0.37, 0.11 + 0.23j):
                f = biseries_eval(etab[j - 1][m], np.full_like(y, x), y)
                v = np.sum(f * dy / y ** (n + 1)) / (2.0j * np.pi)
                direct = np.polynomial.polynomial.polyval(x, series_vec)
                assert abs(direct - v) < 1e-9


def test_mu_columns_matches_loop():
    """The block of c(x) * mu^(m) equals an entry-by-entry loop, bit for bit."""
    from math import factorial
    rng = np.random.default_rng(2)
    cases = [(13, 0, 10, 12), (13, 2, 10, 12), (5, 1, 10, 12), (13, 3, 10, 6),
             (13, 0, 10, 4), (1, 0, 4, 0), (8, 4, 3, 9)]   # (len(c), m, dmu, nx_rows)
    for ncv, m, dmu, nx_rows in cases:
        cvec = rng.standard_normal(ncv) + 1j * rng.standard_normal(ncv)
        ref = np.zeros((nx_rows + 1, dmu + 1), dtype=complex)
        for i in range(m, dmu + 1):
            for t in range(i - m, nx_rows + 1):
                if t - (i - m) < ncv:
                    ref[t, i] = factorial(i) / factorial(i - m) * cvec[t - (i - m)]
        assert np.array_equal(mu_columns(cvec, m, dmu, nx_rows), ref)


def e0_blocks(h, g1, etab, layout):
    """(E0) as (orders, M, rhs) with one (nx + 1)-row block per order.

    Only orders past the valid range of a non-exact series, the most
    negative n, are dropped, so the kept orders are the last of the window.
    """
    M, rhs = assemble_E0(h, g1, etab, layout)
    nx1 = h.Htilde.nx + 1
    k = len(rhs) // nx1
    window = valid_window(h, g1, layout.r, layout.d)
    return window[len(window) - k:], M.reshape(k, nx1, layout.n_unknowns), rhs.reshape(k, nx1)


@pytest.mark.parametrize("name", ["interior_line", "exterior_line", "two_line"])
def test_assemble_E0_equals_order_by_order_route(name):
    """The one-read assembly equals the per-order route bit for bit, dmu < m included."""
    b = getattr(oracles, name)(n=256)
    lt = indicators.laurent_extract(b, kmax=2, mmax=12, cross_check=False)
    h = shock.H_from_laurent(lt, -2.0 * rho(b))
    g1 = shock.g1_biseries(lt, h.Htilde.nx)
    etab = e_rows(h, 3)
    for d in range(5):
        for r in range(4):
            for dmu in (0, 3, 10):
                lay = Layout(d=d, r=r, dmu=dmu)
                M, rhs = assemble_E0(h, g1, etab, lay)
                M0, rhs0 = assemble_E0_by_order(h, g1, etab, lay)
                assert M.shape == (len(rhs), lay.n_unknowns) and len(rhs)
                assert np.array_equal(M, M0) and np.array_equal(rhs, rhs0)


def test_assemble_E0_drops_orders_of_a_term_no_mu_column_reaches(interior_h):
    """With dmu = 0 no column carries E_{1,1}, yet its validity still drops orders."""
    etab = e_rows(interior_h, 1)
    e11 = etab[1][1]
    etab[1][1] = shock.BiSeries(e11.c, e11.mlo, e11.mhi, exact=False)   # y^1, y^0 only
    g1 = shock.BiSeries(np.zeros((interior_h.Htilde.nx + 1, 9), dtype=complex), 0, 8)
    lay = Layout(d=2, r=0, dmu=0)
    orders, _, _ = e0_blocks(interior_h, g1, etab, lay)
    assert list(orders) == list(range(0, 2 + linsys.WINDOW_EXTRA + 1))
    M, rhs = assemble_E0(interior_h, g1, etab, lay)
    M0, rhs0 = assemble_E0_by_order(interior_h, g1, etab, lay)
    assert np.array_equal(M, M0) and np.array_equal(rhs, rhs0)


def test_read_rows_zero_above_the_top_nan_past_a_series():
    """Rows above the top are zero; past the bottom, NaN unless the series is exact."""
    c = np.arange(1, 13, dtype=complex).reshape(4, 3)        # nx = 3, y^1, y^0, y^-1
    orders = np.arange(-3, 4)
    for exact in (False, True):
        got = linsys._read(shock.BiSeries(c, -1, 1, exact), orders)
        assert got.shape == (7, 4)
        assert np.all(got[orders > 1] == 0)
        assert np.array_equal(got[2:5], c[:, ::-1].T)       # y^-1, y^0, y^1
        past = got[orders < -1]
        assert np.all(past == 0) if exact else np.all(np.isnan(past))


def test_k0_vanishes_for_large_n(interior_fit):
    """Interior line (B=1, A=0, d=1): the right side K_n^0 of (E0) is 0 for n >= 1."""
    fit, h, g1 = interior_fit
    orders, _, rhs = e0_blocks(h, g1, e_rows(h, 0), Layout(d=1, r=0, dmu=10))
    assert orders[-1] >= 1
    for n, row in zip(orders, rhs):
        if n >= 1:
            assert np.max(np.abs(row)) < 1e-8
    # K_0^0 = (x+1)/omega on this oracle
    expect = np.zeros(h.Htilde.nx + 1, dtype=complex)
    expect[0] = expect[1] = 1.0 / h.omega
    assert np.max(np.abs(rhs[list(orders).index(0)] - expect)) < 1e-9


def test_k0_trivial_zero_feed():
    """B=1, A=0, G_1 = 0, H~ = 0 => all K_n^0 = 0, and so are the (A, B) columns."""
    nx, W = 8, -3.0
    h = shock.HData(0, shock.BiSeries(np.zeros((nx + 1, 4), dtype=complex), 1, 4), W)
    g1 = shock.BiSeries(np.zeros((nx + 1, 5), dtype=complex), 0, 4)
    for r in (0, 1):
        orders, M, rhs = e0_blocks(h, g1, {}, Layout(d=0, r=r, dmu=10))
        assert len(rhs) and np.max(np.abs(rhs)) < 1e-14
    # with e^(-H~) = 1 the a_0 column is -1 at y^0 x^0, and the beta_1 column
    # -X at y^0 x^1, from the X B' = beta_1 X of the right side
    i0 = list(orders).index(0)
    assert M[i0, 0, 0] == -1.0 and np.count_nonzero(M[..., 0]) == 1
    assert M[i0, 1, 1] == -1.0 and np.count_nonzero(M[..., 1]) == 1


def test_k0_linearity(interior_fit):
    """K(B, A1+A2) = K(B, A1) + K(B, A2) - K(B, 0) coefficientwise.

    K(a_0, beta_1) is the right side moved to the mu side: rhs minus the
    (A, B) columns of assemble_E0 times (a_0, beta_1).
    """
    fit, h, g1 = interior_fit
    lay = Layout(d=2, r=1, dmu=10)
    M, const = assemble_E0(h, g1, e_rows(h, 1), lay)

    def K_of(a0, b1):
        return const - a0 * M[:, lay.n_mu] - b1 * M[:, lay.n_mu + 1]

    lhs = K_of(0.7 + 0.1j, 0.3)
    rhs = K_of(0.7 + 0.1j, 0.0) + K_of(0.0, 0.3) - K_of(0.0, 0.0)
    assert np.max(np.abs(M[:, lay.n_mu:])) > 0.1
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_E0_interior_recovers_mu(interior_fit):
    fit, h, _ = interior_fit
    assert fit.r == 0
    assert fit.residual < 1e-10
    # mu_1 = (x+1)/omega
    assert abs(fit.mu[0][0] * h.omega - 1.0) < 1e-8
    assert abs(fit.mu[0][1] * h.omega - 1.0) < 1e-8
    assert np.max(np.abs(fit.mu[0][2:])) < 1e-8


def test_E0_interior_closure(interior, interior_fit):
    """-s_1(mu, 1) reproduces G_1 on a test circle to 1e-6."""
    fit, h, _ = interior_fit
    s = shock.s_k_from_mu(fit.mu, fit.B, h)
    from cfr.geometry import LineParam
    for a in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        y = 4.5 * np.exp(1j * a)
        val = -biseries_eval(s[0], 0.2, y)
        g = G_k(interior, LineParam(0.2, y), 1)
        assert abs(val - g) < 1e-6


def test_E0_exterior_recovery(ext_parts):
    fit, h, g1, etab = ext_parts
    assert fit.r == 1
    assert fit.residual < 1e-7
    assert fit.confined
    root = -1.0 / fit.B[1]
    assert abs(root - (-0.5)) < 1e-4


def test_E0_discrimination(ext_parts):
    fit, h, g1, etab = ext_parts
    lay = Layout(d=0, r=1, dmu=10)
    res_true = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.0])
    res_wrong = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.5])
    assert res_true < 1e-7
    assert res_wrong > 1e-3
    # the same with the (E1) rows stacked below (E0)
    e1 = [assemble_E1(h, g1, etab, lay)]
    res_true = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.0], extra_blocks=e1)
    res_wrong = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.5], extra_blocks=e1)
    assert res_true < 1e-9
    assert res_wrong > 1e-3


def test_E0_wrong_root_displacement(interior_fit):
    """Displacing the (here trivial) B by a 0.1-root change raises the residual."""
    fit, h, g1 = interior_fit
    lay = Layout(d=2, r=1, dmu=10)
    etab = e_rows(h, 1)
    res_true = fixed_AB_residual(h, g1, etab, lay, [0.0], [1.0, 0.0])
    assert res_true < 1e-7


def test_E1_rows_consistent(ext_parts):
    fit, h, g1, etab = ext_parts
    lay = Layout(d=0, r=1, dmu=10)
    M1, rhs1 = assemble_E1(h, g1, etab, lay)
    u = np.array([2.0, 2.0])
    assert np.linalg.norm(M1 @ u - rhs1) < 1e-9 * (1 + np.linalg.norm(rhs1))


def test_E1_rows_leave_rank_unchanged(twoline):
    """(E1) adds no information to (E0) at the fitted r and d, so the fit omits it.

    On the two-line oracle (r = 0, d = 2) the (E0) matrix has rank 21 of 22
    columns, and stacking the (E1) rows below it leaves the rank at 21.
    """
    with pytest.warns(RankDeficient):
        fit, h, g1 = fit_infinity(twoline)
    lay = Layout(d=fit.r + h.delta, r=fit.r, dmu=10)
    etab = e_rows(h, lay.d - 1)
    M0, _ = assemble_E0(h, g1, etab, lay)
    M1, _ = assemble_E1(h, g1, etab, lay)
    assert M0.shape[1] == 22
    assert np.linalg.matrix_rank(M0) == 21
    assert np.linalg.matrix_rank(np.vstack([M0, M1])) == 21


def test_K1_vanishes_for_large_n(ext_parts):
    """K_n^1(B) = 0 for n >= d on the exterior-line oracle."""
    fit, h, g1, etab = ext_parts
    em = h.Htilde.scale(-1.0).exp()
    B = biseries_from_y_poly([1.0, 2.0], h.Htilde.nx)
    Bp = shock.BiSeries.from_x_poly([2.0], h.Htilde.nx)
    g1x = g1.dx()
    k1 = (Bp - B * g1x) * em
    k1 = k1.shift_y(-h.delta).scale(h.omega ** (-h.delta))
    # d = r + delta = 0: coefficients of y^n must vanish for n >= 0
    for n in range(0, 4):
        assert np.max(np.abs(biseries_x_poly(k1, -n))) < 1e-8


def test_E2_degenerate_interior(interior_fit):
    fit, h, g1 = interior_fit
    with pytest.raises(E2Degenerate):
        invert_gxx(g1)


def test_E2_discrimination_conic(conic):
    """E0+E2 rows separate the true B from a perturbed one on the conic.

    At the full wave count d = r + delta a displaced B stays exactly feasible
    (the surplus sheet is absorbed by a rational-affine wave, the same
    reduction the uniqueness theory performs), so the discriminating test
    pins d to the true sheet count and perturbs B at fixed d.
    """
    fit, h, g1 = fit_infinity(conic)
    assert fit.r == 0 and fit.residual < 1e-8
    lay = Layout(d=1, r=1, dmu=10)
    etab = e_rows(h, 0)
    M2, rhs2 = assemble_E2(h, g1, etab, lay)
    res_true = fixed_AB_residual(h, g1, etab, lay, [0.0], [1.0, 0.0],
                                 extra_blocks=[(M2, rhs2)])
    res_wrong = fixed_AB_residual(h, g1, etab, lay, [0.0], [1.0, 0.1],
                                  extra_blocks=[(M2, rhs2)])
    assert res_true < 1e-7
    assert res_wrong > res_true
    assert res_wrong > 1e-4


def test_fit_scan_stops_at_residue_obstruction(conic, monkeypatch):
    """The scan ends at the first E-table row that needs the log term J.

    At accept_tol = 0 no candidate is accepted, so the conic scan reaches
    r = 2, whose row 2 meets a y^-1 coefficient; every larger r needs that
    row, so the best of r = 0, 1 comes back.  With row 0 obstructed the
    obstruction is raised.
    """
    with pytest.warns(RankDeficient):
        fit, _, _ = fit_infinity(oracles.conic(n=1024), accept_tol=0.0)
    assert fit.r in (0, 1) and fit.residual < 1e-12 and not fit.accepted

    def obstructed(h):
        raise shock.ResidueObstruction("y^-1 coefficient")
        yield       # a generator, so the first row raises

    monkeypatch.setattr(shock, "E_decomposition", obstructed)
    with pytest.raises(shock.ResidueObstruction):
        fit_infinity(conic)


@pytest.mark.parametrize("name", ["conic", "interior"])
def test_forced_scan_builds_each_E_row_once(name, request, monkeypatch):
    """At accept_tol = 0 the scan runs r = 0..6, d = 1..7, up to the conic's obstructed row 2.

    It calls op_E and primitivize as often as pulling rows 0..6 once from a fresh
    iterator does, not once per row per r.
    """
    calls = collections.Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(shock, "op_E", counted(shock.op_E, "op_E"))
    monkeypatch.setattr(shock.BiSeries, "primitivize", counted(shock.BiSeries.primitivize, "P"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficient)
        fit, h, _ = fit_infinity(request.getfixturevalue(name), accept_tol=0.0)
    scan = dict(calls)
    calls.clear()
    with contextlib.suppress(shock.ResidueObstruction):
        e_rows(h, 6)
    assert scan == dict(calls) and calls["P"] > 0 and not fit.accepted


def test_conic_and_two_lines_stop_at_the_obstruction():
    """Conic + 2 lines (delta = 3): row 2 of the E-table meets a y^-1 term that every r
    needs, so each r_max and mmax >= 3 raises that one obstruction."""
    con = oracles.conic(n=1024)
    b = BoundaryData(con.loops + [oracles._line_loop(a, 1024) for a in (0.5, -1.0 / 3.0)],
                     [1, 1, 1])
    for r_max in range(7):
        for mmax in range(3, 13):
            with pytest.raises(shock.ResidueObstruction) as e:
                fit_infinity(b, r_max=r_max, mmax=mmax)
            assert str(e.value) == "y^-1 coefficient of size 1.00e+00"


def test_fit_scan_stops_at_the_E_table_cap():
    """A 4-line union (delta = 4) at an unreachable tolerance returns its best r <= 5.

    r = 6 would need d = 10 unknown functions, whose E-table passes shock.E_KMAX.
    """
    slopes = (0.5, -1.0 / 3.0, 0.25j, -0.6 + 0.1j)
    b = BoundaryData([oracles._line_loop(a, 256) for a in slopes], [1] * 4)
    with pytest.warns(RankDeficient):
        fit, h, _ = fit_infinity(b, accept_tol=1e-300)
    assert h.delta == 4 and 0 <= fit.r <= 5


def test_fit_scan_survives_a_tiny_leading_coefficient(interior):
    """At dmu = 4 the interior-line scan meets a B with top coefficient ~0.

    Its roots are huge, so B is merely not confined; rooting it must not
    raise NoConvergence, and the best candidate comes back.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficient)
        fit, _, _ = fit_infinity(interior, dmu=4, accept_tol=0.0)
    assert fit.residual < 1e-12


def test_two_line_fit(twoline):
    with pytest.warns(RankDeficient):
        fit, h, g1 = fit_infinity(twoline)
    assert fit.r == 0
    assert fit.residual < 1e-8
    assert h.delta + fit.r == 2


def test_discriminant_nonnull_on_grid(twoline):
    """S(mu, B) from the fitted data has non-null discriminant on a z-grid."""
    from reference import discriminant
    with pytest.warns(RankDeficient):
        fit, h, g1 = fit_infinity(twoline)
    s = shock.s_k_from_mu(fit.mu, fit.B, h)
    for a in np.linspace(0, 2 * np.pi, 6, endpoint=False):
        y = 5.0 * np.exp(1j * a)
        coeffs = np.array([1.0, biseries_eval(s[0], 0.1, y), biseries_eval(s[1], 0.1, y)])
        assert abs(discriminant(coeffs)) > 1e-6


def test_rank_reporting(interior_fit):
    fit, _, _ = interior_fit
    assert fit.rank > 0 and np.isfinite(fit.cond)
