import numpy as np
import pytest

from cfr import indicators, linsys, oracles, shock
from cfr.linsys import (Layout, RankDeficient, assemble_E0, fit_infinity, k0_components,
                        solve_joint, valid_window)
from reference import (E2Degenerate, assemble_E1, assemble_E2, coeff_c0, fixed_AB_residual,
                       invert_gxx)


@pytest.fixture(scope="module")
def ext_parts(exterior_fit):
    fit, h, g1 = exterior_fit
    etab = shock.E_decomposition(0, h)
    return fit, h, g1, etab


def test_coeff_c0_constant(interior_h):
    etab = shock.E_decomposition(1, interior_h)
    v0 = coeff_c0(1, 0, 0, etab)   # E_{0,0} = 1
    assert abs(v0[0] - 1.0) < 1e-14 and np.max(np.abs(v0[1:])) == 0
    assert np.max(np.abs(coeff_c0(1, 0, 3, etab))) == 0
    assert np.max(np.abs(coeff_c0(1, 0, -2, etab))) == 0


def test_coeff_c0_E11(interior_h):
    etab = shock.E_decomposition(1, interior_h)
    # E_{1,1} = Y - omega: coefficient of y^1 is 1, of y^0 is -omega
    assert abs(coeff_c0(2, 1, 1, etab)[0] - 1.0) < 1e-14
    assert abs(coeff_c0(2, 1, 0, etab)[0] - (-interior_h.omega)) < 1e-14


def test_coeff_c0_dual_route(interior_h):
    """Series extraction agrees with 128-point circle quadrature for j+m <= 4.

    The quadrature route is (1/2 pi i) * contour integral of E_{j-1,m}(x, y)
    dy / y^(n+1) over |y| = 4 at a few x points.
    """
    etab = shock.E_decomposition(3, interior_h)
    nodes = 128
    y = 4.0 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    dy = 1j * y * (2.0 * np.pi / nodes)
    for (j, m) in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
        for n in (-2, -1, 0, 1):
            series_vec = coeff_c0(j, m, n, etab)
            for x in (0.0, 0.37, 0.11 + 0.23j):
                f = etab[(j - 1, m)](np.full_like(y, x), y)
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
        assert np.array_equal(linsys._mu_columns(cvec, m, dmu, nx_rows), ref)


def test_k0_vanishes_for_large_n(interior_fit):
    """Interior line (B=1, A=0, d=1): K_n^0 = 0 for n >= 1."""
    fit, h, g1 = interior_fit
    window = np.arange(-6, 6)
    k = k0_components(h, g1, 0, window, h.Htilde.nx)
    for i, n in enumerate(window):
        if n >= 1 and not np.isnan(k.const[i, 0]):
            assert np.max(np.abs(k.const[i])) < 1e-8
    i0 = list(window).index(0)
    # K_0^0 = (x+1)/omega on this oracle
    expect = np.zeros(h.Htilde.nx + 1, dtype=complex)
    expect[0] = expect[1] = 1.0 / h.omega
    assert np.max(np.abs(k.const[i0] - expect)) < 1e-9


def test_k0_trivial_zero_feed():
    """B=1, A=0, G_1 = 0, H~ = 0 => all K_n^0 = 0."""
    nx, W = 8, -3.0
    h = shock.HData(0, shock.BiSeries(np.zeros((nx + 1, 4), dtype=complex), 1, 4), W)
    g1 = shock.BiSeries(np.zeros((nx + 1, 5), dtype=complex), 0, 4)
    window = np.arange(-3, 3)
    k = k0_components(h, g1, 0, window, nx)
    assert np.nanmax(np.abs(k.const)) < 1e-14


def test_k0_linearity(interior_fit):
    """K(B, A1+A2) = K(B, A1) + K(B, A2) - K(B, 0) coefficientwise."""
    fit, h, g1 = interior_fit
    window = valid_window(h, g1, 1, 2)
    k = k0_components(h, g1, 1, window, h.Htilde.nx)

    def K_of(a0, b1):
        out = k.const.copy()
        out += a0 * k.a[0] + b1 * k.beta[0]
        return out

    lhs = K_of(0.7 + 0.1j, 0.3)
    rhs = K_of(0.7 + 0.1j, 0.0) + K_of(0.0, 0.3) - K_of(0.0, 0.0)
    mask = ~np.isnan(lhs[:, 0])
    assert np.max(np.abs(lhs[mask] - rhs[mask])) < 1e-12


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
        val = -s[0](0.2, y)
        g = indicators.G_k(interior, LineParam(0.2, y), 1)
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
    etab = shock.E_decomposition(1, h)
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
    etab = shock.E_decomposition(lay.d - 1, h)
    M0, _ = assemble_E0(h, g1, etab, lay)
    M1, _ = assemble_E1(h, g1, etab, lay)
    assert M0.shape[1] == 22
    assert np.linalg.matrix_rank(M0) == 21
    assert np.linalg.matrix_rank(np.vstack([M0, M1])) == 21


def test_K1_vanishes_for_large_n(ext_parts):
    """K_n^1(B) = 0 for n >= d on the exterior-line oracle."""
    fit, h, g1, etab = ext_parts
    em = h.Htilde.scale(-1.0).exp()
    B = shock.BiSeries.from_y_poly([1.0, 2.0], h.Htilde.nx)
    Bp = shock.BiSeries.from_x_poly([2.0], h.Htilde.nx)
    g1x = g1.dx()
    k1 = (Bp - B * g1x) * em
    k1 = k1.shift_y(-h.delta).scale(h.omega ** (-h.delta))
    # d = r + delta = 0: coefficients of y^n must vanish for n >= 0
    for n in range(0, 4):
        assert np.max(np.abs(k1.x_poly(-n))) < 1e-8


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
    etab = shock.E_decomposition(0, h)
    M2, rhs2 = assemble_E2(h, g1, etab, lay)
    res_true = fixed_AB_residual(h, g1, etab, lay, [0.0], [1.0, 0.0],
                                 extra_blocks=[(M2, rhs2)])
    res_wrong = fixed_AB_residual(h, g1, etab, lay, [0.0], [1.0, 0.1],
                                  extra_blocks=[(M2, rhs2)])
    assert res_true < 1e-7
    assert res_wrong > res_true
    assert res_wrong > 1e-4


def test_fit_scan_skips_residue_obstruction(conic, monkeypatch):
    """An r whose E-table needs the log term J is skipped, not fatal.

    At accept_tol = 0 no candidate is accepted, so the conic scan reaches
    r = 2..6, where E_decomposition meets a y^-1 coefficient; the best of
    r = 0, 1 comes back.  With every r obstructed the obstruction is raised.
    """
    with pytest.warns(RankDeficient):
        fit, _, _ = fit_infinity(oracles.conic(n=1024), accept_tol=0.0)
    assert fit.r in (0, 1) and fit.residual < 1e-12

    def obstructed(dmax, h):
        raise shock.ResidueObstruction("y^-1 coefficient")

    monkeypatch.setattr(shock, "E_decomposition", obstructed)
    with pytest.raises(shock.ResidueObstruction):
        fit_infinity(conic)


def test_two_line_fit(twoline):
    with pytest.warns(RankDeficient):
        fit, h, g1 = fit_infinity(twoline)
    assert fit.r == 0
    assert fit.residual < 1e-8
    assert indicators.sheet_count(h.delta, fit.r) == 2


def test_discriminant_nonnull_on_grid(twoline):
    """S(mu, B) from the fitted data has non-null discriminant on a z-grid."""
    from cfr import symmetric
    with pytest.warns(RankDeficient):
        fit, h, g1 = fit_infinity(twoline)
    s = shock.s_k_from_mu(fit.mu, fit.B, h)
    for a in np.linspace(0, 2 * np.pi, 6, endpoint=False):
        y = 5.0 * np.exp(1j * a)
        coeffs = np.array([1.0, s[0](0.1, y), s[1](0.1, y)])
        assert abs(symmetric.discriminant(coeffs)) > 1e-6


def test_rank_reporting(interior_fit):
    fit, _, _ = interior_fit
    assert fit.rank > 0 and np.isfinite(fit.cond)
