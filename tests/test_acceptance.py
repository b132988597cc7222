"""Acceptance suite: one test per gated criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test additionally prints an ACCEPTANCE summary line with the
measured worst-case numbers (visible with -s or on failure).
"""

import numpy as np
from numpy.polynomial import polynomial as P

from cfr import (genus, green, indicators, infinity, linsys, oracles,
                 reconstruct, shock, symmetric)
from cfr.geometry import LineParam, m_of_y, rho
from reference import (BoundaryGrid, G_k, conic_small_root, detect_algebraic, disc_principal_dbar,
                       disc_principal_green, e_rows, elementary_to_power, eqsym1_residual,
                       exterior_line_germ, fixed_AB_residual, genus_of_double,
                       harmonic_extension_T, iterate_E, principal_green, rational_tail)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, detail


def zgrid_5x5(b, rad_mult=3.0):
    r = rho(b)
    zs = []
    for a in range(5):
        y = rad_mult * r * np.exp(2j * np.pi * (a + 0.13) / 5)
        m = m_of_y(b, y)
        for f in np.linspace(-0.45, 0.45, 5):
            zs.append(LineParam(f * m, y))
    return zs


def test_criterion_01_interior_line_indicators(interior):
    worst_g0, worst_g1 = 0.0, 0.0
    for z in zgrid_5x5(interior):
        worst_g0 = max(worst_g0, abs(G_k(interior, z, 0) - 1.0))
        expect = -(z.x + 1.0) / (z.y + 0.5)
        worst_g1 = max(worst_g1, abs(G_k(interior, z, 1) - expect))
    d = indicators.delta(interior)
    report(1, worst_g0 < 1e-8 and worst_g1 < 1e-8 and d == 1,
           f"|G0-1|={worst_g0:.2e}, |G1-oracle|={worst_g1:.2e}, delta={d}")


def test_criterion_02_exterior_line_germ_route(exterior):
    b_q, tay = exterior_line_germ()
    germ = infinity.GermAtInfinity(b_q, tay + [0.0] * 3)
    fam = infinity.Pk_family([germ], 2)
    worst_p1, worst_n = 0.0, 0.0
    for z in zgrid_5x5(exterior):
        g1 = G_k(exterior, z, 1)
        p1 = fam[1](z.x, z.y)
        worst_p1 = max(worst_p1, abs(g1 - (1 + z.x) / (z.y + 0.5)))
        worst_n = max(worst_n, abs(g1 - p1))
    d = indicators.delta(exterior)
    p = d + len([germ])
    report(2, worst_p1 < 1e-8 and worst_n < 1e-8 and p == 0,
           f"|G1-P1|={worst_n:.2e}, closed-form err={worst_p1:.2e}, "
           f"p={p}=delta+q_inf={d}+1")


def test_criterion_03_two_line_fibers_and_cloud(twoline):
    fam = infinity.Pk_family([], 2)
    worst_root = 0.0
    for z in zgrid_5x5(twoline):
        _, (h,), _ = reconstruct.fibers(twoline, [z.x], [z.y], 2, fam)
        expect = sorted([-(z.x + 1) / (z.y + 0.5), -(z.x + 1) / (z.y - 1.0 / 3.0)],
                        key=lambda c: (c.real, c.imag))
        got = sorted(h, key=lambda c: (c.real, c.imag))
        worst_root = max(worst_root, max(abs(g - e) for g, e in zip(got, expect)))
    cloud = reconstruct.sweep(twoline, 2, fam, angles=24)
    worst_member = 0.0
    for p in cloud.points:
        z1, z2 = p.w1 / p.w0, p.w2 / p.w0
        worst_member = max(worst_member,
                           min(abs(z2 - 1 - 0.5 * z1), abs(z2 - 1 + z1 / 3)))
    algebraic, _ = detect_algebraic(twoline)
    report(3, worst_root < 1e-7 and worst_member < 1e-6 and algebraic,
           f"fiber err={worst_root:.2e}, membership={worst_member:.2e}, "
           f"algebraic={algebraic}")


def test_criterion_04_conic_fiber_and_shock(conic):
    fam = infinity.Pk_family([], 1)
    worst = 0.0
    for z in zgrid_5x5(conic):
        _, (h,), _ = reconstruct.fibers(conic, [z.x], [z.y], 1, fam)
        worst = max(worst, abs(h[0] - conic_small_root(z.x, z.y)))
    # shock residual of the fiber field around (0, 2.5 rho)
    n, step = 9, 0.05
    y0 = 2.5 * rho(conic)
    xs, ys = (np.arange(n) - n // 2) * step, y0 + (np.arange(n) - n // 2) * step
    _, rts, _ = reconstruct.fibers(conic, np.repeat(xs, n), np.tile(ys, n), 1, fam)
    vals = rts[:, 0].reshape(n, n)          # vals[i, j] at (xs[i], ys[j])
    res = shock.system_residual([vals], step, step)
    algebraic, model = detect_algebraic(conic)
    report(4, worst < 1e-7 and res < 1e-5 and not algebraic,
           f"fiber err={worst:.2e}, shock residual={res:.2e}, "
           f"algebraic={algebraic} (fit resid {model['residual']:.1e})")


def test_criterion_05_newton_round_trips():
    rng = np.random.default_rng(55)
    worst_rt, worst_monic = 0.0, 0.0
    for case in range(100):
        p = 1 + case % 8
        roots = np.exp(2j * np.pi * rng.uniform(size=p)) * rng.uniform(0.2, 1.0, p)
        N = np.array([np.sum(roots ** k) for k in range(1, p + 1)])
        S = symmetric.power_to_elementary(N)
        worst_rt = max(worst_rt, np.max(np.abs(elementary_to_power(S) - N)))
        direct = np.ones(1, dtype=complex)
        for r in roots:
            direct = P.polymul(direct, np.array([-r, 1.0]))
        worst_monic = max(worst_monic, np.max(np.abs(
            symmetric.monic_from_elementary(S) - direct[::-1])))
    report(5, worst_rt < 1e-10 and worst_monic < 1e-10,
           f"round-trip={worst_rt:.2e}, monic-vs-brute={worst_monic:.2e}")


def test_criterion_06_operator_identities(interior_h, interior_lt):
    f = np.array([0.0, 2.0, 0.0, 1.0])  # x^3 + 2x
    tab = e_rows(interior_h, 4)
    worst_e = 0.0
    for k in range(1, 5):
        lhs = iterate_E(f, k, interior_h)
        rhs = None
        fj = f.copy()
        for j in range(k + 1):
            t = tab[k][j] * shock.BiSeries.from_x_poly(fj, interior_h.Htilde.nx)
            rhs = t if rhs is None else rhs + t
            fj = P.polyder(fj)
        lo, hi = max(lhs.mlo, rhs.mlo), min(lhs.mhi, rhs.mhi)
        worst_e = max(worst_e, float(np.max(np.abs((lhs - rhs)._window(lo, hi)))))

    rng = np.random.default_rng(66)
    W2 = -4.5
    h2 = shock.H_from_laurent(interior_lt, W2)
    B = np.array([1.0, 0.5])
    g1 = shock.g1_biseries(interior_lt, h2.Htilde.nx)
    dNx = g1.dx() - rational_tail(P.polyder(B), B, h2.Htilde.nx, interior_lt.mmax + 2)
    mu = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
    s = shock.s_k_from_mu(mu, B, h2)
    chain = eqsym1_residual(s, dNx)
    report(6, worst_e < 1e-9 and chain < 1e-8,
           f"E^k identity={worst_e:.2e}, random-mu chain={chain:.2e}")


def test_criterion_07_E0_discrimination(exterior_fit):
    fit, h, g1 = exterior_fit
    etab = e_rows(h, 0)
    lay = linsys.Layout(d=0, r=1, dmu=10)
    res_true = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.0])
    res_wrong = fixed_AB_residual(h, g1, etab, lay, [2.0], [1.0, 2.5])
    root = -1.0 / fit.B[1]
    ok = (res_true < 1e-7 and res_wrong > 1e-3
          and abs(root - (-0.5)) < 1e-4 and fit.confined)
    report(7, ok, f"residual(true)={res_true:.2e}, residual(-0.4)={res_wrong:.2e}, "
                  f"root={root:.6f}, confined={fit.confined}")


def test_criterion_08_green_module():
    model = green.flat_disc_model()
    q1, q2 = 0.25 + 0.1j, -0.3 + 0.35j
    sym = abs(green.green_value(q1, q2, model) - green.green_value(q2, q1, model))
    coef = green.fit_log_coefficient(model, 0.2 + 0.1j)
    coef_err = abs(coef - 1.0 / (2 * np.pi))

    grid = BoundaryGrid(256)
    zeta = grid.zeta
    worst_T = 0.0
    for q in (0.3 + 0.2j, -0.5 + 0.1j):
        dbg = disc_principal_dbar(q, zeta)
        worst_T = max(worst_T,
                      abs(harmonic_extension_T(np.real(zeta), dbg, grid) - q.real),
                      abs(harmonic_extension_T(np.real(zeta ** 2), dbg, grid)
                          - (q * q).real))

    c = 0.37
    pg = principal_green(
        lambda q, z: disc_principal_green(q, z) + c * np.real(q * np.conj(z)),
        lambda q, z: disc_principal_dbar(q, z) + c * q / 2 * np.ones_like(z),
        lambda qb, z: c * qb / 2 * np.ones_like(z),
        grid,
    )
    worst_b = max(abs(pg.value(0.3 + 0.2j, np.exp(1j * a)))
                  for a in np.linspace(0.03, 2 * np.pi - 0.03, 17))
    ok = sym < 1e-4 and coef_err < 1e-3 and worst_T < 1e-6 and worst_b < 1e-6
    report(8, ok, f"symmetry={sym:.2e}, log-coef err={coef_err:.2e}, "
                  f"T-Poisson={worst_T:.2e}, principal boundary={worst_b:.2e}")


def test_criterion_09_genus_module():
    annulus = genus.SurfaceModel(kind="annulus")
    disc = genus.SurfaceModel(kind="disc")
    flat0 = genus.chern_boundary_integral(lambda z: np.ones_like(z),
                                          genus.lambda_flat, annulus)
    # metric-independent winding difference: zeta dzeta vs dzeta encloses the
    # single zero of zeta on the disc model, where the value 1 is unambiguous
    wd = genus.winding_difference(lambda z: z, lambda z: np.ones_like(z),
                                  genus.lambda_flat, disc)
    gd_ok = all(genus_of_double(g, c) == 2 * g + c - 1
                for g in (0, 1, 2) for c in (1, 2, 3))
    # recorded, not gated: the disc absolute values under flat/FS densities
    rec_flat = genus.chern_boundary_integral(lambda z: np.ones_like(z),
                                             genus.lambda_flat, disc)
    rec_fs = genus.chern_boundary_integral(lambda z: np.ones_like(z),
                                           genus.lambda_fubini_study, disc)
    ok = abs(flat0) < 1e-6 and abs(wd - 1.0) < 1e-6 and gd_ok
    report(9, ok, f"annulus flat={flat0:.2e}, winding diff={wd:.9f}, "
                  f"gdouble ok={gd_ok}; recorded disc: flat={rec_flat:.3f}, "
                  f"fs={rec_fs:.3f}")


def test_criterion_10_convergence_and_determinism(tmp_path, monkeypatch):
    deltas = []
    # boundary-sample doubling: indicators, Laurent data, recovered root
    b512, b1024 = oracles.interior_line(n=512), oracles.interior_line(n=1024)
    z = LineParam(0.2, 4.0 + 1.0j)
    for k in (0, 1, 2):
        deltas.append(abs(G_k(b512, z, k) - G_k(b1024, z, k)))
    t1 = indicators.laurent_extract(b512, 2, 8, cross_check=False)
    t2 = indicators.laurent_extract(b1024, 2, 8, cross_check=False)
    deltas.append(float(np.max(np.abs(t1.coeffs - t2.coeffs))))
    e512, _, _ = linsys.fit_infinity(oracles.exterior_line(n=512))
    e1024, _, _ = linsys.fit_infinity(oracles.exterior_line(n=1024))
    deltas.append(abs(e512.B[1] - e1024.B[1]))
    # series-truncation doubling: recovered root with doubled mu degree
    d1, _, _ = linsys.fit_infinity(oracles.exterior_line(), dmu=10)
    d2, _, _ = linsys.fit_infinity(oracles.exterior_line(), dmu=20)
    deltas.append(abs(d1.B[1] - d2.B[1]))
    # grid-density doubling: Chern boundary integral under angular refinement
    g1v = genus.chern_boundary_integral(
        lambda z: z, genus.lambda_fubini_study, genus.SurfaceModel(kind="disc"))
    monkeypatch.setattr(genus, "N_NODES", 2 * genus.N_NODES)
    g2v = genus.chern_boundary_integral(
        lambda z: z, genus.lambda_fubini_study, genus.SurfaceModel(kind="disc"))
    deltas.append(abs(g1v - g2v))
    worst = max(deltas)

    # byte-identical repeated runs through the CLI
    from cfr import cli
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    line = tmp_path / "line.json"
    cli.main(["make-oracle", "--name", "interior-line", "--out", str(line)])
    cli.main(["pipeline", "--boundary", str(line), "--angles", "6",
              "--out", str(out1)])
    cli.main(["pipeline", "--boundary", str(line), "--angles", "6",
              "--out", str(out2)])
    same = (out1.read_bytes() == out2.read_bytes())
    same_cloud = ((tmp_path / "a.cloud.json").read_bytes()
                  == (tmp_path / "b.cloud.json").read_bytes())
    report(10, worst < 1e-8 and same and same_cloud,
           f"max doubling change={worst:.2e}, byte-identical={same and same_cloud}")
