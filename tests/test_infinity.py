import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfr import indicators, infinity, oracles, reconstruct
from cfr.geometry import LineParam
from cfr.infinity import GermAtInfinity, Pk_family, ResonantY, check_confinement
from reference import (P1, B_infinity, G_k, Pk_family_rational, Pk_mp, Pk_residue, deriv_x, deriv_y,
                       exterior_line_germ)


@pytest.fixture(scope="module")
def line_germ():
    b, tay = exterior_line_germ()
    return GermAtInfinity(b, tay + [0.0] * 5)


def test_B_infinity():
    assert np.allclose(B_infinity([GermAtInfinity(2.0, [])]), [1, 2])
    assert np.allclose(B_infinity([]), [1])
    two = B_infinity([GermAtInfinity(2.0, []), GermAtInfinity(-1.0, [])])
    assert np.allclose(two, [1, 1, -2])


def test_P1_line_germ(line_germ):
    p1 = P1([line_germ])
    for y in (10.0, -4.0, 3.0 + 2.0j):
        assert abs(p1.coeffs[1](y) - 1.0 / (y + 0.5)) < 1e-12
        assert abs(p1.coeffs[0](y) - 1.0 / (y + 0.5)) < 1e-12


def test_P1_no_germs():
    p1 = P1([])
    assert abs(p1(0.3, 5.0)) == 0


def test_P1_two_germs():
    germs = [GermAtInfinity(2.0, [0.0]), GermAtInfinity(3.0, [0.0])]
    p1 = P1(germs)
    y = 5.0
    assert abs(p1.coeffs[0](y)) < 1e-14
    assert abs(p1.coeffs[1](y) - (2 / (1 + 2 * y) + 3 / (1 + 3 * y))) < 1e-13


def test_P1_closed_form_matches_program():
    """The program's P_1 is p_{1,0} + p_{1,1} X with p_{1,1} = B'/B, p_{1,0} = -sum g_1/(1+Y b)."""
    rng = np.random.default_rng(11)
    germs = [GermAtInfinity(1.5 + 0.2j, [0.3]), GermAtInfinity(-0.8, [0.1j]),
             GermAtInfinity(0.4j, [-1.0])]
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = 6.0 * np.exp(2j * np.pi * rng.uniform(size=9))
    for n in (1, 2, 3):
        closed = P1(germs[:n])
        got = Pk_family(germs[:n], 1)[1](x, y)
        assert np.max(np.abs(got - np.array([closed(a, c) for a, c in zip(x, y)]))) < 1e-13


def test_Pk_residue_basics(line_germ):
    z = LineParam(0.0, 10.0)
    assert Pk_residue(line_germ, 0, z) == -1.0
    assert abs(Pk_residue(line_germ, 1, z) - 2.0 / 21.0) < 1e-14
    with pytest.raises(ResonantY):
        Pk_residue(line_germ, 1, LineParam(0.0, -0.5))


def test_Pk_residue_vs_family(line_germ):
    fam = Pk_family([line_germ], 4)
    for k in (1, 2, 3, 4):
        for z in (LineParam(0.2, 10.0), LineParam(-0.3, -7.0 + 2.0j)):
            assert abs(Pk_residue(line_germ, k, z) - fam[k](z.x, z.y)) < 1e-10


def test_Pk_family_no_germs():
    fam = Pk_family([], 3)
    assert abs(fam[0](0.1, 3.0)) == 0
    for k in (1, 2, 3):
        assert abs(fam[k](0.1, 3.0)) == 0


def test_Pk_scalar_and_stacked_calls(line_germ):
    """A scalar call gives a Python complex; arrays broadcast, one value per line."""
    germs = [line_germ, GermAtInfinity(-0.8, [0.1j, 0.2, 0.0, 0.0, 0.0])]
    fam = Pk_family(germs, 4)
    assert type(fam[2](0.1, 3.0)) is complex and fam[0](0.1, 3.0) == -2
    x = np.array([0.1, -0.2 + 0.1j, 0.05j])
    y = np.array([[3.0], [-2.5 + 1.0j]])
    for k in range(5):
        got = fam[k](x, y)
        assert got.shape == (2, 3)
        each = np.array([[fam[k](a, c) for a in x] for c in y[:, 0]])
        assert np.max(np.abs(got - each)) < 1e-14 * (1 + np.max(np.abs(each)))
    assert fam[3](x, 3.0).shape == (3,)


def test_Pk_resonant_rule():
    """ResonantY is raised exactly when some |1 + y b_q| < RESONANT_EPS."""
    fam = Pk_family([GermAtInfinity(2.0, [1.0, 0.0]), GermAtInfinity(-1.0, [0.5, 0.0])], 2)
    for y in (-0.5, 1.0, np.array([3.0, 1.0])):
        with pytest.raises(ResonantY):
            fam[2](0.1, y)
    near = -0.5 + infinity.RESONANT_EPS     # |1 + 2 y| = 2 RESONANT_EPS
    assert np.isfinite(fam[1](0.1, near))


def test_exterior_G_matches_P(exterior, line_germ):
    """Quadrature route equals germ route on a 5x5 grid (p = 0 sheets)."""
    fam = Pk_family([line_germ], 2)
    for a in np.linspace(0, 2 * np.pi, 5, endpoint=False):
        y = 5.0 * np.exp(1j * a)
        for f in np.linspace(-0.4, 0.4, 5):
            z = LineParam(f, y)
            for k in (1, 2):
                g = G_k(exterior, z, k)
                assert abs(g - fam[k](z.x, z.y)) < 1e-10


@pytest.mark.parametrize("a", [0.5, -0.3 + 0.2j, 0.8j])
def test_exterior_line_power_sums_vanish_on_sweep_grid(a):
    """An exterior line has no sheets: G_k = P_k for k = 1..5 on the default sweep grid."""
    b = oracles.exterior_line(a=a)
    bq, tay = exterior_line_germ(a)
    fam = Pk_family([GermAtInfinity(bq, tay + [0.0] * 4)], 5)
    params = inspect.signature(reconstruct.sweep).parameters
    xs, ys = reconstruct._default_grid(b, *(params[k].default for k in
                                            ("radii", "angles", "xfracs")))
    G = indicators.G_lines(b, xs, ys, range(1, 6))
    worst = max(np.max(np.abs(G[k - 1] - fam[k](xs, ys[:, None]))) for k in range(1, 6))
    assert worst <= 1e-12


def test_program_matches_rational_family():
    rng = np.random.default_rng(12)
    germs = [GermAtInfinity(1.5 + 0.2j, [0.3, -0.1, 0.05, 0.2, 0.0]),
             GermAtInfinity(-0.8, [0.1j, 0.2, 0.0, -0.3j, 0.1]),
             GermAtInfinity(0.5j, [1.0, 0.0, 0.4, 0.0, 0.0])]
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    y = 6.0 * np.exp(2j * np.pi * rng.uniform(size=12))
    for n in (1, 2, 3):
        fam, rational = Pk_family(germs[:n], 5), Pk_family_rational(germs[:n], 5)
        for k in range(1, 6):
            want = np.array([rational[k](a, c) for a, c in zip(x, y)])
            assert np.max(np.abs(fam[k](x, y) - want)) < 1e-10


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_COEFF, st.lists(_COEFF, min_size=5, max_size=5)),
                min_size=1, max_size=3),
       _COEFF, st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
       st.integers(1, 5))
def test_Pk_matches_50_digit_residue(germs, x, y, k):
    germs = [GermAtInfinity(b, tay) for b, tay in germs]
    assume(min(abs(1.0 + y * q.b) for q in germs) >= 0.1)
    got = Pk_family(germs, 5)[k](x, y)
    assert abs(got - Pk_mp(germs, k, x, y)) <= 1e-13 * (1 + abs(got))


def test_p22_is_p11_derivative():
    germ = GermAtInfinity(2.0, [0.0, 0.0])
    fam = Pk_family_rational([germ], 2)
    p11 = P1([germ]).coeffs[1]
    y = 3.3
    assert abs(fam[2].coeffs[2](y) - p11.deriv()(y)) < 1e-13


def test_mixed_partial_identity(line_germ):
    """dP_k/dY = (k/(k+1)) dP_{k+1}/dX at 20 random points with |y| > rho."""
    fam = Pk_family_rational([line_germ], 5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal() + 1j * rng.standard_normal()
        y = (2.0 + rng.uniform(0, 3)) * np.exp(2j * np.pi * rng.uniform())
        for k in (1, 2, 3, 4):
            lhs = deriv_y(fam[k])(x, y)
            rhs = deriv_x(fam[k + 1])(x, y) * k / (k + 1)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_family_matches_pointwise_residues(rng):
    germs = [GermAtInfinity(1.5 + 0.2j, [0.3, -0.1, 0.05, 0.0, 0.0]),
             GermAtInfinity(-0.8, [0.1j, 0.2, 0.0, 0.0, 0.0])]
    fam = Pk_family(germs, 4)
    for _ in range(5):
        x = rng.standard_normal() + 1j * rng.standard_normal()
        y = 6.0 * np.exp(2j * np.pi * rng.uniform())
        for k in range(5):
            direct = sum(Pk_residue(g, k, LineParam(x, y)) for g in germs)
            assert abs(direct - fam[k](x, y)) < 1e-8


def test_germ_depth_guard():
    g = GermAtInfinity(2.0, [1.0])
    with pytest.raises(ValueError):
        Pk_residue(g, 3, LineParam(0.0, 10.0))
    with pytest.raises(ValueError, match="depth 1 < required order 3"):
        Pk_family([g], 3)


def test_confinement():
    assert check_confinement(np.array([1.0, 2.0]), 1.5)        # root -1/2
    assert not check_confinement(np.array([1.0, 0.1]), 1.0)    # root -10
    assert check_confinement(np.array([1.0]), 0.3)             # no roots


def test_germs_from_json():
    germs = infinity.germs_from_json(
        {"germs": [{"b": [2.0, 0.0], "taylor": [[-2.0, 0.0]]}]}
    )
    assert germs[0].b == 2.0
    assert germs[0].taylor == [-2.0]
