import numpy as np
import pytest

from cfr.genus import (NegativeCount, RoundingGuard, SurfaceModel, ZeroOnBoundary,
                       chern_boundary_integral, lambda_flat, lambda_fubini_study,
                       q_infinity_estimate, winding_difference)
from reference import genus_of_double, hstar

ONE = lambda z: np.ones_like(z)
ZID = lambda z: z


@pytest.fixture(scope="module")
def disc():
    return SurfaceModel(kind="disc")


@pytest.fixture(scope="module")
def annulus():
    return SurfaceModel(kind="annulus")


def test_hstar_flat():
    z = np.exp(1j * np.linspace(0, 6, 7))
    assert np.allclose(hstar(ONE, lambda_flat, z), 1.0)
    assert np.allclose(hstar(ZID, lambda_flat, z), np.abs(z))


def test_hstar_fs():
    z = 0.3 + 0.4j
    assert abs(hstar(ONE, lambda_fubini_study, z) ** 2 - (1 + abs(z) ** 2) ** 2) < 1e-12


def test_annulus_flat_zero(annulus):
    """Flat annulus, omega = dzeta: integral = 2 - 2g - c = 0."""
    assert abs(chern_boundary_integral(ONE, lambda_flat, annulus)) < 1e-6


def test_annulus_winding_quotient(annulus):
    """zeta has no zero in the annulus: boundary winding of the quotient is 0."""
    assert abs(winding_difference(ZID, ONE, lambda_flat, annulus)) < 1e-6


def test_disc_winding_difference(disc):
    """zeta dzeta vs dzeta on the disc: metric cancels, difference is exactly 1."""
    assert abs(winding_difference(ZID, ONE, lambda_flat, disc) - 1.0) < 1e-6
    assert abs(winding_difference(ZID, ONE, lambda_fubini_study, disc) - 1.0) < 1e-6


def test_disc_fs_values(disc):
    """Fubini-Study disc: integral(dz) = 1, integral(z dz) = 2 (= N_z + 1)."""
    assert abs(chern_boundary_integral(ONE, lambda_fubini_study, disc) - 1.0) < 1e-6
    assert abs(chern_boundary_integral(ZID, lambda_fubini_study, disc) - 2.0) < 1e-6


def test_disc_flat_recorded_discrepancy(disc):
    """Recorded, not gated: flat lambda passes the tangency certificate yet the
    direct computation gives 0 where the zero-count relation predicts 1."""
    assert disc.tangency_certificate(lambda_flat) < 1e-6
    assert abs(chern_boundary_integral(ONE, lambda_flat, disc)) < 1e-9
    assert disc.tangency_certificate(lambda_fubini_study) > 0.1


def test_tangency_certificate_keeps_nan(annulus):
    """A density that is NaN on the inner circle gives a NaN defect, not the outer one."""
    def lam(z):
        return np.where(np.abs(np.abs(z) - annulus.r_in) < 1e-12, np.nan, 1.0)
    assert np.isnan(annulus.tangency_certificate(lam))


def test_mu_independence(disc, annulus):
    """Densities differing by e^(2 kappa) with certificate-satisfying kappa
    give the same integral."""
    for model in (disc, annulus):
        def lam2(z):
            r2 = np.abs(z) ** 2
            kappa = 0.4 * (1 - r2) ** 4 * (r2 - 0.25) ** 4 * np.real(z ** 2)
            return np.exp(2 * kappa)
        assert model.tangency_certificate(lam2) < 1e-6
        d = abs(chern_boundary_integral(ZID, lam2, model)
                - chern_boundary_integral(ZID, lambda_flat, model))
        assert d < 1e-6


def test_zero_on_boundary(annulus):
    with pytest.raises(ZeroOnBoundary):
        chern_boundary_integral(lambda z: z - 0.5, lambda_flat, annulus)


def test_genus_of_double():
    assert genus_of_double(0, 1) == 0
    assert genus_of_double(0, 2) == 1
    assert genus_of_double(2, 3) == 6
    table = {(g, c): genus_of_double(g, c)
             for g in (0, 1, 2) for c in (1, 2, 3)}
    for (g, c), v in table.items():
        assert v == 2 * g + c - 1
    with pytest.raises(ValueError):
        genus_of_double(-1, 1)
    with pytest.raises(ValueError):
        genus_of_double(0, 0)


def test_q_infinity(disc):
    assert q_infinity_estimate(0.0, 0, 2) == 0
    assert q_infinity_estimate(0.0, 1, 1) == 1
    integral = chern_boundary_integral(ZID, lambda_fubini_study, disc)
    # disc FS model with one interior zero of omega: q_inf = N_z = 1
    assert q_infinity_estimate(integral, 0, 1) == 1
    with pytest.raises(RoundingGuard):
        q_infinity_estimate(0.4, 0, 1)


def test_q_infinity_negative_is_typed():
    """A count of points at infinity is >= 0: -1 raises NegativeCount, 0 is returned."""
    assert q_infinity_estimate(-1.0, 0, 3) == 0
    with pytest.raises(NegativeCount, match="-1 < 0"):
        q_infinity_estimate(0.0, 0, 1)


def test_bad_model_kind():
    with pytest.raises(ValueError):
        SurfaceModel(kind="torus").circles()
