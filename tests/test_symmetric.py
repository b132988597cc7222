import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from cfr.symmetric import (NoConvergence, discriminant, fiber_scale, monic_from_elementary,
                           power_to_elementary, roots, series_mul)
from reference import elementary_to_power


def brute_elementary(rts):
    """Elementary symmetric functions by direct expansion of prod (T - h)."""
    c = np.ones(1, dtype=complex)
    for r in rts:
        c = P.polymul(c, np.array([-r, 1.0]))
    # c ascending: T^p + ... ; S_k = (-1)^k * coeff of T^{p-k}
    p = len(rts)
    return np.array([(-1) ** k * c[p - k] for k in range(1, p + 1)])


def test_newton_examples():
    S = power_to_elementary([5.0, 13.0])
    assert np.allclose(S, [5.0, 6.0])
    assert np.allclose(elementary_to_power([5.0, 6.0]), [5.0, 13.0])
    assert power_to_elementary([3.0])[0] == 3.0
    assert np.allclose(elementary_to_power(np.zeros(4)), np.zeros(4))


def test_newton_round_trips():
    rng = np.random.default_rng(20250809)
    for p in range(1, 9):
        for _ in range(20):
            N = rng.uniform(-5, 5, p) + 1j * rng.uniform(-5, 5, p)
            S = power_to_elementary(N)
            assert np.max(np.abs(elementary_to_power(S) - N)) < 1e-10
            N2 = elementary_to_power(N)  # reuse as random S
            assert np.max(np.abs(power_to_elementary(N2) - N)) < 1e-10


def test_newton_vs_brute_force(rng):
    for _ in range(10):
        rts = 0.7 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        N = np.array([np.sum(rts ** k) for k in range(1, 7)])
        assert np.max(np.abs(power_to_elementary(N) - brute_elementary(rts))) < 1e-10


def test_monic_assembly(rng):
    assert np.allclose(monic_from_elementary([5.0, 6.0]), [1, -5, 6])
    assert np.allclose(monic_from_elementary([3.5]), [1, -3.5])
    rts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    S = brute_elementary(rts)
    direct = np.ones(1, dtype=complex)
    for r in rts:
        direct = P.polymul(direct, np.array([-r, 1.0]))
    assert np.max(np.abs(monic_from_elementary(S) - direct[::-1])) < 1e-10


def match_multisets(a, b):
    a = sorted(a, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    b = sorted(b, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return max(abs(x - y) for x, y in zip(a, b))


def test_series_mul_columns(rng):
    """A right factor with columns gives each column's 1-D product, bit for bit."""
    a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    a[[1, 4]] = 0.0                                 # exercise the zero skip
    for rows in (4, 7, 10):
        b = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        for order in (2, 6):
            cols = np.stack([series_mul(a, b[:, j], order) for j in range(3)], axis=1)
            assert np.array_equal(series_mul(a, b, order), cols)


def test_roots_examples():
    assert match_multisets(roots([1.0, -5.0, 6.0]), [2.0, 3.0]) < 1e-12
    assert abs(roots([1.0, -3.3])[0] - 3.3) < 1e-14


def test_roots_wilkinson_mild():
    target = 0.1 * np.arange(1, 9)
    c = np.ones(1, dtype=complex)
    for r in target:
        c = P.polymul(c, np.array([-r, 1.0]))
    rts = roots(c[::-1])
    assert match_multisets(rts, target) < 1e-7


def test_roots_recover_random_multiset(rng):
    for p in (2, 4, 6):
        phase = np.exp(2j * np.pi * np.arange(p) / p)
        target = phase * (1.0 + 0.3 * rng.standard_normal(p))
        N = np.array([np.sum(target ** k) for k in range(1, p + 1)])
        rts = roots(monic_from_elementary(power_to_elementary(N)))
        assert match_multisets(rts, target) < 1e-7


def test_roots_repeated():
    rts = roots([1.0, 0.0, 0.0])  # T^2: double root pins |z| only to sqrt(tol)
    assert np.max(np.abs(rts)) < 1e-4


def test_discriminant():
    assert abs(discriminant([1.0, -5.0, 6.0]) - 1.0) < 1e-12
    assert abs(discriminant([1.0, 0.0, 0.0])) < 1e-14
    with pytest.raises(ValueError):
        discriminant([1.0, 2.0])


def test_discriminant_vs_root_products(rng):
    for _ in range(5):
        rts = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = np.ones(1, dtype=complex)
        for r in rts:
            c = P.polymul(c, np.array([-r, 1.0]))
        expect = np.prod([(rts[i] - rts[j]) ** 2
                          for i in range(3) for j in range(i + 1, 3)])
        assert abs(discriminant(c[::-1]) - expect) < 1e-9 * (1 + abs(expect))


def test_discriminant_collision_both_ways(rng):
    # collision => zero discriminant
    c = P.polymul(P.polymul([1.0, 1.0], [1.0, 1.0]), [-2.0, 1.0])[::-1]
    assert abs(discriminant(c)) < 1e-12
    # distinct roots => discriminant bounded away from zero
    c2 = P.polymul(P.polymul([1.0, 1.0], [0.5, 1.0]), [-2.0, 1.0])[::-1]
    assert abs(discriminant(c2)) > 1e-6 * fiber_scale(c2)


def test_roots_batch_rows_equal_one_row_calls(rng):
    """Each row of a batched solve equals its one-row call, bit for bit.

    T^3 - 1e10 T^2 + 1, whose roots span fifteen orders of magnitude, sits
    between ordinary rows.
    """
    for deg in range(1, 9):
        C = rng.standard_normal((6, deg + 1)) + 1j * rng.standard_normal((6, deg + 1))
        if deg == 3:
            C[2] = [1.0, -1e10, 0.0, 1.0]
        batch = roots(C)
        assert batch.shape == (6, deg)
        for row, got in zip(C, batch):
            assert np.array_equal(got, roots(row))
            assert np.array_equal(got, np.sort_complex(got))


def test_roots_batch_empty_and_failure():
    assert roots(np.zeros((0, 4))).shape == (0, 3)
    with pytest.raises(NoConvergence):
        roots(np.array([[1.0, -5.0, 6.0, 0.0], [1.0, 1e10, 1.0, 1.0]]))
