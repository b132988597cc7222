import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from cfr.symmetric import (NoConvergence, monic_from_elementary, power_to_elementary, roots,
                           series_inv, series_mul)
from reference import discriminant, elementary_to_power, series_inv_loop


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


def newton_scale(S, N):
    """Largest term |S_{k-j} N_j| of the recursion S_k = (1/k) sum_j (-1)^(j-1) S_{k-j} N_j."""
    S0 = np.concatenate([np.ones_like(S[:1]), S])
    return np.max([np.abs(S0[k - j] * N[j - 1])
                   for k in range(1, len(N) + 1) for j in range(1, k + 1)], axis=0)


def test_newton_round_trips():
    """Both round trips stay within 1e-12 of the recursion's largest term, over 200 seeds.

    The error grows with the sums the recursion adds, not with |N|: an
    absolute bound on p = 8 with |N| <= 7 fails for some draws.
    """
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for p in range(1, 9):
            N = rng.uniform(-5, 5, (p, 20)) + 1j * rng.uniform(-5, 5, (p, 20))
            S = power_to_elementary(N)
            err = np.max(np.abs(elementary_to_power(S) - N), axis=0)
            assert np.all(err < 1e-12 * newton_scale(S, N)), (seed, p)
            N2 = elementary_to_power(N)  # reuse as random S
            err = np.max(np.abs(power_to_elementary(N2) - N), axis=0)
            assert np.all(err < 1e-12 * newton_scale(N, N2)), (seed, p)


def test_power_to_elementary_columns():
    """A (p, n) stack gives each column's (p, 1) call, bit for bit; monic keeps the layout."""
    rng = np.random.default_rng(7)
    for p in range(1, 9):
        N = rng.standard_normal((p, 50)) + 1j * rng.standard_normal((p, 50))
        S = power_to_elementary(N)
        assert S.shape == (p, 50)
        for j in range(50):
            assert np.array_equal(S[:, j:j + 1], power_to_elementary(N[:, j:j + 1]))
        C = monic_from_elementary(S)
        assert np.array_equal(C[0], np.ones(50))
        assert np.array_equal(C[1:], S * (-1.0) ** np.arange(1, p + 1)[:, None])


def test_discriminant_stack_equals_rows():
    """Stacked reference discriminants equal their one-polynomial calls, bit for bit."""
    rng = np.random.default_rng(8)
    for deg in range(2, 7):
        C = rng.standard_normal((3, 5, deg + 1)) + 1j * rng.standard_normal((3, 5, deg + 1))
        d = discriminant(C)
        assert d.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert d[i, j] == discriminant(C[i, j])


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
    """A factor with columns gives each column's 1-D product, bit for bit."""
    a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    a[[1, 4]] = 0.0                                 # exercise the zero skip
    for rows in (4, 7, 10):
        b = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        for order in (2, 6):
            cols = np.stack([series_mul(a, b[:, j], order) for j in range(3)], axis=1)
            assert np.array_equal(series_mul(a, b, order), cols)
    # a left factor with columns pairs them with b's, one 1-D product each
    A = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    A[1] = 0.0
    A[4, 0] = 0.0
    b = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    pairs = np.stack([series_mul(A[:, j], b[:, j], 6) for j in range(3)], axis=1)
    assert np.array_equal(series_mul(A, b, 6), pairs)


def test_series_inv_one_dimensional_and_stacked():
    """A 1-D series keeps the scalar loop's bits; a stack inverts each column."""
    rng = np.random.default_rng(5)
    for rows in (1, 3, 6):
        a = rng.standard_normal((rows, 2, 4)) + 1j * rng.standard_normal((rows, 2, 4))
        a[0] += 3.0
        for order in (0, 2, 7):
            for j in range(4):
                assert np.array_equal(series_inv(a[:, 0, j], order),
                                      series_inv_loop(a[:, 0, j], order))
            inv = series_inv(a, order)
            assert inv.shape == (order + 1, 2, 4)
            cols = np.moveaxis(np.array([[series_inv_loop(a[:, i, j], order) for j in range(4)]
                                         for i in range(2)]), -1, 0)
            assert np.max(np.abs(inv - cols)) <= 1e-14 * np.max(np.abs(cols))
            unit = series_mul(a, inv, order)
            assert np.max(np.abs(unit[0] - 1.0)) < 1e-14 and np.max(np.abs(unit[1:]), initial=0) < 1e-12


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
    assert abs(discriminant(c2)) > 1e-6 * (1.0 + np.max(np.abs(c2))) ** 4


def _batch_rows_equal_one_row_calls(rng):
    for deg in range(1, 9):
        C = rng.standard_normal((6, deg + 1)) + 1j * rng.standard_normal((6, deg + 1))
        if deg == 3:
            C[2] = [1.0, -1e10, 0.0, 1.0]
        batch = roots(C)
        assert batch.shape == (6, deg)
        for row, got in zip(C, batch):
            assert np.array_equal(got, roots(row))
            assert np.array_equal(got, np.sort_complex(got))


def test_roots_batch_rows_equal_one_row_calls(rng):
    """Each row of a batched solve equals its one-row call, bit for bit.

    T^3 - 1e10 T^2 + 1, whose roots span fifteen orders of magnitude, sits
    between ordinary rows.
    """
    _batch_rows_equal_one_row_calls(rng)


def test_roots_batch_rows_pass_on_every_seed():
    """The same rows on 300 seeds: roots of modulus >> 1 meet the residual bound too."""
    for seed in range(300):
        _batch_rows_equal_one_row_calls(np.random.default_rng(seed))


def test_roots_batch_empty_and_failure(monkeypatch):
    assert roots(np.zeros((0, 4))).shape == (0, 3)
    # roots spanning fifteen orders of magnitude are accepted, each to full relative accuracy
    got = roots(np.array([[1.0, -5.0, 6.0, 0.0], [1.0, 1e10, 1.0, 1.0]]))[1]
    import mpmath
    with mpmath.workdps(50):
        exact = [complex(z) for z in mpmath.polyroots([1, 10**10, 1, 1], maxsteps=200,
                                                      extraprec=200)]
    for z in exact:
        assert np.min(np.abs(got - z)) < 1e-14 * abs(z)
    # perturbed or NaN eigenvalues miss the residual bound
    eigvals = np.linalg.eigvals
    for bad in (lambda a: eigvals(a) + 1e-3, lambda a: eigvals(a) * np.nan):
        monkeypatch.setattr(np.linalg, "eigvals", bad)
        with pytest.raises(NoConvergence), np.errstate(invalid="ignore"):
            roots([1.0, -5.0, 6.0])
