"""Newton identities, monic assembly, companion-matrix root finding, discriminant."""

from __future__ import annotations

import numpy as np

ROOT_RESIDUAL_TOL = 1e-9

# Fibers whose discriminant falls under this relative threshold are treated as
# non-transverse line positions and skipped by callers.
DISC_SINGULAR_TOL = 1e-12


class NoConvergence(RuntimeError):
    """Computed roots miss the residual target."""


def power_to_elementary(N):
    """Elementary symmetric functions from power sums.

    Newton's identities in the recursive form
        S_k = (1/k) sum_{j=1..k} (-1)^(j-1) S_{k-j} N_j,   S_0 = 1,
    which the brute-force expansion of prod (T - h_j) confirms; displayed
    versions with a (-1)^(j-1) against S_j N_{k-j} get the k >= 3 signs wrong.
    """
    N = list(N)
    S = [1.0 + 0.0j]
    for k in range(1, len(N) + 1):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * S[k - j] * N[j - 1]
        S.append(acc / k)
    return np.array(S[1:], dtype=complex)


def series_mul(a, b, order):
    """Product of two power series truncated after u^order; a 2-D b is a set of columns."""
    out = np.zeros((order + 1,) + np.shape(b)[1:], dtype=complex)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        hi = min(order - i, len(b) - 1)
        out[i : i + hi + 1] += ai * b[: hi + 1]
    return out


def series_inv(a, order):
    """1/a as a power series truncated after u^order; a[0] must be nonzero."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0 / a[0]
    for n in range(1, order + 1):
        s = 0.0 + 0.0j
        for i in range(1, min(n, len(a) - 1) + 1):
            s += a[i] * out[n - i]
        out[n] = -s * out[0]
    return out


def monic_from_elementary(S):
    """Coefficients [1, -S_1, +S_2, ...] of prod (T - h_j), highest power first."""
    out = [1.0 + 0.0j]
    for k, s in enumerate(S, start=1):
        out.append((-1) ** k * s)
    return np.array(out, dtype=complex)


def _polyval_and_deriv(coeffs, z):
    """Horner evaluation of p and p', row by row: coeffs (rows, deg+1) descending, z (rows, n)."""
    p = np.zeros_like(z) + coeffs[:, :1]
    dp = np.zeros_like(z)
    for j in range(1, coeffs.shape[1]):
        dp = dp * z + p
        p = p * z + coeffs[:, j : j + 1]
    return p, dp


def roots(coeffs):
    """All roots of polynomials as companion-matrix eigenvalues.

    coeffs holds one polynomial (descending coefficients) or a (rows, deg+1)
    array of them, and the roots come back in the same layout, each row in
    np.sort_complex order; one polynomial is the one-row case.  Each row is
    normalised to monic and its companion matrix joins one (rows, deg, deg)
    stack for np.linalg.eigvals, which solves every matrix on its own, so a
    row gives the same bits in any batch.  The eigenvalues are backward
    stable (Edelman & Murakami, Math. Comp. 64, 1995) and get one Newton
    step; a row is accepted only when |p(root)| < 1e-9 * (1 + ||coeffs||),
    else NoConvergence.
    """
    C = np.asarray(coeffs, dtype=complex)
    if C.shape[-1] < 2:
        raise ValueError("degree must be at least 1")
    A = np.atleast_2d(C)
    A = A / A[:, :1]
    deg = A.shape[1] - 1
    if deg == 1:
        Z = -A[:, 1:]
    else:
        comp = np.zeros((len(A), deg, deg), dtype=complex)
        comp[:, 0, :] = -A[:, 1:]
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        # one Newton step takes large roots down to Horner's rounding level
        Z = np.linalg.eigvals(comp)
        p, dp = _polyval_and_deriv(A, Z)
        Z = np.sort_complex(Z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0))
        res = np.max(np.abs(_polyval_and_deriv(A, Z)[0]), axis=1)
        tol = ROOT_RESIDUAL_TOL * (1.0 + np.linalg.norm(A, axis=1))
        bad = np.flatnonzero(res > tol)
        if bad.size:
            i = bad[0]
            raise NoConvergence(f"max residual {res[i]:.3e} exceeds {tol[i]:.3e}")
    return Z if C.ndim == 2 else Z[0]


def discriminant(coeffs):
    """Resultant-based discriminant of a polynomial (descending coefficients)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if deg < 2:
        raise ValueError("discriminant needs degree >= 2")
    dcoeffs = coeffs[:-1] * np.arange(deg, 0, -1)
    n, m = deg, deg - 1
    # Sylvester matrix of p (degree n) and p' (degree m).
    S = np.zeros((n + m, n + m), dtype=complex)
    for i in range(m):
        S[i, i : i + n + 1] = coeffs
    for i in range(n):
        S[m + i, i : i + m + 1] = dcoeffs
    res = np.linalg.det(S)
    sign = (-1) ** (n * (n - 1) // 2)
    return sign * res / coeffs[0]


def fiber_scale(coeffs):
    """Homogeneous magnitude scale used for the near-tangency discriminant test."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    return (1.0 + float(np.max(np.abs(coeffs)))) ** (2 * (deg - 1))
