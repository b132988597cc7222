"""Newton identities, monic assembly and companion-matrix root finding."""

from __future__ import annotations

import numpy as np

ROOT_RESIDUAL_SLACK = 8     # c in the per-root bound c * deg * eps * sum |a_k| |z|^k


class NoConvergence(RuntimeError):
    """Computed roots miss the residual target."""


def power_to_elementary(N):
    """Elementary symmetric functions from power sums.

    Newton's identities in the recursive form
        S_k = (1/k) sum_{j=1..k} (-1)^(j-1) S_{k-j} N_j,   S_0 = 1,
    which the brute-force expansion of prod (T - h_j) confirms; displayed
    versions with a (-1)^(j-1) against S_j N_{k-j} get the k >= 3 signs wrong.
    N_1..N_p lie on axis 0 and S_1..S_p come back there; every other axis is
    an independent problem.
    """
    N = np.asarray(N, dtype=complex)
    S = np.ones((len(N) + 1,) + N.shape[1:], dtype=complex)
    for k in range(1, len(N) + 1):
        acc = S[k - 1] * N[0]
        for j in range(2, k + 1):
            t = S[k - j] * N[j - 1]
            acc = acc + t if j % 2 else acc - t
        S[k] = acc / k
    return S[1:]


def series_mul(a, b, order):
    """Product of two power series truncated after u^order; b's trailing axes stack series.

    a's trailing axes broadcast against b's: a 2-D a pairs column c with b[:, c], and a
    (n, na, 1) a against an (m, na, nc) b gives every pair a[:, i] * b[:, i, j] in one call.
    """
    out = np.zeros((order + 1,) + np.shape(b)[1:], dtype=complex)
    a = np.asarray(a)[: order + 1]
    for i in np.flatnonzero(a.reshape(len(a), -1).any(axis=1)):     # skip rows of zeros
        hi = min(order - i, len(b) - 1)
        out[i : i + hi + 1] += a[i] * b[: hi + 1]
    return out


def series_inv(a, order):
    """1/a as a power series truncated after u^order; a[0] must be nonzero.

    a's trailing axes stack series, as in series_mul; a 1-D a runs on numpy scalars.
    """
    a = np.asarray(a)
    out = np.zeros((order + 1,) + a.shape[1:], dtype=complex)
    out[0] = 1.0 / a[0]
    for n in range(1, order + 1):
        s = 0.0 + 0.0j
        for i in range(1, min(n, len(a) - 1) + 1):
            s += a[i] * out[n - i]
        out[n] = -s * out[0]
    return out


def monic_from_elementary(S):
    """Coefficients [1, -S_1, +S_2, ...] of prod (T - h_j), highest power first, on axis 0."""
    S = np.asarray(S, dtype=complex)
    out = np.ones((len(S) + 1,) + S.shape[1:], dtype=complex)
    out[1:] = S
    out[1::2] = -S[::2]
    return out


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
    step; a row is accepted only when every root z meets Horner's rounding
    bound |p(z)| <= c * deg * eps * sum |a_k| |z|^k of the monic row
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1),
    else NoConvergence; a NaN residual fails.
    """
    C = np.asarray(coeffs, dtype=complex)
    if C.shape[-1] < 2:
        raise ValueError("degree must be at least 1")
    A = np.atleast_2d(C)
    A = A / A[:, :1]
    deg = A.shape[1] - 1
    comp = np.zeros((len(A), deg, deg), dtype=complex)
    comp[:, 0, :] = -A[:, 1:]
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    # one Newton step takes large roots down to Horner's rounding level
    Z = np.linalg.eigvals(comp)
    p, dp = _polyval_and_deriv(A, Z)
    Z = np.sort_complex(Z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0))
    res = np.abs(_polyval_and_deriv(A, Z)[0])
    bound = ROOT_RESIDUAL_SLACK * deg * np.finfo(float).eps * _polyval_and_deriv(
        np.abs(A), np.abs(Z))[0]
    ok = res <= bound
    bad = np.flatnonzero(~ok.all(axis=1))
    if bad.size:
        i = bad[0]
        k = np.argmin(ok[i])
        raise NoConvergence(f"root residual {res[i, k]:.3e} exceeds {bound[i, k]:.3e}")
    return Z if C.ndim == 2 else Z[0]

