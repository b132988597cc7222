"""Newton identities, monic assembly, simultaneous root finding, discriminant."""

from __future__ import annotations

import numpy as np

ROOT_RESIDUAL_TOL = 1e-9
ABERTH_MAX_ITER = 200

# Fibers whose discriminant falls under this relative threshold are treated as
# non-transverse line positions and skipped by callers.
DISC_SINGULAR_TOL = 1e-12


class NoConvergence(RuntimeError):
    """Root iteration failed to reach the residual target."""


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
    """All roots of monic-ish polynomials via Aberth-Ehrlich iteration.

    coeffs holds one polynomial (descending coefficients) or a (rows, deg+1)
    array of them, and the roots come back in the same layout; one
    polynomial is the one-row case.  The iteration is elementwise, so a row
    gives the same bits in any batch: each row has its own convergence test
    and is frozen once it passes.  A row that stalls falls back to
    companion-matrix eigenvalues on its own; a result is accepted only when
    |p(root)| < 1e-9 * (1 + ||coeffs||).
    """
    C = np.asarray(coeffs, dtype=complex)
    if C.shape[-1] < 2:
        raise ValueError("degree must be at least 1")
    Z = _aberth(np.atleast_2d(C))
    return Z if C.ndim == 2 else Z[0]


def _aberth(C):
    """Roots of each row of C, (rows, deg+1) descending coefficients; see roots."""
    C = C / C[:, :1]
    deg = C.shape[1] - 1
    if deg == 1:
        return -C[:, 1:]
    scale = 1.0 + np.max(np.abs(C), axis=1)
    tol = ROOT_RESIDUAL_TOL * (1.0 + np.array([np.linalg.norm(c) for c in C]))

    # Deterministic Fejer-like starting circle; the offset breaks the symmetry
    # of polynomials with real coefficients.
    k = np.arange(deg)
    Z = scale[:, None] * np.exp(2j * np.pi * (k + 0.5) / deg + 0.4j)

    converged = np.zeros(len(C), dtype=bool)
    live = np.arange(len(C))            # rows still iterating
    diag = np.arange(deg)
    for _ in range(ABERTH_MAX_ITER):
        if not live.size:
            break
        z = Z[live]
        p, dp = _polyval_and_deriv(C[live], z)
        small = np.max(np.abs(p), axis=1) < tol[live] * 1e-3
        converged[live[small]] = True
        live, z, p, dp = live[~small], z[~small], p[~small], dp[~small]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = p / dp
            diff = z[:, :, None] - z[:, None, :]
            diff[:, diag, diag] = 1.0
            s = np.sum(1.0 / diff, axis=2) - 1.0  # remove the diagonal 1/1 term
            corr = w / (1.0 - w * s)
        corr = np.where(np.isfinite(corr), corr, w)
        z = z - corr
        Z[live] = z
        done = np.max(np.abs(corr), axis=1) < 1e-14 * (1.0 + np.max(np.abs(z), axis=1))
        converged[live[done]] = True
        live = live[~done]

    p, _ = _polyval_and_deriv(C, Z)
    for i in np.flatnonzero(~converged | (np.max(np.abs(p), axis=1) > tol)):
        Z[i] = _companion_roots(C[i], tol[i])
    return Z


def _companion_roots(coeffs, tol):
    """Companion-matrix eigenvalues of one polynomial, polished by Newton steps."""
    deg = len(coeffs) - 1
    comp = np.diag(np.ones(deg - 1, dtype=complex), -1)
    comp[0, :] = -coeffs[1:]
    z = np.linalg.eigvals(comp)[None, :]
    c = coeffs[None, :]
    for _ in range(3):      # Newton polish steps
        p, dp = _polyval_and_deriv(c, z)
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0)
        z = z - step
    p, _ = _polyval_and_deriv(c, z)
    if np.max(np.abs(p)) > tol:
        raise NoConvergence(f"max residual {np.max(np.abs(p)):.3e} exceeds {tol:.3e}")
    return z[0]


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
