"""Independent reference values for the benchmark's correctness checks.

Everything here is written from the defining formulas in NumPy: dense
cosine tables whose angles are reduced in integer arithmetic, and evaluation
on the probe grid cos(j pi / M) through one DCT-I.  None of it calls vpwave,
so a check compares two different code paths.

Notation: p_r is the orthonormal Chebyshev polynomial of degree r, mu the
ramp filter of level (n, m), q_r (r < n) the modified Chebyshev basis of the
approximation space (p_r, or mu_r p_r - mu_{2n-r} p_{2n-r} on the ramp) and
nu_r = |q_r|^2.
"""

import math

import numpy as np
import scipy.fft


def _scale(degrees) -> np.ndarray:
    degrees = np.asarray(degrees)
    return np.where(degrees == 0, 1.0 / math.sqrt(math.pi), math.sqrt(2.0 / math.pi))


def cheb_zeros(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return np.cos(((2 * k - 1) / (2 * n)) * np.pi)


def probe_points(grid_size: int) -> np.ndarray:
    return np.cos(np.arange(grid_size + 1) * (np.pi / grid_size))


def zeros_table(degrees, n: int) -> np.ndarray:
    """p_r at the n Chebyshev zeros, shape (len(degrees), n)."""
    r = np.asarray(degrees, dtype=np.int64)[:, None]
    k = np.arange(1, n + 1, dtype=np.int64)
    reduced = (r * (2 * k - 1)) % (4 * n)
    return _scale(r) * np.cos(reduced * (np.pi / (2 * n)))


def probe_table(degrees, js, grid_size: int) -> np.ndarray:
    """p_r at the probe points cos(j pi / M) for j in ``js``."""
    r = np.asarray(degrees, dtype=np.int64)[:, None]
    reduced = (r * np.asarray(js, dtype=np.int64)) % (2 * grid_size)
    return _scale(r) * np.cos(reduced * (np.pi / grid_size))


def ramp(n: int, m: int) -> np.ndarray:
    r = np.arange(n + m)
    return np.where(r <= n - m, 1.0, (n + m - r) / (2.0 * m))


def scatter(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, nu): column r of A holds the p-coefficients of q_r; nu_r = |q_r|^2."""
    mu = ramp(n, m)
    a = np.zeros((n + m, n))
    for r in range(n):
        if r <= n - m:
            a[r, r] = 1.0
        else:
            a[r, r] = mu[r]
            a[2 * n - r, r] = -mu[2 * n - r]
    return a, (a * a).sum(axis=0)


def probe_values(coeffs, grid_size: int) -> np.ndarray:
    """sum_r c_r p_r on probe_points(grid_size) along the last axis, via DCT-I."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if c.shape[-1] > grid_size + 1:
        raise ValueError("degree exceeds the probe grid")
    a = np.zeros(c.shape[:-1] + (grid_size + 1,))
    a[..., : c.shape[-1]] = c * _scale(np.arange(c.shape[-1]))
    a[..., 1:grid_size] /= 2.0
    return scipy.fft.dct(a, type=1, axis=-1)


def _projection(inner: np.ndarray, n: int, m: int) -> np.ndarray:
    a, nu = scatter(n, m)
    return a @ (inner / nu)


def discrete_coeffs(f, n: int, m: int) -> np.ndarray:
    """p-coefficients of the discrete projection: the node-sum inner products."""
    a, _ = scatter(n, m)
    q_at_nodes = a.T @ zeros_table(np.arange(n + m), n)
    return _projection((np.pi / n) * (q_at_nodes @ f(cheb_zeros(n))), n, m)


def fourier_coeffs(f, n: int, m: int, n_quad: int) -> np.ndarray:
    """p-coefficients of the projection with n_quad-point Gauss-Chebyshev inner products."""
    a, _ = scatter(n, m)
    g = (np.pi / n_quad) * (zeros_table(np.arange(n + m), n_quad) @ f(cheb_zeros(n_quad)))
    return _projection(a.T @ g, n, m)


def vp_coeffs(f, n: int, m: int) -> np.ndarray:
    """p-coefficients of the interpolating mean sum_k f(x_k) phi_k."""
    return ramp(n, m) * (np.pi / n) * (zeros_table(np.arange(n + m), n) @ f(cheb_zeros(n)))


def sup_error(f, coeffs, grid_size: int) -> float:
    return float(np.max(np.abs(f(probe_points(grid_size)) - probe_values(coeffs, grid_size)[0])))


def lambda_tilde(n: int, m: int, grid_size: int) -> float:
    """max over the probe grid of (pi/n) sum_i |K(x_i, x)|."""
    a, nu = scatter(n, m)
    q_at_nodes = a.T @ zeros_table(np.arange(n + m), n)
    sections = (a @ (q_at_nodes / nu[:, None])).T
    return float(((np.pi / n) * np.abs(probe_values(sections, grid_size)).sum(axis=0)).max())


def lambda_bar(n: int, m: int, grid_size: int) -> float:
    """max over the probe grid of sum_k |phi_k(x)|."""
    phi = (np.pi / n) * ramp(n, m)[:, None] * zeros_table(np.arange(n + m), n)
    return float(np.abs(probe_values(phi.T, grid_size)).sum(axis=0).max())


def lambda_integral(n: int, m: int, grid_size: int, samples_per_degree: int = 64) -> float:
    """max over the half probe grid of int_0^pi |K(x, cos t)| dt, integrated exactly.

    K(x, cos t) = sum_s b_s cos(s t) is sampled densely, each sign change is
    polished by Newton's method inside its bracket, and |K| is integrated
    between roots with the antiderivative b_0 t + sum_s b_s sin(s t) / s.
    """
    a, nu = scatter(n, m)
    degs = np.arange(n + m)
    at_x = probe_table(degs, np.arange(grid_size // 2 + 1), grid_size)
    b = (a @ ((a.T @ at_x) / nu[:, None])).T * _scale(degs)
    steps = samples_per_degree * (n + m)
    theta = np.arange(steps + 1) * (np.pi / steps)
    cos_t = np.cos(np.outer(degs, theta))
    inv_s = np.concatenate(([0.0], 1.0 / degs[1:]))
    sin_t = np.sin(np.outer(degs, theta)) * inv_s[:, None]
    sin_t[0] = theta
    g = b @ cos_t
    anti = b @ sin_t
    pieces = np.abs(np.diff(anti, axis=1))
    rows, cols = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
    if rows.size:
        lo, hi = theta[cols], theta[cols + 1]
        g_lo, g_hi = g[rows, cols], g[rows, cols + 1]
        root = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        br = b[rows]
        for _ in range(6):
            arg = np.outer(root, degs)
            val = (br * np.cos(arg)).sum(axis=1)
            slope = -(br * degs * np.sin(arg)).sum(axis=1)
            root = np.clip(root - val / np.where(slope == 0.0, 1.0, slope), lo, hi)
        anti_root = (br * np.sin(np.outer(root, degs)) * inv_s).sum(axis=1) + br[:, 0] * root
        pieces[rows, cols] = (np.abs(anti_root - anti[rows, cols])
                              + np.abs(anti[rows, cols + 1] - anti_root))
    return float(pieces.sum(axis=1).max())
