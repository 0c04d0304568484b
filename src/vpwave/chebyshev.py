"""Chebyshev building blocks on [-1, 1].

Everything downstream is expressed in the orthonormal first-kind family

    p_0(x) = sqrt(1/pi),       p_r(x) = sqrt(2/pi) * cos(r * arccos x),  r >= 1,

which satisfies  int_{-1}^{1} p_r p_s w = delta_{rs}  for the Chebyshev weight
w(x) = 1/sqrt(1 - x^2).  The cosine transforms below are the orthonormal
DCT-II / DCT-III pair written against this normalization: for length N,

    dct(v)[r]  = sqrt(pi/N) * sum_k v[k] p_r(x_k),     x_k in cheb_nodes(N),
    idct(v)[k] = sqrt(pi/N) * sum_r v[r] p_r(x_k),

so idct is simultaneously the transpose and the inverse of dct.  Both act
along the last axis, so a stack of sequences is transformed at once.
"""

import math
import numbers

import numpy as np
import scipy.fft

SQRT_1_PI = 1.0 / math.sqrt(math.pi)
SQRT_2_PI = math.sqrt(2.0 / math.pi)


def _check_size(size) -> None:
    """A grid size is a positive integer; a bool is not one."""
    if isinstance(size, bool) or not isinstance(size, numbers.Integral):
        raise ValueError(f"grid size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError(f"grid size must be positive, got {size}")


def cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev zeros x_k = cos((2k-1) pi / (2n)), k = 1..n, in decreasing order."""
    _check_size(n)
    k = np.arange(1, n + 1)
    # the ratio is formed before multiplying by pi so that the coarse grid
    # reproduces every third fine-grid angle bit-for-bit (x_k^n = x_{3k-1}^{3n})
    return np.cos(((2 * k - 1) / (2 * n)) * np.pi)


def y_nodes(n: int) -> np.ndarray:
    """The 2n nodes of cheb_nodes(3n) that are not in cheb_nodes(n), interleaving
    the fine grid: y_{2k-1} = x_{3k-2} and y_{2k} = x_{3k}, for k = 1..n."""
    _check_size(n)
    keep = np.arange(1, 3 * n + 1) % 3 != 2  # drop positions 3k-1 (1-based)
    return cheb_nodes(3 * n)[keep]


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):  # NaN fails too
        raise ValueError("evaluation point outside [-1, 1]")
    return x


def eval_p(r: int, x):
    """Orthonormal Chebyshev polynomial p_r at x (scalar or array), |x| <= 1."""
    if r < 0:
        raise ValueError(f"degree must be nonnegative, got {r}")
    x = _check_domain(x)
    scale = SQRT_1_PI if r == 0 else SQRT_2_PI
    out = scale * np.cos(r * np.arccos(x))
    return float(out) if out.ndim == 0 else out


def eval_p_table(degrees, x) -> np.ndarray:
    """Table p_r(x_j) with shape (len(degrees), len(x))."""
    degrees = np.asarray(degrees)
    x = np.atleast_1d(_check_domain(x))
    out = np.cos(np.outer(degrees, np.arccos(x)))
    out *= np.where(degrees == 0, SQRT_1_PI, SQRT_2_PI)[:, None]
    return out


def dct(v) -> np.ndarray:
    """Fast orthonormal DCT-II along the last axis (see module docstring)."""
    return scipy.fft.dct(_nonempty(v), type=2, norm="ortho")


def idct(v) -> np.ndarray:
    """Fast orthonormal DCT-III along the last axis (transpose/inverse of dct)."""
    return scipy.fft.idct(_nonempty(v), type=2, norm="ortho")


def _nonempty(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("the cosine transforms expect a nonempty last axis")
    return v


def eval_series(coeffs, x):
    """Sum_r c_r p_r(x) along the last axis of coeffs, from cos(r arccos x), taking
    the degrees in blocks of about 2^20 table entries rather than in one table.
    The result has shape coeffs.shape[:-1] + x.shape: a float for 1-d coeffs
    and a scalar x."""
    x = _check_domain(x)
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros(c.shape[:-1] + (x.size,))
    step = max(1, (1 << 20) // (x.size or 1))
    for start in range(0, c.shape[-1], step):
        block = c[..., start:start + step]
        table = eval_p_table(np.arange(start, start + block.shape[-1]), x)
        # einsum, not `@`: the rounding of a BLAS product depends on its threads
        out += np.einsum("...r,rx->...x", block, table)
    out = out.reshape(c.shape[:-1] + x.shape)
    return float(out) if out.ndim == 0 else out


def probe_grid(grid_size: int) -> np.ndarray:
    """Chebyshev-distributed probe grid cos(j pi / M), j = 0..M, endpoints included."""
    _check_size(grid_size)
    return np.cos(np.arange(grid_size + 1) * (np.pi / grid_size))


def probe_values(coeffs, grid_size: int) -> np.ndarray:
    """Sum_r c_r p_r on probe_grid(grid_size) along the last axis, by one DCT-I.
    On the grid p_r = p_{2M-r} = p_{r+2M}, so degrees >= M fold back first."""
    _check_size(grid_size)
    c = np.asarray(coeffs, dtype=float)
    c = c * np.where(np.arange(c.shape[-1]) == 0, SQRT_1_PI, SQRT_2_PI)
    a = np.zeros(c.shape[:-1] + (grid_size + 1,))
    for start in range(0, c.shape[-1], 2 * grid_size):
        block = c[..., start:start + 2 * grid_size]
        a[..., :block.shape[-1]] += block[..., :grid_size + 1]
        a[..., 2 * grid_size + 1 - block.shape[-1]:grid_size] += block[..., :grid_size:-1]
    a[..., 1:grid_size] *= 0.5
    return scipy.fft.dct(a, type=1, axis=-1, overwrite_x=True)


def sup_error(f, g, grid_size: int = 10000) -> float:
    """max |f - g| over probe_grid(grid_size)."""
    if grid_size < 2:
        raise ValueError(f"grid size must be at least 2, got {grid_size}")
    xs = probe_grid(grid_size)
    return float(np.max(np.abs(np.asarray(f(xs), dtype=float)
                               - np.asarray(g(xs), dtype=float))))
