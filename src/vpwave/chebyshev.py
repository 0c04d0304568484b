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
import sys

import numpy as np
import scipy.fft

SQRT_1_PI = 1.0 / math.sqrt(math.pi)
SQRT_2_PI = math.sqrt(2.0 / math.pi)


def _is_integer(value) -> bool:
    """The one integer rule of the package: a numbers.Integral that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_size(size) -> None:
    """A grid size is a positive integer within an array's length."""
    if not _is_integer(size):
        raise ValueError(f"grid size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError(f"grid size must be positive, got {size}")
    if size >= sys.maxsize:  # probe_grid(M) has M + 1 points
        raise ValueError(f"grid size {size} is beyond an array's length")


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
    out = eval_p_table([r], x)[0].reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def eval_p_table(degrees, x) -> np.ndarray:
    """Table p_r(x_j), shape (len(degrees), len(x)), for a 1-d array of integer degrees r >= 0."""
    degrees = np.asarray(degrees)
    if degrees.ndim != 1 or degrees.size and (degrees.dtype.kind not in "iu" or degrees.min() < 0):
        raise ValueError(f"degree must be a nonnegative integer, got {degrees!r}")
    x = np.atleast_1d(_check_domain(x))
    out = np.cos(np.outer(degrees, np.arccos(x)))
    out *= np.where(degrees == 0, SQRT_1_PI, SQRT_2_PI)[:, None]
    return out


def dct(v) -> np.ndarray:
    """Fast orthonormal DCT-II along the last axis (see module docstring)."""
    return scipy.fft.dct(_last_axis(v), type=2, norm="ortho")


def idct(v) -> np.ndarray:
    """Fast orthonormal DCT-III along the last axis (transpose/inverse of dct)."""
    return scipy.fft.idct(_last_axis(v), type=2, norm="ortho")


def _dct_own(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """dct (idct if ``inverse``) of a new float array, maybe in place: use what it returns."""
    return (scipy.fft.idct if inverse else scipy.fft.dct)(x, type=2, norm="ortho", overwrite_x=True)


def _last_axis(v, size: int | None = None) -> np.ndarray:
    """v as floats with a last axis, of exactly ``size`` entries if given; a scalar has none."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or size not in (None, v.shape[-1]):
        need = "" if size is None else f" of length {size}"
        raise ValueError(f"expected a last axis{need}, got shape {v.shape}")
    return v


def eval_series(coeffs, x):
    """Sum_r c_r p_r(x) along the last axis of coeffs, from cos(r arccos x), taking
    the degrees in blocks of about 2^20 table entries rather than in one table.
    The result has shape coeffs.shape[:-1] + x.shape: a float for 1-d coeffs
    and a scalar x."""
    x = _check_domain(x)
    c = _last_axis(coeffs)
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


def _probe_fold(coeffs, grid_size: int) -> np.ndarray:
    """The DCT-I input of probe_values along the last axis, at most M+1 entries: on the grid
    p_r = p_{2M-r} = p_{r+2M}, so degrees >= M fold back, and the DCT-I's halving of the
    inner terms goes into the weights, on every r not a multiple of M.  When no degree
    exceeds M nothing folds, and the weighted coefficients come back unpadded."""
    _check_size(grid_size)
    c = _last_axis(coeffs)
    r = np.arange(c.shape[-1])
    c = c * (np.where(r == 0, SQRT_1_PI, SQRT_2_PI) * np.where(r % grid_size == 0, 1.0, 0.5))
    if c.shape[-1] <= grid_size + 1:
        return c
    a = np.zeros(c.shape[:-1] + (grid_size + 1,))
    for start in range(0, c.shape[-1], 2 * grid_size):
        block = c[..., start:start + 2 * grid_size]
        a[..., :block.shape[-1]] += block[..., :grid_size + 1]
        a[..., 2 * grid_size + 1 - block.shape[-1]:grid_size] += block[..., :grid_size:-1]
    return a


def probe_values(coeffs, grid_size: int) -> np.ndarray:
    """Sum_r c_r p_r on probe_grid(grid_size) along the last axis, by one DCT-I of the
    folded coefficients (_probe_fold)."""
    a = _probe_fold(coeffs, grid_size)
    out = np.zeros(a.shape[:-1] + (grid_size + 1,))
    out[..., :a.shape[-1]] = a
    return scipy.fft.dct(out, type=1, axis=-1, overwrite_x=True)


def sup_error(f, g, grid_size: int = 10000) -> float:
    """max |f - g| over probe_grid(grid_size)."""
    xs = probe_grid(grid_size)
    return float(np.max(np.abs(np.asarray(f(xs), dtype=float)
                               - np.asarray(g(xs), dtype=float))))
