"""Approximation operators on the level-(n, m) approximation space V.

Three approximants of a function f are provided, all returning elements
of V:

* vp_interp     -- the interpolating mean of the samples on the Chebyshev
                   grid (reproduces the samples exactly),
* fourier_proj  -- the orthogonal projection onto V, with the inner products
                   approximated by Gauss-Chebyshev quadrature,
* discrete_proj -- the discrete projection obtained from fourier_proj by
                   collapsing the quadrature onto the n-point node grid.

Alongside them: the reproducing kernel of the projection, the associated
Lebesgue functions/constants (integral, node-sum and interpolatory
variants), weighted discrete p-norms on the node grid, and sup-norm error
sweeps over resolution levels.
"""

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bases import ScalingCoeffs, _from_v, _phi, _phi_ortho, _to_v, scaling_to_cheb
from .chebyshev import (
    SQRT_1_PI,
    SQRT_2_PI,
    cheb_nodes,
    dct,
    eval_p_table,
    eval_series,
    idct,
    probe_grid,
    probe_values,
    sup_error,
)
from .filters import VPLevel, scale_norms


class OperatorKind(enum.Enum):
    """The three selectable approximation operators."""

    VP_INTERP = "vp"
    FOURIER_PROJ = "fourier"
    DISCRETE_PROJ = "discrete"


class LebesgueKind(enum.Enum):
    LAMBDA = "lambda"            # integral of |kernel| against the weight
    LAMBDA_TILDE = "lambda-tilde"  # node sum (pi/n) sum_i |kernel(x_i, x)|
    LAMBDA_BAR = "lambda-bar"    # sum_k |interpolating scaling function k|


@dataclass(frozen=True)
class LebesgueReport:
    kind: LebesgueKind
    n: int
    m: int
    value: float
    grid_size: int
    quad_spec: str


def proj_kernel(level: VPLevel, x: float, y: float) -> float:
    """Reproducing kernel of the projection onto V at (x, y)."""
    return float(eval_series(_kernel_sections(level, [x])[0], y))


def _kernel_sections(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    """len(xs) x (n+m) matrix; row j is the expansion of kernel(xs[j], .): the
    p_r(xs[j]) taken to V's orthonormal coordinates and back."""
    return _from_v(_to_v(eval_p_table(np.arange(level.n + level.m), xs).T, level), level)


def _project(values: np.ndarray, level: VPLevel) -> np.ndarray:
    """Orthonormal scaling coefficients, along the last axis, of the projection
    whose inner products g_r = (pi/N) sum_k f(x_k) p_r(x_k) come from the values
    at the N-point Chebyshev nodes, N >= n."""
    n, m, size = level.n, level.m, values.shape[-1]
    g = np.sqrt(np.pi / size) * dct(values)
    if size < n + m:
        # on the N-point grid p_N vanishes and p_r = -p_{2N-r}, which supplies
        # the degrees N < r < n+m
        g = np.concatenate([g, np.zeros(g.shape[:-1] + (1,)),
                            -g[..., size - 1:2 * size - n - m:-1]], axis=-1)
    return idct(_to_v(g, level))


def fourier_proj(f: Callable, level: VPLevel, n_quad: int | None = None) -> ScalingCoeffs:
    """Orthogonal projection of f onto V with quadrature-approximated coefficients.

    ``n_quad`` defaults to 16 (n+m), which drives smooth integrands to
    roundoff; anything below n is rejected as underresolved.
    """
    n, m = level.n, level.m
    if n_quad is None:
        n_quad = 16 * (n + m)
    if n_quad < n:
        raise ValueError(f"quadrature size {n_quad} underresolves the projection (n={n})")
    return ScalingCoeffs(level, _project(np.asarray(f(cheb_nodes(n_quad)), dtype=float), level))


def discrete_proj(samples, level: VPLevel) -> ScalingCoeffs:
    """Discrete projection built from samples on the level-n Chebyshev grid:
    fourier_proj with the n-point Gauss-Chebyshev rule."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (level.n,):
        raise ValueError(f"expected {level.n} samples, got {samples.shape}")
    return ScalingCoeffs(level, _project(samples, level))


def vp_interp(samples, level: VPLevel) -> np.ndarray:
    """Interpolating mean of the samples: the element of V matching them on
    the node grid, as its p-coefficients of degrees 0..n+m-1."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (level.n,):
        raise ValueError(f"expected {level.n} samples, got {samples.shape}")
    return _phi(samples, level)


# ---------------------------------------------------------------------------
# Lebesgue functions and constants
# ---------------------------------------------------------------------------

def _lambda_integral(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    """Integral Lebesgue function int_0^pi |kernel(x, cos t)| dt at the points xs.

    kernel(x, cos t) = sum_s b_s cos(s t).  Its roots are bracketed by sign changes on
    16(n+m) angle intervals; a pair inside one interval leaves a local minimum of |kernel|
    and is split at the kernel's extremum.  Six Newton steps polish each root, and between
    roots |kernel| integrates exactly to |F(b) - F(a)|, F(t) = b_0 t + sum_s b_s sin(s t)/s.
    """
    sections = _kernel_sections(level, xs)
    s = np.arange(sections.shape[1])[:, None]
    b = np.ascontiguousarray(sections.T * np.where(s == 0, SQRT_1_PI, SQRT_2_PI))

    def newton(k, rows, lo, hi, t):
        """From t, a zero in [lo, hi] of the k-th angle derivative of the kernel rows."""
        pair = np.stack([b * (1j * s) ** k, b * (1j * s) ** (k + 1)], axis=1)
        for _ in range(6):
            val, slope = _cosine_sums(pair, rows, t).real
            step = np.divide(val, slope, out=np.zeros_like(val), where=slope != 0.0)
            t = np.clip(t - step, lo, hi)
        return t

    h = np.pi / (16 * len(s))
    vals = probe_values(sections, 16 * len(s))
    neg, mag = np.signbit(vals), np.abs(vals, out=vals)
    rows, cols = np.nonzero(neg[:, :-1] != neg[:, 1:])
    r2, c2 = np.nonzero((mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:])
                        & (neg[:, :-2] == neg[:, 1:-1]) & (neg[:, 1:-1] == neg[:, 2:]))
    ext = newton(1, r2, c2 * h, (c2 + 2) * h, (c2 + 1) * h)
    depth = _cosine_sums(b, r2, ext).real
    cross = np.signbit(depth) != neg[r2, c2]
    r2, c2, ext, depth = r2[cross], c2[cross], ext[cross], depth[cross]
    half = np.sqrt(np.abs(2 * depth / _cosine_sums(b * s * s, r2, ext).real))
    left = np.concatenate([neg[rows, cols], neg[r2, c2], ~neg[r2, c2]])
    lo = np.concatenate([cols * h, c2 * h, ext])
    hi = np.concatenate([(cols + 1) * h, ext, (c2 + 2) * h])
    start = np.concatenate([(cols + 0.5) * h, ext - half, ext + half])
    rows = np.concatenate([rows, r2, r2])
    root = newton(0, rows, lo, hi, np.clip(start, lo, hi))
    anti = b[0, rows] * root + _cosine_sums(b / np.maximum(s, 1), rows, root).imag
    # pieces alternate in sign: F(pi) = b_0 pi as the last piece, 2 F(root) as the left one
    return (np.where(neg[:, -1], -np.pi, np.pi) * b[0]
            + np.bincount(rows, np.where(left, -2.0, 2.0) * anti, minlength=len(xs)))


def _cosine_sums(coeffs: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_s coeffs[s, ..., rows] e^{i s t}, one degree at a time over blocks of 2^14
    points, so that memory stays O(len(t)) and each block stays in cache."""
    acc = np.zeros(coeffs.shape[1:-1] + t.shape, dtype=complex)
    for j in range(0, len(t), 1 << 14):
        block, z = rows[j:j + (1 << 14)], np.exp(1j * t[j:j + (1 << 14)])
        w = np.ones_like(z)
        for col in coeffs:
            acc[..., j:j + (1 << 14)] += np.take(col, block, axis=-1) * w
            w *= z
    return acc


def lebesgue_fn(level: VPLevel, kind: LebesgueKind, x):
    """Lebesgue function of the chosen operator at x, in the shape of x (a
    float for a scalar).  For lambda-tilde and lambda-bar, c is V's
    orthonormal coordinates of the p_r(x); at the nodes V's orthonormal basis
    is p_r with its ramp degrees divided by nu, so (pi/n) kernel(x_k, x) =
    sqrt(pi/n) idct(c/nu)_k and scaling function k is sqrt(pi/n) idct(c nu)_k."""
    kind = LebesgueKind(kind)
    xs = np.asarray(x, dtype=float).ravel()
    if kind is LebesgueKind.LAMBDA:
        vals = _lambda_integral(level, xs)
    else:
        c = _to_v(eval_p_table(np.arange(level.n + level.m), xs).T, level)
        scale_norms(c, level, inverse=kind is LebesgueKind.LAMBDA_TILDE)
        vals = np.sqrt(np.pi / level.n) * np.abs(idct(c)).sum(axis=-1)
    vals = vals.reshape(np.shape(x))
    return float(vals) if vals.ndim == 0 else vals


def lebesgue_const(level: VPLevel, kind: LebesgueKind,
                   grid_size: int = 10000) -> LebesgueReport:
    """Maximum of the Lebesgue function over probe_grid(grid_size)."""
    kind = LebesgueKind(kind)
    if grid_size < 1000:
        raise ValueError(f"grid size must be at least 1000, got {grid_size}")
    if kind is LebesgueKind.LAMBDA:
        # the kernel is even under (x, y) -> (-x, -y), so its Lebesgue
        # function is even and half the grid suffices
        vals = _lambda_integral(level, probe_grid(grid_size)[: grid_size // 2 + 1])
        spec = "exact integral between kernel roots: 16(n+m) angle brackets, 6 Newton steps"
    else:
        if kind is LebesgueKind.LAMBDA_TILDE:
            # row i: the discrete projection of the i-th node's delta, (pi/n) kernel(x_i, .)
            rows = _phi_ortho(_project(np.eye(level.n), level), level)
            spec = f"exact node sum over {level.n} kernel sections"
        else:  # row k: the k-th interpolating scaling function
            rows = _phi(np.eye(level.n), level)
            spec = f"exact sum of {level.n} interpolating scaling functions"
        vals = np.abs(probe_values(rows, grid_size)).sum(axis=0)
    return LebesgueReport(kind, level.n, level.m, float(vals.max()), grid_size, spec)


# ---------------------------------------------------------------------------
# discrete norms and error sweeps
# ---------------------------------------------------------------------------

def discrete_norm(samples, p: float) -> float:
    """Weighted p-norm on the node grid: ((pi/n) sum |f(x_k)|^p)^(1/p), or the
    max for p = inf."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("expected a nonempty 1-d sample sequence")
    if p == np.inf:
        return float(np.max(np.abs(samples)))
    if not p >= 1:
        raise ValueError(f"p must be inf or >= 1, got {p}")
    n = samples.size
    return float((np.pi / n * np.sum(np.abs(samples) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class ErrorPoint:
    n: int
    m: int
    error: float


def approximant(f: Callable, level: VPLevel, kind: OperatorKind) -> np.ndarray:
    """p-coefficients of the chosen approximant of f at ``level``."""
    kind = OperatorKind(kind)
    if kind is OperatorKind.VP_INTERP:
        return vp_interp(f(cheb_nodes(level.n)), level)
    if kind is OperatorKind.DISCRETE_PROJ:
        return scaling_to_cheb(discrete_proj(f(cheb_nodes(level.n)), level))
    return scaling_to_cheb(fourier_proj(f, level))


def _sweep_levels(theta: float, n_list: Iterable[int]) -> Iterator[VPLevel]:
    """VPLevel.from_theta(n, theta) for each n of a sweep, skipping degenerate
    levels with a warning; a theta outside (0, 1) raises on the first step."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    for n in n_list:
        try:
            level = VPLevel.from_theta(n, theta)
        except ValueError as exc:
            warnings.warn(f"skipping n={n}: {exc}")
            continue
        yield level


def error_curve(f: Callable, kind: OperatorKind, theta: float,
                n_list: Iterable[int], grid_size: int = 10000) -> list[ErrorPoint]:
    """Sup-norm error of the chosen approximant over resolutions n with
    m = floor(theta n); degenerate pairs are skipped with a warning."""
    kind = OperatorKind(kind)
    out = []
    for level in _sweep_levels(theta, n_list):
        approx = approximant(f, level, kind)
        err = sup_error(f, lambda xs: probe_values(approx, grid_size), grid_size)
        out.append(ErrorPoint(level.n, level.m, err))
    return out
