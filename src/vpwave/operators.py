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
from typing import Callable, Iterable

import numpy as np

from .bases import (
    ScalingCoeffs,
    approx_gather,
    approx_spread,
    scaling_interp_matrix,
    scaling_synthesis,
    scaling_to_cheb,
)
from .chebyshev import (
    ChebExpansion,
    cheb_nodes,
    dct,
    eval_p_table,
    eval_series,
    idct,
    probe_grid,
    sup_error,
)
from .filters import VPLevel, scaling_norms_sq


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
    py = eval_p_table(np.arange(level.n + level.m), y)[:, 0]
    return float(_kernel_sections(level, [x])[0] @ py)


def _kernel_sections(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    """len(xs) x (n+m) matrix; row j is the expansion of kernel(xs[j], .)."""
    p = eval_p_table(np.arange(level.n + level.m), xs).T
    return approx_spread(approx_gather(p, level) / scaling_norms_sq(level), level)


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
    # g_r = (pi/N) sum_k f(x_k) p_r(x_k); on the N-point grid p_N vanishes and
    # p_r = -p_{2N-r}, which supplies the degrees N < r < n+m when N is small
    g = np.sqrt(np.pi / n_quad) * dct(np.asarray(f(cheb_nodes(n_quad).nodes), dtype=float))
    if n_quad < n + m:
        g = np.concatenate([g, [0.0], -g[n_quad - 1:2 * n_quad - n - m:-1]])
    return ScalingCoeffs(level, scaling_synthesis(approx_gather(g, level), level))


def discrete_proj(samples, level: VPLevel) -> ScalingCoeffs:
    """Discrete projection built from samples on the level-n Chebyshev grid."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (level.n,):
        raise ValueError(f"expected {level.n} samples, got {samples.shape}")
    t = dct(samples) / np.sqrt(scaling_norms_sq(level))
    return ScalingCoeffs(level, np.sqrt(np.pi / level.n) * idct(t))


def vp_interp(samples, level: VPLevel) -> ChebExpansion:
    """Interpolating mean of the samples: the element of V matching them on
    the node grid, as a Chebyshev expansion of degree <= n+m-1."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (level.n,):
        raise ValueError(f"expected {level.n} samples, got {samples.shape}")
    return ChebExpansion(np.sqrt(np.pi / level.n) * approx_spread(dct(samples), level))


# ---------------------------------------------------------------------------
# Lebesgue functions and constants
# ---------------------------------------------------------------------------

_PANEL_POINTS = 8


def _gl_panels(n_panels: int):
    xg, wg = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    h = np.pi / n_panels
    theta = (np.arange(n_panels)[:, None] * h + (xg[None, :] + 1.0) * (h / 2)).ravel()
    return theta, np.tile(wg * (h / 2), n_panels)


def _lambda_integral(level: VPLevel, xs: np.ndarray, rtol: float = 1e-6,
                     max_doublings: int = 3):
    """Integral Lebesgue function on the points xs.

    |kernel(x, .)| is integrated in the angle variable (which absorbs the
    weight) by composite Gauss-Legendre panels, doubling the panel count
    until the values move by less than ``rtol`` relatively.  Returns
    (values, n_panels, achieved) where ``achieved`` is the last relative
    change (it may exceed rtol if the doubling budget ran out).
    """
    degs = level.n + level.m
    sections = _kernel_sections(level, xs)
    n_panels = 10 * degs
    prev = None
    achieved = np.inf
    for _ in range(max_doublings + 1):
        theta, w = _gl_panels(n_panels)
        table = eval_p_table(np.arange(degs), np.cos(theta))
        vals = np.empty(len(xs))
        step = max(1, int(1e7 // max(len(theta), 1)))
        for j in range(0, len(xs), step):
            vals[j:j + step] = np.abs(sections[j:j + step] @ table) @ w
        if prev is not None:
            achieved = float(np.max(np.abs(vals - prev)) / np.max(vals))
            if achieved < rtol:
                return vals, n_panels, achieved
        prev = vals
        n_panels *= 2
    return prev, n_panels // 2, achieved


def _lambda_node_sum(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    sections = _kernel_sections(level, cheb_nodes(level.n).nodes)
    vals = sections @ eval_p_table(np.arange(level.n + level.m), xs)
    return (np.pi / level.n) * np.abs(vals).sum(axis=0)


def _lambda_interp_sum(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    mat = scaling_interp_matrix(level)
    vals = mat.T @ eval_p_table(np.arange(mat.shape[0]), xs)
    return np.abs(vals).sum(axis=0)


def lebesgue_fn(level: VPLevel, kind: LebesgueKind, x):
    """Lebesgue function of the chosen operator at x (scalar or 1-d array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if kind is LebesgueKind.LAMBDA:
        vals = _lambda_integral(level, xs)[0]
    elif kind is LebesgueKind.LAMBDA_TILDE:
        vals = _lambda_node_sum(level, xs)
    elif kind is LebesgueKind.LAMBDA_BAR:
        vals = _lambda_interp_sum(level, xs)
    else:
        raise ValueError(f"unknown Lebesgue kind {kind!r}")
    return float(vals[0]) if np.ndim(x) == 0 else vals


def lebesgue_const(level: VPLevel, kind: LebesgueKind,
                   grid_size: int = 10000) -> LebesgueReport:
    """Maximum of the Lebesgue function over probe_grid(grid_size)."""
    if grid_size < 1000:
        raise ValueError(f"grid size must be at least 1000, got {grid_size}")
    xs = probe_grid(grid_size)
    if kind is LebesgueKind.LAMBDA:
        # the kernel is even under (x, y) -> (-x, -y), so its Lebesgue
        # function is even and half the grid suffices
        half = xs[: grid_size // 2 + 1]
        vals, n_panels, achieved = _lambda_integral(level, half)
        spec = (f"composite Gauss-Legendre in angle, {_PANEL_POINTS}-point panels x "
                f"{n_panels}, relative change {achieved:.3e}")
    elif kind is LebesgueKind.LAMBDA_TILDE:
        vals = _lambda_node_sum(level, xs)
        spec = f"exact node sum over {level.n} kernel sections"
    else:
        vals = _lambda_interp_sum(level, xs)
        spec = f"exact sum of {level.n} interpolating scaling functions"
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
    if p < 1:
        raise ValueError(f"p must be inf or >= 1, got {p}")
    n = samples.size
    return float((np.pi / n * np.sum(np.abs(samples) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class ErrorPoint:
    n: int
    m: int
    error: float


def approximant(f: Callable, level: VPLevel, kind: OperatorKind) -> ChebExpansion:
    """Chebyshev expansion of the chosen approximant of f at ``level``."""
    if kind is OperatorKind.VP_INTERP:
        return vp_interp(f(cheb_nodes(level.n).nodes), level)
    if kind is OperatorKind.DISCRETE_PROJ:
        return scaling_to_cheb(discrete_proj(f(cheb_nodes(level.n).nodes), level))
    if kind is OperatorKind.FOURIER_PROJ:
        return scaling_to_cheb(fourier_proj(f, level))
    raise ValueError(f"unknown operator kind {kind!r}")


def error_curve(f: Callable, kind: OperatorKind, theta: float,
                n_list: Iterable[int], grid_size: int = 10000) -> list[ErrorPoint]:
    """Sup-norm error of the chosen approximant over resolutions n with
    m = floor(theta n); degenerate pairs are skipped with a warning."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    out = []
    for n in n_list:
        m = int(np.floor(theta * n))
        if m < 1 or m >= n:
            warnings.warn(f"skipping n={n}: m={m} is degenerate for theta={theta}")
            continue
        level = VPLevel(n, m)
        approx = approximant(f, level, kind)
        err = sup_error(f, lambda xs: eval_series(approx.coeffs, xs), grid_size)
        out.append(ErrorPoint(n, m, err))
    return out
