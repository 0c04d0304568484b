"""Approximation operators on the level-(n, m) approximation space V.

Three approximants of a function f are provided, all returning elements
of V:

* vp_interp     -- the interpolating mean of the samples on the Chebyshev
                   grid (reproduces the samples exactly),
* fourier_proj  -- the orthogonal projection onto V, with the inner products
                   approximated by Gauss-Chebyshev quadrature,
* discrete_proj -- fourier_proj with the n-point rule on the node grid: the
                   node map of vp_interp (bases._node_coords) with the ramp
                   of the DCT divided by nu instead of multiplied.

Alongside them: the reproducing kernel of the projection, the Lebesgue
functions/constants (integral, and the node map of the node deltas for the
node-sum and interpolatory ones), weighted discrete p-norms on the node
grid, and sup-norm error sweeps over resolution levels.
"""

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bases import ScalingCoeffs, _from_v, _node_coords, _to_v, _vector, scaling_to_cheb
from .chebyshev import (
    SQRT_1_PI,
    SQRT_2_PI,
    _check_domain,
    _check_size,
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
    """The three Lebesgue functions, one per operator."""

    LAMBDA = "lambda"            # integral of |kernel| against the weight
    LAMBDA_TILDE = "lambda-tilde"  # node sum (pi/n) sum_i |kernel(x_i, x)|
    LAMBDA_BAR = "lambda-bar"    # sum_k |interpolating scaling function k|


@dataclass(frozen=True)
class LebesgueReport:
    """Lebesgue constant of one kind at level (n, m) on probe_grid(grid_size), and its method."""

    kind: LebesgueKind
    n: int
    m: int
    value: float
    grid_size: int
    quad_spec: str


def proj_kernel(level: VPLevel, x: float, y: float) -> float:
    """Reproducing kernel of the projection onto V at the points x and y of [-1, 1]."""
    x, y = _check_domain(x), _check_domain(y)
    if x.ndim or y.ndim:
        raise ValueError(f"x and y must be scalars, got shapes {x.shape} and {y.shape}")
    return float(eval_series(_kernel_sections(level, [x])[0], y))


def _kernel_sections(level: VPLevel, xs: np.ndarray) -> np.ndarray:
    """len(xs) x (n+m) matrix; row j is the expansion of kernel(xs[j], .): the
    p_r(xs[j]) taken to V's orthonormal coordinates and back."""
    return _from_v(_to_v(eval_p_table(np.arange(level.n + level.m), xs).T, level), level)


def fourier_proj(f: Callable, level: VPLevel) -> ScalingCoeffs:
    """Orthogonal projection of f onto V: the inner products g_r = (pi/N) sum_k
    f(x_k) p_r(x_k) by the N = 16(n+m) point Gauss-Chebyshev rule (roundoff for
    smooth f), taken to V's orthonormal coordinates, then to the scaling basis."""
    size = 16 * (level.n + level.m)
    g = np.sqrt(np.pi / size) * dct(_vector(f(cheb_nodes(size)), size, "values of f"))
    return ScalingCoeffs(level, idct(_to_v(g, level)))


def discrete_proj(samples, level: VPLevel) -> ScalingCoeffs:
    """Discrete projection: fourier_proj with the n-point rule on the level-n grid."""
    return ScalingCoeffs(level, idct(_node_coords(_vector(samples, level.n, "samples"),
                                                  level, False)))


def vp_interp(samples, level: VPLevel) -> np.ndarray:
    """Interpolating mean of the samples: the element of V matching them on
    the node grid, as its p-coefficients of degrees 0..n+m-1."""
    return _from_v(_node_coords(_vector(samples, level.n, "samples"), level, True), level)


# ---------------------------------------------------------------------------
# Lebesgue functions and constants
# ---------------------------------------------------------------------------

def _lambda_integral(level: VPLevel, xs: np.ndarray) -> tuple[np.ndarray, int]:
    """Integral Lebesgue function int_0^pi |kernel(x, cos t)| dt at the points xs, and how
    many kernel roots missed their stopping rule (a RuntimeWarning names the count).

    kernel(x, cos t) = sum_s b_s cos(s t).  Its roots are bracketed by sign changes on
    16(n+m) angle intervals; a pair inside one interval, or straddling one sample, leaves a
    local minimum of |kernel| there and is split at the kernel's extremum.  Newton's method,
    kept in each bracket by bisection, polishes a root for at most 8 steps, until
    kernel^2/|kernel'| <= 2^-53 (a root off by kernel/kernel' moves the integral by about
    that, and the integral's scale is pi b_0 = 1) or |kernel| is at the roundoff of its sum.
    Between roots |kernel| integrates exactly to |F(b) - F(a)|,
    F(t) = b_0 t + sum_s b_s sin(s t)/s.
    """
    sections = _kernel_sections(level, xs)
    s = np.arange(sections.shape[1])[:, None]
    b = np.ascontiguousarray(sections.T * np.where(s == 0, SQRT_1_PI, SQRT_2_PI))
    size = 16 * len(s)
    h = np.pi / size
    floor = len(s) * np.finfo(float).eps * np.abs(b).sum(axis=0)  # roundoff of one sum

    def newton(k, rows, lo, hi, t, converged, left=None, end=None):
        """From t, zeros in [lo, hi] of the k-th angle derivative of the kernel rows, and
        how many points missed converged(value, slope, step, rows) in 8 steps.  A step that
        leaves [lo, hi] is clipped to it; given left, the sign bit at lo, the bracket shrinks
        to the sign change instead and a step that leaves it bisects it.  Where end is 0 or
        pi the step is taken in u = (t - end)^2: the kernel is even about both ends, so a
        root near one has a mirror image just outside, and Newton in t is only linear."""
        pair = np.stack([b * (1j * s) ** k, b * (1j * s) ** (k + 1)], axis=1)
        missed = 0
        for j in range(0, len(t), 1 << 16):  # in blocks, so that temporaries stay small
            live = np.arange(j, min(j + (1 << 16), len(t)))
            for _ in range(8):
                at = t[live]
                val, slope = _cosine_sums(pair, rows[live], at).real
                step = np.divide(val, slope, out=np.zeros_like(val), where=slope != 0.0)
                done = converged(val, slope, step, rows[live])
                new = at - step
                if end is not None:  # u(new) = u - 2 (t - end) step = (new - end)^2 - step^2
                    i = np.flatnonzero(~np.isnan(end[live]))
                    e = end[live[i]]
                    a = np.sqrt(np.maximum((new[i] - e) ** 2 - step[i] ** 2, 0.0))
                    new[i] = np.where(e == 0.0, a, np.pi - a)
                if left is not None:  # the bracket shrinks to the sign change
                    right = np.signbit(val) == left[live]  # the zero lies right of t
                    lo[live[right]], hi[live[~right]] = at[right], at[~right]
                np.clip(new, lo[live], hi[live], out=new)
                if left is not None:  # and a step stuck at its end bisects it instead
                    stuck = np.flatnonzero((new == at) & ~done)
                    new[stuck] = (lo[live[stuck]] + hi[live[stuck]]) / 2
                t[live] = new
                live = live[~done]
                if not live.size:
                    break
            missed += live.size
        return t, missed

    vals = probe_values(sections, size)
    neg, mag = np.signbit(vals), np.abs(vals, out=vals)
    rows, cols = np.nonzero(neg[:, :-1] != neg[:, 1:])
    # a local minimum of |kernel| at a sample whose neighbours lie on one side of zero may
    # sit between two roots: hidden in one interval, or straddling the sample, where Newton
    # from the midpoints would only converge linearly until it resolves the pair
    r2, c2 = np.nonzero((mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:])
                        & (neg[:, :-2] == neg[:, 2:]))
    # unless its three-sample parabola stays off zero by more than the interpolation error
    # max|kernel'''| h^3 / (9 sqrt 3), max|kernel'''| <= sum_s s^3 |b_s|
    p0, p1, p2 = mag[r2, c2], mag[r2, c2 + 1], mag[r2, c2 + 2]
    p1 = np.where(neg[r2, c2 + 1] == neg[r2, c2], p1, -p1)  # signed, the neighbours positive
    vertex = p1 - (p2 - p0) ** 2 / (8 * ((p0 - p1) + (p2 - p1)))
    reach = np.abs(b * s ** 3).sum(axis=0) * h ** 3 / (9 * np.sqrt(3)) + floor
    r2, c2 = r2[vertex <= reach[r2]], c2[vertex <= reach[r2]]
    ext, _ = newton(1, r2, c2 * h, (c2 + 2) * h, (c2 + 1) * h,
                    lambda val, slope, step, rows: np.abs(step) <= h / 2 ** 26)
    depth = _cosine_sums(b, r2, ext).real
    cross = np.signbit(depth) != neg[r2, c2]
    r2, c2, ext, depth = r2[cross], c2[cross], ext[cross], depth[cross]
    # a pair is split at the extremum; a straddling one leaves its two sign changes
    straddle = (r2 * size + c2)[neg[r2, c2 + 1] != neg[r2, c2]]
    keep = ~np.isin(rows * size + cols, np.concatenate([straddle, straddle + 1]))
    rows, cols = rows[keep], cols[keep]
    half = np.sqrt(np.abs(2 * depth / _cosine_sums(b * s * s, r2, ext).real))
    left = np.concatenate([neg[rows, cols], neg[r2, c2], ~neg[r2, c2]])
    lo = np.concatenate([cols * h, c2 * h, ext])
    hi = np.concatenate([(cols + 1) * h, ext, (c2 + 2) * h])
    start = np.concatenate([(cols + 0.5) * h, ext - half, ext + half])
    rows = np.concatenate([rows, r2, r2])
    end = np.where(lo == 0.0, 0.0, np.where(hi == size * h, np.pi, np.nan))
    root, missed = newton(0, rows, lo, hi, np.clip(start, lo, hi),
                          lambda val, slope, step, rows: ((val * val <= np.abs(slope) / 2 ** 53)
                                                         | (np.abs(val) <= floor[rows])),
                          left, end)
    if missed:
        warnings.warn(f"lambda: {missed} kernel roots unconverged after 8 Newton steps",
                      RuntimeWarning, stacklevel=3)
    anti = b[0, rows] * root + _cosine_sums(b / np.maximum(s, 1), rows, root).imag
    # pieces alternate in sign: F(pi) = b_0 pi as the last piece, 2 F(root) as the left one
    return (np.where(neg[:, -1], -np.pi, np.pi) * b[0]
            + np.bincount(rows, np.where(left, -2.0, 2.0) * anti, minlength=len(xs))), missed


def _cosine_sums(coeffs: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_s coeffs[s, ..., rows] e^{i s t} by Horner's rule in e^{i t}, one degree at a
    time over blocks of 2^14 points, so that memory stays O(len(t)) and each block stays
    in cache."""
    acc = np.zeros(coeffs.shape[1:-1] + t.shape, dtype=complex)
    for j in range(0, len(t), 1 << 14):
        block, z = rows[j:j + (1 << 14)], np.exp(1j * t[j:j + (1 << 14)])
        part = acc[..., j:j + (1 << 14)]
        for col in coeffs[::-1]:
            part *= z
            part += np.take(col, block, axis=-1)
    return acc


def lebesgue_fn(level: VPLevel, kind: LebesgueKind, x):
    """Lebesgue function of the chosen operator at x, in the shape of x (a
    float for a scalar).  lambda-tilde and lambda-bar take the transpose of the
    node map bases._node_coords at each point: with c V's orthonormal
    coordinates of the p_r(x), (pi/n) kernel(x_k, x) = sqrt(pi/n) idct(c/nu)_k
    and scaling function k is sqrt(pi/n) idct(c nu)_k at x."""
    kind = LebesgueKind(kind)
    xs = np.asarray(x, dtype=float).ravel()
    if kind is LebesgueKind.LAMBDA:
        vals, _ = _lambda_integral(level, xs)
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
    _check_size(grid_size)
    if grid_size < 1000:
        raise ValueError(f"grid size must be at least 1000, got {grid_size}")
    if kind is LebesgueKind.LAMBDA:
        # the kernel is even under (x, y) -> (-x, -y), so its Lebesgue
        # function is even and half the grid suffices
        vals, missed = _lambda_integral(level, probe_grid(grid_size)[: grid_size // 2 + 1])
        spec = ("exact integral between kernel roots: 16(n+m) angle brackets, Newton to "
                "K^2/|K'| <= 2^-53 or roundoff, at most 8 steps"
                + (f"; {missed} roots unconverged" if missed else ""))
    else:  # basis rows, one DCT-I each: lebesgue_fn is 4-9x slower at M = 10^4, n = 20..170
        # row i is node i's delta through the node map: (pi/n) kernel(x_i, .) for lambda-tilde,
        # interpolating scaling function i for lambda-bar.  As x_{n+1-k} = -x_k and p_r(-x) =
        # (-1)^r p_r(x), row n-1-i is row i read backwards, so only ceil(n/2) rows are built
        tilde, half = kind is LebesgueKind.LAMBDA_TILDE, level.n // 2
        rows = _from_v(_node_coords(np.eye(level.n - half, level.n), level, not tilde), level)
        spec = (f"exact node sum over {level.n} kernel sections" if tilde
                else f"exact sum of {level.n} interpolating scaling functions")
        mag = probe_values(rows, grid_size)
        s = np.abs(mag, out=mag)[:half].sum(axis=0)
        vals = s + s[::-1] + mag[half:].sum(axis=0)  # and the middle row if n is odd
    return LebesgueReport(kind, level.n, level.m, float(vals.max()), grid_size, spec)


# ---------------------------------------------------------------------------
# discrete norms and error sweeps
# ---------------------------------------------------------------------------

def discrete_norm(samples, p: float) -> float:
    """Weighted p-norm on the node grid: ((pi/n) sum |f(x_k)|^p)^(1/p), or the
    max for p = inf."""
    if np.ndim(samples) != 1 or np.size(samples) == 0:
        raise ValueError("expected a nonempty 1-d sample sequence")
    samples = _vector(samples, np.size(samples), "samples")
    if p == np.inf:
        return float(np.max(np.abs(samples)))
    if not p >= 1:
        raise ValueError(f"p must be inf or >= 1, got {p}")
    top = np.max(np.abs(samples)) or 1.0  # |f/top|^p cannot overflow or underflow (1: all 0)
    return float(top * (np.pi / samples.size * np.sum((np.abs(samples) / top) ** p)) ** (1 / p))


@dataclass(frozen=True)
class ErrorPoint:
    """Sup-norm error of an approximant at level (n, m)."""

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
