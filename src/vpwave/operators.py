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
import scipy.fft

from .bases import ScalingCoeffs, _from_v, _node_coords, _to_v, _vector, scaling_to_cheb
from .chebyshev import (
    SQRT_1_PI,
    SQRT_2_PI,
    _check_domain,
    _check_size,
    _is_integer,
    _probe_halves,
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
    c = _from_v(_node_coords(_vector(samples, level.n, "samples"), level, True), level)
    return _vector(c, level.n + level.m, "coefficients")


# ---------------------------------------------------------------------------
# Lebesgue functions and constants
# ---------------------------------------------------------------------------

def _lambda_max(level: VPLevel, xs: np.ndarray) -> tuple[float, int]:
    """The maximum of lambda over xs (nonempty), and how many roots of the points it polished
    missed their rule.  The point with the largest _lambda_bound at 4(n+m) samples gives a
    _lambda_lower on the maximum; only the points whose bound reaches it take 16(n+m), and a
    block's one _lambda_polish call takes those that reach it and the largest value so far too."""
    coarse = np.concatenate([_lambda_bound(b, vals) for b, vals in _lambda_blocks(level, xs, 4)])
    lower = _lambda_lower(*next(_lambda_blocks(level, xs[[np.argmax(coarse)]])))[0]
    best, missed = -np.inf, 0
    for b, vals in _lambda_blocks(level, xs[coarse >= lower]):
        top = _lambda_bound(b, vals) >= max(lower, best)
        part, count = _lambda_polish(b[:, top], vals[top])
        best, missed = part.max(initial=best), missed + count
    return float(best), missed


def _warn_unconverged(missed: int) -> None:
    if missed:
        warnings.warn(f"lambda: {missed} kernel roots unconverged after 8 Newton steps",
                      RuntimeWarning, stacklevel=3)


def _lambda_blocks(level: VPLevel, xs: np.ndarray, k: int = 16) -> Iterator[tuple]:
    """The sampling stage of lambda on xs, in blocks of about 2^20 angle samples so that memory
    does not grow with xs (an empty xs still takes one, empty, block).  A block is (b, vals):
    the coefficients of kernel(x, cos t) = sum_s b_s cos(s t), a column per point, and the
    kernel at the angles j h, h = pi / N, j = 0..N, N = k(n+m), a row per point."""
    size = k * (level.n + level.m)
    step = max(1, (1 << 20) // size)
    for j in range(0, max(len(xs), 1), step):
        sections = _kernel_sections(level, xs[j:j + step])
        s = np.arange(sections.shape[1])[:, None]
        yield (np.ascontiguousarray(sections.T * np.where(s == 0, SQRT_1_PI, SQRT_2_PI)),
               probe_values(sections, size))


def _lambda_bound(b: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """An upper bound on lambda at each point of a block, for any N.  The trapezoid rule on
    |kernel| is at least the integral of |L|, L the linear interpolant of the samples, and on
    each interval [a, b] |kernel - L| <= max|kernel''| (t - a)(b - t) / 2, which integrates to
    max|kernel''| h^3 / 12, with max|kernel''| <= sum_s s^2 |b_s|.  The samples and the sums
    are off by less than 2 pi times the roundoff floor of one sum, (n+m) eps sum_s |b_s|."""
    s = np.arange(len(b))[:, None]
    h = np.pi / (vals.shape[1] - 1)
    total = np.zeros(len(vals))
    for j in range(0, len(vals), 64):  # |vals| 64 rows at a time: a whole-table copy page-faults
        total[j:j + 64] = np.abs(vals[j:j + 64]).sum(axis=1)
    trapezoid = h * (total - (np.abs(vals[:, 0]) + np.abs(vals[:, -1])) / 2)
    return (trapezoid + np.pi * h * h / 12 * np.abs(b * s * s).sum(axis=0)
            + 2 * np.pi * (len(s) * np.finfo(float).eps * np.abs(b).sum(axis=0)))


def _lambda_lower(b: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """A lower bound on lambda at each point of a block, by the triangle inequality: sum_j
    |F(t_{j+1}) - F(t_j)|, F(t) = b_0 t + sum_s b_s sin(s t)/s from one DST-I of x_s = b_s/s,
    less roundoff.  Sample errors e_j move it by at most 2 sqrt(N+1) |e|_2.  The sine sums have
    2-norm sqrt(N/2) |x|_2, and scipy takes the DST-I as an FFT of length 2N, off by 8 log2(2N)
    eps of that (Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2); b_0 t_j, of
    2-norm <= pi |b_0| sqrt(N+1), x_s and the sums add 4 eps.  The differences and numpy's
    pairwise sum lose at most (log2 N + 2) eps of the result."""
    size, eps = vals.shape[1] - 1, np.finfo(float).eps
    x = b[1:] / np.arange(1, len(b))[:, None]
    f = np.pad(scipy.fft.dst(x, type=1, n=size - 1, axis=0) / 2, [(1, 1), (0, 0)])
    f += np.arange(size + 1)[:, None] * (np.pi / size) * b[0]
    slack = (2 * (size + 1) * (8 * np.log2(2 * size) + 4) * eps
             * (np.linalg.norm(x, axis=0) + np.pi * np.abs(b[0])))
    return np.abs(np.diff(f, axis=0)).sum(axis=0) * (1 - (np.log2(size) + 2) * eps) - slack


def _lambda_polish(b: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, int]:
    """The polish stage of lambda = int_0^pi |kernel(x, cos t)| dt on a block at 16(n+m)
    samples, or on some of its points, and how many kernel roots missed their rule, unwarned.

    kernel(x, cos t) = sum_s b_s cos(s t).  Its roots are bracketed by sign changes on
    16(n+m) angle intervals; a pair inside one interval, or straddling one sample, leaves a
    local minimum of |kernel| there and is split at the kernel's extremum.  Newton's method,
    kept in each bracket by bisection, polishes a root for at most 8 steps, until
    kernel^2/|kernel'| <= 2^-53 (a root off by kernel/kernel' moves the integral by about
    that, and the integral's scale is pi b_0 = 1) or |kernel| is at the roundoff of its sum.
    A simple bracket starts Newton at its secant point, or next to t = 0 or pi, about which
    the kernel is even, at the root of the kernel's even quadratic about that end.  Between
    roots |kernel| integrates exactly to |F(b) - F(a)|, F(t) = b_0 t + sum_s b_s sin(s t)/s.
    """
    s = np.arange(len(b))[:, None]
    size = 16 * len(s)
    h = np.pi / size
    floor = len(s) * np.finfo(float).eps * np.abs(b).sum(axis=0)  # roundoff of one sum
    neg, mag = np.signbit(vals), np.abs(vals, out=vals)  # overwrites vals, which callers drop
    # a root pair's parabola test allows for the three samples' interpolation error,
    # max|kernel'''| h^3 / (9 sqrt 3) with max|kernel'''| <= sum_s s^3 |b_s|
    reach = np.abs(b * s ** 3).sum(axis=0) * h ** 3 / (9 * np.sqrt(3)) + floor
    # kernel''(0) = -sum_s s^2 b_s, kernel''(pi) = -sum_s (-1)^s s^2 b_s
    curv = np.abs([(b * s * s).sum(axis=0), (b * s * s * (-1.0) ** s).sum(axis=0)])

    def newton(k, rows, lo, hi, t, converged, left=None):
        """From t, zeros in [lo, hi] of the k-th angle derivative of the kernel rows, and
        how many points missed converged(value, slope, step, rows) in 8 steps.  A step that
        leaves [lo, hi] is clipped to it; given left, the sign bit at lo, the bracket shrinks
        to the sign change instead and a step that leaves it bisects it."""
        pair = np.stack([b * (1j * s) ** k, b * (1j * s) ** (k + 1)], axis=1)
        live = np.arange(len(t))
        for _ in range(8):
            at = t[live]
            val, slope = _cosine_sums(pair, rows[live], at).real
            step = np.divide(val, slope, out=np.zeros_like(val), where=slope != 0.0)
            done = converged(val, slope, step, rows[live])
            new = at - step
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
        return t, live.size

    rows, cols = np.nonzero(neg[:, :-1] != neg[:, 1:])
    # a local minimum of |kernel| at a sample whose neighbours lie on one side of zero may
    # sit between two roots: hidden in one interval, or straddling the sample, where Newton
    # from the midpoints would only converge linearly until it resolves the pair
    r2, c2 = np.nonzero((mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:])
                        & (neg[:, :-2] == neg[:, 2:]))
    # unless its three-sample parabola stays off zero by more than the interpolation error
    p0, p1, p2 = mag[r2, c2], mag[r2, c2 + 1], mag[r2, c2 + 2]
    p1 = np.where(neg[r2, c2 + 1] == neg[r2, c2], p1, -p1)  # signed, the neighbours positive
    vertex = p1 - (p2 - p0) ** 2 / (8 * ((p0 - p1) + (p2 - p1)))
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
    # the secant point of a simple bracket; its middle if both samples are zero (+0, -0)
    m0, m1 = mag[rows, cols], mag[rows, cols + 1]
    first = (cols + np.divide(m0, m0 + m1, out=np.full_like(m0, 0.5), where=m0 + m1 > 0.0)) * h
    # next to t = 0 or pi, about which the kernel is even, the root of its even quadratic
    # there, K(end) + K''(end) (t - end)^2 / 2 with K''(end) != 0
    side = (cols == size - 1).astype(int)  # 1 in the bracket that ends at pi, else 0
    curv = curv[side, rows]
    near = ((cols == 0) | (cols == size - 1)) & (curv > 0.0)
    dist = np.sqrt(2 * mag[rows, side * size][near] / curv[near])
    first[near] = np.where(side[near], np.pi - dist, dist)
    start = np.concatenate([first, ext - half, ext + half])
    rows = np.concatenate([rows, r2, r2])
    root, missed = newton(0, rows, lo, hi, np.clip(start, lo, hi),
                          lambda val, slope, step, rows: ((val * val <= np.abs(slope) / 2 ** 53)
                                                         | (np.abs(val) <= floor[rows])),
                          left)
    anti = b[0, rows] * root + _cosine_sums(b / np.maximum(s, 1), rows, root).imag
    # pieces alternate in sign: F(pi) = b_0 pi as the last piece, 2 F(root) as the left one
    return (np.where(neg[:, -1], -np.pi, np.pi) * b[0]
            + np.bincount(rows, np.where(left, -2.0, 2.0) * anti, minlength=len(mag))), missed


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
        vals, counts = zip(*[_lambda_polish(*block) for block in _lambda_blocks(level, xs)])
        _warn_unconverged(sum(counts))
        vals = np.concatenate(vals)
    else:
        c = _to_v(eval_p_table(np.arange(level.n + level.m), xs).T, level)
        scale_norms(c, level, inverse=kind is LebesgueKind.LAMBDA_TILDE)
        vals = np.sqrt(np.pi / level.n) * np.abs(idct(c)).sum(axis=-1)
    vals = vals.reshape(np.shape(x))
    return float(vals) if vals.ndim == 0 else vals


def lebesgue_const(level: VPLevel, kind: LebesgueKind,
                   grid_size: int = 10000) -> LebesgueReport:
    """Maximum of the Lebesgue function over probe_grid(grid_size).  For lambda, angle samples
    bound the integral at each probe point from above (4(n+m), then 16(n+m) at the points
    that reach a lower bound from F samples at the one with the largest), and only points
    whose bound reaches that and the largest exact value so far get their roots polished;
    quad_spec's unconverged count covers those points alone."""
    kind = LebesgueKind(kind)
    _check_size(grid_size)
    if grid_size < 1000:
        raise ValueError(f"grid size must be at least 1000, got {grid_size}")
    if kind is LebesgueKind.LAMBDA:
        # the kernel is even under (x, y) -> (-x, -y), so its Lebesgue
        # function is even and half the grid suffices
        value, missed = _lambda_max(level, probe_grid(grid_size)[: grid_size // 2 + 1])
        _warn_unconverged(missed)
        spec = ("exact integral between kernel roots: 16(n+m) angle brackets, Newton to "
                "K^2/|K'| <= 2^-53 or roundoff, at most 8 steps"
                + (f"; {missed} roots unconverged" if missed else ""))
    else:  # basis rows on the probe grid: lebesgue_fn is 4-9x slower at M = 10^4, n = 20..170
        # row i is node i's delta through the node map: (pi/n) kernel(x_i, .) for lambda-tilde,
        # interpolating scaling function i for lambda-bar.  As x_{n+1-k} = -x_k and p_r(-x) =
        # (-1)^r p_r(x), row n-1-i is row i read backwards, so only ceil(n/2) rows are built
        tilde, half = kind is LebesgueKind.LAMBDA_TILDE, level.n // 2
        rows = _from_v(_node_coords(np.eye(level.n - half, level.n), level, not tilde), level)
        spec = (f"exact node sum over {level.n} kernel sections" if tilde
                else f"exact sum of {level.n} interpolating scaling functions")
        if grid_size % 2:  # one DCT-I per row on the whole grid
            mag = probe_values(rows, grid_size)
            s = np.abs(mag, out=mag)[:half].sum(axis=0)
            value = (s + s[::-1] + mag[half:].sum(axis=0)).max()  # and the middle row if n is odd
        else:  # the half grid j = 0..M/2: row i is E + O at x_j and E - O at x_{M-j}, row
            # n-1-i the reverse, so the pair adds 2 max(|E|, |O|) at both points; the middle
            # row (n odd) adds |E + O| at one and |E - O| at the other, at most |E| + |O|
            even, odd = (np.abs(v, out=v) for v in _probe_halves(rows, grid_size))
            inner = even[:, :-1]
            np.maximum(inner[:half], odd[:half], out=inner[:half])
            np.add(inner[half:], odd[half:], out=inner[half:])
            value = (2 * even[:half].sum(axis=0) + even[half:].sum(axis=0)).max()
    return LebesgueReport(kind, level.n, level.m, float(value), grid_size, spec)


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
    """VPLevel.from_theta(n, theta) for each n of a sweep.  A degenerate level, whose m falls
    outside (0, n), is skipped with a warning; a bad theta or n raises."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    for n in n_list:
        try:
            level = VPLevel.from_theta(n, theta)
        except ValueError as exc:
            if not _is_integer(n) or isinstance(exc.__cause__, OverflowError):  # a bad n
                raise
            warnings.warn(f"skipping n={n}: {exc}")
            continue
        yield level


def error_curve(f: Callable, kind: OperatorKind, theta: float,
                n_list: Iterable[int], grid_size: int = 10000) -> list[ErrorPoint]:
    """Sup-norm error of the chosen approximant over resolutions n with
    m = floor(theta n); degenerate pairs are skipped with a warning."""
    kind = OperatorKind(kind)
    _check_size(grid_size)
    out = []
    for level in _sweep_levels(theta, n_list):
        approx = approximant(f, level, kind)
        err = sup_error(f, lambda xs: probe_values(approx, grid_size), grid_size)
        out.append(ErrorPoint(level.n, level.m, err))
    return out
