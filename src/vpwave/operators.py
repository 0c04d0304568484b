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

from .bases import ScalingCoeffs, _from_v, _node_coords, _own, _to_v, _vector, scaling_to_cheb
from .chebyshev import (
    SQRT_1_PI,
    SQRT_2_PI,
    _check_domain,
    _check_size,
    _is_integer,
    _probe_fold,
    cheb_nodes,
    dct,
    eval_p_table,
    eval_series,
    idct,
    probe_grid,
    probe_values,
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
    return _own(ScalingCoeffs, level, idct(_to_v(g, level)))


def discrete_proj(samples, level: VPLevel) -> ScalingCoeffs:
    """Discrete projection: fourier_proj with the n-point rule on the level-n grid."""
    return _own(ScalingCoeffs, level, idct(_node_coords(_vector(samples, level.n, "samples"),
                                                        level, False)))


def vp_interp(samples, level: VPLevel) -> np.ndarray:
    """Interpolating mean of the samples: the element of V matching them on
    the node grid, as its p-coefficients of degrees 0..n+m-1."""
    c = _from_v(_node_coords(_vector(samples, level.n, "samples"), level, True), level)
    return _vector(c, level.n + level.m, "coefficients")


# ---------------------------------------------------------------------------
# Lebesgue functions and constants
# ---------------------------------------------------------------------------

def _warn_unconverged(missed: int) -> None:
    if missed:
        warnings.warn(f"lambda: {missed} kernel roots unconverged after 8 Newton steps",
                      RuntimeWarning, stacklevel=3)


def _lambda_blocks(level: VPLevel, xs: np.ndarray) -> Iterator[tuple]:
    """The sampling stage of lambda on xs, in blocks of about 2^20 angle samples so that memory
    does not grow with xs (an empty xs still takes one, empty, block).  A block is (b, vals):
    the coefficients of kernel(x, cos t) = sum_s b_s cos(s t), a column per point, and the
    kernel at the angles j h, h = pi / N, j = 0..N, N = 16(n+m), a row per point."""
    size = 16 * (level.n + level.m)
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
    return (trapezoid + np.pi * h * h / 12 * _degree_sum(np.abs(b * s * s))
            + 2 * np.pi * (len(s) * np.finfo(float).eps * _degree_sum(np.abs(b))))


def _degree_sum(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a new array a, which it overwrites, row by row for any width (numpy's
    sum goes row by row over a block of columns but pairwise down a single column)."""
    total = a[0]
    for row in a[1:]:
        total += row
    return total


def _lambda_polish(b: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, int]:
    """The polish stage of lambda = int_0^pi |kernel(x, cos t)| dt on a block, h = pi / N read
    from its N+1 samples, or on some of its points, and how many kernel roots missed their
    rule, unwarned.  N below 16 per degree raises ValueError: at 4(n+m) a pair can slip by.

    kernel(x, cos t) = sum_s b_s cos(s t).  Its roots are bracketed by sign changes on the
    N angle intervals; a pair inside one interval, or straddling one sample, leaves a local
    minimum of |kernel| there and is split at the kernel's extremum.  Newton's method, kept
    in each bracket by bisection, finds that extremum inside the two intervals next to the
    sample, and polishes a root for at most 8 steps, until kernel^2/|kernel'| <= 2^-53 (a
    root off by kernel/kernel' moves the integral by about that, and the integral's scale is
    pi b_0 = 1) or |kernel| is at the roundoff of its sum.  A simple bracket starts Newton at
    its secant point, or next to t = 0 or pi, about which the kernel is even, at the root of
    the even parabola through the end sample and its neighbour; a pair's roots start where
    the three samples' parabola, moved to the extremum's value there, crosses zero.  Between
    roots |kernel| integrates exactly to |F(b) - F(a)|, F(t) = b_0 t + sum_s b_s sin(s t)/s.
    """
    s = np.arange(len(b))[:, None]
    size = vals.shape[1] - 1
    if size < 16 * len(b):
        raise ValueError(f"lambda's polish needs 16 samples per degree, got {size} for {len(b)}")
    h = np.pi / size
    floor = len(s) * np.finfo(float).eps * _degree_sum(np.abs(b))  # roundoff of one sum
    neg, mag = np.signbit(vals), np.abs(vals, out=vals)  # overwrites vals, which callers drop
    # a root pair's parabola test allows for the three samples' interpolation error,
    # max|kernel'''| h^3 / (9 sqrt 3) with max|kernel'''| <= sum_s s^3 |b_s|
    reach = _degree_sum(np.abs(b * s ** 3)) * h ** 3 / (9 * np.sqrt(3)) + floor

    def newton(k, rows, lo, hi, t, left, converged):
        """From t, zeros in [lo, hi] of the k-th angle derivative of the kernel rows, whose
        sign bit at lo is left, and how many points missed converged(value, slope, step,
        rows) in 8 steps.  The bracket shrinks to the sign change, a step that leaves it is
        clipped to it, and a step stuck at its end bisects it instead."""
        pair = np.stack([b * (1j * s) ** k, b * (1j * s) ** (k + 1)], axis=1)
        live = np.arange(len(t))
        for _ in range(8):
            at = t[live]
            val, slope = _cosine_sums(pair, rows[live], at).real
            step = np.divide(val, slope, out=np.zeros_like(val), where=slope != 0.0)
            done = converged(val, slope, step, rows[live])
            right = np.signbit(val) == left[live]  # the zero lies right of t
            lo[live[right]], hi[live[~right]] = at[right], at[~right]
            new = np.clip(at - step, lo[live], hi[live])
            stuck = np.flatnonzero((new == at) & ~done)
            new[stuck] = (lo[live[stuck]] + hi[live[stuck]]) / 2
            t[live] = new
            live = live[~done]
            if not live.size:
                break
        return t, live.size

    # a local minimum of |kernel| at a sample whose neighbours lie on one side of zero may
    # sit between two roots: hidden in one interval, or straddling the sample, where Newton
    # from the midpoints would only converge linearly until it resolves the pair
    r2, c2 = np.nonzero((mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:])
                        & (neg[:, :-2] == neg[:, 2:]))
    # unless its three-sample parabola stays off zero by more than the interpolation error
    p0, p1, p2 = mag[r2, c2], mag[r2, c2 + 1], mag[r2, c2 + 2]
    p1 = np.where(neg[r2, c2 + 1] == neg[r2, c2], p1, -p1)  # signed, the neighbours positive
    bend = (p0 - p1) + (p2 - p1)  # > 0, as |kernel| falls from p0 to p1 and p1 <= p2
    keep = p1 - (p2 - p0) ** 2 / (8 * bend) <= reach[r2]  # the parabola's vertex
    r2, c2, bend = r2[keep], c2[keep], bend[keep]
    # |kernel| falls from sample c2 toward its minimum, so kernel' there has the other sign
    ext, _ = newton(1, r2, c2 * h, (c2 + 2) * h, (c2 + 1) * h, ~neg[r2, c2],
                    lambda val, slope, step, rows: np.abs(step) <= h / 2 ** 26)
    depth = _cosine_sums(b, r2, ext).real
    cross = np.signbit(depth) != neg[r2, c2]
    r2, c2, ext, depth, bend = r2[cross], c2[cross], ext[cross], depth[cross], bend[cross]
    # a pair is split at the extremum; a straddling one leaves its two sign changes
    change = neg[:, :-1] != neg[:, 1:]
    change[r2, c2] = change[r2, c2 + 1] = False
    rows, cols = np.nonzero(change)
    half = h * np.sqrt(2 * np.abs(depth) / bend)  # bend / h^2 stands for |kernel''|
    left = np.concatenate([neg[rows, cols], neg[r2, c2], ~neg[r2, c2]])
    lo = np.concatenate([cols * h, c2 * h, ext])
    hi = np.concatenate([(cols + 1) * h, ext, (c2 + 2) * h])
    # the secant point of a simple bracket; its middle if both samples are zero (+0, -0)
    m0, m1 = mag[rows, cols], mag[rows, cols + 1]
    f = np.divide(m0, m0 + m1, out=np.full_like(m0, 0.5), where=m0 + m1 > 0.0)
    # next to t = 0 or pi, about which the kernel is even, the root of the even parabola
    # through the end sample and its neighbour lies sqrt(f) of the bracket from the end
    f = np.where(cols == 0, np.sqrt(f), np.where(cols == size - 1, 1 - np.sqrt(1 - f), f))
    start = np.concatenate([(cols + f) * h, ext - half, ext + half])
    rows = np.concatenate([rows, r2, r2])
    root, missed = newton(0, rows, lo, hi, np.clip(start, lo, hi), left,
                          lambda val, slope, step, rows: ((val * val <= np.abs(slope) / 2 ** 53)
                                                         | (np.abs(val) <= floor[rows])))
    anti = b[0, rows] * root + _cosine_sums(b / np.maximum(s, 1), rows, root).imag
    # pieces alternate in sign: F(pi) = b_0 pi as the last piece, 2 F(root) as the left one
    return (np.where(neg[:, -1], -np.pi, np.pi) * b[0]
            + np.bincount(rows, np.where(left, -2.0, 2.0) * anti, minlength=len(mag))), missed


def _cosine_sums(coeffs: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_s coeffs[s, ..., rows] e^{i s t} by Horner's rule in e^{i t}, one degree at a
    time over blocks of 2^14 points, so that memory stays O(len(t)) and each block stays
    in cache.  numpy rounds an in-place complex product of one entry by another rule, so
    a spare copy of the first point, dropped at the end, keeps the points' blocks above one
    entry and each point's sums independent of the points that share the call."""
    t, rows = np.append(t, t[:1]), np.append(rows, rows[:1])
    acc = np.zeros(coeffs.shape[1:-1] + t.shape, dtype=complex)
    for j in range(0, len(t), 1 << 14):
        block, z = rows[j:j + (1 << 14)], np.exp(1j * t[j:j + (1 << 14)])
        part = acc[..., j:j + (1 << 14)]
        for col in coeffs[::-1]:
            part *= z
            part += np.take(col, block, axis=-1)
    return acc[..., :-1]


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


def _node_sums(rows: np.ndarray, n: int, grid_size: int) -> np.ndarray:
    """sum_i |row i| over n node rows, rows holding the first ceil(n/2) (row n-1-i is row i read
    backwards), on the half grid x_j = cos(j pi / M), j = 0..ceil(M/2).  An odd M takes one DCT-I
    per row on the whole grid, read on the half.  For an even M, as x_{M-j} = -x_j and p_r(-x) =
    (-1)^r p_r(x), row i is E + O at x_j and E - O at x_{M-j}: E one DCT-I of its folded even
    degrees (M/2+1 entries), O one DCT-II of the odd ones (M/2 entries, as O = 0 at j = M/2), in
    one buffer of M+1 entries per row.  Row n-1-i is the reverse, so the pair adds 2 max(|E|, |O|)
    at x_j and the middle row (n odd) |E + O| at one, |E - O| at the other: <= |E| + |O|."""
    half, mid = n // 2, grid_size // 2
    if grid_size % 2:
        mag = probe_values(rows, grid_size)
        s = np.abs(mag, out=mag)[:half].sum(axis=0)
        return (s + s[::-1] + mag[half:].sum(axis=0))[:mid + 2]  # and the middle row if n is odd
    a = _probe_fold(rows, grid_size)
    buf = np.zeros(a.shape[:-1] + (grid_size + 1,))
    buf[:, :(a.shape[-1] + 1) // 2] = a[:, ::2]
    buf[:, mid + 1:mid + 1 + a.shape[-1] // 2] = a[:, 1::2]
    even, odd = (np.abs(v, out=v) for v in (
        scipy.fft.dct(buf[:, :mid + 1], type=1, axis=-1, overwrite_x=True),
        scipy.fft.dct(buf[:, mid + 1:], type=2, axis=-1, overwrite_x=True)))
    inner = even[:, :-1]
    np.maximum(inner[:half], odd[:half], out=inner[:half])
    np.add(inner[half:], odd[half:], out=inner[half:])
    return 2 * even[:half].sum(axis=0) + even[half:].sum(axis=0)


def lebesgue_const(level: VPLevel, kind: LebesgueKind,
                   grid_size: int = 10000) -> LebesgueReport:
    """Maximum of the Lebesgue function over probe_grid(grid_size), read on its half j <= M/2: the
    kernel is even under (x, y) -> (-x, -y), and so is every kind.  Every L-th point comes first,
    L the largest divisor of M leaving M/L >= 16 D, D = n+m-1: the node sums there, or lambda's
    _lambda_bound.  A sign pattern below the function is a cosine polynomial of degree D, so by
    Bernstein's inequality the function rises between those points by at most d/(1-d) of their
    maximum above the larger one, d = (D pi L / M)^2 / 8, plus a node sum's roundoff.  Only the
    intervals whose bound reaches a known value, the coarse maximum or lambda at the largest
    bound, are refined, with lambda's coarse points whose bound reaches it; quad_spec's
    unconverged count covers the points polished."""
    kind = LebesgueKind(kind)
    _check_size(grid_size)
    if grid_size < 1000:
        raise ValueError(f"grid size must be at least 1000, got {grid_size}")
    deg = level.n + level.m - 1
    step = max([1] + [k for k in range(2, grid_size // (16 * deg) + 1) if grid_size % k == 0])
    # the coarse half grid as fine-grid indices, to ceil((M/L)/2); a point j is cos(j pi / M)
    jc = step * np.arange((grid_size // step + 1) // 2 + 1)
    if kind is LebesgueKind.LAMBDA:
        coarse_x = np.cos(jc * (np.pi / grid_size))
        coarse = np.concatenate([_lambda_bound(b, vals)
                                 for b, vals in _lambda_blocks(level, coarse_x)])
        seed = np.argmax(coarse[jc <= grid_size // 2])  # not a mirror point
        (value,), missed = _lambda_polish(*next(_lambda_blocks(level, coarse_x[[seed]])))
        slack = 0.0  # the bounds hold their own roundoff
    else:  # basis rows on the probe grid: lebesgue_fn is 4-9x slower at M = 10^4, n = 20..170
        # row i is node i's delta through the node map: (pi/n) kernel(x_i, .) for lambda-tilde,
        # interpolating scaling function i for lambda-bar.  As x_{n+1-k} = -x_k and p_r(-x) =
        # (-1)^r p_r(x), row n-1-i is row i read backwards, so only ceil(n/2) rows are built
        tilde, half = kind is LebesgueKind.LAMBDA_TILDE, level.n // 2
        rows = _from_v(_node_coords(np.eye(level.n - half, level.n), level, not tilde), level)
        spec = (f"exact node sum over {level.n} kernel sections" if tilde
                else f"exact sum of {level.n} interpolating scaling functions")
        coarse = _node_sums(rows, level.n, grid_size // step)
        value = coarse.max()
        # twice a value's roundoff, 8 log2(2M) sqrt(M+1) eps sqrt(2/pi) |c|_1 over rows of
        # p-coefficients c (Higham, Thm 24.2); the n rows' |c|_1 are at most twice the built rows'
        slack = (32 * np.log2(2 * grid_size) * np.sqrt(grid_size + 1) * np.finfo(float).eps
                 * SQRT_2_PI * np.abs(rows).sum())
    d = (deg * np.pi * step / grid_size) ** 2 / 8
    rise = d / (1 - d) * coarse.max() + slack
    top = np.flatnonzero(np.maximum(coarse[:-1], coarse[1:]) + rise >= value)
    j = np.add.outer(jc[top], np.arange(1, step)).ravel()
    if kind is LebesgueKind.LAMBDA:  # its coarse values are bounds: the points that reach value
        j = np.append(j, jc[coarse >= value])
    j = j[j <= grid_size // 2]  # the last interval of an odd coarse grid straddles x = 0
    xs = np.cos(j * (np.pi / grid_size))
    if kind is LebesgueKind.LAMBDA:  # the seed point is polished once, and a block's one
        # polish takes the points whose bound reaches the largest value so far
        for b, vals in _lambda_blocks(level, xs[j != jc[seed]]):
            top = _lambda_bound(b, vals) >= value
            part, count = _lambda_polish(b[:, top], vals[top])
            value, missed = part.max(initial=value), missed + count
        _warn_unconverged(missed)
        spec = ("exact integral between kernel roots: 16(n+m) angle brackets, Newton to "
                "K^2/|K'| <= 2^-53 or roundoff, at most 8 steps"
                + (f"; {missed} roots unconverged" if missed else ""))
    elif xs.size:
        value = max(value, lebesgue_fn(level, kind, xs).max())
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
    fx = np.asarray(f(probe_grid(grid_size)), dtype=float)
    return [ErrorPoint(level.n, level.m, float(np.max(np.abs(
                fx - probe_values(approximant(f, level, kind), grid_size)))))
            for level in _sweep_levels(theta, n_list)]
