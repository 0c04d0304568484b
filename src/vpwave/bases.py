"""Basis families of the approximation space V and detail space W at level (n, m).

V is spanned equivalently by the interpolating scaling functions (delta
property on the n-point Chebyshev grid), by the orthonormal scaling
functions, or by the modified Chebyshev polynomials q_r of degrees 0..n-1.
W, the orthogonal complement of V inside the level-3n approximation space,
is spanned by interpolating wavelets (delta property on the complement
grid), orthonormal wavelets, or modified Chebyshev polynomials q~_r of
degrees n..3n-1.

Everything here composes the cosine transforms with maps written once, each
acting on the last axis of its input.  The ramp is m-1 Givens pairs: over
orthonormal bases, V and W differ from the plain p_r only on the degree pairs
(n-j, n+j), and W also on the top pairs of level 3n, which filters.rotate
turns.  So V is reached through one coordinate map, _to_v (p-coefficients to
the coordinates over the orthonormal q_r/nu_r) with its transpose _from_v,
and W through one expansion, _from_w, of its coordinates at degrees n..3n-1.
The Chebyshev expansion of orthonormal coefficients is _from_v of their DCT
(_from_w of detail_analysis for W).  Node values reach V through one map,
_node_coords, sqrt(pi/n) times their DCT with the ramp multiplied by the norms
nu_j (interpolant) or divided by them (discrete projection); it, scaling_synthesis
(the projection map's transpose over the q_r), the q_r and the q~_r are all
that add filters.scale_norms.
The W transforms each work in one 3n buffer of their own, folded (_fold) or
mirrored, scaled (_scale_fold) and transformed in place; no caller's array is
written.  Every basis element is exported as its array of p-coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _dct_own, _is_integer, _last_axis, dct, idct
from .filters import VPLevel, rotate, scale_norms

SQRT2 = math.sqrt(2.0)


def _vector(values, size: int, what: str) -> np.ndarray:
    """``values`` as a finite float array of shape (size,), else ValueError.  A float64
    ndarray comes back itself, neither copied nor written."""
    try:
        out = np.asarray(values, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite") from exc
    if out.shape != (size,):
        raise ValueError(f"expected {size} {what}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


@dataclass(frozen=True, eq=False)
class ScalingCoeffs:
    """Coefficients (length n) in the orthonormal scaling basis at ``level``,
    held as a read-only copy of the array given, which must be finite."""

    level: VPLevel
    a: np.ndarray

    def __post_init__(self):
        _hold(self, self.a, copy=True)


@dataclass(frozen=True, eq=False)
class DetailCoeffs:
    """Coefficients (length 2n) in the orthonormal wavelet basis at ``level``,
    held as a read-only copy of the array given, which must be finite."""

    level: VPLevel
    b: np.ndarray

    def __post_init__(self):
        _hold(self, self.b, copy=True)


def _hold(c, values, copy: bool) -> None:
    """Hold ``values`` in ``c`` through the _vector gate, read-only, copied if ``copy``."""
    name, size, what = ("b", 2, "detail") if isinstance(c, DetailCoeffs) else ("a", 1, "scaling")
    out = _vector(values, size * c.level.n, what + " coefficients")
    object.__setattr__(c, name, out.copy() if copy else out)
    getattr(c, name).setflags(write=False)


def _own(cls, level: VPLevel, values):
    """``cls(level, values)``, ScalingCoeffs or DetailCoeffs, for an array the library has just
    made and nothing else holds: the same gate, and that array held read-only, uncopied."""
    c = object.__new__(cls)
    object.__setattr__(c, "level", level)
    _hold(c, values, copy=False)
    return c


def _pad(x, first: int, size: int) -> np.ndarray:
    """x placed at entries first.. of a zero last axis of length ``size``."""
    c = np.zeros(x.shape[:-1] + (size,))
    c[..., first:first + x.shape[-1]] = x
    return c


def _to_v(c, level: VPLevel) -> np.ndarray:
    """p-coefficients to the coordinates over the orthonormal q_r/nu_r of V,
    r < n: the ramp pairs rotated, the degrees below n kept.  Only degrees
    below n+m are read; anything beyond is orthogonal to V."""
    return rotate(c[..., :level.n + level.m].copy(), level)[..., :level.n]


def _from_v(x, level: VPLevel) -> np.ndarray:
    """Transpose of _to_v: coordinates over the orthonormal q_r/nu_r to
    p-coefficients of degrees 0..n+m-1.  Over the q_r themselves, multiply x
    by their norms first (scale_norms)."""
    return rotate(_pad(x, 0, level.n + level.m), level, inverse=True)


def _from_w(s, level: VPLevel, norms: bool = False) -> np.ndarray:
    """W coordinates over degrees n..3n-1 to p-coefficients of degrees
    0..3n+m-1 (W's top band is the level-(3n, m) ramp): the entry pairs at
    (n, m) and the top pairs at (3n, m) turned back.  The coordinates are
    over the orthonormal q~_r/||q~_r||, or over the q~_r themselves if
    ``norms``."""
    n = level.n
    c = _pad(s, n, 3 * n + level.m)
    for pairs in (level, VPLevel(3 * n, level.m)):  # entry and top pairs, disjoint
        rotate(scale_norms(c, pairs) if norms else c, pairs, inverse=True)
    return c


# ---------------------------------------------------------------------------
# coefficient transforms: node-indexed <-> degree-indexed
# ---------------------------------------------------------------------------

def scaling_synthesis(t, level: VPLevel) -> np.ndarray:
    """The inner products <f, q_r> of f in V to its coefficients over the orthonormal scaling
    functions: the transpose of the projection's node map over the unnormalized q_r, sqrt(n/pi)
    _node_coords(., level, False) (its inverse only where the norms are 1)."""
    return idct(scale_norms(_last_axis(t, level.n).copy(), level, inverse=True))


def _node_coords(u, level: VPLevel, interp: bool) -> np.ndarray:
    """V's orthonormal coordinates of the interpolant (``interp``) or discrete projection
    of node values u.  At the nodes q_r/nu_r is p_r with the ramp divided by nu, so the
    projection divides the ramp of sqrt(pi/n) dct(u) by nu and the interpolant multiplies."""
    x = dct(u)
    x *= math.sqrt(math.pi / level.n)
    return scale_norms(x, level, inverse=not interp)


def _complement_scatter(u, n: int) -> np.ndarray:
    """Values on the 2n complement nodes placed on the 3n-point grid (zero at
    the n coarse nodes, positions 3k-1 in 1-based numbering)."""
    w = np.zeros(u.shape[:-1] + (3 * n,))
    w[..., 0::3] = u[..., 0::2]
    w[..., 2::3] = u[..., 1::2]
    return w


def _fold(x, n: int) -> np.ndarray:
    """Mirror the 3n DCT coefficients x of a complement-grid vector in place onto the 2n
    degrees of W and return them, x[..., n:]: x_n; x_r + x_{2n-r} for n < r < 2n; x_{2n} +
    sqrt 2 x_0; x_r for r > 2n.  It loses nothing for vectors vanishing on coarse nodes."""
    x[..., n + 1:2 * n] += x[..., n - 1:0:-1]
    x[..., 2 * n] += SQRT2 * x[..., 0]
    return x[..., n:]


def _scale_fold(f, n: int) -> np.ndarray:
    """Scale the 2n folded bands f in place to orthonormal and return f: by 1, 1/sqrt 2,
    1/sqrt 3, sqrt(3/2) on r = n, n < r < 2n, r = 2n, r > 2n."""
    f[..., 1:n] *= 1.0 / SQRT2
    f[..., n] *= 1.0 / math.sqrt(3.0)
    f[..., n + 1:] *= math.sqrt(1.5)
    return f


def _analysis_buffer(u, n: int) -> np.ndarray:
    """detail_analysis of u in the last 2n entries of the 3n buffer it was folded in."""
    x = _dct_own(_complement_scatter(_last_axis(u, 2 * n), n))
    _scale_fold(_fold(x, n), n)
    return x


def detail_analysis(u, level: VPLevel) -> np.ndarray:
    """Coordinates over the orthonormal q~_r/||q~_r||, r = n..3n-1, of sum_k u_k
    (orthonormal wavelet k): an orthogonal 2n x 2n map that scatters onto the
    3n-point grid, takes a DCT and folds the mirrored bands."""
    return _analysis_buffer(u, level.n)[..., level.n:]


def detail_synthesis(s, level: VPLevel) -> np.ndarray:
    """Inverse (= transpose) of detail_analysis: coordinates over the orthonormal
    q~_r/||q~_r|| to coefficients over the orthonormal wavelets, from one 3n buffer."""
    n = level.n
    x = _pad(_last_axis(s, 2 * n), n, 3 * n)
    f = _scale_fold(x[..., n:], n)  # and its mirror, the transpose of _fold, in front
    x[..., 1:n] = f[..., n - 1:0:-1]
    x[..., 0] = SQRT2 * f[..., n]
    x = _dct_own(x, inverse=True)
    u = np.empty(x.shape[:-1] + (2 * n,))
    u[..., 0::2] = x[..., 0::3]
    u[..., 1::2] = x[..., 2::3]
    return u


# ---------------------------------------------------------------------------
# expansions of the six basis families
# ---------------------------------------------------------------------------

def _psi(u, level: VPLevel) -> np.ndarray:
    """p-coefficients of sum_k u_k psi_k over the interpolating wavelets.

    psi_k = (pi/3n) sum_r w_r q~_r, where w is the fold of p_r(y_k) except on
    the top band r > 2n, which adds the level-(n, m) ramp mix of p_{r-2n}.
    """
    n = level.n
    x = _dct_own(_complement_scatter(u, n))
    mix = scale_norms(_to_v(x, level), level)  # read before the fold overwrites x
    w = _fold(x, n)
    w[..., n + 1:] += mix[..., 1:]
    return math.sqrt(math.pi / (3 * n)) * _from_w(w, level, norms=True)


def _unit(index: int, first: int, count: int, what: str) -> np.ndarray:
    """Unit vector of length ``count`` for ``index`` in [first, first+count-1]."""
    if not _is_integer(index):
        raise ValueError(f"{what} must be an integer, got {index!r}")
    if not first <= index < first + count:
        raise ValueError(f"{what} {index} outside [{first}, {first + count - 1}]")
    e = np.zeros(count)
    e[index - first] = 1.0
    return e


def approx_basis(level: VPLevel, r: int) -> np.ndarray:
    """Degree-r modified Chebyshev basis polynomial of V, r in [0, n-1]."""
    return _from_v(scale_norms(_unit(r, 0, level.n, "degree"), level), level)


def detail_basis(level: VPLevel, r: int) -> np.ndarray:
    """Degree-r modified Chebyshev basis polynomial of W, r in [n, 3n-1]."""
    return _from_w(_unit(r, level.n, 2 * level.n, "degree"), level, norms=True)


def scaling_interp(level: VPLevel, k: int) -> np.ndarray:
    """k-th interpolating scaling function (Kronecker delta on the node grid)."""
    return _from_v(_node_coords(_unit(k, 1, level.n, "scaling index"), level, True), level)


def scaling_ortho(level: VPLevel, k: int) -> np.ndarray:
    """k-th orthonormal scaling function (localized near node k, not interpolating)."""
    return scaling_to_cheb(ScalingCoeffs(level, _unit(k, 1, level.n, "scaling index")))


def wavelet_interp(level: VPLevel, k: int) -> np.ndarray:
    """k-th interpolating wavelet (Kronecker delta on the complement grid)."""
    return _psi(_unit(k, 1, 2 * level.n, "wavelet index"), level)


def wavelet_ortho(level: VPLevel, k: int) -> np.ndarray:
    """k-th orthonormal wavelet."""
    return detail_to_cheb(DetailCoeffs(level, _unit(k, 1, 2 * level.n, "wavelet index")))


# ---------------------------------------------------------------------------
# coefficient vector <-> function conversions
# ---------------------------------------------------------------------------

def scaling_to_cheb(c: ScalingCoeffs) -> np.ndarray:
    """p-coefficients of sum_k a_k (orthonormal scaling function k)."""
    return _vector(_from_v(dct(c.a), c.level), c.level.n + c.level.m, "coefficients")


def detail_to_cheb(d: DetailCoeffs) -> np.ndarray:
    """p-coefficients of sum_k b_k (orthonormal wavelet k): detail_analysis
    gives the coordinates over the orthonormal q~_r/||q~_r||."""
    return _vector(_from_w(detail_analysis(d.b, d.level), d.level), 3 * d.level.n + d.level.m,
                   "coefficients")


def values_to_ortho(samples, level: VPLevel) -> ScalingCoeffs:
    """Orthonormal coefficients of the unique element of V that interpolates
    ``samples`` on the level-n Chebyshev grid (node order)."""
    return _own(ScalingCoeffs, level, idct(_node_coords(_vector(samples, level.n, "samples"),
                                                        level, True)))


def ortho_to_values(c: ScalingCoeffs) -> np.ndarray:
    """Values on the level-n Chebyshev grid; inverse of values_to_ortho."""
    return _vector(np.sqrt(c.level.n / np.pi) * scaling_synthesis(dct(c.a), c.level), c.level.n,
                   "values")
