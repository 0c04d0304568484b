"""Basis families of the approximation space V and detail space W at level (n, m).

V is spanned equivalently by the interpolating scaling functions (delta
property on the n-point Chebyshev grid), by the orthonormal scaling
functions, or by the modified Chebyshev polynomials q_r of degrees 0..n-1.
W, the orthogonal complement of V inside the level-3n approximation space,
is spanned by interpolating wavelets (delta property on the complement
grid), orthonormal wavelets, or modified Chebyshev polynomials q~_r of
degrees n..3n-1.

Everything here composes the cosine transforms with maps written once, each
acting on the last axis of its input: the band maps approx_spread (A: q_r to
plain Chebyshev coefficients) and detail_spread (B: q~_r to plain), their
transposes approx_gather and detail_gather, and the four O(n log n)
coefficient transforms (node-indexed <-> degree-indexed, an orthogonal pair
per space).  A q_r or q~_r off the ramp is a plain p_r of norm 1, so the band
maps copy those degrees and touch only the ramp slices (2(m-1) values from
filters.ramp); the norms rescale the same slices, once per space.  Every
basis element is exported as its array of p-coefficients, a basis matrix is
the matching map applied to an identity, and the multiresolution algorithms
are built on top of these maps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import dct, idct
from .filters import VPLevel, ramp

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScalingCoeffs:
    """Coefficients (length n) in the orthonormal scaling basis at ``level``,
    held as a read-only copy of the array given."""

    level: VPLevel
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.array(self.a, dtype=float))
        if self.a.shape != (self.level.n,):
            raise ValueError(
                f"expected {self.level.n} scaling coefficients, got {self.a.shape}")
        self.a.setflags(write=False)


@dataclass(frozen=True)
class DetailCoeffs:
    """Coefficients (length 2n) in the orthonormal wavelet basis at ``level``,
    held as a read-only copy of the array given."""

    level: VPLevel
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.array(self.b, dtype=float))
        if self.b.shape != (2 * self.level.n,):
            raise ValueError(
                f"expected {2 * self.level.n} detail coefficients, got {self.b.shape}")
        self.b.setflags(write=False)


def _as_length(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != n:
        raise ValueError(f"expected a last axis of length {n}, got shape {u.shape}")
    return u


def approx_spread(t, level: VPLevel) -> np.ndarray:
    """A: coefficients over q_0..q_{n-1} to p-coefficients of degrees 0..n+m-1.

    q_r is p_r for r <= n-m and mu_r p_r - mu_{2n-r} p_{2n-r} on the ramp
    n-m < r < n, so the ramp is mirrored across degree n (which stays empty).
    """
    n, m = level.n, level.m
    mu, mirror, _ = ramp(m)
    t = _as_length(t, n)
    c = np.zeros(t.shape[:-1] + (n + m,))
    c[..., :n] = t
    c[..., n - m + 1:n] *= mu
    c[..., n + m - 1:n:-1] = -mirror * t[..., n - m + 1:]
    return c


def approx_gather(c, level: VPLevel) -> np.ndarray:
    """A^T: p-coefficients to the inner products with q_0..q_{n-1}.

    Only degrees below n+m are read; anything beyond is orthogonal to V.
    """
    n, m = level.n, level.m
    mu, mirror, _ = ramp(m)
    c = np.asarray(c, dtype=float)
    if c.ndim == 0 or c.shape[-1] < n + m:
        raise ValueError(f"expected at least {n + m} coefficients, got shape {c.shape}")
    t = c[..., :n].copy()
    t[..., n - m + 1:] = mu * c[..., n - m + 1:n] - mirror * c[..., n + m - 1:n:-1]
    return t


def detail_spread(s, level: VPLevel) -> np.ndarray:
    """B: coefficients over q~_n..q~_{3n-1} to p-coefficients of degrees 0..3n+m-1.

    q~_r is mu_{2n-r} p_r + mu_r p_{2n-r} on the entry band n <= r < n+m
    (the complement of the level-n ramp), and above it the level-(3n, m)
    modified polynomial q_r, which is why degrees up to 3n+m-1 occur.  Since
    mu_n = 1/2, q~_n is p_n.
    """
    n, m = level.n, level.m
    mu, mirror, _ = ramp(m)
    s = _as_length(s, 2 * n)
    upper = np.zeros(s.shape[:-1] + (3 * n,))
    upper[..., n + m:] = s[..., m:]
    c = approx_spread(upper, VPLevel(3 * n, m))
    entry = s[..., m - 1:0:-1]  # degrees n+m-1..n+1, the mirrors 2n-r of the ramp
    c[..., n] += s[..., 0]
    c[..., n + m - 1:n:-1] += mu * entry
    c[..., n - m + 1:n] += mirror * entry
    return c


def detail_gather(c, level: VPLevel) -> np.ndarray:
    """B^T: p-coefficients to the inner products with q~_n..q~_{3n-1}.

    Only degrees below 3n+m are read; anything beyond is orthogonal to W.
    """
    n, m = level.n, level.m
    mu, mirror, _ = ramp(m)
    s = approx_gather(c, VPLevel(3 * n, m))[..., n:]  # degree n is copied there
    s[..., m - 1:0:-1] = mu * c[..., n + m - 1:n:-1] + mirror * c[..., n - m + 1:n]
    return s


def detail_unscale(s, level: VPLevel) -> np.ndarray:
    """Divide W coefficients in place by the basis norms, which differ from 1
    only on the entry band n < r < n+m and the top band 3n-m < r < 3n."""
    n, m = level.n, level.m
    root = np.sqrt(ramp(m).norms_sq)
    s[..., m - 1:0:-1] /= root
    s[..., 2 * n - m + 1:] /= root
    return s


# ---------------------------------------------------------------------------
# coefficient transforms: node-indexed <-> degree-indexed
# ---------------------------------------------------------------------------

def scaling_analysis(u, level: VPLevel) -> np.ndarray:
    """Node-indexed to degree-indexed coefficients in the approximation space:
    a DCT with the top m-1 entries (the ramp) rescaled by the basis norms."""
    t = dct(_as_length(u, level.n))
    t[..., level.n - level.m + 1:] /= np.sqrt(ramp(level.m).norms_sq)
    return t


def scaling_synthesis(t, level: VPLevel) -> np.ndarray:
    """Transpose of scaling_analysis (inverse only where the norms are 1)."""
    t = _as_length(t, level.n).copy()
    t[..., level.n - level.m + 1:] /= np.sqrt(ramp(level.m).norms_sq)
    return idct(t)


def _complement_scatter(u, n: int) -> np.ndarray:
    """Values on the 2n complement nodes placed on the 3n-point grid (zero at
    the n coarse nodes, positions 3k-1 in 1-based numbering)."""
    w = np.zeros(u.shape[:-1] + (3 * n,))
    w[..., 0::3] = u[..., 0::2]
    w[..., 2::3] = u[..., 1::2]
    return w


def _fold(x, n: int) -> np.ndarray:
    """Mirror the 3n DCT coefficients of a complement-grid vector onto the 2n
    degrees of W: x_n; x_r + x_{2n-r} for n < r < 2n; x_{2n} + sqrt 2 x_0;
    x_r for r > 2n.  It loses nothing for vectors vanishing on coarse nodes."""
    f = np.empty(x.shape[:-1] + (2 * n,))
    f[..., 0] = x[..., n]
    f[..., 1:n] = x[..., n + 1:2 * n] + x[..., n - 1:0:-1]
    f[..., n] = x[..., 2 * n] + SQRT2 * x[..., 0]
    f[..., n + 1:] = x[..., 2 * n + 1:]
    return f


def _unfold(f, n: int) -> np.ndarray:
    """Transpose of _fold."""
    x = np.empty(f.shape[:-1] + (3 * n,))
    x[..., 0] = SQRT2 * f[..., n]
    x[..., 1:n] = f[..., n - 1:0:-1]
    x[..., n] = f[..., 0]
    x[..., n + 1:2 * n] = f[..., 1:n]
    x[..., 2 * n] = f[..., n]
    x[..., 2 * n + 1:] = f[..., n + 1:]
    return x


def _fold_scale(n: int) -> np.ndarray:
    """Scale that makes the folded bands orthonormal: 1, 1/sqrt 2, 1/sqrt 3,
    sqrt(3/2) on r = n, n < r < 2n, r = 2n, r > 2n."""
    d = np.full(2 * n, 1.0 / SQRT2)
    d[0] = 1.0
    d[n] = 1.0 / math.sqrt(3.0)
    d[n + 1:] = math.sqrt(1.5)
    return d


def detail_analysis(u, level: VPLevel) -> np.ndarray:
    """Apply the orthogonal 2n x 2n detail mixing matrix, output indexed by
    degrees n..3n-1: scatter onto the 3n-point grid, DCT, fold the mirrored
    bands."""
    n = level.n
    x = dct(_complement_scatter(_as_length(u, 2 * n), n))
    return _fold_scale(n) * _fold(x, n)


def detail_synthesis(s, level: VPLevel) -> np.ndarray:
    """Inverse (= transpose) of detail_analysis."""
    n = level.n
    x = idct(_unfold(_fold_scale(n) * _as_length(s, 2 * n), n))
    u = np.empty(x.shape[:-1] + (2 * n,))
    u[..., 0::2] = x[..., 0::3]
    u[..., 1::2] = x[..., 2::3]
    return u


# ---------------------------------------------------------------------------
# expansions of the six basis families
# ---------------------------------------------------------------------------

def _phi(u, level: VPLevel) -> np.ndarray:
    """p-coefficients of sum_k u_k phi_k, phi_k = (pi/n) sum_r mu_r p_r(x_k) q_r."""
    return math.sqrt(math.pi / level.n) * approx_spread(dct(u), level)


def _phi_ortho(a, level: VPLevel) -> np.ndarray:
    """p-coefficients of sum_k a_k (orthonormal scaling function k)."""
    return approx_spread(scaling_analysis(a, level), level)


def _psi(u, level: VPLevel) -> np.ndarray:
    """p-coefficients of sum_k u_k psi_k over the interpolating wavelets.

    psi_k = (pi/3n) sum_r w_r q~_r, where w is the fold of p_r(y_k) except on
    the top band r > 2n, which adds the level-(n, m) ramp mix of p_{r-2n}.
    """
    n = level.n
    x = dct(_complement_scatter(u, n))
    w = _fold(x, n)
    w[..., n + 1:] += approx_gather(x, level)[..., 1:]
    return math.sqrt(math.pi / (3 * n)) * detail_spread(w, level)


def _psi_ortho(b, level: VPLevel) -> np.ndarray:
    """p-coefficients of sum_k b_k (orthonormal wavelet k)."""
    return detail_spread(detail_unscale(detail_analysis(b, level), level), level)


def _unit(index: int, first: int, count: int, what: str) -> np.ndarray:
    """Unit vector of length ``count`` for ``index`` in [first, first+count-1]."""
    if not first <= index < first + count:
        raise ValueError(f"{what} {index} outside [{first}, {first + count - 1}]")
    e = np.zeros(count)
    e[index - first] = 1.0
    return e


def approx_basis(level: VPLevel, r: int) -> np.ndarray:
    """Degree-r modified Chebyshev basis polynomial of V, r in [0, n-1]."""
    return approx_spread(_unit(r, 0, level.n, "degree"), level)


def detail_basis(level: VPLevel, r: int) -> np.ndarray:
    """Degree-r modified Chebyshev basis polynomial of W, r in [n, 3n-1]."""
    return detail_spread(_unit(r, level.n, 2 * level.n, "degree"), level)


def scaling_interp_matrix(level: VPLevel) -> np.ndarray:
    """(n+m) x n matrix; column k-1 is the expansion of the k-th interpolating
    scaling function (pi/n) sum_r mu_r p_r(x_k) p_r."""
    return _phi(np.eye(level.n), level).T


def scaling_interp(level: VPLevel, k: int) -> np.ndarray:
    """k-th interpolating scaling function (Kronecker delta on the node grid)."""
    return _phi(_unit(k, 1, level.n, "scaling index"), level)


def scaling_ortho(level: VPLevel, k: int) -> np.ndarray:
    """k-th orthonormal scaling function (localized near node k, not interpolating)."""
    return _phi_ortho(_unit(k, 1, level.n, "scaling index"), level)


def wavelet_interp(level: VPLevel, k: int) -> np.ndarray:
    """k-th interpolating wavelet (Kronecker delta on the complement grid)."""
    return _psi(_unit(k, 1, 2 * level.n, "wavelet index"), level)


def wavelet_ortho(level: VPLevel, k: int) -> np.ndarray:
    """k-th orthonormal wavelet."""
    return _psi_ortho(_unit(k, 1, 2 * level.n, "wavelet index"), level)


# ---------------------------------------------------------------------------
# coefficient vector <-> function conversions
# ---------------------------------------------------------------------------

def scaling_to_cheb(c: ScalingCoeffs) -> np.ndarray:
    """p-coefficients of sum_k a_k (orthonormal scaling function k)."""
    return _phi_ortho(c.a, c.level)


def detail_to_cheb(d: DetailCoeffs) -> np.ndarray:
    """p-coefficients of sum_k b_k (orthonormal wavelet k)."""
    return _psi_ortho(d.b, d.level)


def values_to_ortho(samples, level: VPLevel) -> ScalingCoeffs:
    """Orthonormal coefficients of the unique element of V that interpolates
    ``samples`` on the level-n Chebyshev grid (node order)."""
    t = dct(_as_length(samples, level.n))
    t[..., level.n - level.m + 1:] *= np.sqrt(ramp(level.m).norms_sq)
    return ScalingCoeffs(level, np.sqrt(np.pi / level.n) * idct(t))


def ortho_to_values(c: ScalingCoeffs) -> np.ndarray:
    """Values on the level-n Chebyshev grid; inverse of values_to_ortho."""
    return np.sqrt(c.level.n / np.pi) * scaling_synthesis(dct(c.a), c.level)
