"""Resolution levels (n, m), 0 < m < n, and the ramp that is all a level adds.

The free parameter m controls the width of the lowpass ramp that turns a
truncated Chebyshev sum into a delayed (de la Vallee Poussin type) mean: the
filter mu_r is 1 on degrees r <= n-m, (m+n-r)/(2m) on n-m < r < n+m and 0
beyond.  A level differs from the truncated sum only on that ramp, where it
pairs degree n-j with n+j, 0 < j < m: the approximation space V holds
q_{n-j} = mu_{n-j} p_{n-j} - mu_{n+j} p_{n+j} and its complement W holds
q~_{n+j} = mu_{n+j} p_{n-j} + mu_{n-j} p_{n+j}, both of norm nu_j; every
other degree is a plain p_r of norm 1.  So in orthonormal coordinates the
ramp is m-1 Givens rotations (:func:`rotate`), and the norms matter only to
the unnormalized q and q~ (:func:`scale_norms`).  The ramp (:func:`ramp`)
depends on m and j alone, so one set of m-1 angles serves every n.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import _is_integer


@dataclass(frozen=True)
class VPLevel:
    """Resolution parameter pair (n, m) with 0 < m < n."""

    n: int
    m: int

    def __post_init__(self):
        if not (_is_integer(self.n) and _is_integer(self.m)):
            raise ValueError(f"level needs integers n and m, got (n={self.n!r}, m={self.m!r})")
        if not 0 < self.m < self.n:
            raise ValueError(f"level requires 0 < m < n, got (n={self.n}, m={self.m})")

    @classmethod
    def from_theta(cls, n: int, theta: float) -> "VPLevel":
        """Level (n, floor(theta * n)) for theta in (0, 1)."""
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        try:
            return cls(n, math.floor(theta * n))
        except OverflowError as exc:  # an integer n beyond the float range
            raise ValueError(f"resolution n is too large for theta * n: {exc}") from exc


class Ramp(NamedTuple):
    """mu_r, its mirror mu_{2n-r} and the squared norm mu_r^2 + mu_{2n-r}^2."""
    mu: np.ndarray
    mirror: np.ndarray
    norms_sq: np.ndarray


def ramp(m: int) -> Ramp:
    """The ramp of every level (n, m) on degrees r = n-m+1..n-1, in that order,
    by its closed forms in n-r (m-1 values each).  At degree n the filter is
    1/2, so the mirrored pair there is p_n itself."""
    j = np.arange(m - 1, 0, -1)  # n - r
    return Ramp((m + j) / (2.0 * m), (m - j) / (2.0 * m), (m * m + j ** 2) / (2.0 * m * m))


def rotate(x, level: VPLevel, inverse: bool = False) -> np.ndarray:
    """Rotate the degree pairs (n-j, n+j), 0 < j < m, of the last axis of x in
    place and return x.  Forward takes p-coefficients to the coordinates over
    the orthonormal q_{n-j}/nu_j and q~_{n+j}/nu_j; inverse takes them back.
    Every other degree is left as it is; the last axis needs n+m entries."""
    n, m = level.n, level.m
    mu, mirror, norms_sq = ramp(m)
    nu = np.sqrt(norms_sq)
    cos, sin = mu / nu, (-mirror if inverse else mirror) / nu
    lo, hi = x[..., n - m + 1:n], x[..., n + m - 1:n:-1]  # both ordered j = m-1..1
    lo_new = cos * lo - sin * hi
    hi[...] = sin * lo + cos * hi
    lo[...] = lo_new
    return x


def scale_norms(x, level: VPLevel, inverse: bool = False) -> np.ndarray:
    """Multiply the degrees n-j and n+j, 0 < j < m, of the last axis of x in
    place by nu_j, the norm of q_{n-j} and q~_{n+j} (divide if ``inverse``), and
    return x.  The last axis needs n+m entries, or n for the degrees n-j alone."""
    n, m = level.n, level.m
    nu, scale = np.sqrt(ramp(m).norms_sq), np.divide if inverse else np.multiply
    lo = x[..., n - m + 1:n]
    scale(lo, nu, out=lo)
    if x.shape[-1] > n:
        hi = x[..., n + m - 1:n:-1]
        scale(hi, nu, out=hi)
    return x
