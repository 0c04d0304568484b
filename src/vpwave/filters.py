"""Coefficient families attached to a resolution level (n, m), 0 < m < n.

The free parameter m controls the width of the lowpass ramp that turns a
truncated Chebyshev sum into a delayed (de la Vallee Poussin type) mean.
Three families parameterize every basis and transform in this package:

* lowpass_weights   -- the ramp filter (1 on degrees <= n-m, linear decay
                       across (n-m, n+m), 0 beyond),
* scaling_norms_sq  -- squared norms of the modified Chebyshev basis of the
                       approximation space (degrees 0..n-1),
* detail_norms_sq   -- squared norms of the modified Chebyshev basis of the
                       detail space (degrees n..3n-1).

Each is an O(n) array, cached per level and returned read-only.  The maps
built from them live in :mod:`vpwave.bases`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class VPLevel:
    """Resolution parameter pair (n, m) with 0 < m < n."""

    n: int
    m: int

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise ValueError(f"level requires 0 < m < n, got (n={self.n}, m={self.m})")

    @classmethod
    def from_theta(cls, n: int, theta: float) -> "VPLevel":
        """Level (n, floor(theta * n)) for theta in (0, 1)."""
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        return cls(n, math.floor(theta * n))


@lru_cache(maxsize=None)
def lowpass_weights(level: VPLevel) -> np.ndarray:
    """Ramp filter over degrees 0..n+m-1 (it vanishes from degree n+m on)."""
    n, m = level.n, level.m
    r = np.arange(n + m)
    out = np.where(r <= n - m, 1.0, (m + n - r) / (2.0 * m))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def scaling_norms_sq(level: VPLevel) -> np.ndarray:
    """Squared norms of the approximation-space orthogonal basis, degrees 0..n-1."""
    n, m = level.n, level.m
    r = np.arange(n)
    out = np.where(r <= n - m, 1.0, (m * m + (n - r) ** 2) / (2.0 * m * m))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def detail_norms_sq(level: VPLevel) -> np.ndarray:
    """Squared norms of the detail-space orthogonal basis, degrees n..3n-1.

    Entry i holds the value for degree r = n + i.  The upper ramp coincides
    with scaling_norms_sq at level (3n, m) on degrees 3n-m < r < 3n.
    """
    n, m = level.n, level.m
    r = np.arange(n, 3 * n)
    out = np.ones(2 * n)
    lo = (n < r) & (r < n + m)
    out[lo] = (m * m + (n - r[lo]) ** 2) / (2.0 * m * m)
    hi = r > 3 * n - m
    out[hi] = (m * m + (3 * n - r[hi]) ** 2) / (2.0 * m * m)
    out.setflags(write=False)
    return out
