"""Resolution levels (n, m), 0 < m < n, and the ramp that is all a level adds.

The free parameter m controls the width of the lowpass ramp that turns a
truncated Chebyshev sum into a delayed (de la Vallee Poussin type) mean: the
filter mu_r is 1 on degrees r <= n-m, (m+n-r)/(2m) on n-m < r < n+m and 0
beyond.  A level differs from the truncated sum only on that ramp, and
there the filter and the squared norms of the modified Chebyshev bases
depend on m and n-r alone.  So one ramp of 2(m-1) values, computed on
demand by :func:`ramp`, serves the approximation space at level (n, m), the
entry band of its detail space and the top band at level (3n, m); every
other basis polynomial is a plain p_r of norm 1.  The maps built on it live
in :mod:`vpwave.bases`.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class VPLevel:
    """Resolution parameter pair (n, m) with 0 < m < n."""

    n: int
    m: int

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.n, self.m)):
            raise ValueError(f"level needs integers n and m, got (n={self.n!r}, m={self.m!r})")
        if not 0 < self.m < self.n:
            raise ValueError(f"level requires 0 < m < n, got (n={self.n}, m={self.m})")

    @classmethod
    def from_theta(cls, n: int, theta: float) -> "VPLevel":
        """Level (n, floor(theta * n)) for theta in (0, 1)."""
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        return cls(n, math.floor(theta * n))


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
