"""Localization of the four basis families, measured as tails on a fine probe grid.

The tail of an element at d is the largest |element| at least d pi / n in angle from its
peak, relative to the peak, on probe_grid(20000), whose angles j pi / M are uniform.  Nine
elements spread over the central half of each family are measured at every level.  A bound
C / d^2 (or C / d) with one C for every n and theta says that the decay rate holds and does
not get worse as n grows.
"""

import numpy as np
import pytest

from vpwave.bases import scaling_interp, scaling_ortho, wavelet_interp, wavelet_ortho
from vpwave.chebyshev import probe_values
from vpwave.filters import VPLevel

GRID = 20000
DISTANCES = np.array([4, 8, 16])
LEVELS = [VPLevel.from_theta(n, theta) for n in (40, 160, 640) for theta in (0.2, 0.5, 0.8)]


def tails(family, level, per_node):
    """The largest tail at each of DISTANCES over nine central elements of the family,
    which has per_node elements per node of the level-n grid."""
    count = per_node * level.n
    ks = np.linspace(count // 4 + 1, 3 * count // 4, 9).round().astype(int)
    mag = np.abs(probe_values(np.array([family(level, k) for k in ks]), GRID))
    t = np.arange(GRID + 1) * (np.pi / GRID)
    dist = np.abs(t - t[mag.argmax(axis=1)][:, None])
    peak = mag.max(axis=1)
    return np.array([(np.where(dist >= d * np.pi / level.n, mag, 0.0).max(axis=1) / peak).max()
                     for d in DISTANCES])


# the largest tail d^2 over LEVELS is 0.99, 0.57 and 0.73; for phi and psi it lies at
# n = 40, theta = 0.2, d = 16, where the tail is taken next to t = 0 or pi.  At n = 160 and
# 640 it is 0.42, 0.56 and 0.53, and at theta = 0.5 0.28, 0.13 and 0.32
@pytest.mark.parametrize("family, per_node, bound", [(scaling_interp, 1, 1.1),
                                                     (scaling_ortho, 1, 0.65),
                                                     (wavelet_interp, 2, 0.8)],
                         ids=["phi", "phi-ortho", "psi"])
@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_tails_fall_like_the_inverse_square_of_the_distance(family, per_node, bound, level):
    assert np.all(tails(family, level, per_node) * DISTANCES ** 2 <= bound)


@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_orthonormal_wavelet_tails_fall_like_the_inverse_distance(level):
    # tail d is 0.075-0.20 over LEVELS and tail d^2 reaches 1.7 at d = 16: the orthonormal
    # wavelets decay like 1/d, which a better orthonormal basis of W has to beat
    assert np.all(tails(wavelet_ortho, level, 2) * DISTANCES <= 0.22)
