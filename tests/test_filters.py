import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vpwave.bases import (
    detail_analysis,
    detail_gather,
    scaling_analysis,
    scaling_synthesis,
    wavelet_interp,
)
from vpwave.chebyshev import cheb_nodes, eval_p, y_nodes
from vpwave.filters import VPLevel, detail_norms_sq, lowpass_weights, scaling_norms_sq

L136 = VPLevel(13, 6)


def test_level_validation():
    with pytest.raises(ValueError):
        VPLevel(5, 5)
    with pytest.raises(ValueError):
        VPLevel(5, 0)
    assert VPLevel.from_theta(13, 0.5) == VPLevel(13, 6)
    with pytest.raises(ValueError):
        VPLevel.from_theta(13, 1.0)


def test_lowpass_values():
    mu = lowpass_weights(L136)
    assert mu[5] == 1.0
    assert mu[13] == 0.5
    assert mu[18] == pytest.approx(1 / 12)
    assert mu.shape == (19,)  # the ramp vanishes from degree n+m on


def test_scaling_norm_values():
    nus = scaling_norms_sq(L136)
    assert nus[7] == 1.0
    assert nus[12] == pytest.approx(37 / 72)
    assert nus[8] == pytest.approx(61 / 72)
    assert nus.shape == (13,)


def test_detail_norm_values():
    v = detail_norms_sq(L136)  # entry i is degree 13 + i
    assert v[0] == 1.0
    assert v[1] == pytest.approx(37 / 72)
    assert v[25] == pytest.approx(37 / 72)
    assert v.shape == (26,)


def test_lowpass_complementarity_on_ramp():
    # mu_r + mu_{2n-r} = 1 strictly inside the ramp
    n, m = 13, 6
    mu = lowpass_weights(L136)
    for r in range(n - m + 1, n):
        assert mu[r] + mu[2 * n - r] == pytest.approx(1.0, abs=1e-15)


def test_norm_is_sum_of_squared_ramp_weights():
    n, m = 13, 6
    mu = lowpass_weights(L136)
    nus = scaling_norms_sq(L136)
    for r in range(n - m + 1, n):
        assert nus[r] == pytest.approx(mu[r] ** 2 + mu[2 * n - r] ** 2, abs=1e-15)


def test_detail_tail_matches_refined_scaling_norms():
    # upper ramp of the detail norms coincides with the level-(3n, m) table
    n, m = 13, 6
    v = detail_norms_sq(L136)
    nu3 = scaling_norms_sq(VPLevel(3 * n, m))
    for r in range(3 * n - m + 1, 3 * n):
        assert v[r - n] == pytest.approx(nu3[r], abs=1e-15)


def test_families_stay_in_unit_interval():
    for level in (L136, VPLevel(40, 20), VPLevel(9, 2)):
        for arr in (lowpass_weights(level), scaling_norms_sq(level),
                    detail_norms_sq(level)):
            assert arr.min() >= 0.0 and arr.max() <= 1.0


def test_ramp_monotonicity():
    n, m = 40, 20
    level = VPLevel(n, m)
    mu = lowpass_weights(level)
    assert np.all(np.diff(mu[n - m:]) <= 0)
    nus = scaling_norms_sq(level)
    assert np.all(np.diff(nus[n - m:]) <= 0)
    v = detail_norms_sq(level)
    assert np.all(np.diff(v[1: m + 1]) >= 0)     # entry ramp climbs back to 1
    assert np.all(np.diff(v[2 * n - m:]) <= 0)   # exit ramp falls toward 1/2


def test_scaling_transform_row_zero():
    # row 0 of the node-to-degree transform, read through its transpose
    impulse = np.array([1.0, 0, 0, 0])
    assert_allclose(scaling_synthesis(impulse, VPLevel(4, 2)), np.full(4, 0.5),
                    rtol=0, atol=1e-15)


def test_scaling_transform_row_orthogonality():
    rows = scaling_synthesis(np.eye(13), L136)  # row r of the transform
    gram = rows @ rows.T
    assert np.abs(gram - np.diag(1.0 / scaling_norms_sq(L136))).max() < 1e-12


def test_scaling_transform_entry_formula():
    # degree 12, first node: sqrt(pi / (13 * 37/72)) p_12(x_1)
    x1 = cheb_nodes(13).nodes[0]
    expected = math.sqrt(math.pi / (13 * 37 / 72)) * eval_p(12, x1)
    first_node = np.eye(13)[0]
    assert scaling_analysis(first_node, L136)[12] == pytest.approx(expected, abs=1e-15)


def test_detail_transform_closed_form_entries():
    # (n, m) = (2, 1), degree n, first node: sqrt(pi/6) p_2(cos(pi/12)) = 1/2
    assert detail_analysis(np.eye(4)[0], VPLevel(2, 1))[0] == pytest.approx(0.5, abs=1e-13)
    # (13, 6), degree 2n, first node: closed form sqrt(1/26)
    assert detail_analysis(np.eye(26)[0], L136)[13] == pytest.approx(
        math.sqrt(1 / 26), abs=1e-13)


def test_detail_transform_orthogonal():
    s = detail_analysis(np.eye(26), L136)  # row k is column k of the transform
    assert np.abs(s @ s.T - np.eye(26)).max() < 1e-12


def test_wavelet_interp_weight_branches():
    # psi_k = (pi/3n) sum_r w_r q~_r, so w = (3n/pi) B^T psi_k / v
    n = 13
    y = y_nodes(n).nodes
    for k in (1, 9, 26):
        psi = wavelet_interp(L136, k).coeffs
        w = 3 * n / math.pi * detail_gather(psi, L136) / detail_norms_sq(L136)
        assert w[0] == pytest.approx(eval_p(n, y[k - 1]), abs=1e-13)
        expected = eval_p(2 * n, y[k - 1]) + math.sqrt(2) / math.sqrt(math.pi)
        assert w[n] == pytest.approx(expected, abs=1e-13)
    with pytest.raises(ValueError):
        wavelet_interp(L136, 27)
