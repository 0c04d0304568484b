import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import approx_norms_sq, detail_norms_sq, detail_scatter
from util import approx_spread, detail_spread, scaling_analysis

from vpwave.bases import detail_analysis, scaling_synthesis, wavelet_interp
from vpwave.chebyshev import cheb_nodes, eval_p, y_nodes
from vpwave.filters import VPLevel, ramp, scale_norms

L136 = VPLevel(13, 6)


def test_level_validation():
    with pytest.raises(ValueError):
        VPLevel(5, 5)
    with pytest.raises(ValueError):
        VPLevel(5, 0)
    for n, m in ((13.0, 6), (13.5, 6), (13, 6.0), (5, True), ("13", 6)):
        with pytest.raises(ValueError):
            VPLevel(n, m)
    assert VPLevel(np.int64(13), np.int64(6)) == VPLevel(13, 6)
    assert VPLevel.from_theta(13, 0.5) == VPLevel(13, 6)
    with pytest.raises(ValueError):
        VPLevel.from_theta(13, 1.0)


@pytest.mark.parametrize("n", ["10", None, [10], 10.0, True])
def test_from_theta_refuses_a_non_integer_n_before_theta_times_n(n):
    with pytest.raises(ValueError, match=r"resolution n must be an integer, got "):
        VPLevel.from_theta(n, 0.5)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norms of the polynomials whose p-coefficients are the rows."""
    return (rows ** 2).sum(axis=-1)


def test_lowpass_values():
    # level (13, 6): the ramp covers degrees r = 8..12
    mu, mirror, norms = ramp(6)
    assert mu.shape == mirror.shape == norms.shape == (5,)
    assert mirror[0] == pytest.approx(1 / 12)     # mu_18, mirror of r = 8
    assert norms[-1] == pytest.approx(37 / 72)    # r = 12
    assert norms[0] == pytest.approx(61 / 72)     # r = 8
    assert all(len(part) == 0 for part in ramp(1))  # m = 1: no ramp
    assert approx_spread(np.eye(13), L136).shape == (13, 19)  # nothing from degree n+m on


def test_ramp_is_linear_through_one_half_at_degree_n():
    # mu_r = (m+n-r)/(2m): steps of 1/(2m) that reach 1/2 at r = n
    for m in (2, 6, 20):
        mu, mirror, _ = ramp(m)
        assert_allclose(np.diff(mu), -1 / (2 * m), rtol=0, atol=1e-15)
        assert mu[-1] - 1 / (2 * m) == pytest.approx(0.5, abs=1e-15)
        assert mirror[-1] + 1 / (2 * m) == pytest.approx(0.5, abs=1e-15)


def test_band_maps_copy_off_the_ramp():
    # mu_r = 1 below the ramp, and mu_n = 1/2 makes q~_n = p_n
    n, m = 13, 6
    rng = np.random.default_rng(3)
    t, s = rng.standard_normal(n), rng.standard_normal(2 * n)
    assert np.array_equal(approx_spread(t, L136)[:n - m + 1], t[:n - m + 1])
    assert approx_spread(t, L136)[n] == 0.0
    assert detail_spread(s, L136)[n] == s[0]
    assert np.array_equal(detail_spread(np.eye(26)[0], L136), np.eye(3 * n + m)[n])


def test_scaling_norm_values():
    nus = _squared_norms(approx_spread(np.eye(13), L136))
    assert nus.shape == (13,) and nus[5] == 1.0 and nus[7] == 1.0
    assert nus[12] == pytest.approx(37 / 72, abs=1e-15)
    assert nus[8] == pytest.approx(61 / 72, abs=1e-15)
    assert_allclose(nus[8:], ramp(6).norms_sq, rtol=0, atol=1e-15)


def test_detail_norm_values():
    v = _squared_norms(detail_spread(np.eye(26), L136))  # entry i is degree 13 + i
    assert v[0] == 1.0
    assert v[1] == pytest.approx(37 / 72, abs=1e-15)
    assert v[25] == pytest.approx(37 / 72, abs=1e-15)
    assert v.shape == (26,)


def test_lowpass_complementarity_on_ramp():
    # mu_r + mu_{2n-r} = 1 strictly inside the ramp
    mu, mirror, _ = ramp(6)
    assert_allclose(mu + mirror, 1.0, rtol=0, atol=1e-15)


def test_norm_is_sum_of_squared_ramp_weights():
    for m in (2, 6, 20):
        mu, mirror, norms = ramp(m)
        assert_allclose(norms, mu ** 2 + mirror ** 2, rtol=0, atol=1e-15)


def test_detail_tail_matches_refined_scaling_norms():
    # the top band of W at (n, m) is the ramp of V at (3n, m)
    n, m = 13, 6
    v = _squared_norms(detail_spread(np.eye(2 * n), L136))
    nu3 = _squared_norms(approx_spread(np.eye(3 * n), VPLevel(3 * n, m)))
    for r in range(3 * n - m + 1, 3 * n):
        assert v[r - n] == pytest.approx(nu3[r], abs=1e-15)


@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(5, 1), L136, VPLevel(40, 39)])
def test_detail_unscale_divides_by_the_oracle_norms(level):
    # W's degrees n..3n-1 have the norms of the level-n entry pairs and the level-3n top pairs
    n, m = level.n, level.m
    x = np.ones((2, 3 * n + m))
    for pairs in (level, VPLevel(3 * n, m)):
        scale_norms(x, pairs, inverse=True)
    got = x[..., n:3 * n]
    assert_allclose(got, np.broadcast_to(1 / np.sqrt(detail_norms_sq(level)), got.shape),
                    rtol=0, atol=1e-15)


def test_families_stay_in_unit_interval():
    for m in (6, 20, 2):
        for arr in ramp(m):
            assert arr.min() >= 0.0 and arr.max() <= 1.0


def test_ramp_monotonicity():
    n, m = 40, 20
    level = VPLevel(n, m)
    mu, mirror, norms = ramp(m)
    assert np.all(np.diff(mu) <= 0) and np.all(np.diff(mirror) >= 0)
    assert np.all(np.diff(norms) <= 0)
    v = _squared_norms(detail_spread(np.eye(2 * n), level))
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
    assert np.abs(gram - np.diag(1.0 / approx_norms_sq(L136))).max() < 1e-12


def test_scaling_transform_entry_formula():
    # degree 12, first node: sqrt(pi / (13 * 37/72)) p_12(x_1)
    x1 = cheb_nodes(13)[0]
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
    y = y_nodes(n)
    for k in (1, 9, 26):
        psi = wavelet_interp(L136, k)
        w = 3 * n / math.pi * (psi @ detail_scatter(L136)) / detail_norms_sq(L136)
        assert w[0] == pytest.approx(eval_p(n, y[k - 1]), abs=1e-13)
        expected = eval_p(2 * n, y[k - 1]) + math.sqrt(2) / math.sqrt(math.pi)
        assert w[n] == pytest.approx(expected, abs=1e-13)
    with pytest.raises(ValueError):
        wavelet_interp(L136, 27)
