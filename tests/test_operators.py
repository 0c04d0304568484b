import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import fourier_proj as dense_fourier_proj
from oracles import approx_norms_sq, gauss_cheb_quad, lambda_mp, lebesgue_tables
from util import max_dev, scaling_ortho_matrix

from vpwave.bases import (
    DetailCoeffs,
    ScalingCoeffs,
    detail_to_cheb,
    ortho_to_values,
    scaling_ortho,
    scaling_to_cheb,
    values_to_ortho,
    wavelet_ortho,
)
from vpwave.chebyshev import (
    cheb_nodes,
    eval_p,
    eval_p_table,
    eval_series,
    probe_grid,
    probe_values,
    sup_error,
)
from vpwave import operators
from vpwave.filters import VPLevel
from vpwave.mra import decompose_multi
from vpwave.operators import (
    LebesgueKind,
    OperatorKind,
    discrete_norm,
    discrete_proj,
    error_curve,
    fourier_proj,
    lebesgue_const,
    lebesgue_fn,
    proj_kernel,
    vp_interp,
)

L136 = VPLevel(13, 6)
L4020 = VPLevel(40, 20)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(-1, 1, (100, 2)):
        assert proj_kernel(L136, x, y) == pytest.approx(
            proj_kernel(L136, y, x), abs=1e-12)


def test_kernel_integrates_to_one():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1, 1, 5):
        val = gauss_cheb_quad(lambda y: np.array(
            [proj_kernel(L136, x, yy) for yy in np.atleast_1d(y)]), 4 * 19)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_kernel_equals_basis_outer_product():
    rng = np.random.default_rng(2)
    mat = scaling_ortho_matrix(L136)
    for x, y in rng.uniform(-1, 1, (50, 2)):
        vx = mat.T @ eval_p_table(np.arange(19), x)[:, 0]
        vy = mat.T @ eval_p_table(np.arange(19), y)[:, 0]
        assert proj_kernel(L136, x, y) == pytest.approx(float(vx @ vy), abs=1e-11)


def test_kernel_node_marginal_is_one():
    # (pi/n) sum_i kernel(x_i, x) = 1: the discrete projection preserves constants
    rng = np.random.default_rng(3)
    nodes = cheb_nodes(13)
    for x in rng.uniform(-1, 1, 20):
        total = np.pi / 13 * sum(proj_kernel(L136, xi, x) for xi in nodes)
        assert total == pytest.approx(1.0, abs=1e-11)


def test_fourier_proj_recovers_basis_element():
    f = lambda x: eval_series(scaling_ortho(L136, 7), x)
    c = fourier_proj(f, L136)
    expected = np.zeros(13)
    expected[6] = 1.0
    assert max_dev(c.a, expected) < 1e-12


def test_fourier_proj_reproduces_low_degree_polynomials():
    for r in (0, 4, 7):
        c = fourier_proj(lambda x, r=r: eval_p(r, x), L136)
        e = scaling_to_cheb(c)
        expected = np.zeros(19)
        expected[r] = 1.0
        assert max_dev(e, expected) < 1e-11


def test_fourier_proj_annihilates_wavelets():
    f = lambda x: eval_series(wavelet_ortho(L136, 3), x)
    c = fourier_proj(f, L136)
    assert np.abs(c.a).max() < 1e-11


def _rough(x):
    return np.exp(np.sin(3 * x)) + np.abs(x - 0.1)


def test_fourier_proj_matches_dense_quadrature():
    fast = fourier_proj(_rough, L136).a
    assert max_dev(fast, dense_fourier_proj(_rough, L136, 16 * (13 + 6))) < 1e-13


@pytest.mark.parametrize("n, m", [(13, 6), (5, 1), (40, 39), (27, 13)])
def test_discrete_proj_matches_dense_quadrature(n, m):
    # the n-point rule: the ramp degrees n+j alias onto -p_{n-j} on the grid
    level = VPLevel(n, m)
    fast = discrete_proj(_rough(cheb_nodes(n)), level).a
    assert max_dev(fast, dense_fourier_proj(_rough, level, n)) < 1e-13


_ONE_NAN = [0.0] * 12 + [np.nan]  # built without arithmetic: no RuntimeWarning
_ONE_INF = [0.0] * 6 + [np.inf] + [0.0] * 6


@pytest.mark.parametrize("call", [
    lambda: discrete_proj(_ONE_NAN, L136),
    lambda: discrete_proj(_ONE_INF, L136),
    lambda: vp_interp(_ONE_NAN, L136),
    lambda: vp_interp(_ONE_INF, L136),
    lambda: values_to_ortho(_ONE_NAN, L136),
    lambda: values_to_ortho(_ONE_INF, L136),
    lambda: fourier_proj(lambda x: np.full_like(x, np.nan), L136),
    lambda: ScalingCoeffs(L136, _ONE_NAN),
    lambda: DetailCoeffs(L136, _ONE_NAN + _ONE_NAN),
    lambda: ScalingCoeffs(L136, [10**400] + [0] * 12),
    # finite samples or coefficients whose image overflows
    lambda: decompose_multi(np.full(45, 1.7e308), 5, 2, 0.5),
    lambda: ortho_to_values(ScalingCoeffs(VPLevel(5, 2), [1e308] * 5)),
    lambda: vp_interp([1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308], VPLevel(5, 2)),
    lambda: scaling_to_cheb(ScalingCoeffs(L136, [1.7e308, -1.7e308] * 6 + [1.7e308])),
    lambda: detail_to_cheb(DetailCoeffs(L136, [1.7e308, -1.7e308] * 13)),
    lambda: error_curve(lambda x: 1.7e308 * np.sign(x - 0.1), "vp", 0.5, [10]),
], ids=["discrete-nan", "discrete-inf", "interp-nan", "interp-inf", "ortho-nan",
        "ortho-inf", "fourier-nan", "scaling-nan", "detail-nan", "scaling-huge-int",
        "decompose-overflow", "values-overflow", "interp-overflow", "scaling-cheb-overflow",
        "detail-cheb-overflow", "error-curve-overflow"])
def test_every_vector_must_be_finite(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


def test_discrete_proj_reproduces_low_degree_polynomials():
    for r in (0, 3, 7):
        samples = eval_p(r, cheb_nodes(13))
        e = scaling_to_cheb(discrete_proj(samples, L136))
        expected = np.zeros(19)
        expected[r] = 1.0
        assert max_dev(e, expected) < 1e-12


def test_discrete_proj_dense_triple_sum():
    n, m = 13, 6
    rng = np.random.default_rng(4)
    f = rng.standard_normal(n)
    table = eval_p_table(np.arange(n), cheb_nodes(n))
    inv_root = 1.0 / np.sqrt(approx_norms_sq(L136))
    dense = np.empty(n)
    for k in range(n):
        acc = 0.0
        for h in range(n):
            acc += f[h] * np.sum(inv_root * table[:, k] * table[:, h])
        dense[k] = (np.pi / n) ** 1.5 * acc
    assert max_dev(discrete_proj(f, L136).a, dense) < 1e-12


def test_discrete_proj_constant():
    e = scaling_to_cheb(discrete_proj(np.ones(13), L136))
    err = sup_error(lambda x: np.ones_like(x),
                    lambda x: eval_series(e, x), 2000)
    assert err < 1e-13


def test_discrete_proj_fixed_points():
    # fixed exactly on the reproducing band: re-sampling the projection of a
    # low-degree polynomial and projecting again changes nothing
    samples = eval_p(6, cheb_nodes(13))
    c = discrete_proj(samples, L136)
    again = discrete_proj(ortho_to_values(c), L136)
    assert max_dev(again.a, c.a) < 1e-12
    # ramp-band content is rescaled on every application, so the discrete
    # projection is not idempotent on arbitrary inputs
    rng = np.random.default_rng(5)
    c = discrete_proj(rng.standard_normal(13), L136)
    again = discrete_proj(ortho_to_values(c), L136)
    assert max_dev(again.a, c.a) > 1e-6


def test_vp_interp_idempotent():
    rng = np.random.default_rng(15)
    samples = rng.standard_normal(13)
    e = vp_interp(samples, L136)
    resampled = eval_series(e, cheb_nodes(13))
    e2 = vp_interp(resampled, L136)
    assert max_dev(e, e2) < 1e-12


def test_vp_interp_interpolates_random_samples():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal(13)
    e = vp_interp(samples, L136)
    vals = eval_series(e, cheb_nodes(13))
    assert max_dev(vals, samples) < 1e-11


def test_vp_interp_equals_composed_route():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(13)
    direct = vp_interp(samples, L136)
    composed = scaling_to_cheb(values_to_ortho(samples, L136))
    assert max_dev(direct, composed) < 1e-12


def test_vp_interp_exact_on_edge_polynomial():
    samples = eval_p(7, cheb_nodes(13))  # degree n - m
    e = vp_interp(samples, L136)
    expected = np.zeros(19)
    expected[7] = 1.0
    assert max_dev(e, expected) < 1e-13


def test_operators_share_degree_ceiling():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(13)
    assert vp_interp(samples, L136).shape == (19,)
    assert scaling_to_cheb(discrete_proj(samples, L136)).shape == (19,)


def test_lebesgue_integral_at_least_one():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1, 1, 100)
    vals = lebesgue_fn(L136, LebesgueKind.LAMBDA, xs)
    # the kernel reproduces constants, so lambda >= 1 holds exactly
    assert vals.min() >= 1.0 - 1e-12


@pytest.mark.parametrize("n,m", [(6, 1), (9, 4), (13, 6), (13, 11)])
def test_lebesgue_integral_matches_mpmath(n, m):
    level = VPLevel(n, m)
    xs = np.array([1.0, 0.0, -1.0, np.random.default_rng(n * m).uniform(-1, 1)])
    expected = np.array([lambda_mp(level, x) for x in xs])
    assert_allclose(lebesgue_fn(level, LebesgueKind.LAMBDA, xs), expected,
                    rtol=1e-12, atol=0)
    assert lebesgue_fn(level, LebesgueKind.LAMBDA, xs[3]) == pytest.approx(
        expected[3], rel=1e-12, abs=0)


def test_lebesgue_integral_resolves_close_root_pairs():
    # at these probe points kernel(x, cos t) has two roots 0.28 and 0.86 of a
    # bracketing interval apart, which no sign change on the grid shows; at row 103 the
    # parabola through the three samples around the pair stays above zero, and only its
    # interpolation error bound keeps the candidate (1.2e-7 off without it)
    level = VPLevel(10, 9)
    xs = probe_grid(2000)[[770, 85, 103]]
    expected = np.array([lambda_mp(level, x) for x in xs])
    assert_allclose(lebesgue_fn(level, LebesgueKind.LAMBDA, xs), expected,
                    rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,m,row", [(30, 27, 700), (41, 20, 951), (27, 13, 301),
                                     (34, 14, 484), (41, 35, 960)])
def test_lebesgue_integral_resolves_a_pair_straddling_a_sample(n, m, row):
    # a root pair sits on both sides of one angle sample.  Started at the secant points of
    # their brackets, the roots stick at the brackets' ends; from the midpoints, Newton
    # halves its distance per step while the pair is close (0.023 brackets apart at
    # (27, 13), where 8 steps are not enough), or starts next to the extremum between the
    # roots (4.5e-6 off at (34, 14)) unless the pair is split there
    level = VPLevel(n, m)
    x = probe_grid(2000)[row]
    assert lebesgue_fn(level, LebesgueKind.LAMBDA, x) == pytest.approx(
        lambda_mp(level, x), rel=1e-13, abs=0)


def test_lebesgue_integral_bisects_a_step_stuck_at_its_bracket():
    # two roots one sample apart put the kernel's extremum at a bracket's midpoint:
    # Newton's first step leaves the bracket, and clipped to it stays at its end
    # (2.3e-6 off when the step was only clipped)
    level = VPLevel(33, 19)
    x = probe_grid(2000)[773]
    assert lebesgue_fn(level, LebesgueKind.LAMBDA, x) == pytest.approx(
        lambda_mp(level, x), rel=1e-13, abs=0)


@pytest.mark.parametrize("n,m,row", [(13, 1, 80), (13, 1, 160), (13, 1, 320), (13, 1, 1840),
                                     (13, 3, 175), (3, 1, 800), (19, 2, 443)])
def test_lebesgue_integral_at_roots_next_to_an_end(n, m, row):
    # the kernel is even about t = 0 and t = pi, so a root a fraction of a bracket from an
    # end has a mirror image just outside [0, pi], and Newton in t from the secant point
    # only converges linearly; the root of the kernel's even quadratic about the end starts
    # it next to the root instead: at (19, 2) row 443 the root is 0.014 brackets from
    # t = 0, and the quadratic's root 6e-9 brackets from it
    level = VPLevel(n, m)
    x = probe_grid(2000)[row]
    assert lebesgue_fn(level, LebesgueKind.LAMBDA, x) == pytest.approx(
        lambda_mp(level, x), rel=1e-13, abs=0)


def test_lebesgue_integral_says_when_roots_miss_their_rule(monkeypatch):
    # kernel sums that never settle leave every root short of its stopping rule; the one
    # warning names the line that called lebesgue_fn or lebesgue_const
    rng = np.random.default_rng(10)
    sums = operators._cosine_sums
    monkeypatch.setattr(operators, "_cosine_sums",
                        lambda c, r, t: sums(c, r, t) + 1e-6 * rng.standard_normal(t.shape))
    with pytest.warns(RuntimeWarning, match=r"\d+ kernel roots unconverged after 8 Newton") as rec:
        lebesgue_fn(L136, LebesgueKind.LAMBDA, 0.3)
    assert [w.filename for w in rec] == [__file__]
    with pytest.warns(RuntimeWarning, match="unconverged") as rec:
        spec = lebesgue_const(L136, LebesgueKind.LAMBDA, 1000).quad_spec
    assert [w.filename for w in rec] == [__file__]
    assert re.search(r"; [1-9]\d* roots unconverged$", spec)
    # 20001 points take 6 blocks of rows, and still raise one warning with the total
    counts, polish = [], operators._lambda_polish

    def counted_polish(b, vals):
        part, count = polish(b, vals)
        counts.append(count)
        return part, count

    monkeypatch.setattr(operators, "_lambda_polish", counted_polish)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lebesgue_fn(L136, LebesgueKind.LAMBDA, probe_grid(20000))
    assert len(counts) == 6
    assert [type(w.message) for w in caught] == [RuntimeWarning]
    assert str(caught[0].message).startswith(f"lambda: {sum(counts)} kernel roots unconverged")
    assert caught[0].filename == __file__


@pytest.mark.parametrize("kind", [LebesgueKind.LAMBDA_TILDE, LebesgueKind.LAMBDA_BAR])
def test_lebesgue_const_rows_take_one_buffer(kind):
    # the even and odd parts of the ceil(n/2) rows share one buffer of M+1 entries per row,
    # transformed and taken absolute in place: no second table of that size
    level, grid_size = VPLevel(170, 85), 10000
    lebesgue_const(level, kind, grid_size)  # fill every cache first
    tracemalloc.start()
    try:
        lebesgue_const(level, kind, grid_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (level.n - level.n // 2) * (grid_size + 1) * 8


def test_lebesgue_integral_memory_does_not_grow_with_the_points():
    # the probe points go through in row blocks, so 4x the points take no more memory
    def peak(grid_size):
        tracemalloc.start()
        try:
            lebesgue_fn(VPLevel(20, 10), LebesgueKind.LAMBDA, probe_grid(grid_size))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12000) / peak(3000) < 1.5  # 3.4 when the whole table was built at once


@pytest.fixture
def newton_points(monkeypatch):
    """How many (value, slope) points each of Newton's kernel sums takes."""
    points = []
    sums = operators._cosine_sums

    def counted(coeffs, rows, t):
        if coeffs.ndim == 3:
            points.append(len(t))
        return sums(coeffs, rows, t)

    monkeypatch.setattr(operators, "_cosine_sums", counted)
    return points


def test_lebesgue_integral_starts_newton_at_the_secant_point(newton_points):
    # from the secant point most roots meet their rule at the second or third evaluation;
    # from the bracket midpoints the same call took 43,970 (value, slope) points
    lebesgue_const(L136, LebesgueKind.LAMBDA, 2000)
    assert sum(newton_points) <= 36000


def test_lebesgue_fn_starts_newton_at_the_secant_point_at_every_point(newton_points):
    # the same limit as above on every point of the half grid: lebesgue_const polishes
    # only the points whose bound can reach the maximum
    lebesgue_fn(L136, LebesgueKind.LAMBDA, probe_grid(2000)[:1001])
    assert sum(newton_points) <= 36000


def test_lebesgue_const_polishes_only_points_whose_bound_reaches_the_maximum(newton_points,
                                                                            monkeypatch):
    # 34,438 (value, slope) points when every point of the half grid was polished.  4(n+m)
    # samples bound every point, the lower bound at the one with the largest bound drops most
    # of them, and the rest take 16(n+m) samples in one block and one polish call
    sampled, polished = [], []
    blocks, polish = operators._lambda_blocks, operators._lambda_polish

    def counted_blocks(level, xs, k=16):
        sampled.append((k, len(xs)))
        return blocks(level, xs, k)

    def counted_polish(b, vals):
        polished.append(len(vals))
        return polish(b, vals)

    monkeypatch.setattr(operators, "_lambda_blocks", counted_blocks)
    monkeypatch.setattr(operators, "_lambda_polish", counted_polish)
    lebesgue_const(L136, LebesgueKind.LAMBDA, 2000)
    assert sum(newton_points) <= 3000
    assert sampled[0] == (4, 1001)
    assert sum(points for k, points in sampled if k == 16) < 1001 / 2
    assert len(polished) == 1


@pytest.mark.parametrize("grid_size", [1000, 1001])
@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(5, 1), VPLevel(11, 5), VPLevel(12, 6),
                                   L136, VPLevel(22, 19), VPLevel(29, 16), VPLevel(41, 20),
                                   VPLevel(200, 100)], ids=str)
def test_lebesgue_const_is_the_largest_integral_on_the_half_grid(level, grid_size):
    # (200, 100) takes its 501 points in three blocks, and carries the maximum across them;
    # the seed point, with the largest coarse bound, is far from the maximum at (11, 5) and
    # (12, 6): points 319 and 291 against 500 and 458 at M = 1000.  A point's integral can
    # move by an ulp with the roots that share its kernel sums
    xs = probe_grid(grid_size)[: grid_size // 2 + 1]
    assert lebesgue_const(level, LebesgueKind.LAMBDA, grid_size).value == pytest.approx(
        lebesgue_fn(level, LebesgueKind.LAMBDA, xs).max(), rel=1e-15, abs=0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level=st.integers(2, 40).flatmap(
           lambda n: st.builds(VPLevel, st.just(n), st.integers(1, n - 1))),
       grid_size=st.integers(1000, 3000))
def test_lambda_bound_is_above_the_integral_at_every_probe_point(level, grid_size):
    # the upper bounds from 16(n+m) and 4(n+m) samples, and the lower bound from F samples
    xs = probe_grid(grid_size)[: grid_size // 2 + 1]
    lam = lebesgue_fn(level, LebesgueKind.LAMBDA, xs)
    for k in (16, 4):
        bound = np.concatenate([operators._lambda_bound(b, vals)
                                for b, vals in operators._lambda_blocks(level, xs, k)])
        assert np.all(bound >= lam), k
    lower = np.concatenate([operators._lambda_lower(b, vals)
                            for b, vals in operators._lambda_blocks(level, xs)])
    assert np.all(lower <= lam)


def test_lebesgue_interp_is_one_at_nodes():
    vals = lebesgue_fn(L136, LebesgueKind.LAMBDA_BAR, cheb_nodes(13))
    assert_allclose(vals, np.ones(13), rtol=0, atol=1e-11)


@pytest.mark.parametrize("n, m", [(2, 1), (5, 1), (13, 6), (40, 20), (41, 20)])
def test_lambda_tilde_and_bar_are_the_node_operators_lebesgue_functions(n, m):
    # sum_k |A e_k| on the probe grid, A the operator applied to node k's delta
    level, deltas = VPLevel(n, m), np.eye(n)
    sums = {
        LebesgueKind.LAMBDA_BAR: sum(np.abs(probe_values(vp_interp(e, level), 1000))
                                     for e in deltas),
        LebesgueKind.LAMBDA_TILDE: sum(np.abs(probe_values(
            scaling_to_cheb(discrete_proj(e, level)), 1000)) for e in deltas),
    }
    for kind, expected in sums.items():
        assert_allclose(lebesgue_fn(level, kind, probe_grid(1000)), expected, rtol=1e-13, atol=0)
        assert lebesgue_const(level, kind, 1000).value == pytest.approx(expected.max(),
                                                                       rel=1e-13, abs=0)


def test_lebesgue_node_sum_vs_integral_window():
    # two-sided pointwise equivalence; window is a pragmatic default
    xs = probe_grid(1000)
    lam = lebesgue_fn(L4020, LebesgueKind.LAMBDA, xs)
    lam_t = lebesgue_fn(L4020, LebesgueKind.LAMBDA_TILDE, xs)
    ratio = lam_t / lam
    assert ratio.min() > 0.2 and ratio.max() < 5.0


@pytest.mark.parametrize("kind", list(LebesgueKind))
def test_lebesgue_fn_keeps_the_shape_of_x(kind):
    xs = np.linspace(-0.9, 0.9, 6).reshape(2, 3)
    vals = lebesgue_fn(L136, kind, xs)
    assert vals.shape == (2, 3)
    assert_allclose(vals.ravel(), lebesgue_fn(L136, kind, xs.ravel()), rtol=1e-15, atol=0)
    scalar = lebesgue_fn(L136, kind, 0.3)
    assert type(scalar) is float
    assert scalar == pytest.approx(lebesgue_fn(L136, kind, np.array([0.3]))[0], rel=1e-15)
    assert lebesgue_fn(L136, kind, np.array([])).shape == (0,)


@pytest.mark.parametrize("grid_size", [2000, 2001])
@pytest.mark.parametrize("kind", [LebesgueKind.LAMBDA_TILDE, LebesgueKind.LAMBDA_BAR])
@pytest.mark.parametrize("level", [L136, L4020, VPLevel(5, 1)])
def test_lebesgue_fn_reaches_the_constant_on_the_probe_grid(level, kind, grid_size):
    # off the grid the function comes from V's coordinates of the p_r(x); the constant
    # from the basis rows, on the half grid's even and odd parts (even M) or whole (odd M)
    got = lebesgue_fn(level, kind, probe_grid(grid_size)).max()
    assert got == pytest.approx(lebesgue_const(level, kind, grid_size).value, rel=1e-14, abs=0)


@pytest.mark.parametrize("grid_size", [1000, 1001])
@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(3, 1), VPLevel(5, 1), L136, L4020,
                                   VPLevel(41, 20), VPLevel(400, 200), VPLevel(700, 350)],
                         ids=str)
def test_lebesgue_const_matches_the_dense_node_sum_and_interpolant(level, grid_size):
    # even and odd n: the constant sums mirrored row pairs, plus the middle row if n is odd;
    # the degrees of (400, 200) pass M/2, and those of (700, 350) pass M, so they fold
    tilde, bar = lebesgue_tables(level, grid_size)
    for kind, vals in ((LebesgueKind.LAMBDA_TILDE, tilde), (LebesgueKind.LAMBDA_BAR, bar)):
        got = lebesgue_const(level, kind, grid_size).value
        assert got == pytest.approx(vals.max(), rel=1e-13, abs=0)


@pytest.mark.parametrize("x", [np.nan, np.array([0.5, np.nan])], ids=["scalar", "array"])
@pytest.mark.parametrize("call", [lambda x: eval_p(3, x),
                                  lambda x: eval_series([1.0, 2.0], x),
                                  lambda x: lebesgue_fn(L136, "lambda", x),
                                  lambda x: proj_kernel(L136, x, 0.0),
                                  lambda x: proj_kernel(L136, 0.0, x)],
                         ids=["eval_p", "eval_series", "lebesgue_fn", "proj_kernel_x",
                              "proj_kernel_y"])
def test_nan_points_are_outside_the_domain(call, x):
    with pytest.raises(ValueError, match="outside"):
        call(x)


@pytest.mark.parametrize("x,y", [([0.2, 0.3], 0.5), ([[0.2, 0.4]], 0.5), ([0.2], 0.5),
                                 (0.2, [0.5, 0.6]), (0.2, np.array([0.5]))])
def test_proj_kernel_takes_scalar_points_only(x, y):
    # an array x used to drop every point but the first, an array y to fail in float()
    with pytest.raises(ValueError, match="must be scalars"):
        proj_kernel(L136, x, y)


def test_lebesgue_const_reports():
    for kind in LebesgueKind:
        rep = lebesgue_const(L136, kind, grid_size=1000)
        assert rep.value >= 1.0 - 1e-12
        assert rep.n == 13 and rep.m == 6 and rep.grid_size == 1000
        assert rep.quad_spec
    with pytest.raises(ValueError):
        lebesgue_const(L136, LebesgueKind.LAMBDA_BAR, grid_size=999)
    spec = lebesgue_const(L136, LebesgueKind.LAMBDA, 1000).quad_spec
    assert spec.endswith("K^2/|K'| <= 2^-53 or roundoff, at most 8 steps")


@pytest.mark.parametrize("grid_size,message", [(True, "must be an integer, got True"),
                                               (999.5, "must be an integer, got 999.5"),
                                               (2000.0, "must be an integer, got 2000.0"),
                                               (0, "must be positive, got 0"),
                                               (999, "must be at least 1000, got 999")])
def test_lebesgue_const_checks_the_grid_size_is_an_integer_first(grid_size, message):
    for kind in LebesgueKind:
        with pytest.raises(ValueError, match=f"^grid size {re.escape(message)}$"):
            lebesgue_const(L136, kind, grid_size)


def test_kinds_accept_their_string_values():
    xs = np.array([-0.3, 0.8])
    for kind in LebesgueKind:
        assert lebesgue_const(L136, kind.value, 1000) == lebesgue_const(L136, kind, 1000)
        assert_allclose(lebesgue_fn(L136, kind.value, xs), lebesgue_fn(L136, kind, xs),
                        rtol=0, atol=0)
    for kind in OperatorKind:
        assert (error_curve(np.sin, kind.value, 0.5, [12], 1000)
                == error_curve(np.sin, kind, 0.5, [12], 1000))
    with pytest.raises(ValueError):
        lebesgue_const(L136, "nonsense", 1000)
    with pytest.raises(ValueError):
        lebesgue_fn(L136, "nonsense", 0.5)
    with pytest.raises(ValueError):
        error_curve(np.sin, "nonsense", 0.5, [12], 1000)


@pytest.mark.parametrize("theta", [0.0, 1.5])
def test_error_curve_refuses_a_theta_outside_the_unit_interval(theta):
    # without the check every level would be skipped as degenerate, with a warning
    with pytest.raises(ValueError, match="theta must lie in"):
        error_curve(np.sin, "vp", theta, [10])


def test_lebesgue_conjecture_integral_below_node_sum():
    # observed ordering; recorded but non-fatal
    lam = lebesgue_const(L136, LebesgueKind.LAMBDA, grid_size=1000).value
    lam_t = lebesgue_const(L136, LebesgueKind.LAMBDA_TILDE, grid_size=1000).value
    if not lam <= lam_t + 1e-9:
        import warnings

        warnings.warn(f"ordering violated at (13, 6): {lam} > {lam_t}")


def test_discrete_norm_values():
    ones = np.ones(20)
    assert discrete_norm(ones, 1) == pytest.approx(np.pi)
    assert discrete_norm(ones, np.inf) == 1.0
    for p in (0.5, np.nan):
        with pytest.raises(ValueError):
            discrete_norm(ones, p)


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_discrete_norm_refuses_non_finite_and_malformed_samples(p):
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [10**400, 1.0]):
        with pytest.raises(ValueError, match="samples must be finite"):
            discrete_norm(bad, p)
    for bad in ([], [[1.0, 2.0]], 3.0):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            discrete_norm(bad, p)
    assert discrete_norm((1, -2), p) == discrete_norm(np.array([1.0, -2.0]), p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_discrete_norm_neither_overflows_nor_underflows(p):
    for samples in ([1e300, 2.0], [1e-200, 0.0]):
        with mpmath.workdps(40):
            exact = mpmath.root(mpmath.pi / 2 * sum(mpmath.mpf(s) ** p for s in samples), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = discrete_norm(samples, p)
        assert value == pytest.approx(float(exact), rel=1e-15, abs=0)
    assert discrete_norm([0.0, -0.0], p) == 0.0


def test_discrete_norm_comparable_with_quadrature_l1():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.standard_normal(13)
        e = scaling_to_cheb(ScalingCoeffs(L136, a))
        vals = ortho_to_values(ScalingCoeffs(L136, a))
        l1_discrete = discrete_norm(vals, 1)
        l1_quad = gauss_cheb_quad(lambda x: np.abs(eval_series(e, x)), 2000)
        ratio = l1_discrete / l1_quad
        assert 0.1 < ratio < 10.0


def test_error_curve_smooth_function():
    pts = error_curve(np.sin, OperatorKind.DISCRETE_PROJ, 0.5, [30], grid_size=2000)
    assert len(pts) == 1 and pts[0].m == 15
    assert pts[0].error < 1e-13


def test_error_curve_abs_first_order_rate():
    pts = error_curve(np.abs, OperatorKind.DISCRETE_PROJ, 0.5, [10, 30, 90],
                      grid_size=4000)
    errs = {p.n: p.error for p in pts}
    assert 2.2 < errs[10] / errs[30] < 4.0
    assert 2.2 < errs[30] / errs[90] < 4.0


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_error_curve_runge_all_operators(kind):
    runge = lambda x: 1.0 / (1.0 + 0.25 * x * x)
    pts = error_curve(runge, kind, 0.5, [30], grid_size=4000)
    assert pts[0].error < 1e-10


def test_error_curve_skips_degenerate_levels():
    with pytest.warns(UserWarning):
        pts = error_curve(np.sin, OperatorKind.DISCRETE_PROJ, 0.1, [5, 30],
                          grid_size=500)
    assert [p.n for p in pts] == [30]


@pytest.mark.parametrize("n", [10.0, "10", 10 ** 400], ids=["float", "str", "huge"])
def test_error_curve_raises_for_a_bad_resolution(n):
    # only a degenerate level is skipped: a non-integer n, or one beyond theta n's float
    # range, raises instead of leaving an empty curve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="resolution n"):
            error_curve(np.sin, OperatorKind.VP_INTERP, 0.5, [20, n], grid_size=500)


def test_error_curve_refuses_a_grid_size_that_is_not_a_positive_integer():
    # before it samples f: the first approximant at n = 2000 took 48,000 samples of f
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.sin(x)

    with pytest.raises(ValueError, match="grid size must be an integer"):
        error_curve(f, OperatorKind.FOURIER_PROJ, 0.5, [2000], grid_size="10")
    assert calls == []


def test_rough_function_operator_ordering():
    # observational: projection error ordering on |x|^0.3 at n = 90; recorded
    # via warning on violation, never fatal
    f = lambda x: np.abs(x) ** 0.3
    errs = {}
    for kind in OperatorKind:
        errs[kind] = error_curve(f, kind, 0.5, [90], grid_size=4000)[0].error
    ordered = (errs[OperatorKind.FOURIER_PROJ]
               <= errs[OperatorKind.DISCRETE_PROJ] + 1e-12
               <= errs[OperatorKind.VP_INTERP] + 2e-12)
    if not ordered:
        import warnings

        warnings.warn(f"operator ordering violated: {errs}")
    for e in errs.values():
        assert np.isfinite(e) and e > 0
