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
from oracles import (approx_norms_sq, gauss_cheb_quad, lambda_bar_end_mp, lambda_mp,
                     lambda_tilde_end_mp, lebesgue_tables, remez_bracket)
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
from vpwave.functions import REGISTRY
from vpwave.mra import MultiDecomposition, decompose_multi, reconstruct_multi
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
    # the merge's top vector is held uncopied, through the same gate
    lambda: reconstruct_multi(MultiDecomposition(
        0.5, ScalingCoeffs(VPLevel(5, 2), [1.7e308] * 5),
        (DetailCoeffs(VPLevel(5, 2), [1.7e308] * 10),))),
], ids=["discrete-nan", "discrete-inf", "interp-nan", "interp-inf", "ortho-nan",
        "ortho-inf", "fourier-nan", "scaling-nan", "detail-nan", "scaling-huge-int",
        "decompose-overflow", "values-overflow", "interp-overflow", "scaling-cheb-overflow",
        "detail-cheb-overflow", "error-curve-overflow", "reconstruct-overflow"])
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


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("grid_size,degrees", [(8, 5), (1000, 20), (1000, 501), (1000, 1001),
                                               (1000, 3000), (9, 5), (1001, 20), (1001, 3000)])
def test_node_sums_are_the_row_sums_on_the_half_grid(grid_size, degrees, n):
    # sum_i |row i| over all n rows, j = 0..ceil(M/2): an even M from the half grid's even and
    # odd parts, an odd M from the whole grid, both with and without folding.  Row n-1-i is row
    # i read backwards, p_r(-x) = (-1)^r p_r(x), and the middle row (n odd) is its own mirror
    rng = np.random.default_rng(grid_size + degrees + n)
    c = rng.standard_normal((n - n // 2, degrees))
    c[n // 2:, 1::2] = 0.0  # the middle row, if any, has no odd degree
    rows = np.concatenate([c, (c[:n // 2] * (-1.0) ** np.arange(degrees))[::-1]])
    got = operators._node_sums(c, n, grid_size)
    assert got.shape == ((grid_size + 1) // 2 + 1,)
    expected = np.abs(probe_values(rows, grid_size)).sum(axis=0)[:len(got)]
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(rows).sum())


@pytest.mark.parametrize("kind", [LebesgueKind.LAMBDA_TILDE, LebesgueKind.LAMBDA_BAR])
def test_lebesgue_const_rows_take_one_buffer(kind):
    # the even and odd parts of the ceil(n/2) rows share one buffer of M/L+1 entries per row
    # (L = 2 here: the coarse grid), transformed and taken absolute in place: no second table
    # of that size, and no whole-grid table (the bound had M+1 entries per row before)
    level, grid_size = VPLevel(170, 85), 10000
    lebesgue_const(level, kind, grid_size)  # fill every cache first
    tracemalloc.start()
    try:
        lebesgue_const(level, kind, grid_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (level.n - level.n // 2) * (grid_size // 2 + 1) * 8


NODE_KINDS = (LebesgueKind.LAMBDA_TILDE, LebesgueKind.LAMBDA_BAR)
ALL_KINDS = (LebesgueKind.LAMBDA,) + NODE_KINDS


def _coarse_step(level, grid_size):
    """The largest divisor L of M that leaves M/L >= 16 (n+m-1), or 1."""
    degree = level.n + level.m - 1
    return max([1] + [k for k in range(2, grid_size + 1)
                      if grid_size % k == 0 and grid_size // k >= 16 * degree])


@pytest.mark.parametrize("grid_size, levels, kinds", [
    (10000, [VPLevel(5, 1), VPLevel(26, 13), VPLevel(30, 15), VPLevel(90, 45),
             VPLevel(170, 85), VPLevel(61, 54)], NODE_KINDS),
    (2000, [VPLevel(2, 1), VPLevel(13, 6), VPLevel(40, 20), VPLevel(47, 4)], ALL_KINDS),
    (5040, [VPLevel(7, 3), VPLevel(13, 6), VPLevel(30, 3), VPLevel(101, 50)], NODE_KINDS),
    (1001, [VPLevel(3, 1), VPLevel(5, 2), VPLevel(6, 3)], ALL_KINDS),
], ids=["10000", "2000", "5040", "1001"])  # coarse grids of odd size too: 625, 315, 77, 143
def test_lebesgue_fn_stays_under_the_bernstein_bound_between_coarse_points(grid_size, levels,
                                                                          kinds):
    # every sign pattern sum_i +-row_i, or int sigma(y) kernel(x, y) dw(y) for lambda, is a
    # cosine polynomial of degree D = n+m-1 in the angle, and at most the Lebesgue function,
    # so that rises over an interval h = pi L / M wide by at most d/(1-d) of the coarse
    # maximum above its larger end, d = (D h)^2 / 8; for lambda the ends are _lambda_bound's
    # upper bounds.  Checked against lebesgue_fn's whole grid, with a roundoff allowance of
    # 1e-13 of the maximum
    for level in levels:
        step = _coarse_step(level, grid_size)
        assert step > 1, level  # the refinement runs
        d = ((level.n + level.m - 1) * np.pi * step / grid_size) ** 2 / 8
        for kind in kinds:
            fine = lebesgue_fn(level, kind, probe_grid(grid_size))
            coarse = fine[::step]
            if kind is LebesgueKind.LAMBDA:
                coarse = np.concatenate([
                    operators._lambda_bound(b, vals)
                    for b, vals in operators._lambda_blocks(level, probe_grid(grid_size)[::step])])
            bound = (np.maximum(coarse[:-1], coarse[1:])
                     + (d / (1 - d) + 1e-13) * coarse.max())
            inner = fine[:-1].reshape(-1, step)[:, 1:]
            assert np.all(inner <= bound[:, None]), (level, kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("level, grid_size, step", [(VPLevel(22, 11), 10000, 16),
                                                    (VPLevel(5, 2), 1001, 7)])
def test_lebesgue_const_refines_no_mirror_point(monkeypatch, level, grid_size, step, kind):
    # coarse grids of 625 and 143 points: the last interval straddles x = 0, and its fine
    # points past M/2 are the mirror images of points before it, where Lambda is the same.
    # lambda-tilde and lambda-bar refine through lebesgue_fn.  lambda samples through
    # _lambda_blocks: its coarse bounds, the first call, read the straddling interval's far
    # end, but the seed and the refined points that it polishes lie on the half grid
    assert _coarse_step(level, grid_size) == step and grid_size // step % 2 == 1
    points, fn, blocks = [], operators.lebesgue_fn, operators._lambda_blocks

    def record(x):
        points.append(np.rint(np.arccos(x) * (grid_size / np.pi)))

    monkeypatch.setattr(operators, "lebesgue_fn",
                        lambda level, kind, x: record(x) or fn(level, kind, x))
    monkeypatch.setattr(operators, "_lambda_blocks",
                        lambda level, xs: record(xs) or blocks(level, xs))
    got = lebesgue_const(level, kind, grid_size).value
    if kind is LebesgueKind.LAMBDA:
        assert points[0].max() > grid_size // 2
        del points[0]
    j = np.concatenate(points)
    assert j.size and j.max() <= grid_size // 2
    top = lebesgue_fn(level, kind, probe_grid(grid_size)).max()
    assert got == pytest.approx(top, rel=1e-14, abs=0)


@pytest.mark.parametrize("level, grid_size, count", [
    (L136, 2000, 201), (VPLevel(22, 11), 10000, 314), (VPLevel(5, 2), 1001, 73),
    (VPLevel(6, 4), 1001, 502)], ids=str)
def test_lebesgue_const_takes_the_coarse_half_grid_of_the_probe_grid(monkeypatch, level,
                                                                    grid_size, count):
    # coarse grids of 400 points (L = 5), 625 (L = 16), 143 (L = 7) and, as D = 9 leaves no
    # divisor of 1001, the whole odd grid (L = 1): its half runs to ceil((M/L)/2), so 1001
    # needs 502 points, where floor(M/2)+1 would drop the last.  lambda bounds those points,
    # the probe grid's own to the bit, and the node sums are taken on the grid of M/L
    step = _coarse_step(level, grid_size)
    expected = probe_grid(grid_size)[::step][:count]
    assert count == -(-(grid_size // step) // 2) + 1
    points, sizes = [], []
    blocks, sums = operators._lambda_blocks, operators._node_sums
    monkeypatch.setattr(operators, "_lambda_blocks",
                        lambda level, xs: points.append(xs) or blocks(level, xs))
    monkeypatch.setattr(operators, "_node_sums",
                        lambda rows, n, size: sizes.append(size) or sums(rows, n, size))
    lebesgue_const(level, LebesgueKind.LAMBDA, grid_size)
    assert points[0].shape == (count,) and points[0].tobytes() == expected.tobytes()
    for kind in NODE_KINDS:
        lebesgue_const(level, kind, grid_size)
    assert sizes == [grid_size // step] * 2


def test_lebesgue_const_finds_the_maximum_between_coarse_points():
    # lambda-tilde at (13, 6) on grid 2000 is coarse at L = 5; the grid maximum, at j = 846,
    # lies between coarse points and 2.5e-4 relative above their maximum
    level, grid_size = L136, 2000
    assert _coarse_step(level, grid_size) == 5
    fine = lebesgue_fn(level, LebesgueKind.LAMBDA_TILDE, probe_grid(grid_size))
    assert np.argmax(fine) == 846 and fine.max() > fine[::5].max() * (1 + 2e-4)
    got = lebesgue_const(level, LebesgueKind.LAMBDA_TILDE, grid_size).value
    assert got == pytest.approx(fine.max(), rel=1e-14, abs=0)
    assert got > fine[::5].max()


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
    # 34,441 (value, slope) points when every point of the half grid was polished.  16(n+m)
    # samples bound the 201 points of the coarse grid (L = 5), lambda at the one with the
    # largest bound drops most intervals, and the fine points of the rest, with the coarse
    # points whose bound reaches that value, take 16(n+m) samples in one block and one polish
    # call, which takes only those whose bound reaches the maximum: 201 coarse points, 40
    # refined, 29 polished with the seed, and 940 (value, slope) points
    sampled, sizes, polished = [], [], []
    blocks, polish = operators._lambda_blocks, operators._lambda_polish

    def counted_blocks(level, xs):
        sampled.append(len(xs))
        for b, vals in blocks(level, xs):
            sizes.append(vals.shape[1] - 1)
            yield b, vals

    def counted_polish(b, vals):
        polished.append(len(vals))
        return polish(b, vals)

    monkeypatch.setattr(operators, "_lambda_blocks", counted_blocks)
    monkeypatch.setattr(operators, "_lambda_polish", counted_polish)
    lebesgue_const(L136, LebesgueKind.LAMBDA, 2000)
    assert sum(newton_points) <= 3000
    assert sizes == [16 * (L136.n + L136.m)] * 3
    assert sampled[0] == 201 and sampled[1] == 1  # the coarse grid, then its seed point
    assert sampled[2] < 1001 / 10
    assert polished[0] == 1 and len(polished) == 2 and polished[1] < sampled[2]


@pytest.mark.parametrize("grid_size", [1000, 1001])
@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(3, 2), VPLevel(5, 1), VPLevel(5, 2),
                                   VPLevel(11, 5), VPLevel(12, 6), L136, VPLevel(22, 19),
                                   VPLevel(29, 16), VPLevel(41, 20), VPLevel(200, 100)], ids=str)
def test_lebesgue_const_is_the_largest_integral_on_the_half_grid(level, grid_size):
    # (200, 100) takes its 501 points in three blocks, and carries the maximum across them;
    # the seed point, with the largest coarse bound, is far from the maximum at (11, 5) and
    # (12, 6): points 319 and 291 against 500 and 458 at M = 1000.  At M = 1001 the coarse
    # grids of (5, 2) and (3, 2) have 143 and 77 points, and the maximum lies in the last
    # interval, which straddles x = 0: a coarse half grid one point short read it 8.1e-4 and
    # 1.3e-3 low
    xs = probe_grid(grid_size)[: grid_size // 2 + 1]
    assert (lebesgue_const(level, LebesgueKind.LAMBDA, grid_size).value
            == lebesgue_fn(level, LebesgueKind.LAMBDA, xs).max())


@pytest.mark.parametrize("level, extra", [(VPLevel(2, 1), []), (L136, [399]),
                                          (VPLevel(30, 27), [553, 700]), (L4020, [])], ids=str)
def test_lambda_at_a_point_does_not_depend_on_its_batch(level, extra):
    # a point's roots were polished with one entry, alone, and with the batch's other roots
    # together, and numpy rounds an in-place complex product of one entry by another rule:
    # the extra points moved by an ulp, and point 700 is the maximiser at (30, 27)
    xs = probe_grid(2000)[:1001]
    batch = lebesgue_fn(level, LebesgueKind.LAMBDA, xs)
    for i in sorted({*range(0, len(xs), 7), *extra}):
        assert lebesgue_fn(level, LebesgueKind.LAMBDA, xs[i]) == batch[i], i


@pytest.mark.parametrize("level", [L136, VPLevel(30, 27), L4020], ids=str)
def test_lambda_degree_sums_do_not_depend_on_the_block(level):
    # numpy's sum over axis 0 takes one column pairwise and a block row by row: the bound of a
    # point alone differed in the last bit from its batched bound at 1, 3 and 5 of these points
    xs = probe_grid(2000)[:1001][::7]
    (b, vals), = operators._lambda_blocks(level, xs)
    bound = operators._lambda_bound(b, vals)
    s = np.arange(len(b))[:, None]
    terms = [np.abs, lambda c: np.abs(c * s ** 3)]  # the polish's floor and reach
    sums = [operators._degree_sum(term(b)) for term in terms]
    for j in range(len(xs)):
        col = b[:, j:j + 1].copy()
        assert operators._lambda_bound(col, vals[j:j + 1].copy())[0] == bound[j], j
        for term, total in zip(terms, sums, strict=True):
            assert operators._degree_sum(term(col))[0] == total[j], j


@pytest.mark.parametrize("level", [L136, L4020, VPLevel(10, 9)], ids=str)
def test_lambda_polish_reads_its_spacing_from_its_block(level):
    # a block sampled at 32(n+m) polishes to lebesgue_fn's integral at 16(n+m); it came
    # back 2.9-3.3x off when the polish took the spacing as pi / (16(n+m)) whatever it got
    xs = probe_grid(2000)[:1001]
    (b, _), = operators._lambda_blocks(level, xs)
    vals = probe_values(operators._kernel_sections(level, xs), 32 * (level.n + level.m))
    fine, _ = operators._lambda_polish(b, vals)
    assert_allclose(fine, lebesgue_fn(level, LebesgueKind.LAMBDA, xs), rtol=1e-14, atol=0)


@pytest.mark.parametrize("level", [VPLevel(25, 7), L136, VPLevel(2, 1)], ids=str)
def test_lambda_polish_refuses_fewer_than_16_samples_per_degree(level):
    # at 4(n+m) samples the pair test missed a root pair at (25, 7) by 8.3e-6, unwarned
    xs = probe_grid(2000)[:1001]
    for b, vals in operators._lambda_blocks(level, xs):
        with pytest.raises(ValueError, match="16 samples per degree"):
            operators._lambda_polish(b, vals[:, ::4])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level=st.integers(2, 40).flatmap(
           lambda n: st.builds(VPLevel, st.just(n), st.integers(1, n - 1))),
       grid_size=st.integers(1000, 3000))
def test_lambda_bound_is_above_the_integral_at_every_probe_point(level, grid_size):
    # the upper bounds from the 16(n+m) samples and from every 4th of them, 4(n+m)
    xs = probe_grid(grid_size)[: grid_size // 2 + 1]
    lam = lebesgue_fn(level, LebesgueKind.LAMBDA, xs)
    for k in (1, 4):
        bound = np.concatenate([operators._lambda_bound(b, vals[:, ::k])
                                for b, vals in operators._lambda_blocks(level, xs)])
        assert np.all(bound >= lam), k


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
    # off the grid the function comes from V's coordinates of the p_r(x); the constant from
    # the basis rows on the half grid: its even and odd parts (even M), or the whole grid's
    # transform read on the half (odd M)
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


# when m = theta n exactly, lambda-bar does not depend on n, and it peaks at x = 1 on
# these levels, where it has a closed form (tests/oracles); theta = 1/2 gives sqrt 2, as
# every |sin(m t_k)| is 1/sqrt 2 and sum_k csc^2(t_k/2) = 2 n^2
@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_lambda_bar_does_not_depend_on_n_at_a_fixed_ratio(theta):
    values = []
    for n in (20, 100, 1000):
        level = VPLevel(n, round(theta * n))
        values.append(lebesgue_const(level, LebesgueKind.LAMBDA_BAR).value)
        assert values[-1] == pytest.approx(lebesgue_fn(level, LebesgueKind.LAMBDA_BAR, 1.0),
                                           rel=1e-13, abs=0)
        assert values[-1] == pytest.approx(lambda_bar_end_mp(level), rel=1e-14, abs=0)
    assert values == pytest.approx([values[0]] * 3, rel=1e-13, abs=0)
    if theta == 0.5:
        assert values[0] == pytest.approx(np.sqrt(2.0), rel=1e-13, abs=0)
        assert lambda_bar_end_mp(VPLevel(1000, 500)) == np.sqrt(2.0)


END_LEVELS = [VPLevel(n, m) for n in (2, 5, 13, 20, 40) for m in sorted({1, n // 2, n - 1})]


@pytest.mark.parametrize("level", END_LEVELS + [VPLevel(30, 10)], ids=str)
def test_node_kinds_at_the_ends_meet_their_exact_forms(level):
    # at x = +-1 lambda-bar is a sum of de la Vallee Poussin means at the nodes, and
    # lambda-tilde a cosine sum weighted by each degree's weight in V (tests/oracles, in
    # mpmath, without a DCT); a constant, the maximum over a grid that holds x = 1, is at
    # least its end value
    for kind, oracle in ((LebesgueKind.LAMBDA_BAR, lambda_bar_end_mp),
                         (LebesgueKind.LAMBDA_TILDE, lambda_tilde_end_mp)):
        end = oracle(level)
        for x in (1.0, -1.0):
            assert lebesgue_fn(level, kind, x) == pytest.approx(end, rel=1e-14, abs=0)
        assert lebesgue_const(level, kind).value >= end * (1 - 1e-14)


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_lambda_bar_at_the_end_meets_its_closed_form_at_n_10000(theta):
    level = VPLevel.from_theta(10 ** 4, theta)
    assert lebesgue_fn(level, LebesgueKind.LAMBDA_BAR, 1.0) == pytest.approx(
        lambda_bar_end_mp(level), rel=1e-14, abs=0)


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
                                               (999, "must be at least 1000, got 999"),
                                               (2**70, f"{2**70} is beyond an array's length")])
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


@pytest.mark.parametrize("kind, norm", [(OperatorKind.FOURIER_PROJ, LebesgueKind.LAMBDA),
                                        (OperatorKind.DISCRETE_PROJ, LebesgueKind.LAMBDA_TILDE),
                                        (OperatorKind.VP_INTERP, LebesgueKind.LAMBDA_BAR)])
def test_error_curve_is_near_best(kind, norm):
    # V holds the polynomials of degree n-m and each operator P keeps them, so its error is at
    # most (1 + ||P||) E_{n-m}(f), E the best uniform error, bracketed on the probe grid by
    # Remez's exchange.  The closest case is vp on |x|^0.3 at n = 90: 2.28 against 2.41.
    # E is at roundoff for sin at n = 30 and 90 and for runge at n = 90
    grid, levels = 2000, [VPLevel.from_theta(n, 0.5) for n in (10, 30, 90)]
    tops = [lebesgue_const(level, norm, grid).value for level in levels]
    checked = 0
    for name, f in REGISTRY.items():
        points = error_curve(f, kind, 0.5, [level.n for level in levels], grid)
        for level, top, point in zip(levels, tops, points, strict=True):
            bracket = remez_bracket(f, level.n - level.m, grid)
            if bracket is not None:
                lower, upper = bracket
                assert upper <= 1.01 * lower, (name, level, bracket)
                assert point.error <= (1 + top) * upper, (name, level, point.error / upper, top)
                checked += 1
    assert checked == 12


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
