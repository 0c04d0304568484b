import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import analysis_matrices, detail_transform, pyramid_ld, scaling_transform
from util import (BAD_F64LE_PYRAMIDS, legacy_pyramid_json, max_dev, pyramid_json_oracle,
                  scaling_analysis, split_matrices)

from vpwave.bases import (
    DetailCoeffs,
    ScalingCoeffs,
    detail_analysis,
    detail_synthesis,
    detail_to_cheb,
    scaling_synthesis,
    scaling_to_cheb,
    values_to_ortho,
)
from vpwave.chebyshev import cheb_nodes, eval_series, probe_grid
from vpwave.filters import VPLevel
from vpwave.functions import get_function
from vpwave.mra import (
    MultiDecomposition,
    PyramidError,
    decompose_multi,
    decompose_step,
    pyramid_from_json,
    pyramid_to_json,
    reconstruct_multi,
    reconstruct_step,
    redecompose,
    threshold_hard,
    threshold_keep_top,
)
from vpwave.operators import discrete_proj, fourier_proj

L136 = VPLevel(13, 6)


def test_scaling_analysis_matches_dense():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(13)
    assert max_dev(scaling_analysis(u, L136), scaling_transform(L136) @ u) < 1e-12


def test_scaling_analysis_all_ones():
    lvl = VPLevel(8, 4)
    t = scaling_analysis(np.ones(8), lvl)
    expected = np.zeros(8)
    expected[0] = np.sqrt(8)
    assert max_dev(t, expected) < 1e-14


def test_scaling_synthesis_matches_dense_and_impulse():
    rng = np.random.default_rng(1)
    t = rng.standard_normal(13)
    assert max_dev(scaling_synthesis(t, L136), scaling_transform(L136).T @ t) < 1e-12
    impulse = np.zeros(13)
    impulse[0] = 1.0
    assert_allclose(scaling_synthesis(impulse, L136), np.full(13, 1 / np.sqrt(13)),
                    rtol=0, atol=1e-14)


def test_scaling_synthesis_linear():
    rng = np.random.default_rng(2)
    t = rng.standard_normal(13)
    assert max_dev(scaling_synthesis(3.5 * t, L136),
                   3.5 * scaling_synthesis(t, L136)) < 1e-13


def test_detail_analysis_matches_dense():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(26)
    assert max_dev(detail_analysis(u, L136), detail_transform(L136) @ u) < 1e-12


def test_detail_roundtrip_and_isometry():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(26)
    s = detail_analysis(u, L136)
    assert max_dev(detail_synthesis(s, L136), u) < 1e-12
    assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(u), abs=1e-12)


def test_detail_synthesis_impulse_gives_matrix_row():
    impulse = np.zeros(26)
    impulse[0] = 1.0  # degree r = n
    assert max_dev(detail_synthesis(impulse, L136), detail_transform(L136)[0]) < 1e-13


@pytest.mark.parametrize("transform, u", [
    (detail_analysis, np.zeros(13)),
    (scaling_synthesis, np.zeros(12)),
    (detail_synthesis, np.zeros(25)),
    (scaling_synthesis, 3.0),
    (detail_analysis, 3.0),
    (detail_synthesis, 3.0),
])
def test_transform_length_validation(transform, u):
    with pytest.raises(ValueError, match="last axis"):
        transform(u, L136)


def test_decompose_pure_coarse_content_gives_zero_detail():
    rng = np.random.default_rng(5)
    a_mat, _ = analysis_matrices(L136)
    a_coarse = rng.standard_normal(13)
    fine = ScalingCoeffs(VPLevel(39, 6), a_mat.T @ a_coarse)
    a, b = decompose_step(fine)
    assert max_dev(a.a, a_coarse) < 1e-11
    assert np.abs(b.b).max() < 1e-11


def test_decompose_energy_split():
    rng = np.random.default_rng(6)
    fine = ScalingCoeffs(VPLevel(39, 6), rng.standard_normal(39))
    a, b = decompose_step(fine)
    total = fine.a @ fine.a
    assert a.a @ a.a + b.b @ b.b == pytest.approx(total, rel=1e-11)


def test_decompose_matches_dense_matrices():
    lvl = VPLevel(27, 13)
    rng = np.random.default_rng(7)
    fine = ScalingCoeffs(VPLevel(81, 13), rng.standard_normal(81))
    a, b = decompose_step(fine)
    a_mat, b_mat = analysis_matrices(lvl)
    assert max_dev(a.a, a_mat @ fine.a) < 1e-11
    assert max_dev(b.b, b_mat @ fine.a) < 1e-11


def test_reconstruct_matches_dense_matrices():
    lvl = VPLevel(27, 13)
    rng = np.random.default_rng(8)
    a = ScalingCoeffs(lvl, rng.standard_normal(27))
    b = DetailCoeffs(lvl, rng.standard_normal(54))
    rec = reconstruct_step(a, b)
    a_mat, b_mat = analysis_matrices(lvl)
    assert max_dev(rec.a, a_mat.T @ a.a + b_mat.T @ b.b) < 1e-11


@pytest.mark.parametrize("n3", [81, 243, 729])
def test_perfect_reconstruction(n3):
    rng = np.random.default_rng(n3)
    lvl = VPLevel(n3, (n3 // 3) // 2)
    x = rng.standard_normal(n3)
    a, b = decompose_step(ScalingCoeffs(lvl, x))
    rec = reconstruct_step(a, b)
    assert np.abs(rec.a - x).max() < 1e-11
    back = decompose_step(rec)
    assert max_dev(back[0].a, a.a) < 1e-11
    assert max_dev(back[1].b, b.b) < 1e-11


def test_decompose_step_validation():
    with pytest.raises(ValueError):
        decompose_step(ScalingCoeffs(VPLevel(40, 6), np.zeros(40)))
    with pytest.raises(ValueError):  # m survives only if m < n/3
        decompose_step(ScalingCoeffs(VPLevel(39, 20), np.zeros(39)))
    with pytest.raises(ValueError):
        reconstruct_step(ScalingCoeffs(L136, np.zeros(13)),
                         DetailCoeffs(VPLevel(13, 5), np.zeros(26)))


def test_zero_detail_reconstruction_embeds_same_function():
    rng = np.random.default_rng(9)
    a = ScalingCoeffs(L136, rng.standard_normal(13))
    rec = reconstruct_step(a, DetailCoeffs(L136, np.zeros(26)))
    coarse = scaling_to_cheb(a)
    fine = scaling_to_cheb(rec)
    padded = np.zeros_like(fine)
    padded[: len(coarse)] = coarse
    assert max_dev(fine, padded) < 1e-11


@pytest.mark.parametrize("level", [VPLevel(13, 6), VPLevel(27, 13), VPLevel(81, 40)])
def test_stacked_analysis_matrices_orthogonal(level):
    a_mat, b_mat = split_matrices(level)
    q = np.vstack([a_mat, b_mat])
    assert max_dev(q @ q.T, np.eye(3 * level.n)) < 1e-11
    assert np.abs(a_mat @ b_mat.T).max() < 1e-11


def test_analysis_matrix_rows_are_two_scale_inner_products():
    from util import quad_gram, scaling_ortho_matrix

    a_mat, _ = analysis_matrices(L136)
    fine = scaling_ortho_matrix(VPLevel(39, 6))
    coarse = scaling_ortho_matrix(L136)
    gram = quad_gram(coarse, fine, 8 * 39)
    assert max_dev(gram, a_mat) < 1e-10


def test_decompose_of_polynomial_band_yields_zero_details():
    # degree <= n - m content carries no detail at all
    r = 7
    lvl_top = VPLevel(39, 6)
    from vpwave.chebyshev import eval_p

    samples = eval_p(r, cheb_nodes(39))
    a, b = decompose_step(discrete_proj(samples, lvl_top))
    assert np.abs(b.b).max() < 1e-11


def test_decompose_multi_worked_example():
    f = get_function("sin6sign")
    n_top = 64 * 3 ** 3
    samples = f(cheb_nodes(n_top))
    decomp = decompose_multi(samples, 64, 3, 0.7)
    assert decomp.base.level == VPLevel(64, 44)
    assert [d.level.n for d in decomp.details] == [64, 192, 576]
    assert [d.b.size for d in decomp.details] == [128, 384, 1152]

    top = reconstruct_multi(decomp)
    assert top.level.n == n_top

    # the pyramid inverts exactly (the initial projection is not part of it)
    again = redecompose(top, decomp)
    assert max_dev(again.base.a, decomp.base.a) < 1e-9
    for d, e in zip(decomp.details, again.details):
        assert max_dev(d.b, e.b) < 1e-9

    # energy is conserved through the orthogonal splits
    total = float(top.a @ top.a)
    parts = float(decomp.base.a @ decomp.base.a) + sum(
        float(d.b @ d.b) for d in decomp.details)
    assert parts == pytest.approx(total, rel=1e-10)


def test_decompose_multi_sum_of_parts():
    f = get_function("sin6sign")
    n_top = 64 * 3 ** 3
    samples = f(cheb_nodes(n_top))
    decomp = decompose_multi(samples, 64, 3, 0.7)
    top = reconstruct_multi(decomp)
    xs = probe_grid(2000)
    total = eval_series(scaling_to_cheb(decomp.base), xs)
    for d in decomp.details:
        total = total + eval_series(detail_to_cheb(d), xs)
    top_vals = eval_series(scaling_to_cheb(top), xs)
    assert np.abs(total - top_vals).max() < 1e-9


def test_decompose_multi_validation():
    with pytest.raises(ValueError):
        decompose_multi(np.zeros(100), 64, 1, 0.7)  # wrong sample count
    for bad in (np.nan, np.inf):
        samples = np.zeros(15)
        samples[4] = bad
        with pytest.raises(ValueError):
            decompose_multi(samples, 5, 1, 0.5)  # non-finite sample
    with pytest.raises(ValueError):
        decompose_multi(np.zeros(8), 2, 1, 0.7)  # n0 too small for theta
    with pytest.raises(ValueError):
        decompose_multi(np.zeros(12), 4, 1, 0.1)  # m = 0


@pytest.mark.parametrize("levels", [True, 2.0, 1.5])
def test_decompose_multi_level_count_must_be_an_integer(levels):
    with pytest.raises(ValueError, match="level count must be an integer"):
        decompose_multi(np.zeros(15), 5, levels, 0.5)


# the level count is checked before n0 * 3^L is formed: that power of a float count
# overflows, one of 10^9 takes minutes, and one held as a numpy integer wraps around
@pytest.mark.parametrize("n0, levels", [(81, 1e6), (81, 10**6), (81, 10**9),
                                        (5, np.int64(50)), (5, np.int64(2**62))])
def test_decompose_multi_refuses_a_top_size_beyond_an_array_at_once(n0, levels):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^level count (must be an integer, got )?{levels}"):
        decompose_multi(np.zeros(3), n0, levels, 0.5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("count, message", [(10**9, "level count 1000000000 puts n0 * 3^L"),
                                            (-1, "level count must be nonnegative, got -1"),
                                            (1.0, "level count must be an integer, got 1.0")])
def test_pyramid_from_json_checks_the_level_count_first(count, message):
    doc = {"theta": 0.5, "n0": 5, "L": count, "base": [0.0] * 5, "details": []}
    start = time.perf_counter()
    with pytest.raises(PyramidError, match=f"^bad pyramid document: {re.escape(message)}"):
        pyramid_from_json(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


def test_decompose_multi_takes_a_numpy_level_count():
    samples = np.sin(cheb_nodes(45))
    got, expected = decompose_multi(samples, 5, np.int64(2), 0.5), decompose_multi(samples, 5, 2, 0.5)
    assert got.levels == 2
    assert np.array_equal(got.base.a, expected.base.a)


def test_multi_roundtrip_three_sizes():
    rng = np.random.default_rng(10)
    for n0, levels, theta in ((5, 2, 0.5), (10, 2, 0.3), (27, 1, 0.7)):
        n_top = n0 * 3 ** levels
        samples = rng.standard_normal(n_top)
        decomp = decompose_multi(samples, n0, levels, theta)
        top = reconstruct_multi(decomp)
        again = redecompose(top, decomp)
        assert max_dev(again.base.a, decomp.base.a) < 1e-10
        for d, e in zip(decomp.details, again.details):
            assert max_dev(d.b, e.b) < 1e-10


@pytest.mark.parametrize("m", [3, 14])
def test_redecompose_refuses_a_top_with_another_m(m):
    # the pyramid's chain is (5, 2) -> (15, 2) -> (45, 2); a top at (45, m) is
    # refused before any split, whether or not (5, m) would be a level at all
    decomp = decompose_multi(np.sin(cheb_nodes(45)), 5, 2, 0.5)
    top = ScalingCoeffs(VPLevel(45, m), np.ones(45))
    with pytest.raises(PyramidError, match=r"top level .*\(n=45, m=%d\).*\(n=5, m=2\)" % m):
        redecompose(top, decomp)


def test_redecompose_refuses_a_top_of_another_size():
    decomp = decompose_multi(np.sin(cheb_nodes(45)), 5, 2, 0.5)
    top = ScalingCoeffs(VPLevel(15, 2), np.ones(15))
    with pytest.raises(PyramidError, match="top coefficients at n=15, pyramid expects 45"):
        redecompose(top, decomp)


def test_zeroed_details_reproduce_base_at_top_level():
    rng = np.random.default_rng(11)
    decomp = decompose_multi(rng.standard_normal(45), 5, 2, 0.5)
    stripped, report = threshold_hard(decomp, np.inf)
    assert report.kept == 0
    top = reconstruct_multi(stripped)
    xs = probe_grid(500)
    base_vals = eval_series(scaling_to_cheb(decomp.base), xs)
    top_vals = eval_series(scaling_to_cheb(top), xs)
    assert np.abs(base_vals - top_vals).max() < 1e-10


def test_level_zero_pyramid():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal(10)
    decomp = decompose_multi(samples, 10, 0, 0.5)
    assert decomp.details == ()
    top = reconstruct_multi(decomp)
    assert max_dev(top.a, decomp.base.a) == 0.0
    # no split: the base is discrete_proj bit for bit, and redecompose keeps it too
    assert decomp.base.a.tobytes() == discrete_proj(samples, VPLevel(10, 5)).a.tobytes()
    assert redecompose(top, decomp).base.a.tobytes() == top.a.tobytes()


@pytest.mark.parametrize("n0, levels, theta", [(5, 3, 0.5), (81, 4, 0.5), (64, 3, 0.7),
                                               (81, 6, 0.5)])
def test_pyramid_within_roundoff_of_the_long_double_oracle(n0, levels, theta):
    # the chain stays in V's coordinates between levels, so its only float64
    # roundoff is one transform in, one rotation and detail map per level, one out
    size = n0 * 3 ** levels
    for samples in (np.random.default_rng(size).standard_normal(size),
                    get_function("sin6sign")(cheb_nodes(size))):
        decomp = decompose_multi(samples, n0, levels, theta)
        top = reconstruct_multi(decomp)
        for got, values, from_samples in ((decomp, samples, True),
                                          (redecompose(top, decomp), top.a, False)):
            base, details = pyramid_ld(values, n0, levels, decomp.base.level.m, from_samples)
            assert max_dev(got.base.a, base) <= 1e-15
            for d, b in zip(got.details, details, strict=True):
                assert max_dev(d.b, b) <= 1e-15


def test_threshold_identities():
    rng = np.random.default_rng(13)
    decomp = decompose_multi(rng.standard_normal(45), 5, 2, 0.5)
    same, report = threshold_hard(decomp, 0.0)
    for d, e in zip(decomp.details, same.details):
        assert np.array_equal(d.b, e.b)
    assert report.total == 10 + 30  # details at n = 5 and n = 15
    same, report = threshold_keep_top(decomp, 1.0)
    for d, e in zip(decomp.details, same.details):
        assert np.array_equal(d.b, e.b)
    assert report.energy_kept == pytest.approx(report.energy_total)
    for cutoff in (-1.0, np.nan):
        with pytest.raises(ValueError):
            threshold_hard(decomp, cutoff)
    with pytest.raises(ValueError):
        threshold_keep_top(decomp, 0.0)


def test_threshold_energies_are_floats_without_details():
    # a pyramid with no details sums no squares: its energies read 0.0, not the integer 0
    decomp = decompose_multi(np.ones(5), 5, 0, 0.5)
    for _, report in (threshold_hard(decomp, 0.1), threshold_keep_top(decomp, 0.5)):
        assert type(report.energy_kept) is float and type(report.energy_total) is float


def test_threshold_keep_top_splits_the_global_mask_by_level():
    # reference: one global ranking, then each level's block of the mask
    rng = np.random.default_rng(21)
    decomp = decompose_multi(rng.standard_normal(5 * 27), 5, 3, 0.5)
    flat = np.concatenate([d.b for d in decomp.details])
    for fraction in (0.01, 0.3, 0.5):
        keep = np.argsort(-np.abs(flat), kind="stable")[:int(np.ceil(fraction * flat.size))]
        expected = np.zeros_like(flat)
        expected[keep] = flat[keep]
        pruned, report = threshold_keep_top(decomp, fraction)
        assert np.array_equal(np.concatenate([d.b for d in pruned.details]), expected)
        assert [d.b.size for d in pruned.details] == [10, 30, 90]
        assert report.kept == keep.size
    base_only = decompose_multi(rng.standard_normal(5), 5, 0, 0.5)
    assert threshold_keep_top(base_only, 0.5)[0].details == ()


def test_threshold_keep_top_smooth_function():
    # a smooth signal keeps its reconstruction through aggressive pruning
    samples = np.sin(6.0 * cheb_nodes(1728))
    decomp = decompose_multi(samples, 64, 3, 0.7)
    pruned, report = threshold_keep_top(decomp, 0.05)
    assert report.kept <= int(np.ceil(0.05 * report.total))
    full = reconstruct_multi(decomp)
    approx = reconstruct_multi(pruned)
    xs = probe_grid(2000)
    dev = np.abs(eval_series(scaling_to_cheb(full), xs)
                 - eval_series(scaling_to_cheb(approx), xs)).max()
    assert dev < 1e-6


def test_pyramid_json_round_trip_bit_exact():
    rng = np.random.default_rng(14)
    decomp = decompose_multi(rng.standard_normal(45), 5, 2, 0.5)
    text = pyramid_to_json(decomp)
    back = pyramid_from_json(text)
    assert np.array_equal(back.base.a, decomp.base.a)
    for d, e in zip(decomp.details, back.details):
        assert np.array_equal(d.b, e.b)
        assert d.level == e.level
    assert pyramid_to_json(back) == text


def test_value_types_compare_and_hash_by_identity():
    # a dataclass equality over the held arrays raises ValueError for two distinct instances,
    # as an array has no truth value, and its hash always raises TypeError
    decomp = decompose_multi(np.sin(np.arange(45.0)), 5, 2, 0.5)
    twin = pyramid_from_json(pyramid_to_json(decomp))
    for value, other in [(decomp, twin), (decomp.base, twin.base),
                         (decomp.details[-1], twin.details[-1])]:
        assert value == value and value != other and not value == other
        assert {value: 1, other: 2}[value] == 1
    assert np.array_equal(decomp.base.a, twin.base.a)
    assert all(np.array_equal(d.b, e.b) for d, e in zip(decomp.details, twin.details))


_PINNED_BASE = ScalingCoeffs(VPLevel(3, 1), [1.0, -0.0, 0.1])
_PINNED_DETAIL = DetailCoeffs(VPLevel(3, 1), [5e-324, 1e16, -1.7976931348623157e308,
                                              2.0, 0.5, -3.25])


# the payloads hold 1.0, -0.0, 0.1 and 5e-324, 1e16, -1.7976931348623157e308, 2.0, 0.5,
# -3.25 as little-endian float64s; the legacy texts are the decimal form earlier versions wrote
@pytest.mark.parametrize("details, expected, legacy", [
    ((), '{\n "theta": 0.5,\n "n0": 3,\n "L": 0,\n "base": {\n  "f64le": '
         '"AAAAAAAA8D8AAAAAAAAAgJqZmZmZmbk/"\n },\n "details": []\n}',
     '{\n "theta": 0.5,\n "n0": 3,\n "L": 0,\n "base": [\n  1.0,\n  -0.0,\n  0.1\n ],'
     '\n "details": []\n}'),
    ((_PINNED_DETAIL,),
     '{\n "theta": 0.5,\n "n0": 3,\n "L": 1,\n "base": {\n  "f64le": '
     '"AAAAAAAA8D8AAAAAAAAAgJqZmZmZmbk/"\n },\n "details": [\n  {\n   "n": 3,\n   "m": 1,'
     '\n   "b": {\n    "f64le": '
     '"AQAAAAAAAAAAgOA3ecNBQ////////+//AAAAAAAAAEAAAAAAAADgPwAAAAAAAArA"\n   }\n  }\n ]\n}',
     '{\n "theta": 0.5,\n "n0": 3,\n "L": 1,\n "base": [\n  1.0,\n  -0.0,\n  0.1\n ],'
     '\n "details": [\n  {\n   "n": 3,\n   "m": 1,\n   "b": [\n    5e-324,\n    1e+16,'
     '\n    -1.7976931348623157e+308,\n    2.0,\n    0.5,\n    -3.25\n   ]\n  }\n ]\n}'),
], ids=["no-details", "one-detail"])
def test_pyramid_json_pinned_layout(details, expected, legacy):
    # built without a DCT, so the text does not depend on the numpy/scipy version
    decomp = MultiDecomposition(0.5, _PINNED_BASE, details)
    assert pyramid_to_json(decomp) == expected
    assert pyramid_json_oracle(decomp) == expected
    assert legacy_pyramid_json(decomp) == legacy
    assert pyramid_to_json(pyramid_from_json(legacy)) == expected


def test_pyramid_json_takes_numpy_sizes_and_theta():
    samples = np.random.default_rng(16).standard_normal(81 * 9)
    plain = pyramid_to_json(decompose_multi(samples, 81, 2, 0.5))
    text = pyramid_to_json(decompose_multi(samples, np.int64(81), 2, np.float64(0.5)))
    assert text == plain
    assert pyramid_to_json(pyramid_from_json(text)) == text


def test_pyramid_json_refuses_non_finite_coefficients():
    # the reader refuses NaN and Infinity, and a pyramid cannot hold them
    for base, details in (([1.0, np.nan, 0.0], ()), ([1.0, 0.0, 0.0], ([0.0] * 5 + [-np.inf],))):
        with pytest.raises(ValueError, match="must be finite"):
            decomp = MultiDecomposition(0.5, ScalingCoeffs(VPLevel(3, 1), base),
                                        [DetailCoeffs(VPLevel(3, 1), b) for b in details])
            pyramid_to_json(decomp)


_BAD_PYRAMIDS = [
    "{not json",
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 6, "m": 2, "b": [0]}]}',
    # null details, non-integral sizes, non-finite tokens
    '{"theta": 0.5, "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": null}',
    '{"theta": 0.5, "n0": 5.7, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 0.5, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5.0, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": "5", "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": false, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 5.5, "m": 2, "b": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 5, "m": 2.9, "b": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}',
    '{"theta": 0.5, "n0": 5, "L": 0, "base": [0, NaN, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 5, "m": 2, "b": [0, 0, 0, -Infinity, 0, 0, 0, 0, 0, 0]}]}',
    '{"theta": NaN, "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    # a string theta, numbers too large for a float, a detail off the base m
    '{"theta": "0.5", "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 1' + '0' * 400 + ', "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 1' + '0' * 400 + ', "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 5, "m": 7, "b": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}',
    # strings, booleans and an integer too large for a float among the coefficients
    '{"theta": 0.5, "n0": 5, "L": 0, "base": [1' + '0' * 400 + ', 0, 0, 0, 0], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 0, "base": ["1", "2", "0", true, "4e0"], "details": []}',
    '{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
    '"details": [{"n": 5, "m": 2, "b": [0, 0, 0, 0, 0, 0, 0, 0, 0, false]}]}',
    # details that are not a list, an integer past the parser's digit limit
    '{"theta": 0.5, "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": {}}',
    '{"theta": 0.5, "n0": 1' + '0' * 5000 + ', "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
    # f64le objects that are malformed, hold a wrong byte count or a non-finite bit pattern
    *BAD_F64LE_PYRAMIDS,
]


def test_pyramid_json_validation():
    for text in _BAD_PYRAMIDS:
        with pytest.raises(PyramidError):
            pyramid_from_json(text)


def test_pyramid_json_refuses_deep_nesting():
    # json.loads raises RecursionError past its nesting limit, which is not a ValueError
    base = '"base": ' + "[" * 5000 + "]" * 5000
    for text in ("[" * 100000 + "]" * 100000,
                 '{"theta": 0.5, "n0": 5, "L": 0, ' + base + ', "details": []}'):
        with pytest.raises(PyramidError, match="recursion"):
            pyramid_from_json(text)


def test_pyramid_levels_take_one_buffer_each():
    # at 3n = 59049 each split and merge works in one 3n buffer that it makes, the keep-top
    # selection takes abs of its own concatenated copy in place, and the value types hold the
    # arrays made for them uncopied.  In units of one 59049-float buffer the peaks read 2.67,
    # 2.22 and 1.35; with a copy of each of those arrays they read 2.67, 3.13 and 2.00, with
    # the per-level temporaries too (the fold scale, its product, the mirror's concatenation,
    # out-of-place DCTs, the merge's concatenation) 3.00, 4.21 and 3.13
    size = 81 * 3 ** 6
    x = cheb_nodes(size)
    samples = np.sin(40 * x) + np.abs(x - 0.2) + 0.1 * np.sign(x + 0.3)
    full = decompose_multi(samples, 81, 6, 0.5)
    pruned = threshold_keep_top(full, 0.1)[0]
    reconstruct_multi(pruned)  # every cache is filled
    peaks = []
    for run in (lambda: decompose_multi(samples, 81, 6, 0.5),
                lambda: threshold_keep_top(full, 0.1), lambda: reconstruct_multi(pruned)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * size))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2.85 and peaks[1] <= 2.5 and peaks[2] <= 1.6, peaks


def test_pyramid_from_json_peak_memory():
    # at 3n = 59049 the parsed document holds the payload strings (4/3 of the arrays' bytes),
    # and each payload decodes from its string, with no ASCII copy, into the bytes that its
    # array views uncopied.  In units of one 59049-float buffer the peak reads 2.43
    size = 81 * 3 ** 6
    x = cheb_nodes(size)
    text = pyramid_to_json(decompose_multi(np.sin(40 * x) + np.abs(x - 0.2), 81, 6, 0.5))
    tracemalloc.start()
    try:
        back = pyramid_from_json(text)
        peak = tracemalloc.get_traced_memory()[1] / (8 * size)
    finally:
        tracemalloc.stop()
    assert peak <= 2.65, peak
    assert not any(a.flags.owndata for a in (back.base.a, *(d.b for d in back.details)))


def test_outputs_hold_read_only_arrays_of_their_own():
    # a value type holds an array that the library has just made without copying it: every
    # array an output holds is read-only and shares memory with no other array of that output
    # nor with the caller's input (a threshold keeps its input's read-only base as it is)
    x = cheb_nodes(5 * 3 ** 3)
    samples = np.sin(7 * x) + np.abs(x - 0.2)
    level = VPLevel(5, 2)
    full = decompose_multi(samples, 5, 3, 0.5)
    top = reconstruct_multi(full)
    held = [full.base.a, *(d.b for d in full.details)]
    outputs = [
        (full, [samples]),
        (threshold_keep_top(full, 0.3)[0].details, held[1:]),
        (threshold_hard(full, 0.1)[0].details, held[1:]),
        (top, held),
        (redecompose(top, full), [top.a]),
        (pyramid_from_json(pyramid_to_json(full)), held),
        (values_to_ortho(samples[:5], level), [samples]),
        (discrete_proj(samples[:5], level), [samples]),
        (fourier_proj(np.cos, level), []),
    ]
    for out, inputs in outputs:
        if isinstance(out, MultiDecomposition):
            out = (out.base, *out.details)
        arrays = [c.a if isinstance(c, ScalingCoeffs) else c.b
                  for c in (out if isinstance(out, tuple) else (out,))]
        assert not any(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, other) for other in arrays[i + 1:] + inputs)


def test_multidecomposition_chain_validation():
    rng = np.random.default_rng(15)
    base = ScalingCoeffs(VPLevel(5, 2), rng.standard_normal(5))
    good = DetailCoeffs(VPLevel(5, 2), rng.standard_normal(10))
    bad = DetailCoeffs(VPLevel(6, 2), rng.standard_normal(12))
    off_m = DetailCoeffs(VPLevel(5, 3), rng.standard_normal(10))
    MultiDecomposition(0.5, base, (good,))
    for theta, details in ((0.5, (bad,)), (0.5, (off_m,)), (0.7, (good,)), (0.7, ()),
                           (1.5, ()), ("0.5", ())):
        with pytest.raises(PyramidError):
            MultiDecomposition(theta, base, details)
