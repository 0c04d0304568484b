import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import approx_norms_sq, approx_scatter, detail_norms_sq, detail_scatter
from util import (
    approx_spread,
    detail_spread,
    max_dev,
    quad_gram,
    scaling_interp_matrix,
    scaling_ortho_matrix,
    wavelet_interp_matrix,
    wavelet_ortho_matrix,
)

from vpwave.bases import (
    DetailCoeffs,
    ScalingCoeffs,
    _from_v,
    _from_w,
    _to_v,
    approx_basis,
    detail_analysis,
    detail_basis,
    detail_to_cheb,
    ortho_to_values,
    scaling_analysis,
    scaling_interp,
    scaling_ortho,
    scaling_to_cheb,
    values_to_ortho,
    wavelet_interp,
    wavelet_ortho,
)
from vpwave.chebyshev import (
    cheb_nodes,
    eval_p,
    eval_p_table,
    eval_series,
    y_nodes,
)
from vpwave.filters import VPLevel

L136 = VPLevel(13, 6)
L4020 = VPLevel(40, 20)


def test_approx_basis_low_degrees_are_plain_chebyshev():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, 50)
    for r in (0, 3, 7):  # r <= n - m
        assert_allclose(eval_series(approx_basis(L136, r), xs),
                        eval_p(r, xs), rtol=0, atol=1e-14)


def test_approx_basis_at_nodes_equals_plain_chebyshev():
    # on the node grid the ramp terms cancel against the reflection identity
    xs = cheb_nodes(13)
    for r in range(13):
        assert_allclose(eval_series(approx_basis(L136, r), xs),
                        eval_p(r, xs), rtol=0, atol=1e-13)


def test_expansion_of_ramp_basis_at_a_node():
    x3 = cheb_nodes(13)[2]
    got = eval_series(approx_basis(L136, 12), x3)
    assert got == pytest.approx(eval_p(12, x3), abs=1e-12)


def test_approx_basis_orthogonality():
    q = approx_spread(np.eye(13), L136).T
    gram = quad_gram(q, q, 4 * (13 + 6))
    assert max_dev(gram, np.diag(approx_norms_sq(L136))) < 1e-12


def test_detail_basis_middle_band_is_plain_chebyshev():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, 50)
    for r in (19, 26, 33):  # n + m <= r <= 3n - m
        assert_allclose(eval_series(detail_basis(L136, r), xs),
                        eval_p(r, xs), rtol=0, atol=1e-13)


def test_detail_basis_orthogonality_and_complement():
    q = approx_spread(np.eye(13), L136).T
    qd = detail_spread(np.eye(26), L136).T
    gram = quad_gram(qd, qd, 8 * 13)
    assert max_dev(gram, np.diag(detail_norms_sq(L136))) < 1e-12
    cross = quad_gram(qd, q, 8 * 13)
    assert np.abs(cross).max() < 1e-12


@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(5, 1), VPLevel(4, 3),
                                   L136, VPLevel(60, 59)])
def test_band_maps_match_dense_scatter(level):
    # the band maps and the coordinate maps of V and W against the oracle's
    # entry-by-entry scatter, on the edges m = 1 (empty ramp) and m = n - 1
    # (ramp over all of V) too
    n, m = level.n, level.m
    a, b = approx_scatter(level), detail_scatter(level)
    v, w = a / np.sqrt(approx_norms_sq(level)), b / np.sqrt(detail_norms_sq(level))
    rng = np.random.default_rng(n + m)
    t, s = rng.standard_normal((4, n)), rng.standard_normal((4, 2 * n))
    c = rng.standard_normal((4, 3 * n + m))
    assert max_dev(approx_spread(t, level), t @ a.T) < 1e-14
    assert max_dev(detail_spread(s, level), s @ b.T) < 1e-14
    assert max_dev(_from_v(t, level), t @ v.T) < 1e-14
    assert max_dev(_to_v(c, level), c[:, :n + m] @ v) < 1e-14
    assert max_dev(_from_w(s, level), s @ w.T) < 1e-14


def test_basis_index_validation():
    with pytest.raises(ValueError):
        approx_basis(L136, 13)
    with pytest.raises(ValueError):
        detail_basis(L136, 12)
    with pytest.raises(ValueError):
        scaling_interp(L136, 0)
    with pytest.raises(ValueError):
        wavelet_ortho(L136, 27)
    # an index is an integer: not 3.5, not 13.0 (although in range), not True
    for bad in (3.5, 13.0, True):
        for build in (approx_basis, detail_basis, scaling_interp, scaling_ortho,
                      wavelet_interp, wavelet_ortho):
            with pytest.raises(ValueError, match="must be an integer"):
                build(L136, bad)
    assert np.array_equal(scaling_ortho(L136, np.int64(7)), scaling_ortho(L136, 7))


def test_interp_scaling_deltas():
    vals = scaling_interp_matrix(L136).T @ eval_p_table(np.arange(19), cheb_nodes(13))
    assert max_dev(vals, np.eye(13)) < 1e-12


@pytest.mark.parametrize("level", [L136, VPLevel(40, 20), VPLevel(41, 20), VPLevel(2, 1)],
                         ids=str)
def test_interp_scaling_mirror(level):
    # x_{n+1-k} = -x_k and p_r(-x) = (-1)^r p_r(x): function n+1-k is function k at -x,
    # which lebesgue_const's lambda-bar and lambda-tilde rows rely on
    n = level.n
    sign = (-1.0) ** np.arange(n + level.m)
    for k in range(1, n + 1):
        assert max_dev(scaling_interp(level, n + 1 - k), sign * scaling_interp(level, k)) < 1e-14


def test_interp_scaling_partition_of_unity():
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1, 1, 100)
    vals = scaling_interp_matrix(L136).T @ eval_p_table(np.arange(19), xs)
    assert_allclose(vals.sum(axis=0), np.ones(100), rtol=0, atol=1e-13)


def test_interp_scaling_change_of_basis_form():
    # (pi/n) sum_r p_r(x_k) q_r(x) reproduces the direct expansion
    n = 13
    nodes = cheb_nodes(n)
    table = eval_p_table(np.arange(n), nodes)
    alt = approx_scatter(L136) @ ((np.pi / n) * table)
    assert max_dev(alt, scaling_interp_matrix(L136)) < 1e-12


def test_ortho_scaling_gram_identity():
    gram = quad_gram(scaling_ortho_matrix(L136), scaling_ortho_matrix(L136), 4 * 19)
    assert max_dev(gram, np.eye(13)) < 1e-11


def test_ortho_scaling_interp_expansion_form():
    # expansion over the interpolating family with Darboux-kernel weights
    n = 13
    nodes = cheb_nodes(n)
    table = eval_p_table(np.arange(n), nodes)
    weights = (table / np.sqrt(approx_norms_sq(L136))[:, None])
    mix = np.sqrt(np.pi / n) * (weights.T @ table)  # entry (k, h)
    alt = scaling_interp_matrix(L136) @ mix.T
    assert max_dev(alt, scaling_ortho_matrix(L136)) < 1e-11


def test_ortho_scaling_is_not_interpolating():
    nodes = cheb_nodes(13)
    diag = np.array([eval_series(scaling_ortho(L136, k), nodes[k - 1])
                     for k in range(1, 14)])
    assert np.abs(diag - 1.0).max() > 0.01


def test_interp_wavelet_deltas():
    y = y_nodes(13)
    vals = wavelet_interp_matrix(L136).T @ eval_p_table(np.arange(45), y)
    assert max_dev(vals, np.eye(26)) < 1e-11


def test_interp_wavelet_orthogonal_to_scaling():
    cross = quad_gram(wavelet_interp_matrix(L136), scaling_ortho_matrix(L136), 8 * 13)
    assert np.abs(cross).max() < 1e-11


def test_interp_wavelet_localization():
    y = y_nodes(13)
    xs = np.cos(np.linspace(0, np.pi, 4001))
    vals = np.abs(eval_series(wavelet_interp(L136, 4), xs))
    peak = xs[np.argmax(vals)]
    spacing = max(abs(y[3] - y[2]), abs(y[4] - y[3]))
    assert abs(peak - y[3]) <= 2 * spacing


def test_ortho_wavelet_gram_identity():
    gram = quad_gram(wavelet_ortho_matrix(L136), wavelet_ortho_matrix(L136), 8 * 13)
    assert max_dev(gram, np.eye(26)) < 1e-11


def test_ortho_wavelet_orthogonal_to_scaling():
    cross = quad_gram(wavelet_ortho_matrix(L136), scaling_ortho_matrix(L136), 8 * 13)
    assert np.abs(cross).max() < 1e-11


def test_detail_expansion_support():
    # nothing below degree n-m+1 (vanishing moments); content up to 3n+m-1
    n, m = 13, 6
    mat = wavelet_ortho_matrix(L136)
    assert mat.shape == (3 * n + m, 2 * n)
    assert np.abs(mat[: n - m + 1]).max() == 0.0
    assert np.abs(mat[3 * n:]).max() > 0.0


@pytest.mark.parametrize("level", [L136, L4020])
def test_gram_identities_more_levels(level):
    n, m = level.n, level.m
    g1 = quad_gram(scaling_ortho_matrix(level), scaling_ortho_matrix(level), 4 * (n + m))
    assert max_dev(g1, np.eye(n)) < 1e-11
    g2 = quad_gram(wavelet_ortho_matrix(level), wavelet_ortho_matrix(level), 8 * n)
    assert max_dev(g2, np.eye(2 * n)) < 1e-11


def test_scaling_to_cheb_matches_pointwise_basis():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 100)
    for k in (1, 7, 13):
        coeffs = np.zeros(13)
        coeffs[k - 1] = 1.0
        e = scaling_to_cheb(ScalingCoeffs(L136, coeffs))
        assert_allclose(eval_series(e, xs),
                        eval_series(scaling_ortho(L136, k), xs),
                        rtol=0, atol=1e-12)


def test_scaling_roundtrip_of_low_degree_content():
    # degrees up to n - m lie in the space exactly; sampling and re-expanding
    # reproduces them
    for r in range(8):
        target = np.zeros(19)
        target[r] = 1.0
        samples = eval_p(r, cheb_nodes(13))
        e = scaling_to_cheb(values_to_ortho(samples, L136))
        assert max_dev(e, target) < 1e-14


def test_scaling_to_cheb_preserves_energy():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(13)
    e = scaling_to_cheb(ScalingCoeffs(L136, a))
    gram = quad_gram(e[:, None], e[:, None], 4 * 19)
    assert gram[0, 0] == pytest.approx(a @ a, abs=1e-12)


def test_detail_to_cheb_matches_pointwise_basis():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, 100)
    for k in (1, 12, 26):
        coeffs = np.zeros(26)
        coeffs[k - 1] = 1.0
        e = detail_to_cheb(DetailCoeffs(L136, coeffs))
        assert_allclose(eval_series(e, xs),
                        eval_series(wavelet_ortho(L136, k), xs),
                        rtol=0, atol=1e-12)


def test_detail_to_cheb_preserves_energy_and_moment_band():
    rng = np.random.default_rng(6)
    b = rng.standard_normal(26)
    e = detail_to_cheb(DetailCoeffs(L136, b))
    gram = quad_gram(e[:, None], e[:, None], 8 * 13)
    assert gram[0, 0] == pytest.approx(b @ b, abs=1e-12)
    assert np.abs(e[: 13 - 6]).max() == 0.0


def test_values_to_ortho_dense_triple_sum():
    # dense oracle: (pi/n)^{3/2} sum_h f(x_h) sum_r sqrt(norm_r) p_r(x_k) p_r(x_h)
    n, m = 13, 6
    rng = np.random.default_rng(7)
    f = rng.standard_normal(n)
    table = eval_p_table(np.arange(n), cheb_nodes(n))
    root_norms = np.sqrt(approx_norms_sq(L136))
    dense = np.empty(n)
    for k in range(n):
        acc = 0.0
        for h in range(n):
            acc += f[h] * np.sum(root_norms * table[:, k] * table[:, h])
        dense[k] = (np.pi / n) ** 1.5 * acc
    assert max_dev(values_to_ortho(f, L136).a, dense) < 1e-12


def test_values_ortho_roundtrips():
    rng = np.random.default_rng(8)
    f = rng.standard_normal(40)
    c = values_to_ortho(f, L4020)
    assert max_dev(ortho_to_values(c), f) < 1e-12
    a = rng.standard_normal(40)
    back = values_to_ortho(ortho_to_values(ScalingCoeffs(L4020, a)), L4020)
    assert max_dev(back.a, a) < 1e-12


def test_constant_samples_give_constant_function():
    c = values_to_ortho(np.ones(13), L136)
    e = scaling_to_cheb(c)
    assert e[0] == pytest.approx(np.sqrt(np.pi), abs=1e-14)
    assert np.abs(e[1:]).max() < 1e-14


def test_ortho_to_values_impulse_gives_basis_values():
    nodes = cheb_nodes(13)
    for k in (1, 6, 13):
        coeffs = np.zeros(13)
        coeffs[k - 1] = 1.0
        vals = ortho_to_values(ScalingCoeffs(L136, coeffs))
        expected = eval_series(scaling_ortho(L136, k), nodes)
        assert max_dev(vals, expected) < 1e-12


def test_ortho_to_values_linearity():
    rng = np.random.default_rng(9)
    c1, c2 = rng.standard_normal((2, 13))
    lhs = ortho_to_values(ScalingCoeffs(L136, 2.0 * c1 + 0.5 * c2))
    rhs = (2.0 * ortho_to_values(ScalingCoeffs(L136, c1))
           + 0.5 * ortho_to_values(ScalingCoeffs(L136, c2)))
    assert max_dev(lhs, rhs) < 1e-13


def test_coefficient_container_validation():
    with pytest.raises(ValueError):
        ScalingCoeffs(L136, np.zeros(12))
    with pytest.raises(ValueError):
        DetailCoeffs(L136, np.zeros(13))
    with pytest.raises(ValueError):
        values_to_ortho(np.zeros(14), L136)


def test_coefficient_containers_own_their_arrays():
    # the caller's array stays writable, and writes to it (or to the array a
    # view came from) do not reach the stored, read-only copy
    x = np.arange(13.0)
    c = ScalingCoeffs(L136, x)
    x[0] = 9.0
    assert c.a[0] == 0.0 and not c.a.flags.writeable
    big = np.arange(40.0)
    d = DetailCoeffs(L136, big[:26])
    big[:] = -1.0
    assert np.array_equal(d.b, np.arange(26.0)) and not d.b.flags.writeable


def test_change_of_basis_forward_backward_identity():
    # node-values <-> orthonormal coefficients are mutually inverse matrices
    n = 13
    fwd = np.column_stack([values_to_ortho(col, L136).a for col in np.eye(n)])
    bwd = np.column_stack([ortho_to_values(ScalingCoeffs(L136, col)) for col in np.eye(n)])
    assert max_dev(fwd @ bwd, np.eye(n)) < 1e-11


@pytest.mark.parametrize("level", [VPLevel(2, 1), VPLevel(5, 1), L136, VPLevel(13, 12),
                                   VPLevel(40, 20), VPLevel(41, 30)], ids=str)
def test_coefficient_transforms_map_to_the_modified_chebyshev_bases(level):
    # scaling_analysis: over the unnormalized q_r; detail_analysis: over q~_r/||q~_r||
    n = level.n
    rng = np.random.default_rng(n + level.m)
    a, b = rng.standard_normal(n), rng.standard_normal(2 * n)
    q = np.array([approx_basis(level, r) for r in range(n)])
    qt = np.array([detail_basis(level, r) for r in range(n, 3 * n)])
    qt /= np.linalg.norm(qt, axis=1, keepdims=True)
    assert max_dev(scaling_to_cheb(ScalingCoeffs(level, a)), scaling_analysis(a, level) @ q) < 1e-14
    assert max_dev(detail_to_cheb(DetailCoeffs(level, b)), detail_analysis(b, level) @ qt) < 1e-14
