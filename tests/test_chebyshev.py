import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import dct_matrix, gauss_cheb_quad, probe_table, series_mp

import vpwave

from vpwave.chebyshev import (
    cheb_nodes,
    dct,
    eval_p,
    eval_series,
    idct,
    probe_grid,
    probe_values,
    sup_error,
    y_nodes,
)


def test_nodes_small():
    assert_allclose(cheb_nodes(1), [0.0], atol=1e-16)
    assert_allclose(cheb_nodes(2), [math.sqrt(2) / 2, -math.sqrt(2) / 2],
                    rtol=0, atol=1e-15)


def test_nodes_decreasing_in_open_interval():
    xs = cheb_nodes(57)
    assert np.all(np.diff(xs) < 0)
    assert np.all(np.abs(xs) < 1)


def test_nodes_reject_zero():
    with pytest.raises(ValueError):
        cheb_nodes(0)


@pytest.mark.parametrize("size", [5.5, 2.0, np.float64(4.0), True, "4"])
@pytest.mark.parametrize("grid", [cheb_nodes, y_nodes, probe_grid,
                                  lambda size: probe_values([1.0, 2.0], size)],
                         ids=["cheb_nodes", "y_nodes", "probe_grid", "probe_values"])
def test_grid_sizes_must_be_integers(grid, size):
    with pytest.raises(ValueError, match="grid size"):
        grid(size)
    assert len(grid(np.int64(4))) in (4, 5, 8)


@pytest.mark.parametrize("n", [4, 13, 40])
def test_node_nesting(n):
    # node k of the n-grid is node 3k-1 of the 3n-grid, to <= 1 ulp
    coarse = cheb_nodes(n)
    fine = cheb_nodes(3 * n)
    k = np.arange(1, n + 1)
    dev = np.abs(coarse - fine[3 * k - 2])
    assert dev.max() <= np.spacing(1.0)


def test_y_nodes_interleave_and_complement():
    n = 13
    y = y_nodes(n)
    fine = cheb_nodes(3 * n)
    k = np.arange(1, n + 1)
    assert_allclose(y[0::2], fine[3 * k - 3], rtol=0, atol=0)
    assert_allclose(y[1::2], fine[3 * k - 1], rtol=0, atol=0)
    # as a set: the fine grid minus the coarse grid
    coarse = set(cheb_nodes(n))
    assert set(y) == set(fine) - coarse


def test_eval_p_values():
    assert eval_p(0, 0.3) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-15)
    for r in (1, 2, 7):
        assert eval_p(r, 1.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)
    assert eval_p(2, 0.0) == pytest.approx(-math.sqrt(2 / math.pi), abs=1e-15)


def test_eval_p_domain_errors():
    with pytest.raises(ValueError):
        eval_p(3, 1.0000001)
    with pytest.raises(ValueError):
        eval_p(-1, 0.5)


@pytest.mark.parametrize("n", [8, 13])
def test_node_reflection_identity(n):
    # p_{2n-r}(x_k) = -p_r(x_k) on the n-point grid
    xs = cheb_nodes(n)
    for r in range(1, n):
        assert_allclose(eval_p(2 * n - r, xs), -eval_p(r, xs), rtol=0, atol=1e-13)


def test_dct_all_ones():
    out = dct(np.ones(8))
    expected = np.zeros(8)
    expected[0] = math.sqrt(8)
    assert_allclose(out, expected, rtol=0, atol=1e-14)


def test_dct_idct_inverse_pair():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(27)
    assert_allclose(dct(idct(v)), v, rtol=0, atol=1e-12)
    w = rng.standard_normal(81)
    assert_allclose(idct(dct(w)), w, rtol=0, atol=1e-12)


def test_idct_impulse():
    assert_allclose(idct(np.array([1.0, 0, 0, 0])), np.full(4, 0.5), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [243, 729])
def test_fast_matches_dense(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    d = dct_matrix(n)
    assert_allclose(dct(v), d @ v, rtol=0, atol=1e-12)
    assert_allclose(idct(v), d.T @ v, rtol=0, atol=1e-12)
    # a stack of sequences is transformed along its last axis
    stack = rng.standard_normal((3, n))
    assert_allclose(dct(stack), stack @ d.T, rtol=0, atol=1e-12)
    assert_allclose(idct(stack), stack @ d, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [8, 243, 1000])
def test_dct_matrix_orthogonal(n):
    d = dct_matrix(n)
    assert np.abs(d @ d.T - np.eye(n)).max() < 1e-12


def test_fast_dct_large_row_sampled():
    # dense reference rows at N = 3e4, with exact integer angle reduction so
    # the oracle itself stays at roundoff level
    n = 30000
    rng = np.random.default_rng(3)
    v = rng.standard_normal(n)
    out = dct(v)
    k = np.arange(1, n + 1)
    for r in rng.choice(n, 12, replace=False):
        scale = math.sqrt(1.0 / n) if r == 0 else math.sqrt(2.0 / n)
        angles = (r * (2 * k - 1)) % (4 * n) * (np.pi / (2 * n))
        ref = scale * np.sum(v * np.cos(angles))
        assert abs(out[r] - ref) < 1e-12


def test_dct_rejects_empty():
    with pytest.raises(ValueError):
        dct([])
    with pytest.raises(ValueError):
        idct([])
    with pytest.raises(ValueError):
        dct(np.empty((2, 0)))
    with pytest.raises(ValueError):
        idct(1.0)


def test_quadrature_basic():
    assert gauss_cheb_quad(lambda x: np.ones_like(x), 5) == pytest.approx(math.pi)
    # analytic moment of x^2 against the weight
    assert gauss_cheb_quad(lambda x: x * x, 2) == pytest.approx(math.pi / 2)
    val = gauss_cheb_quad(lambda x: eval_p(3, x) * eval_p(3, x), 4)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_quadrature_exactness_sweep():
    # orthonormality of p_r p_s for all degrees covered by the rule
    n = 10
    for r in range(n):
        for s in range(n):
            if r + s > 2 * n - 1:
                continue
            val = gauss_cheb_quad(lambda x: eval_p(r, x) * eval_p(s, x), n)
            assert abs(val - (1.0 if r == s else 0.0)) < 1e-13


def test_quadrature_accepts_scalar_function():
    assert gauss_cheb_quad(math.cos, 40) == pytest.approx(
        gauss_cheb_quad(np.cos, 40), abs=1e-15)


def test_expansion_constant():
    for x in (-1.0, -0.2, 0.9):
        assert eval_series([math.sqrt(math.pi)], x) == pytest.approx(1.0, abs=1e-15)


def test_expansion_single_mode_matches_eval_p():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, 100)
    assert_allclose(eval_series([0, 0, 0, 0, 0, 1.0], xs), eval_p(5, xs), rtol=0, atol=1e-14)


def test_eval_series_degree_5000_matches_mpmath():
    # the terms of top degree dominate, and points near +-1 are where a
    # three-term recurrence loses most
    c = np.zeros(5001)
    c[[3, 4000, 5000]] = [0.25, 0.5, 1.0]
    xs = np.array([1.0, -1.0, 0.0, 1 - 1e-7, -(1 - 1e-5), 0.999, 0.5, 0.12345, -0.7777])
    assert_allclose(eval_series(c, xs), series_mp(c, xs), rtol=0, atol=1e-12)


def test_eval_series_batched_over_leading_axes():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((2, 3, 40))
    xs = rng.uniform(-1, 1, 7)
    out = eval_series(c, xs)
    assert out.shape == (2, 3, 7)
    assert_allclose(out[1, 2], eval_series(c[1, 2], xs), rtol=0, atol=1e-14)


@pytest.mark.parametrize("grid_size,degrees", [(1, 5), (7, 8), (50, 30), (50, 237),
                                               (1000, 1500)])
def test_probe_values_match_exact_angles(grid_size, degrees):
    # degrees >= M fold back through p_{2M-r} = p_r (237 wraps the grid twice)
    rng = np.random.default_rng(grid_size + degrees)
    c = rng.standard_normal((3, degrees))
    out = probe_values(c, grid_size)
    assert out.shape == (3, grid_size + 1)
    expected = c @ probe_table(np.arange(degrees), grid_size)
    bound = 1e-14 * np.abs(c).sum(axis=1, keepdims=True)
    assert np.all(np.abs(out - expected) <= bound)
    assert_allclose(probe_values(c[0], grid_size), out[0], rtol=0, atol=0)


def test_probe_values_reject_empty_grid():
    with pytest.raises(ValueError):
        probe_values(np.ones(3), 0)


_SERIES_DIGEST = """
import hashlib
import numpy as np
from vpwave.chebyshev import eval_series
rng = np.random.default_rng(7)
c, x = rng.standard_normal((2, 2000)), np.cos(rng.uniform(0, np.pi, 500))
print(hashlib.sha1(eval_series(c[0], x).tobytes() + eval_series(c, x).tobytes()).hexdigest())
"""


def test_eval_series_bits_do_not_depend_on_blas_threads():
    # 2000 degrees at 500 points, 1-d and stacked coefficients, in two fresh
    # processes whose BLAS runs one and two threads
    src = os.path.dirname(os.path.dirname(vpwave.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _SERIES_DIGEST], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_expansion_domain_error():
    with pytest.raises(ValueError):
        eval_series([1.0, 2.0], 1.5)


def test_sup_error_basics():
    f = np.cos
    assert sup_error(f, f, 64) == 0.0
    assert sup_error(lambda x: x, lambda x: np.zeros_like(x), 50) == pytest.approx(1.0)


def test_sup_error_monotone_under_refinement():
    # the probe grids are nested when M doubles
    f = lambda x: np.exp(x)
    g = lambda x: 1.0 + x
    vals = [sup_error(f, g, m) for m in (50, 100, 200, 400)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
