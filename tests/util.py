"""Shared helpers for the test suite."""

import numpy as np

from vpwave.bases import (
    ScalingCoeffs,
    approx_basis,
    detail_basis,
    scaling_interp,
    scaling_ortho,
    wavelet_interp,
    wavelet_ortho,
)
from vpwave.chebyshev import cheb_nodes, eval_p_table
from vpwave.filters import VPLevel
from vpwave.mra import decompose_step


def quad_gram(coeffs_a, coeffs_b, n_quad):
    """Gram matrix of two expansion families (coefficient columns) under the
    Gauss-Chebyshev rule with n_quad nodes; exact when the pairwise product
    degrees stay below 2 n_quad."""
    xs = cheb_nodes(n_quad)
    va = coeffs_a.T @ eval_p_table(np.arange(coeffs_a.shape[0]), xs)
    vb = coeffs_b.T @ eval_p_table(np.arange(coeffs_b.shape[0]), xs)
    return (np.pi / n_quad) * va @ vb.T


def max_dev(actual, expected):
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def split_matrices(level):
    """(n x 3n, 2n x 3n) matrices of the fast one-step split at ``level``,
    one decompose_step per unit vector of the level-(3n, m) space."""
    fine = VPLevel(3 * level.n, level.m)
    parts = [decompose_step(ScalingCoeffs(fine, e)) for e in np.eye(fine.n)]
    return (np.column_stack([a.a for a, _ in parts]),
            np.column_stack([b.b for _, b in parts]))


def _columns(accessor, level, first, count):
    return np.column_stack([accessor(level, k) for k in range(first, first + count)])


def approx_spread(t, level):
    """A: coefficients over q_0..q_{n-1} to p-coefficients of degrees
    0..n+m-1, along the last axis of t."""
    return np.asarray(t) @ _columns(approx_basis, level, 0, level.n).T


def detail_spread(s, level):
    """B: coefficients over q~_n..q~_{3n-1} to p-coefficients of degrees
    0..3n+m-1, along the last axis of s."""
    return np.asarray(s) @ _columns(detail_basis, level, level.n, 2 * level.n).T


def scaling_interp_matrix(level):
    """(n+m) x n matrix; column k-1 is the expansion of interpolating scaling function k."""
    return _columns(scaling_interp, level, 1, level.n)


def scaling_ortho_matrix(level):
    """(n+m) x n matrix; column k-1 is the expansion of orthonormal scaling function k."""
    return _columns(scaling_ortho, level, 1, level.n)


def wavelet_interp_matrix(level):
    """(3n+m) x 2n matrix; column k-1 is the expansion of interpolating wavelet k."""
    return _columns(wavelet_interp, level, 1, 2 * level.n)


def wavelet_ortho_matrix(level):
    """(3n+m) x 2n matrix; column k-1 is the expansion of orthonormal wavelet k."""
    return _columns(wavelet_ortho, level, 1, 2 * level.n)
