"""Shared helpers for the test suite."""

import numpy as np

from vpwave.bases import ScalingCoeffs, scaling_ortho, wavelet_interp, wavelet_ortho
from vpwave.chebyshev import cheb_nodes, eval_p_table
from vpwave.filters import VPLevel
from vpwave.mra import decompose_step


def quad_gram(coeffs_a, coeffs_b, n_quad):
    """Gram matrix of two expansion families (coefficient columns) under the
    Gauss-Chebyshev rule with n_quad nodes; exact when the pairwise product
    degrees stay below 2 n_quad."""
    xs = cheb_nodes(n_quad).nodes
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


def _columns(accessor, level, count):
    return np.column_stack([accessor(level, k).coeffs for k in range(1, count + 1)])


def scaling_ortho_matrix(level):
    """(n+m) x n matrix; column k-1 is the expansion of orthonormal scaling function k."""
    return _columns(scaling_ortho, level, level.n)


def wavelet_interp_matrix(level):
    """(3n+m) x 2n matrix; column k-1 is the expansion of interpolating wavelet k."""
    return _columns(wavelet_interp, level, 2 * level.n)


def wavelet_ortho_matrix(level):
    """(3n+m) x 2n matrix; column k-1 is the expansion of orthonormal wavelet k."""
    return _columns(wavelet_ortho, level, 2 * level.n)
