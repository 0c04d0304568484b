"""Shared helpers for the test suite."""

import base64
import json
import struct

import numpy as np

from vpwave.bases import (
    ScalingCoeffs,
    _node_coords,
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


def _pyramid_doc(decomp, array):
    return {
        "theta": decomp.theta,
        "n0": decomp.base.level.n,
        "L": decomp.levels,
        "base": array(decomp.base.a),
        "details": [{"n": d.level.n, "m": d.level.m, "b": array(d.b)} for d in decomp.details],
    }


def f64le(values):
    """{"f64le": base64 of the values packed as little-endian float64s}, built with
    struct rather than numpy's tobytes."""
    values = [float(x) for x in values]
    return {"f64le": base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")}


def pyramid_json_oracle(decomp):
    """The pyramid document as ``json.dumps(doc, indent=1)`` renders it: the
    layout that pyramid_to_json writes without the encoder."""
    return json.dumps(_pyramid_doc(decomp, f64le), indent=1)


def legacy_pyramid_json(decomp):
    """The same document with every array as a list of decimal numbers, the form
    that earlier versions wrote and that pyramid_from_json still reads."""
    return json.dumps(_pyramid_doc(decomp, lambda a: [float(x) for x in a]), indent=1)


def _level0_pyramid(base):
    return json.dumps({"theta": 0.5, "n0": 5, "L": 0, "base": base, "details": []})


_ZEROS = f64le([0.0] * 5)["f64le"]  # the five base coefficients of a level-0 pyramid at n0 = 5

# level-0 pyramids at n0 = 5 whose base is a malformed f64le object: a number or a list as
# its value, no key, an extra key, a character outside the alphabet, a non-ASCII one, a newline
# and a space (which a lenient decoder would skip), a missing pad, one float too few, half a
# float too many, and the NaN and +inf bit patterns
BAD_F64LE_PYRAMIDS = [
    _level0_pyramid({"f64le": 0}),
    _level0_pyramid({"f64le": [0, 0, 0, 0, 0]}),
    _level0_pyramid({}),
    _level0_pyramid({"f64le": _ZEROS, "n": 5}),
    _level0_pyramid({"f64le": _ZEROS[:8] + "!" + _ZEROS[8:]}),
    _level0_pyramid({"f64le": _ZEROS[:8] + "\u00e9" + _ZEROS[8:]}),
    _level0_pyramid({"f64le": _ZEROS[:8] + "\n" + _ZEROS[8:]}),
    _level0_pyramid({"f64le": _ZEROS[:8] + " " + _ZEROS[8:]}),
    _level0_pyramid({"f64le": _ZEROS[:-1]}),
    _level0_pyramid(f64le([0.0] * 4)),
    _level0_pyramid({"f64le": base64.b64encode(bytes(44)).decode("ascii")}),
    _level0_pyramid(f64le([0.0, 0.0, float("nan"), 0.0, 0.0])),
    _level0_pyramid(f64le([0.0, 0.0, 0.0, 0.0, float("inf")])),
]


def scaling_analysis(u, level):
    """Coefficients over the unnormalized q_r of sum_k u_k (orthonormal scaling function k):
    sqrt(n/pi) times the discrete projection's node map, bases._node_coords."""
    return np.sqrt(level.n / np.pi) * _node_coords(u, level, False)


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
