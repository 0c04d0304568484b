"""Property tests of the one-step split and merge over random levels (n, m)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import analysis_matrices
from util import max_dev

from vpwave.bases import ScalingCoeffs
from vpwave.filters import VPLevel
from vpwave.mra import decompose_step, reconstruct_step


@st.composite
def levels(draw):
    n = draw(st.integers(2, 60))
    return VPLevel(n, draw(st.integers(1, n - 1)))


# the examples pin the edges m = 1 (empty ramp) and m = n - 1 (the ramp
# spans all of V but degree 0), where the band slices are empty or full
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(level=levels(), seed=st.integers(0, 2**32 - 1))
@example(level=VPLevel(2, 1), seed=0)
@example(level=VPLevel(60, 1), seed=1)
@example(level=VPLevel(60, 59), seed=2)
@example(level=VPLevel(13, 12), seed=3)
def test_split_merge_round_trip_energy_and_dense_agreement(level, seed):
    n, m = level.n, level.m
    x = np.random.default_rng(seed).standard_normal(3 * n)
    a, b = decompose_step(ScalingCoeffs(VPLevel(3 * n, m), x))
    rec = reconstruct_step(a, b)
    assert max_dev(rec.a, x) < 1e-11
    energy = float(x @ x)
    assert abs(float(a.a @ a.a + b.b @ b.b) - energy) < 1e-11 * energy
    a_mat, b_mat = analysis_matrices(level)
    assert max_dev(a.a, a_mat @ x) < 1e-11
    assert max_dev(b.b, b_mat @ x) < 1e-11
    assert max_dev(rec.a, a_mat.T @ a.a + b_mat.T @ b.b) < 1e-11
