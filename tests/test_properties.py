"""Property tests of the one-step split and merge over random levels (n, m),
and of the pyramid level chain against its JSON round trip."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import analysis_matrices
from util import max_dev

from vpwave.bases import DetailCoeffs, ScalingCoeffs
from vpwave.filters import VPLevel
from vpwave.mra import (
    MultiDecomposition,
    PyramidError,
    decompose_step,
    pyramid_from_json,
    pyramid_m,
    pyramid_to_json,
    reconstruct_step,
)


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


# every level gets the shared m = floor(theta * n0) (or 1 where theta gives
# none) except the one at index ``broken``, which gets ``off``; the example
# is a detail at (5, 3) over a base at (5, 2)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n0=st.integers(2, 20), theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       levels=st.integers(0, 3), broken=st.integers(-4, 3), off=st.integers(1, 19),
       seed=st.integers(0, 2**32 - 1))
@example(n0=5, theta=0.5, levels=1, broken=1, off=3, seed=0)
def test_pyramid_accepted_iff_chain_holds_and_survives_json(n0, theta, levels, broken, off, seed):
    try:
        shared = pyramid_m(n0, theta)
    except ValueError:
        shared = None
    ms = [shared or 1] * (levels + 1)
    if 0 <= broken <= levels:
        ms[broken] = min(off, n0 - 1)
    rng = np.random.default_rng(seed)
    base = ScalingCoeffs(VPLevel(n0, ms[0]), rng.standard_normal(n0))
    details = [DetailCoeffs(VPLevel(n0 * 3 ** i, m), rng.standard_normal(2 * n0 * 3 ** i))
               for i, m in enumerate(ms[1:])]
    if shared is None or any(m != shared for m in ms):
        with pytest.raises(PyramidError):
            MultiDecomposition(theta, base, details)
        return
    decomp = MultiDecomposition(theta, base, details)
    text = pyramid_to_json(decomp)
    back = pyramid_from_json(text)
    assert back.theta == theta and back.base.level == base.level
    assert np.array_equal(back.base.a, base.a)
    for d, e in zip(details, back.details, strict=True):
        assert e.level == d.level and np.array_equal(e.b, d.b)
    assert pyramid_to_json(back) == text
