"""Property tests of the ramp rotation and the one-step split and merge over
random levels (n, m), of random pyramids against their inverse and the
chained one-step splits, of the pyramid level chain against its JSON round
trip, of the JSON writer against the indenting encoder, of the decimal
documents of earlier versions against the base64 ones, of the keep-top
selection against a stable sort, and of every array-taking entry point
against writing its inputs."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import analysis_matrices
from util import legacy_pyramid_json, max_dev, pyramid_json_oracle

from vpwave.bases import (DetailCoeffs, ScalingCoeffs, detail_analysis, detail_synthesis,
                          values_to_ortho)
from vpwave.filters import VPLevel, rotate
from vpwave.mra import (
    MultiDecomposition,
    PyramidError,
    _rebuild,
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
from vpwave.operators import discrete_proj, vp_interp


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


# stacked inputs, with degrees beyond the n+m that the pairs need
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(level=levels(), stack=st.lists(st.integers(1, 3), max_size=2),
       extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(level=VPLevel(2, 1), stack=[2], extra=0, seed=0)
@example(level=VPLevel(60, 59), stack=[3, 2], extra=5, seed=1)
def test_rotation_is_orthogonal_and_moves_only_the_pairs(level, stack, extra, seed):
    n, m = level.n, level.m
    x = np.random.default_rng(seed).standard_normal(tuple(stack) + (n + m + extra,))
    y = rotate(x.copy(), level)
    others = np.setdiff1d(np.arange(x.shape[-1]), np.r_[n - m + 1:n, n + 1:n + m])
    assert np.array_equal(y[..., others], x[..., others])
    energy = (x * x).sum(axis=-1)
    assert np.all(np.abs((y * y).sum(axis=-1) - energy) <= 1e-14 * energy)
    assert max_dev(rotate(y, level, inverse=True), x) <= 1e-15 * np.abs(x).max()


def _shared_m(n0, theta):
    """A pyramid's shared m = floor(theta * n0), or None where (n0, m) is no base level:
    one needs 0 < m < n0 and n0 (1 - theta) > 1."""
    m = math.floor(theta * n0)
    return m if 0 < m < n0 and n0 * (1.0 - theta) > 1.0 else None


# the pyramid keeps V's coordinates between levels; it must still invert, split
# the energy and agree with chaining the public one-step split, which passes
# through node coefficients at every level; the examples pin m = 1 and L = 0
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n0=st.integers(2, 30), levels=st.integers(0, 4),
       theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
@example(n0=3, levels=4, theta=0.5, seed=0)
@example(n0=30, levels=0, theta=0.9, seed=1)
def test_pyramid_round_trip_energy_and_chained_steps(n0, levels, theta, seed):
    m = _shared_m(n0, theta)
    if m is None:
        return
    samples = np.random.default_rng(seed).standard_normal(n0 * 3 ** levels)
    decomp = decompose_multi(samples, n0, levels, theta)
    top = reconstruct_multi(decomp)
    again = redecompose(top, decomp)
    assert max_dev(again.base.a, decomp.base.a) <= 1e-10
    for d, e in zip(decomp.details, again.details, strict=True):
        assert max_dev(e.b, d.b) <= 1e-10
    energy = float(top.a @ top.a)
    parts = float(decomp.base.a @ decomp.base.a) + sum(float(d.b @ d.b) for d in decomp.details)
    assert abs(parts - energy) <= 1e-12 * energy
    a, chained = discrete_proj(samples, VPLevel(top.level.n, m)), []
    for _ in range(levels):
        a, b = decompose_step(a)
        chained.append(b)
    tol = 1e-14 * np.abs(samples).max()
    assert max_dev(a.a, decomp.base.a) <= tol
    for d, b in zip(decomp.details, chained[::-1], strict=True):
        assert b.level == d.level and max_dev(b.b, d.b) <= tol


# every level gets the shared m = floor(theta * n0) (or 1 where theta gives
# none) except the one at index ``broken``, which gets ``off``; the example
# is a detail at (5, 3) over a base at (5, 2)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n0=st.integers(2, 20), theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       levels=st.integers(0, 3), broken=st.integers(-4, 3), off=st.integers(1, 19),
       seed=st.integers(0, 2**32 - 1))
@example(n0=5, theta=0.5, levels=1, broken=1, off=3, seed=0)
def test_pyramid_accepted_iff_chain_holds_and_survives_json(n0, theta, levels, broken, off, seed):
    shared = _shared_m(n0, theta)
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


# coefficients come from a drawn pool of finite floats that mixes in signed
# zeros, subnormals, the largest floats, 1e16 and integer-valued floats; the
# example is the m = 1 pyramid based at n0 = 3
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -7.0, 2.0 ** 53]


def _edge_pyramid(n0, theta, levels, pool, seed):
    """A pyramid with coefficients drawn from ``pool``, or None for a base level too small."""
    m = _shared_m(n0, theta)
    if m is None:
        return None
    rng = np.random.default_rng(seed)
    base = ScalingCoeffs(VPLevel(n0, m), rng.choice(pool, n0))
    details = [DetailCoeffs(VPLevel(n0 * 3 ** i, m), rng.choice(pool, 2 * n0 * 3 ** i))
               for i in range(levels)]
    return MultiDecomposition(theta, base, details)


_EDGE_PYRAMID_ARGS = dict(
    n0=st.integers(3, 12), theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    levels=st.integers(0, 3),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**_EDGE_PYRAMID_ARGS)
@example(n0=3, theta=0.5, levels=2, pool=_EDGE_FLOATS, seed=0)
def test_pyramid_json_matches_the_indenting_encoder(n0, theta, levels, pool, seed):
    decomp = _edge_pyramid(n0, theta, levels, pool, seed)
    if decomp is not None:
        assert pyramid_to_json(decomp) == pyramid_json_oracle(decomp)


def _arrays(decomp):
    return [decomp.base.a.tobytes(), *(d.b.tobytes() for d in decomp.details)]


# a decimal document of an earlier version, the base64 one and a document that mixes both
# forms (the base and every other detail decimal) parse to the same bits and write one text
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**_EDGE_PYRAMID_ARGS)
@example(n0=3, theta=0.5, levels=2, pool=_EDGE_FLOATS, seed=0)
def test_decimal_and_base64_documents_parse_alike(n0, theta, levels, pool, seed):
    decomp = _edge_pyramid(n0, theta, levels, pool, seed)
    if decomp is None:
        return
    text, legacy = pyramid_to_json(decomp), legacy_pyramid_json(decomp)
    mixed, decimal = json.loads(text), json.loads(legacy)
    mixed["base"] = decimal["base"]
    for d, e in list(zip(mixed["details"], decimal["details"]))[::2]:
        d["b"] = e["b"]
    for doc in (text, legacy, json.dumps(mixed)):
        back = pyramid_from_json(doc)
        assert _arrays(back) == _arrays(decomp)
        assert pyramid_to_json(back) == text


# integer-valued details (signed zeros included) tie often; the kept set must
# be the stable descending sort's first ceil(fraction N), ties by position
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0]),
                     min_size=130, max_size=130),
       levels=st.integers(0, 3), fraction=st.floats(0.0, 1.0, exclude_min=True))
@example(pool=[1.0] * 130, levels=3, fraction=1.0)
@example(pool=[1.0] * 130, levels=0, fraction=0.5)
def test_keep_top_matches_the_stable_sort(pool, levels, fraction):
    ends = np.cumsum([0] + [10 * 3 ** i for i in range(levels)])
    flat = np.array(pool[:ends[-1]])
    decomp = MultiDecomposition(0.5, ScalingCoeffs(VPLevel(5, 2), np.ones(5)),
                                [DetailCoeffs(VPLevel(5 * 3 ** i, 2), flat[ends[i]:ends[i + 1]])
                                 for i in range(levels)])
    keep = np.zeros(flat.size, dtype=bool)
    keep[np.argsort(-np.abs(flat), kind="stable")[:math.ceil(fraction * flat.size)]] = True
    kept = np.where(keep, flat, 0.0)
    expected = _rebuild(decomp, [kept[ends[i]:ends[i + 1]] for i in range(levels)])
    pruned, report = threshold_keep_top(decomp, fraction)
    assert report == expected[1]
    for d, e in zip(pruned.details, expected[0].details, strict=True):
        assert d.b.tobytes() == e.b.tobytes()


# the transforms overwrite only buffers that they made: every input, given writable or
# read-only, keeps its bits and its flag, and a stacked detail transform's rows are the
# single-row calls bit for bit; the examples pin m = 1 at n = 2 and m = n - 1 at n = 60
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level=levels(), seed=st.integers(0, 2**32 - 1))
@example(level=VPLevel(2, 1), seed=0)
@example(level=VPLevel(60, 59), seed=1)
def test_no_input_is_written_and_read_only_inputs_work(level, seed):
    n, m = level.n, level.m
    n0 = max(n, m + 2)  # a pyramid based at (n0, m), two levels deep
    theta = (m + 0.5) / n0
    rng = np.random.default_rng(seed)
    for writable in (True, False):
        u, stack = rng.standard_normal(2 * n), rng.standard_normal((3, 2 * n))
        samples, fine, top = (rng.standard_normal(k) for k in (n, 3 * n, 9 * n0))
        inputs = [u, stack, samples, fine, top]
        for x in inputs:
            x.setflags(write=writable)
        before = [x.copy() for x in inputs]
        for transform in (detail_analysis, detail_synthesis):
            rows = transform(stack, level)
            for row, single in zip(rows, stack, strict=True):
                assert row.tobytes() == transform(single, level).tobytes()
            transform(u, level)
        values_to_ortho(samples, level)
        discrete_proj(samples, level)
        vp_interp(samples, level)
        a, b = decompose_step(ScalingCoeffs(VPLevel(3 * n, m), fine))
        decomp = decompose_multi(top, n0, 2, theta)
        held = [a.a, b.b, decomp.base.a, *(d.b for d in decomp.details)]  # read-only
        held_before = [x.copy() for x in held]
        reconstruct_step(a, b)
        redecompose(reconstruct_multi(decomp), decomp)
        threshold_keep_top(decomp, 0.5)
        threshold_hard(decomp, 0.5)
        for x, y in zip(inputs, before, strict=True):
            assert x.tobytes() == y.tobytes() and x.flags.writeable == writable
        for x, y in zip(held, held_before, strict=True):
            assert x.tobytes() == y.tobytes()
