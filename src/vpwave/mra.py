"""Factor-3 multiresolution analysis: one-step splits, multilevel pyramids,
thresholding and pyramid serialization.

A coefficient vector on the level-3n approximation space splits into a
coarse scaling vector (length n) and a detail vector (length 2n) through an
orthogonal 3n x 3n map, so reconstruction is exact and energy is preserved.
Both directions run in O(n log n): the coefficients go to plain Chebyshev
form and back through the band maps and coefficient transforms of
:mod:`vpwave.bases`.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .bases import (
    DetailCoeffs,
    ScalingCoeffs,
    approx_gather,
    detail_gather,
    detail_synthesis,
    detail_to_cheb,
    detail_unscale,
    scaling_synthesis,
    scaling_to_cheb,
)
from .filters import VPLevel
from .operators import discrete_proj


class PyramidError(ValueError):
    """Inconsistent or malformed pyramid data."""


def decompose_step(fine: ScalingCoeffs) -> tuple[ScalingCoeffs, DetailCoeffs]:
    """Split level-(3n, m) scaling coefficients into level-(n, m) scaling and
    detail coefficients.  Requires 3 | 3n and m < n."""
    level3 = fine.level
    if level3.n % 3 != 0:
        raise ValueError(f"input length {level3.n} is not divisible by 3")
    n, m = level3.n // 3, level3.m
    if m >= n:
        raise ValueError(f"m={m} too large to split down to n={n}")
    level = VPLevel(n, m)
    c = scaling_to_cheb(fine)
    a = scaling_synthesis(approx_gather(c, level), level)
    b = detail_synthesis(detail_unscale(detail_gather(c, level), level), level)
    return ScalingCoeffs(level, a), DetailCoeffs(level, b)


def reconstruct_step(a: ScalingCoeffs, b: DetailCoeffs) -> ScalingCoeffs:
    """Exact inverse of decompose_step."""
    if a.level != b.level:
        raise ValueError(f"level mismatch: scaling {a.level} vs detail {b.level}")
    level3 = VPLevel(3 * a.level.n, a.level.m)
    coarse = scaling_to_cheb(a)
    c = detail_to_cheb(b)
    c[:coarse.size] += coarse
    return ScalingCoeffs(level3, scaling_synthesis(approx_gather(c, level3), level3))


# ---------------------------------------------------------------------------
# multilevel pyramids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiDecomposition:
    """Base scaling coefficients at the coarsest level plus one detail vector
    per level of the factor-3 chain, ordered coarsest first.

    All levels share one ramp parameter, fixed from the coarsest resolution
    as m = floor(theta * n0): a single m keeps every one-step split and the
    whole telescoping sum exact, which a per-level m would break (the same
    coefficient vector would be read against different bases at consecutive
    steps).  So a base level other than (n0, m), or a detail level other than
    (n0 3^i, m), raises PyramidError.
    """

    theta: float
    base: ScalingCoeffs
    details: tuple[DetailCoeffs, ...]

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))
        n = self.base.level.n
        try:
            m = pyramid_m(n, self.theta)
        except (TypeError, ValueError) as exc:
            raise PyramidError(str(exc)) from exc
        if self.base.level.m != m:
            raise PyramidError(f"base level {self.base.level} does not have m = {m} "
                               f"= floor(theta * n0) for theta = {self.theta}")
        for d in self.details:
            if d.level != VPLevel(n, m):
                raise PyramidError(f"detail level (n={d.level.n}, m={d.level.m}) breaks "
                                   f"the chain (expected ({n}, {m}))")
            n *= 3

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def top_n(self) -> int:
        return self.base.level.n * 3 ** len(self.details)


def pyramid_m(n0: int, theta: float) -> int:
    """The shared ramp parameter m = floor(theta * n0) of a pyramid based at n0."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if n0 * (1.0 - theta) <= 1.0:
        raise ValueError(f"base resolution n0={n0} too small for theta={theta} "
                         f"(need n0 > 1/(1-theta))")
    m = math.floor(theta * n0)
    if m < 1:
        raise ValueError(f"theta={theta} gives m=0 at base resolution {n0}")
    return m


def decompose_multi(samples, n0: int, levels: int, theta: float) -> MultiDecomposition:
    """Project samples taken on the Chebyshev grid of size n0 * 3**levels and
    run ``levels`` one-step splits down to the base resolution."""
    if levels < 0:
        raise ValueError(f"level count must be nonnegative, got {levels}")
    m = pyramid_m(n0, theta)
    n_top = n0 * 3 ** levels
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (n_top,):
        raise ValueError(f"expected {n_top} samples, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return _split_down(discrete_proj(samples, VPLevel(n_top, m)), levels, theta)


def reconstruct_multi(decomp: MultiDecomposition) -> ScalingCoeffs:
    """Top-level scaling coefficients; exact inverse of the pyramid stage of
    decompose_multi (not of the initial sampling projection)."""
    a = decomp.base
    for b in decomp.details:
        a = reconstruct_step(a, b)
    return a


def redecompose(top: ScalingCoeffs, decomp: MultiDecomposition) -> MultiDecomposition:
    """Run the pyramid stage on existing top-level coefficients, mirroring the
    level chain of ``decomp``."""
    if top.level.n != decomp.top_n:
        raise PyramidError(
            f"top coefficients at n={top.level.n}, pyramid expects {decomp.top_n}")
    return _split_down(top, decomp.levels, decomp.theta)


def _split_down(top: ScalingCoeffs, levels: int, theta: float) -> MultiDecomposition:
    """The pyramid stage: ``levels`` one-step splits starting from ``top``."""
    a = top
    details: list[DetailCoeffs] = []
    for _ in range(levels):
        a, b = decompose_step(a)
        details.append(b)
    details.reverse()
    return MultiDecomposition(theta, a, tuple(details))


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    kept: int
    total: int
    energy_kept: float
    energy_total: float


def _rebuild(decomp: MultiDecomposition,
             kept_details: list[np.ndarray]) -> tuple[MultiDecomposition, ThresholdReport]:
    total = sum(d.b.size for d in decomp.details)
    kept = sum(int(np.count_nonzero(nb)) for nb in kept_details)
    energy_total = sum(float(d.b @ d.b) for d in decomp.details)
    energy_kept = sum(float(nb @ nb) for nb in kept_details)
    new_details = tuple(DetailCoeffs(d.level, nb)
                        for d, nb in zip(decomp.details, kept_details))
    out = MultiDecomposition(decomp.theta, decomp.base, new_details)
    return out, ThresholdReport(kept, total, energy_kept, energy_total)


def threshold_hard(decomp: MultiDecomposition,
                   cutoff: float) -> tuple[MultiDecomposition, ThresholdReport]:
    """Zero every detail coefficient with |b| strictly below ``cutoff``."""
    if not cutoff >= 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    kept = [np.where(np.abs(d.b) < cutoff, 0.0, d.b) for d in decomp.details]
    return _rebuild(decomp, kept)


def threshold_keep_top(decomp: MultiDecomposition,
                       fraction: float) -> tuple[MultiDecomposition, ThresholdReport]:
    """Keep the top ``fraction`` of detail coefficients by magnitude
    (globally across levels, ties broken by position) and zero the rest."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    flat = np.concatenate([d.b for d in decomp.details]) if decomp.details else np.empty(0)
    keep_count = math.ceil(fraction * flat.size)
    order = np.argsort(-np.abs(flat), kind="stable")
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:keep_count]] = True
    blocks = np.split(mask, np.cumsum([d.b.size for d in decomp.details])[:-1])
    return _rebuild(decomp, [np.where(block, d.b, 0.0)
                             for block, d in zip(blocks, decomp.details)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def pyramid_to_json(decomp: MultiDecomposition) -> str:
    """JSON document for a pyramid; floats round-trip bit-exactly."""
    doc = {
        "theta": decomp.theta,
        "n0": decomp.base.level.n,
        "L": decomp.levels,
        "base": [float(x) for x in decomp.base.a],
        "details": [
            {"n": d.level.n, "m": d.level.m, "b": [float(x) for x in d.b]}
            for d in decomp.details
        ],
    }
    return json.dumps(doc, indent=1)


def pyramid_from_json(text: str) -> MultiDecomposition:
    """Parse a pyramid document, validating types, finiteness and the level chain."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PyramidError(f"malformed pyramid JSON: {exc}") from exc
    try:
        theta = _json_number(doc["theta"])
        n0 = _json_int(doc["n0"])
        levels = _json_int(doc["L"])
        base_vals = _finite_values(doc["base"])
        raw_details = doc["details"]
        if not isinstance(raw_details, list):
            raise TypeError(f"details must be a list, got {raw_details!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise PyramidError(f"pyramid document missing or mistyped fields: {exc}") from exc
    if len(raw_details) != levels:
        raise PyramidError(f"pyramid lists {len(raw_details)} details but L={levels}")
    if base_vals.shape != (n0,):
        raise PyramidError(f"base has {base_vals.size} coefficients, expected {n0}")
    try:
        m = pyramid_m(n0, theta)
    except ValueError as exc:
        raise PyramidError(str(exc)) from exc
    base = ScalingCoeffs(VPLevel(n0, m), base_vals)
    details = []
    for entry in raw_details:
        try:
            level = VPLevel(_json_int(entry["n"]), _json_int(entry["m"]))
            vals = _finite_values(entry["b"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PyramidError(f"bad detail entry: {exc}") from exc
        if vals.shape != (2 * level.n,):
            raise PyramidError(f"detail at n={level.n} has {vals.size} coefficients, "
                               f"expected {2 * level.n}")
        details.append(DetailCoeffs(level, vals))
    return MultiDecomposition(theta, base, tuple(details))


def _json_int(value) -> int:
    """A JSON integer; floats such as 5.7 (or 5.0) and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_number(value) -> int | float:
    """A JSON number; strings such as "0.5" and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _finite_values(values) -> np.ndarray:
    """Coefficients as floats; the NaN and Infinity tokens are refused."""
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("coefficients must be finite")
    return out
