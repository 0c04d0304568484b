"""Factor-3 multiresolution analysis: one-step splits, multilevel pyramids,
thresholding and pyramid serialization.

A coefficient vector on the level-3n approximation space splits into a
coarse scaling vector (length n) and a detail vector (length 2n) through an
orthogonal 3n x 3n map, so reconstruction is exact and energy is preserved.
Both directions run in O(n log n).  The DCT of the fine coefficients gives
their coordinates over the orthonormal modified Chebyshev basis of level
3n; the m-1 Givens rotations of :func:`vpwave.filters.rotate` turn those
into the coordinates over V_n (degrees below n) and W_n (degrees n..3n-1).
detail_synthesis takes W_n's to the node basis.  A pyramid enters V at the
top by bases._node_coords, keeps V_n's for the next split and leaves them by
one inverse DCT at the base; a merge chain mirrors it from one DCT of the base.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .bases import (DetailCoeffs, ScalingCoeffs, _node_coords, _vector, detail_analysis,
                    detail_synthesis)
from .chebyshev import _is_integer, dct, idct
from .filters import VPLevel, rotate


class PyramidError(ValueError):
    """Inconsistent or malformed pyramid data."""


def decompose_step(fine: ScalingCoeffs) -> tuple[ScalingCoeffs, DetailCoeffs]:
    """Split level-(3n, m) scaling coefficients into level-(n, m) scaling and
    detail coefficients.  Requires 3 | 3n and m < n."""
    level3 = fine.level
    if level3.n % 3 != 0:
        raise ValueError(f"input length {level3.n} is not divisible by 3")
    if level3.m >= level3.n // 3:
        raise ValueError(f"m={level3.m} too large to split down to n={level3.n // 3}")
    a, (b,) = _split_chain(dct(fine.a), level3.m, 1)
    return a, b


def reconstruct_step(a: ScalingCoeffs, b: DetailCoeffs) -> ScalingCoeffs:
    """Exact inverse of decompose_step."""
    if a.level != b.level:
        raise ValueError(f"level mismatch: scaling {a.level} vs detail {b.level}")
    return _merge_chain(a, (b,))


def _split_chain(x: np.ndarray, m: int, levels: int) -> tuple:
    """``levels`` splits of V's orthonormal coordinates x at level (len(x), m),
    turned in place: the base scaling coefficients and the details, coarsest first."""
    details = []
    for _ in range(levels):
        level = VPLevel(len(x) // 3, m)
        details.append(DetailCoeffs(level, detail_synthesis(rotate(x, level)[level.n:], level)))
        x = x[:level.n]
    return ScalingCoeffs(VPLevel(len(x), m), idct(x)), tuple(details[::-1])


def _merge_chain(a: ScalingCoeffs, details: tuple) -> ScalingCoeffs:
    """Inverse of _split_chain from the base ``a`` up through the details."""
    x = dct(a.a)
    for b in details:
        x = rotate(np.concatenate([x, detail_analysis(b.b, b.level)]), b.level, inverse=True)
    return ScalingCoeffs(VPLevel(a.level.n * 3 ** len(details), a.level.m), idct(x))


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
    m = VPLevel.from_theta(n0, theta).m
    if n0 * (1.0 - theta) <= 1.0:
        raise ValueError(f"base resolution n0={n0} too small for theta={theta} "
                         f"(need n0 > 1/(1-theta))")
    return m


def decompose_multi(samples, n0: int, levels: int, theta: float) -> MultiDecomposition:
    """Project samples taken on the Chebyshev grid of size n0 * 3**levels and
    run ``levels`` one-step splits down to the base resolution."""
    top = VPLevel(n0 * 3 ** levels, _chain_m(n0, levels, theta))
    x = _node_coords(_vector(samples, top.n, "samples"), top, False)
    return MultiDecomposition(theta, *_split_chain(x, top.m, levels))


def _chain_m(n0: int, levels: int, theta: float) -> int:
    """The shared m of a chain of ``levels`` splits based at n0, after the
    checks that must pass before n0 * 3**levels sizes anything."""
    if not _is_integer(levels):
        raise ValueError(f"level count must be an integer, got {levels!r}")
    if levels < 0:
        raise ValueError(f"level count must be nonnegative, got {levels}")
    return pyramid_m(n0, theta)


def reconstruct_multi(decomp: MultiDecomposition) -> ScalingCoeffs:
    """Top-level scaling coefficients; exact inverse of the pyramid stage of
    decompose_multi (not of the initial sampling projection)."""
    return _merge_chain(decomp.base, decomp.details) if decomp.details else decomp.base


def redecompose(top: ScalingCoeffs, decomp: MultiDecomposition) -> MultiDecomposition:
    """Run the pyramid stage on existing top-level coefficients, mirroring the
    level chain of ``decomp`` (with no level to split, top is the base)."""
    if top.level.n != decomp.top_n:
        raise PyramidError(
            f"top coefficients at n={top.level.n}, pyramid expects {decomp.top_n}")
    if top.level.m != decomp.base.level.m:
        raise PyramidError(f"top level {top.level} and base level {decomp.base.level} differ in m")
    parts = _split_chain(dct(top.a), top.level.m, decomp.levels) if decomp.levels else (top, ())
    return MultiDecomposition(decomp.theta, *parts)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Detail coefficients kept of the total, and their energies (sums of squares)."""

    kept: int
    total: int
    energy_kept: float
    energy_total: float


def _rebuild(decomp: MultiDecomposition,
             kept_details: list[np.ndarray]) -> tuple[MultiDecomposition, ThresholdReport]:
    total = sum(d.b.size for d in decomp.details)
    kept = sum(int(np.count_nonzero(nb)) for nb in kept_details)
    # einsum, not `@`: the cost and the rounding of a BLAS dot product depend on its threads
    energy_total = sum(float(np.einsum("i,i", d.b, d.b)) for d in decomp.details)
    energy_kept = sum(float(np.einsum("i,i", nb, nb)) for nb in kept_details)
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
    mask = np.zeros(flat.size, dtype=bool)
    if keep_count:
        # the set a stable descending sort would keep, in O(N): everything
        # above the keep_count-th largest magnitude, then the first of its ties
        mag = np.abs(flat)
        cut = np.partition(mag, flat.size - keep_count)[flat.size - keep_count]
        mask = mag > cut
        mask[np.flatnonzero(mag == cut)[:keep_count - np.count_nonzero(mask)]] = True
    blocks = np.split(mask, np.cumsum([d.b.size for d in decomp.details])[:-1])
    return _rebuild(decomp, [np.where(block, d.b, 0.0)
                             for block, d in zip(blocks, decomp.details)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def pyramid_to_json(decomp: MultiDecomposition) -> str:
    """JSON document for a pyramid, laid out exactly as ``json.dumps(doc,
    indent=1)`` would but written without that pure-Python encoder; floats
    round-trip bit-exactly, and the value types hold no NaN or infinity."""
    def floats(a, pad):  # the array of a key whose line starts with pad
        return f"[{pad} ", f",{pad} ".join(map(float.__repr__, a.tolist())), f"{pad}]"
    parts = [f'{{\n "theta": {float(decomp.theta)!r},\n "n0": {int(decomp.base.level.n)},'
             f'\n "L": {decomp.levels},\n "base": ', *floats(decomp.base.a, "\n "),
             ',\n "details": [']
    for i, d in enumerate(decomp.details):
        parts += [f'{"," if i else ""}\n  {{\n   "n": {int(d.level.n)},\n   "m": {int(d.level.m)},'
                  '\n   "b": ', *floats(d.b, "\n   "), "\n  }"]
    parts.append("\n ]\n}" if decomp.details else "]\n}")
    return "".join(parts)


def pyramid_from_json(text: str) -> MultiDecomposition:
    """Parse a pyramid document, validating types, finiteness, nesting and the level chain."""
    try:
        doc = json.loads(text)
        theta = _json_number(doc["theta"])
        base = ScalingCoeffs(VPLevel.from_theta(doc["n0"], theta), _json_numbers(doc["base"]))
        entries = doc["details"]
        if not _is_integer(doc["L"]):
            raise ValueError(f"level count L must be an integer, got {doc['L']!r}")
        if not isinstance(entries, list) or len(entries) != doc["L"]:
            raise ValueError(f"details must be a list of L={doc['L']!r} entries")
        details = [DetailCoeffs(VPLevel(e["n"], e["m"]), _json_numbers(e["b"])) for e in entries]
        return MultiDecomposition(theta, base, tuple(details))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise PyramidError(f"bad pyramid document: {exc}") from exc


def _json_number(value) -> int | float:
    """A JSON number; strings such as "0.5" and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _json_numbers(values) -> list:
    """A JSON list of numbers; strings, booleans and nested lists are refused
    (the value types refuse NaN, Infinity and integers beyond the float range)."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"expected a list of numbers, got {str(values)[:40]}")
    return values
