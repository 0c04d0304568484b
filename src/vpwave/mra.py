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
one inverse DCT at the base; a merge chain mirrors it from one DCT of the base,
turning V_n's and W_n's coordinates in place in each level's one 3n buffer.
"""

import binascii
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bases import (DetailCoeffs, ScalingCoeffs, _analysis_buffer, _node_coords, _own, _vector,
                    detail_synthesis)
from .chebyshev import _dct_own, _is_integer, dct, idct
from .filters import VPLevel, rotate


class PyramidError(ValueError):
    """Inconsistent or malformed pyramid data."""


def decompose_step(fine: ScalingCoeffs) -> tuple[ScalingCoeffs, DetailCoeffs]:
    """Split level-(3n, m) scaling coefficients into level-(n, m) scaling and
    detail coefficients.  Requires 3 | 3n and m < n (VPLevel(n, m) refuses the rest)."""
    if fine.level.n % 3 != 0:
        raise ValueError(f"input length {fine.level.n} is not divisible by 3")
    a, (b,) = _split_chain(dct(fine.a), fine.level.m, 1)
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
        details.append(_own(DetailCoeffs, level,
                            detail_synthesis(rotate(x, level)[level.n:], level)))
        x = x[:level.n]
    return _own(ScalingCoeffs, VPLevel(len(x), m), idct(x)), tuple(details[::-1])


def _merge_chain(a: ScalingCoeffs, details: tuple) -> ScalingCoeffs:
    """Inverse of _split_chain from the base ``a`` up through the details."""
    x = dct(a.a)
    for b in details:
        buf = _analysis_buffer(b.b, b.level.n)  # W's coordinates behind n spent entries
        buf[:b.level.n] = x
        x = rotate(buf, b.level, inverse=True)
    return _own(ScalingCoeffs, VPLevel(len(x), a.level.m), _dct_own(x, inverse=True))


# ---------------------------------------------------------------------------
# multilevel pyramids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
            m = _chain_top(n, len(self.details), self.theta).m
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


def decompose_multi(samples, n0: int, levels: int, theta: float) -> MultiDecomposition:
    """Project samples taken on the Chebyshev grid of size n0 * 3**levels and
    run ``levels`` one-step splits down to the base resolution."""
    top = _chain_top(n0, levels, theta)
    x = _node_coords(_vector(samples, top.n, "samples"), top, False)
    return MultiDecomposition(theta, *_split_chain(x, top.m, levels))


def _chain_top(n0: int, levels: int, theta: float) -> VPLevel:
    """The top level (n0 * 3**levels, m) of a chain of ``levels`` splits based at n0, all
    sharing m = floor(theta * n0), after every check that must pass before it sizes anything."""
    if not _is_integer(levels):
        raise ValueError(f"level count must be an integer, got {levels!r}")
    if levels < 0:
        raise ValueError(f"level count must be nonnegative, got {levels}")
    m = VPLevel.from_theta(n0, theta).m
    if n0 * (1.0 - theta) <= 1.0:
        raise ValueError(f"base resolution n0={n0} too small for theta={theta} "
                         f"(need n0 > 1/(1-theta))")
    # Python ints, so that no numpy scalar wraps; as 3^L > 2^L, a long L is refused unformed
    if levels >= sys.maxsize.bit_length() or int(n0) * 3 ** int(levels) > sys.maxsize:
        raise ValueError(f"level count {levels} puts n0 * 3^L beyond an array's length")
    return VPLevel(int(n0) * 3 ** int(levels), m)


def reconstruct_multi(decomp: MultiDecomposition) -> ScalingCoeffs:
    """Top-level scaling coefficients; exact inverse of the pyramid stage of
    decompose_multi (not of the initial sampling projection)."""
    return _merge_chain(decomp.base, decomp.details) if decomp.details else decomp.base


def redecompose(top: ScalingCoeffs, decomp: MultiDecomposition) -> MultiDecomposition:
    """Run the pyramid stage on existing top-level coefficients, mirroring the
    level chain of ``decomp`` (with no level to split, top is the base)."""
    n = _chain_top(decomp.base.level.n, decomp.levels, decomp.theta).n
    if top.level.n != n:
        raise PyramidError(f"top coefficients at n={top.level.n}, pyramid expects {n}")
    if top.level.m != decomp.base.level.m:
        raise PyramidError(f"top level {top.level} and base level {decomp.base.level} differ in m")
    parts = _split_chain(dct(top.a), top.level.m, decomp.levels) if decomp.levels else (top, ())
    return MultiDecomposition(decomp.theta, *parts)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Detail coefficients kept of the total, and their energies (sums of squares).  Every
    square is >= 0, so a square that overflows puts its energy beyond the float range too,
    and the energy reads inf."""

    kept: int
    total: int
    energy_kept: float
    energy_total: float


def _rebuild(decomp: MultiDecomposition,
             kept_details: list[np.ndarray]) -> tuple[MultiDecomposition, ThresholdReport]:
    total = sum(d.b.size for d in decomp.details)
    kept = sum(int(np.count_nonzero(nb)) for nb in kept_details)
    # einsum, not `@`: the cost and the rounding of a BLAS dot product depend on its threads
    energy_total = sum((float(np.einsum("i,i", d.b, d.b)) for d in decomp.details), 0.0)
    energy_kept = sum((float(np.einsum("i,i", nb, nb)) for nb in kept_details), 0.0)
    details = tuple(_own(DetailCoeffs, d.level, nb) for d, nb in zip(decomp.details, kept_details))
    return (MultiDecomposition(decomp.theta, decomp.base, details),
            ThresholdReport(kept, total, energy_kept, energy_total))


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
    mag = np.concatenate([d.b for d in decomp.details]) if decomp.details else np.empty(0)
    np.abs(mag, out=mag)  # the concatenation is a copy
    keep_count = math.ceil(fraction * mag.size)
    mask = np.zeros(mag.size, dtype=bool)
    if keep_count:
        # the set a stable descending sort would keep, in O(N): everything
        # above the keep_count-th largest magnitude, then the first of its ties
        cut = np.partition(mag, mag.size - keep_count)[mag.size - keep_count]
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
    indent=1)`` would but written without that pure-Python encoder.  Each
    coefficient array is {"f64le": RFC 4648 base64 of its little-endian float64
    bytes}, so it round-trips bit-exactly; the value types hold no NaN or infinity."""
    def f64le(a, pad):  # the array of a key whose line starts with pad
        data = binascii.b2a_base64(a.astype("<f8", copy=False).tobytes(), newline=False).decode()
        return f'{{{pad} "f64le": "{data}"{pad}}}'
    parts = [f'{{\n "theta": {float(decomp.theta)!r},\n "n0": {int(decomp.base.level.n)},'
             f'\n "L": {decomp.levels},\n "base": ', f64le(decomp.base.a, "\n "),
             ',\n "details": [']
    for i, d in enumerate(decomp.details):
        parts += [f'{"," if i else ""}\n  {{\n   "n": {int(d.level.n)},\n   "m": {int(d.level.m)},'
                  '\n   "b": ', f64le(d.b, "\n   "), "\n  }"]
    parts.append("\n ]\n}" if decomp.details else "]\n}")
    return "".join(parts)


def pyramid_from_json(text: str) -> MultiDecomposition:
    """Parse a pyramid document, validating types, finiteness, nesting and the level chain."""
    try:
        doc = json.loads(text)
        theta = _json_number(doc["theta"])
        m = _chain_top(doc["n0"], doc["L"], theta).m
        base = _own(ScalingCoeffs, VPLevel(doc["n0"], m), _json_numbers(doc["base"]))
        entries = doc["details"]
        if not isinstance(entries, list) or len(entries) != doc["L"]:
            raise ValueError(f"details must be a list of L={doc['L']!r} entries")
        return MultiDecomposition(theta, base, tuple(
            _own(DetailCoeffs, VPLevel(e["n"], e["m"]), _json_numbers(e["b"])) for e in entries))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise PyramidError(f"bad pyramid document: {exc}") from exc


def _json_number(value) -> int | float:
    """A JSON number; strings such as "0.5" and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _json_numbers(values) -> list | np.ndarray:
    """A JSON list of numbers, or an object {"f64le": base64 string} read as
    little-endian float64s without a copy; strings, booleans, nested lists, other
    keys and bad base64, whitespace and non-ASCII included, are refused (the value
    types refuse a wrong count, NaN, Infinity and integers beyond the float range)."""
    if isinstance(values, dict) and values.keys() == {"f64le"} and isinstance(values["f64le"], str):
        return np.frombuffer(binascii.a2b_base64(values["f64le"], strict_mode=True), "<f8")
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"expected a list of numbers or an f64le object, got {str(values)[:40]}")
    return values
