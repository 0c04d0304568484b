"""Spans around vpwave's public functions, recorded from outside the package.

``install`` replaces each traced function at every module attribute bound to
it (vpwave's modules import names directly, so ``vpwave.mra.scaling_analysis``
is wrapped as well as ``vpwave.bases.scaling_analysis``).  A span is
[name, start, end, parent index, size]; spans stay in memory and are written
out when the worker exits.  ``layer_metrics`` turns the spans of one pass
into the per-layer metrics.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.finished = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, size: int = 0) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = size
        self.stack.pop()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        self.finished.append(spans)
        return spans

    def wrap(self, fn, name, size):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, _safe_size(size, args, result))
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for phase, spans in enumerate(self.finished):
                for span in spans:
                    fh.write(json.dumps([phase] + span) + "\n")


def _safe_size(size, args, result) -> int:
    if size is None:
        return 0
    try:
        return int(size(args, result))
    except (TypeError, ValueError, AttributeError, IndexError):
        return 0


def _length(args, result):
    return np.size(args[0])


def _cells(args, result):
    return np.size(args[0]) * np.size(args[1])


def _lebesgue_name(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return f"operators.lebesgue.{kind.value}"


# (module, function, span name, size of one call)
TARGETS = [
    ("chebyshev", "dct", "chebyshev.dct", _length),
    ("chebyshev", "idct", "chebyshev.dct", _length),
    ("chebyshev", "eval_series", "chebyshev.eval_series", _cells),
    ("chebyshev", "eval_p_table", "chebyshev.eval_p_table", _cells),
    ("filters", "lowpass_weights", "filters.family", None),
    ("filters", "scaling_norms_sq", "filters.family", None),
    ("filters", "detail_norms_sq", "filters.family", None),
    ("filters", "scaling_transform", "filters.dense_transform", None),
    ("filters", "detail_transform", "filters.dense_transform", None),
    ("filters", "wavelet_interp_weights", "filters.dense_transform", None),
    ("bases", "scaling_analysis", "bases.scaling_analysis", _length),
    ("bases", "scaling_synthesis", "bases.scaling_synthesis", _length),
    ("bases", "detail_analysis", "bases.detail_analysis", _length),
    ("bases", "detail_synthesis", "bases.detail_synthesis", _length),
    ("bases", "approx_scatter", "bases.basis_matrix", None),
    ("bases", "detail_scatter", "bases.basis_matrix", None),
    ("bases", "scaling_interp_matrix", "bases.basis_matrix", None),
    ("bases", "scaling_ortho_matrix", "bases.basis_matrix", None),
    ("bases", "wavelet_interp_matrix", "bases.basis_matrix", None),
    ("bases", "wavelet_ortho_matrix", "bases.basis_matrix", None),
    ("bases", "scaling_to_cheb", "bases.to_cheb", None),
    ("bases", "detail_to_cheb", "bases.to_cheb", None),
    ("operators", "fourier_proj", "operators.fourier_proj", None),
    ("operators", "discrete_proj", "operators.discrete_proj", None),
    ("operators", "vp_interp", "operators.vp_interp", None),
    ("operators", "lebesgue_const", _lebesgue_name, None),
    ("mra", "decompose_step", "mra.decompose_step", lambda a, r: a[0].level.n),
    ("mra", "reconstruct_step", "mra.reconstruct_step", lambda a, r: 3 * a[0].level.n),
    ("mra", "decompose_multi", "mra.pyramid", None),
    ("mra", "reconstruct_multi", "mra.pyramid", None),
    ("mra", "redecompose", "mra.redecompose", None),
    ("mra", "threshold_keep_top", "mra.threshold", None),
    ("mra", "threshold_hard", "mra.threshold", None),
    ("mra", "pyramid_to_json", "mra.to_json", lambda a, r: len(r)),
    ("mra", "pyramid_from_json", "mra.from_json", None),
]

# per-pass time metric -> the span name whose outermost durations it sums
TIME_METRICS = {
    "chebyshev.dct_s": "chebyshev.dct",
    "chebyshev.eval_series_s": "chebyshev.eval_series",
    "chebyshev.eval_p_table_s": "chebyshev.eval_p_table",
    "filters.family_s": "filters.family",
    "filters.dense_transform_s": "filters.dense_transform",
    "bases.scaling_analysis_s": "bases.scaling_analysis",
    "bases.scaling_synthesis_s": "bases.scaling_synthesis",
    "bases.detail_analysis_s": "bases.detail_analysis",
    "bases.detail_synthesis_s": "bases.detail_synthesis",
    "bases.basis_matrix_s": "bases.basis_matrix",
    "bases.to_cheb_s": "bases.to_cheb",
    "operators.fourier_proj_s": "operators.fourier_proj",
    "operators.discrete_proj_s": "operators.discrete_proj",
    "operators.vp_interp_s": "operators.vp_interp",
    "operators.lebesgue_s.lambda": "operators.lebesgue.lambda",
    "operators.lebesgue_s.lambda-tilde": "operators.lebesgue.lambda-tilde",
    "operators.lebesgue_s.lambda-bar": "operators.lebesgue.lambda-bar",
    "mra.pyramid_s": "mra.pyramid",
    "mra.decompose_step_s": "mra.decompose_step",
    "mra.reconstruct_step_s": "mra.reconstruct_step",
    "mra.threshold_s": "mra.threshold",
    "mra.to_json_s": "mra.to_json",
    "mra.from_json_s": "mra.from_json",
    "mra.redecompose_s": "mra.redecompose",
}

TRANSFORMS = ("bases.scaling_analysis", "bases.scaling_synthesis",
              "bases.detail_analysis", "bases.detail_synthesis")
STEPS = ("mra.decompose_step", "mra.reconstruct_step")


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function at each vpwave module attribute bound to it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "vpwave" or name.startswith("vpwave."))]
    for module_name, attr, name, size in TARGETS:
        fn = getattr(sys.modules.get(f"vpwave.{module_name}"), attr, None)
        if fn is None:
            continue
        traced = tracer.wrap(fn, name, size)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)


def self_times(spans: list) -> list:
    """Each span's duration minus the part its children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and {3n: [seconds, calls]} of the splits
    and merges of each size (the input of mra.step_dct_ratio)."""
    names = [s[0] for s in spans]
    own = self_times(spans)
    outermost = defaultdict(float)
    for i, s in enumerate(spans):
        parent = s[3]
        while parent >= 0 and names[parent] != names[i]:
            parent = spans[parent][3]
        if parent < 0:
            outermost[names[i]] += s[2] - s[1]
    out = {metric: outermost[name] for metric, name in TIME_METRICS.items()}

    counts = defaultdict(int)
    sizes = defaultdict(int)
    for s in spans:
        counts[s[0]] += 1
        sizes[s[0]] += s[4]
    out["chebyshev.dct_calls"] = counts["chebyshev.dct"]
    out["chebyshev.dct_points"] = sizes["chebyshev.dct"]
    out["chebyshev.eval_cells"] = sizes["chebyshev.eval_series"] + sizes["chebyshev.eval_p_table"]
    out["mra.json_bytes"] = sizes["mra.to_json"]
    out["bases.transform_self_s"] = sum(t for n, t in zip(names, own) if n in TRANSFORMS)

    step_total = out["mra.decompose_step_s"] + out["mra.reconstruct_step_s"]
    step_self = sum(t for n, t in zip(names, own) if n in STEPS)
    out["mra.step_self_share"] = step_self / step_total if step_total > 0 else 0.0
    step_by_size = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s[0] in STEPS:
            step_by_size[s[4]][0] += s[2] - s[1]
            step_by_size[s[4]][1] += 1
    return out, dict(step_by_size)


def cli_invocations(spans: list) -> list:
    """(command, seconds, self seconds, bytes written) of each traced CLI call."""
    own = self_times(spans)
    return [(s[0][len("cli."):], s[2] - s[1], t, s[4])
            for s, t in zip(spans, own) if s[0].startswith("cli.")]
