"""De la Vallee Poussin scaling and wavelet bases on [-1, 1].

Interpolating and orthonormal bases of a nested family of polynomial
approximation spaces, three near-best approximation operators with Lebesgue
diagnostics, and a factor-3 multiresolution analysis with O(n log n)
decomposition/reconstruction via discrete cosine transforms.
"""

__version__ = "0.1.0"

from .bases import (DetailCoeffs, ScalingCoeffs, approx_basis, detail_basis, detail_to_cheb,
                    ortho_to_values, scaling_interp, scaling_ortho, scaling_to_cheb,
                    values_to_ortho, wavelet_interp, wavelet_ortho)
from .chebyshev import (cheb_nodes, dct, eval_p, eval_series, idct, probe_grid, probe_values,
                        sup_error, y_nodes)
from .filters import VPLevel
from .functions import get_function
from .mra import (MultiDecomposition, PyramidError, ThresholdReport, decompose_multi,
                  decompose_step, pyramid_from_json, pyramid_to_json, reconstruct_multi,
                  reconstruct_step, redecompose, threshold_hard, threshold_keep_top)
from .operators import (ErrorPoint, LebesgueKind, LebesgueReport, OperatorKind, discrete_norm,
                        discrete_proj, error_curve, fourier_proj, lebesgue_const, lebesgue_fn,
                        proj_kernel, vp_interp)

__all__ = [
    # levels, grids and Chebyshev series
    "VPLevel", "cheb_nodes", "y_nodes", "probe_grid", "eval_p", "eval_series", "probe_values",
    "dct", "idct", "sup_error",
    # bases of V and W, and coefficients over the orthonormal ones
    "scaling_interp", "scaling_ortho", "wavelet_interp", "wavelet_ortho", "approx_basis",
    "detail_basis", "ScalingCoeffs", "DetailCoeffs", "scaling_to_cheb", "detail_to_cheb",
    "values_to_ortho", "ortho_to_values",
    # operators, Lebesgue constants and error sweeps
    "OperatorKind", "vp_interp", "fourier_proj", "discrete_proj", "proj_kernel", "LebesgueKind",
    "lebesgue_fn", "lebesgue_const", "LebesgueReport", "discrete_norm", "error_curve",
    "ErrorPoint", "get_function",
    # the factor-3 multiresolution analysis
    "decompose_step", "reconstruct_step", "MultiDecomposition", "decompose_multi",
    "reconstruct_multi", "redecompose", "threshold_hard", "threshold_keep_top",
    "ThresholdReport", "pyramid_to_json", "pyramid_from_json", "PyramidError",
]
