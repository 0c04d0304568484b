"""De la Vallee Poussin scaling and wavelet bases on [-1, 1].

Interpolating and orthonormal bases of a nested family of polynomial
approximation spaces, three near-best approximation operators with Lebesgue
diagnostics, and a factor-3 multiresolution analysis with O(n log n)
decomposition/reconstruction via discrete cosine transforms.
"""

__version__ = "0.1.0"

from .bases import (
    DetailCoeffs,
    ScalingCoeffs,
    approx_basis,
    detail_analysis,
    detail_basis,
    detail_synthesis,
    detail_to_cheb,
    ortho_to_values,
    scaling_analysis,
    scaling_interp,
    scaling_ortho,
    scaling_synthesis,
    scaling_to_cheb,
    values_to_ortho,
    wavelet_interp,
    wavelet_ortho,
)
from .chebyshev import (
    cheb_nodes,
    dct,
    eval_p,
    eval_series,
    idct,
    probe_grid,
    probe_values,
    sup_error,
    y_nodes,
)
from .filters import VPLevel
from .functions import REGISTRY, get_function
from .mra import (
    MultiDecomposition,
    PyramidError,
    ThresholdReport,
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
from .operators import (
    ErrorPoint,
    LebesgueKind,
    LebesgueReport,
    OperatorKind,
    approximant,
    discrete_norm,
    discrete_proj,
    error_curve,
    fourier_proj,
    lebesgue_const,
    lebesgue_fn,
    proj_kernel,
    vp_interp,
)
