"""Separability probabilities of random bipartite states by Monte Carlo.

Samples rebit, qubit and quaterbit coefficient balls under the
Hilbert-Schmidt measure, tests positivity and the positive-partial-transpose
criterion, and compares the estimated separable fraction with the
conjectured closed-form series value.
"""

__version__ = "0.1.0"

from .algebra import Quaternion, generator_matrix, min_eigenvalue
from .conjecture import SeriesResult, f_term, p_of_alpha, q_poly
from .engine import (
    Checkpoint,
    EstimateResult,
    NoPositiveSamplesError,
    TallyCounts,
    checkpoint_load,
    checkpoint_save,
    estimate,
    run_chunk,
)
from .sampler import StreamSpec, derive_stream, sample_ball
from .states import (
    CASES,
    QUATERBIT,
    QUBIT,
    REBIT,
    CoeffVector,
    QuaterbitBlocks,
    StateCase,
    coeffs_to_density,
    density_to_coeffs,
    get_case,
    is_positive,
    partial_transpose,
    ppt_test,
    quaterbit_from_blocks,
)

__all__ = [
    "__version__",
    "Quaternion", "generator_matrix", "min_eigenvalue",
    "CASES", "REBIT", "QUBIT", "QUATERBIT", "StateCase", "CoeffVector",
    "QuaterbitBlocks", "get_case",
    "coeffs_to_density", "density_to_coeffs", "quaterbit_from_blocks",
    "is_positive", "partial_transpose", "ppt_test",
    "StreamSpec", "derive_stream", "sample_ball",
    "TallyCounts", "EstimateResult", "Checkpoint", "NoPositiveSamplesError",
    "run_chunk", "estimate", "checkpoint_save", "checkpoint_load",
    "SeriesResult", "q_poly", "f_term", "p_of_alpha",
]
