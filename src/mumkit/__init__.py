"""mumkit: mutually unbiased measurements and entanglement detection.

Builds complete sets of d+1 mutually unbiased measurements in any
dimension, complete unbiased bases for prime dimensions, evaluates the
measurement-based separability criterion J(rho) <= 1 + kappa together
with its unbiased-bases and correlation-matrix relatives, and checks
every verdict against independent oracles (closed forms, partial
transpose, direct traces).
"""

from .criteria import (
    DetectionReport,
    ShotEstimate,
    bell_choice,
    bell_detection_threshold,
    correlation_bound,
    correlation_criterion,
    correlation_matrix_trace,
    j_correlation_identity,
    j_isotropic_closed,
    j_value,
    mub_criterion,
    mum_criterion,
    pure_identity_check,
    setting_distributions,
    simulate_counts,
)
from .mub import (
    BasisSet,
    CompositeDimensionError,
    mub_prime,
    mub_triple_d6,
    mums_from_mubs,
    tensor_product_bases,
    verify_mub,
)
from .mum import (
    MumSet,
    PositivityError,
    build_mums,
    conjugate_mums,
    kappa_from_t,
    max_valid_t,
    optimal_kappa,
    optimal_mums,
    rotate_mums,
    t_from_kappa,
    verify_mums,
)
from .operator_basis import (
    OperatorBasis,
    gell_mann_basis,
    grouped_gell_mann_basis,
    verify_orthonormal_basis,
    weyl_operator,
)
from .reporting import VerificationReport
from .rng import Xoshiro256
from .states import (
    BipartiteState,
    PptResult,
    bell_diagonal,
    isotropic,
    max_entangled,
    partial_transpose,
    ppt_check,
    random_density,
    random_pure,
    random_separable,
    verify_state,
)

__all__ = [
    "BasisSet",
    "BipartiteState",
    "CompositeDimensionError",
    "DetectionReport",
    "MumSet",
    "OperatorBasis",
    "PositivityError",
    "PptResult",
    "ShotEstimate",
    "VerificationReport",
    "Xoshiro256",
    "bell_choice",
    "bell_detection_threshold",
    "bell_diagonal",
    "build_mums",
    "conjugate_mums",
    "correlation_bound",
    "correlation_criterion",
    "correlation_matrix_trace",
    "gell_mann_basis",
    "grouped_gell_mann_basis",
    "isotropic",
    "j_correlation_identity",
    "j_isotropic_closed",
    "j_value",
    "kappa_from_t",
    "max_entangled",
    "max_valid_t",
    "mub_criterion",
    "mub_prime",
    "mub_triple_d6",
    "mum_criterion",
    "mums_from_mubs",
    "optimal_kappa",
    "optimal_mums",
    "partial_transpose",
    "ppt_check",
    "pure_identity_check",
    "random_density",
    "random_pure",
    "random_separable",
    "rotate_mums",
    "setting_distributions",
    "simulate_counts",
    "t_from_kappa",
    "tensor_product_bases",
    "verify_mub",
    "verify_mums",
    "verify_orthonormal_basis",
    "verify_state",
    "weyl_operator",
]

__version__ = "0.1.0"
