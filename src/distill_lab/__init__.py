"""Numerical laboratory for Werner-state distillability experiments."""

from .bundles import Bundle, read_bundle, write_bundle
from .distill import (
    RankTwoFactors,
    check_rank2_inequality,
    f_bilinear,
    m_n_permutation,
    merge_operator,
    pqr,
    q_functional,
    random_rank_two,
    sandwich_evaluator,
)
from .errors import (
    DimensionLimitError,
    DistillLabError,
    ShapeError,
    SymmetryError,
)
from .iterate import IterateState, certify_iterate, e_step, initial_iterate
from .linalg import (
    ComplexMatrix,
    MultipartiteState,
    SubsystemPermutation,
    kron,
    partial_trace,
    partial_transpose,
    permutation_matrix,
    permute_subsystems,
)
from .multivar import (
    RankOnePoint,
    f_real,
    g_value,
    grad_g,
    hessian_g,
    hessian_spectrum_sweep,
    nonconvexity_demo,
)
from .optimize import (
    SearchConfig,
    SearchReport,
    grad_q,
    minimize_q,
    witness_tensor,
)
from .schmidt import (
    SchmidtData,
    max_overlap_oracle,
    max_overlap_sr_k,
    psi_iso,
    schmidt_decompose,
)
from .states import (
    WernerParams,
    beta_bound,
    ge_operator,
    max_entangled_state,
    swap_operator,
    werner_partial_transpose,
    werner_state,
)
from .verify import CheckResult, rank2_slack_sampling, run_suite

__version__ = "0.1.0"

__all__ = [
    "Bundle",
    "CheckResult",
    "ComplexMatrix",
    "DimensionLimitError",
    "DistillLabError",
    "IterateState",
    "MultipartiteState",
    "RankOnePoint",
    "RankTwoFactors",
    "SchmidtData",
    "SearchConfig",
    "SearchReport",
    "ShapeError",
    "SubsystemPermutation",
    "SymmetryError",
    "WernerParams",
    "beta_bound",
    "certify_iterate",
    "check_rank2_inequality",
    "e_step",
    "f_bilinear",
    "f_real",
    "g_value",
    "ge_operator",
    "grad_g",
    "grad_q",
    "hessian_g",
    "hessian_spectrum_sweep",
    "initial_iterate",
    "kron",
    "m_n_permutation",
    "max_entangled_state",
    "max_overlap_oracle",
    "max_overlap_sr_k",
    "merge_operator",
    "minimize_q",
    "nonconvexity_demo",
    "partial_trace",
    "partial_transpose",
    "permutation_matrix",
    "permute_subsystems",
    "pqr",
    "psi_iso",
    "q_functional",
    "random_rank_two",
    "rank2_slack_sampling",
    "read_bundle",
    "run_suite",
    "sandwich_evaluator",
    "schmidt_decompose",
    "swap_operator",
    "werner_partial_transpose",
    "werner_state",
    "write_bundle",
]
