"""Oscillating-coefficient comparison kernels, barriers, and radial solves.

The package walks one chain of custody: a tiny expression language for
coefficients, quadrature with explicit tail accounting, the comparison
kernels z and h, hypothesis checks for the oscillation result, a concrete
sin^2-band coefficient family and an ordered pair of them, the change of
variables between the exterior radial problem and the comparison equation,
and a monotone iteration that solves the truncated problem between the
barriers the kernels provide.
"""

from .coeff_dsl import (
    CoefficientExpr,
    DomainError,
    ParseError,
    as_callable,
    parse,
)
from .quadrature import (
    IntegralResult,
    TailModel,
    cumulative_integral,
    cumulative_simpson_doubled,
    integrate_finite,
    integrate_finite_many,
    integrate_tail,
    integrate_tail_many,
)
from .kernel import (
    Damping,
    FarField,
    HTail,
    KernelPair,
    compute_h,
    compute_kernel,
    compute_z,
    ode_residual,
    z_ode_oracle,
)
from .lemma_check import (
    ConclusionsResult,
    HypothesesResult,
    LemmaReport,
    RemarkResult,
    check_conclusions,
    check_hypotheses,
    check_remark,
    verify_lemma,
)
from .example_builder import (
    BandParams,
    FeatureReport,
    OscillationParams,
    OscillationSpec,
    PairParams,
    build_oscillation,
    build_pair,
    check_integral_features,
    default_params,
    verify_pair,
)
from .pde_bridge import (
    BarrierPair,
    RadialProblem,
    ResidualReport,
    beta_inverse,
    beta_map,
    integral_conditions,
    lift_coefficients,
    make_barriers,
    make_blend,
    push_a_from_q,
    subsuper_residual,
)
from .bvp_solver import (
    BvpSolution,
    DecayFit,
    check_sandwich,
    decay_fit,
    solve_radial,
)
from .cli_report import RunConfig, default_config, emit_plot, load_config, main, run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coeff_dsl
    "CoefficientExpr", "DomainError", "ParseError", "as_callable", "parse",
    # quadrature
    "IntegralResult", "TailModel", "cumulative_integral",
    "cumulative_simpson_doubled", "integrate_finite", "integrate_finite_many",
    "integrate_tail", "integrate_tail_many",
    # kernel
    "Damping", "FarField", "HTail", "KernelPair", "compute_h", "compute_kernel",
    "compute_z", "ode_residual", "z_ode_oracle",
    # lemma_check
    "ConclusionsResult", "HypothesesResult", "LemmaReport", "RemarkResult",
    "check_conclusions", "check_hypotheses", "check_remark", "verify_lemma",
    # example_builder
    "BandParams", "FeatureReport", "OscillationParams", "OscillationSpec",
    "PairParams", "build_oscillation", "build_pair",
    "check_integral_features", "default_params", "verify_pair",
    # pde_bridge
    "BarrierPair", "RadialProblem", "ResidualReport", "beta_inverse",
    "beta_map", "integral_conditions", "lift_coefficients", "make_barriers",
    "make_blend", "push_a_from_q", "subsuper_residual",
    # bvp_solver
    "BvpSolution", "DecayFit", "check_sandwich", "decay_fit", "solve_radial",
    # cli_report
    "RunConfig", "default_config", "emit_plot", "load_config", "main", "run",
]
