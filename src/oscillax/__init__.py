"""Oscillating-coefficient comparison kernels, barriers, and radial solves.

The package walks one chain of custody: a tiny expression language for
coefficients, quadrature with explicit tail accounting, the comparison
kernels z and h, hypothesis checks for the oscillation result, a concrete
sin^2-band coefficient family and an ordered pair of them, the change of
variables between the exterior radial problem and the comparison equation,
and a monotone iteration that solves the truncated problem between the
barriers the kernels provide.

``import oscillax`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a process compiles only the modules
it runs.  ``from oscillax import X`` works for every name of ``__all__``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "coeff_dsl": ("CoefficientExpr", "DomainError", "ParseError", "parse"),
        "quadrature": ("IntegralResult", "TailModel", "cumulative_integral",
                       "cumulative_simpson_doubled", "integrate_finite",
                       "integrate_finite_many", "integrate_tail"),
        "kernel": ("HTail", "KernelPair", "compute_kernel", "compute_z", "ode_residual",
                   "z_ode_oracle"),
        "lemma_check": ("ConclusionsResult", "HypothesesResult", "LemmaReport",
                        "RemarkResult", "check_conclusions", "check_hypotheses",
                        "check_remark", "verify_lemma"),
        "example_builder": ("BandParams", "Check", "FeatureReport", "OscillationParams",
                            "OscillationSpec", "PairParams", "build_oscillation",
                            "build_pair", "check_integral_features", "verify_pair"),
        "radial": ("beta_inverse", "beta_map"),
        "pde_bridge": ("BarrierPair", "RadialProblem", "ResidualReport",
                       "integral_conditions", "lift_coefficients", "make_barriers",
                       "make_blend", "push_a_from_q", "subsuper_residual"),
        "bvp_solver": ("BvpSolution", "DecayFit", "check_sandwich", "decay_fit",
                       "solve_radial"),
        "cli_report": ("RunConfig", "default_config", "emit_plot", "load_config", "main",
                       "run"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from oscillax import <submodule>`
    # falls back to importing the submodule
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
