"""The names that benchmark/ binds in oscillax.

The benchmark reads some of these only in its traced runs, which Tier-1
does not collect, so a rename here would otherwise show up only there.
"""

import dataclasses
import inspect

from oscillax import (
    BvpSolution,
    HypothesesResult,
    IntegralResult,
    RunConfig,
    check_hypotheses,
    compute_kernel,
    default_config,
    load_config,
    make_barriers,
    z_ode_oracle,
)


def _parameters(fn):
    return set(inspect.signature(fn).parameters)


def _fields(cls):
    """The field names of a NamedTuple record or of a dataclass."""
    if hasattr(cls, "_fields"):
        return set(cls._fields)
    return {f.name for f in dataclasses.fields(cls)}


def test_the_names_the_benchmark_binds_exist():
    # tracing.py reads these arguments of compute_kernel's calls
    assert {"q", "grid", "extend_to", "extend_step"} <= _parameters(compute_kernel)
    # run.py times make_barriers and check_hypotheses with and without parallel
    assert {"parallel", "extend_to", "extend_step"} <= _parameters(make_barriers)
    assert {"p_tail", "family", "parallel"} <= _parameters(check_hypotheses)
    # gates.py runs the oracle at tight tolerances
    assert {"rtol", "atol"} <= _parameters(z_ode_oracle)
    assert {"oscillation", "pair", "kernel_span", "solver_N", "extend_to", "extend_step",
            "problem_n", "out", "formats"} <= _fields(RunConfig)
    osc = load_config(default_config()).oscillation
    for name in ("s0", "m_max", "p", "p_tail"):
        assert hasattr(osc, name), name
    # the result attributes the trace hooks count
    assert "evaluations" in _fields(IntegralResult)
    assert "m_checked" in _fields(HypothesesResult)
    assert {"iterations", "grid"} <= _fields(BvpSolution)
