"""The names that benchmark/ binds in oscillax.

The benchmark reads some of these only in its traced runs, which Tier-1
does not collect, so a rename here would otherwise show up only there.
It also reads the verdict lines the CLI prints, by check name.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

from oscillax import (
    BvpSolution,
    Check,
    CoefficientExpr,
    HypothesesResult,
    IntegralResult,
    OscillationSpec,
    RunConfig,
    check_hypotheses,
    compute_kernel,
    default_config,
    load_config,
    make_barriers,
    make_blend,
    z_ode_oracle,
)

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


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


def _benchmark_module(name: str):
    """A module of benchmark/, loaded by its path."""
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_reads_back_the_name_of_every_fail_verdict(mode_runs):
    fail_verdict = _benchmark_module("run").FAIL_VERDICT
    names = {check.name for run in mode_runs.values() for check in run.ledger}
    for name in names:
        for check in (Check(name, False, -1.37668e-14), Check(name, False)):
            assert fail_verdict.match(check.line()).group(1) == name
        assert fail_verdict.match(Check(name, True, 1.0).line()) is None


def test_every_known_fail_is_a_check_its_workload_prints(mode_runs):
    for workload in _benchmark_module("workloads").WORKLOADS.values():
        printed = {check.name for check in mode_runs[workload.mode].ledger}
        assert workload.known_fails <= printed, workload.name


def test_every_label_the_tracer_reports_is_a_function_it_wraps():
    # the tracer wraps each public function defined in an oscillax module; a label
    # whose function is gone would read 0 with no error
    tracing = _benchmark_module("tracing")
    labels = {".".join(name.split(".")[:2]) for name in (*tracing.SELF_TIMES, *tracing.COUNTS)}
    # the labels the tracer wires itself: two methods and the closure make_blend returns
    wired = {"coeff_dsl.evaluate_grid": vars(CoefficientExpr)["evaluate_grid"],
             "example_builder.q_callable": vars(OscillationSpec)["q_callable"],
             "pde_bridge.blend": make_blend}
    for label in sorted(labels):
        module, name = label.split(".")
        fn = wired.get(label) or vars(importlib.import_module(f"oscillax.{module}")).get(name)
        assert inspect.isfunction(fn), label
        if label not in wired:
            assert fn.__module__ == f"oscillax.{module}" and not name.startswith("_"), label


def test_every_name_the_benchmark_imports_from_oscillax_resolves():
    imported = [(node.module, alias.name)
                for path in sorted(BENCHMARK.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oscillax")
                for alias in node.names]
    assert len(imported) >= 8
    for module, name in imported:
        try:
            getattr(importlib.import_module(module), name)
        except AttributeError:  # a submodule, as in `from oscillax import cli_report`
            importlib.import_module(f"{module}.{name}")


def test_every_traced_label_records_a_call_in_a_small_full_pipeline(tmp_path, capsys):
    # a function the run reaches only through a private helper, or not at all,
    # would report a self time of 0 in every traced run
    import oscillax
    from oscillax import cli_report

    for module in pkgutil.iter_modules(oscillax.__path__):
        importlib.import_module(f"oscillax.{module.name}")
    tracing = _benchmark_module("tracing")
    instrumentation = tracing.Instrumentation(oscillax)
    cfg = load_config({"solver": {"N": 4001}, "kernel": {"extend_to": 0},
                       "oscillation": {"m_max": 10}})
    cfg.out, cfg.formats = tmp_path, ("csv", "json", "svg")
    with instrumentation.tracing() as tracer:
        assert cli_report.run("full-pipeline", cfg) == 0
    capsys.readouterr()
    missing = [label for label in tracing.SELF_TIMES if not tracer.counters[label + ".calls"] > 0]
    assert missing == []
