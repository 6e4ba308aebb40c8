"""The CLI's ledger: each verdict a mode prints is one Check record.

A mode's stdout is its ledger, one ``Check.line()`` per record in the order
the checks ran, then the summary line counted from the same ledger.  The
verify-lemma stage's records are the lemma's own, and lemma_report.json
lists them.
"""

import json
import re

import pytest

from oscillax import Check, default_config, load_config
from oscillax.cli_report import MODES

STAGE_CHECKS = {
    "construct-example": [
        "family amplitudes inside their bands",
        "harmonic-weight integral diverges",
        "heavier-weight integral converges",
    ],
    "verify-lemma": [
        "damping integral below one",
        "sign pattern of the lobes",
        "positive lobes dominate damped negative lobes",
        "lobe surpluses are summable",
        "single positive lobe stays below delta",
        "damping times negative lobe stays within the surplus",
        "period counting against the damping moment",
        "damping tails within the surplus budget",
        "kernel z stays negative",
        "kernel z within the proof bound",
        "kernel h stays positive",
        "h/s decreases, both routes agreeing",
    ],
    "compute-kernel": [
        "kernel equation residual within 1e-4",
        "kernel z negative beyond the first lobe",
    ],
    "build-pair": [
        "pair ordered pointwise on the grid",
        "pair chain margins nonnegative",
    ],
    "bridge": [
        "lift of pushed coefficient returns q1 (relative)",
        "lower barrier residual sign",
        "upper barrier residual sign",
        "radial damping integral converges",
        "radial source a1 diverges in the harmonic weight",
        "radial source a1 converges in the heavy weight",
        "radial source a2 diverges in the harmonic weight",
        "radial source a2 converges in the heavy weight",
    ],
    "solve-bvp": [
        "solution sandwiched between the barriers",
        "iteration converged",
        "discrete residual small after convergence",
    ],
}
# full-pipeline runs every stage in turn
CHECK_NAMES = {**STAGE_CHECKS, "full-pipeline": [name for names in STAGE_CHECKS.values()
                                                 for name in names]}


def test_check_line_is_the_verdict_text():
    assert Check("a check", True).line() == "PASS a check"
    assert Check("a check", False, -1.37668e-14).line() == "FAIL a check (margin=-1.37668e-14)"
    assert Check("a check", True, 0.0, {"ignored": 1}).line() == "PASS a check (margin=0)"


@pytest.mark.parametrize("mode", MODES)
def test_stdout_is_the_ledger_then_its_summary(mode_runs, mode):
    run = mode_runs[mode]
    assert [check.name for check in run.ledger] == CHECK_NAMES[mode]
    assert all(isinstance(check, Check) and type(check.passed) is bool for check in run.ledger)
    *verdicts, summary = run.stdout.splitlines()
    assert verdicts == [check.line() for check in run.ledger]
    counts = re.fullmatch(rf"mode {mode}: (PASS|FAIL) \((\d+)/(\d+) checks\)", summary)
    assert counts is not None, summary
    assert int(counts[3]) == len(run.ledger)
    assert int(counts[2]) == sum(check.passed for check in run.ledger)
    assert (counts[1], run.code) == ("PASS", 0)


def test_lemma_checks_are_the_ledger_and_the_report(mode_runs):
    run = mode_runs["verify-lemma"]
    checks = run.lemma.checks()
    assert run.ledger == checks
    written = json.loads((run.out / "lemma_report.json").read_text(encoding="utf-8"))
    assert written["checks"] == [
        {"name": c.name, "pass": c.passed, "margin": c.margin, "details": c.details}
        for c in checks
    ]
    assert written["ok"] is run.lemma.ok is True


def test_iteration_converged_reports_its_slack_under_the_tolerance(mode_runs):
    run = mode_runs["solve-bvp"]
    summary = json.loads((run.out / "bvp_summary.json").read_text(encoding="utf-8"))
    check = next(check for check in run.ledger if check.name == "iteration converged")
    tol = load_config(default_config()).solver_tol
    assert check.margin == tol - summary["iteration_sup_deltas"][-1]
    assert check.margin > 0.0
    # the sweep count stays in the summary
    assert summary["iterations"] == len(summary["iteration_sup_deltas"])
