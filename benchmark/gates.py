"""Accuracy of a run's artifacts, read outside the timed region.

Each number is taken where the artifact set has it; a number whose artifact
the workload does not write is absent.  The gates follow the acceptance
criteria: a kernel that matches the independent Runge-Kutta oracle to 1e-6,
an ODE residual of at most 1e-4, a decay exponent within 0.15 of 2 - n, a
solution sandwiched between its barriers, and an oscillation lemma whose
report is ok with the observed sup|z| strictly below the proven bound.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ORACLE_GAP_MAX = 1e-6
KERNEL_RESIDUAL_MAX = 1e-4
DECAY_EXPONENT_TOL = 0.15
# At its default rtol=1e-9 the oracle's own error reaches ~1e-6 on some
# jittered families, while the kernel agrees with a tight oracle to ~1e-10;
# tight tolerances make the gap measure the kernel, not the oracle.
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-14


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def accuracy(out: Path, cfg) -> tuple[dict, list[str]]:
    """(name -> (value, unit), gates missed) for the artifacts in ``out``."""
    from oscillax import build_oscillation, z_ode_oracle

    metrics, misses = {}, []
    if (out / "kernels.csv").exists():
        table = np.loadtxt(out / "kernels.csv", delimiter=",", skiprows=1)
        spec = build_oscillation(cfg.oscillation)
        oracle = z_ode_oracle(cfg.oscillation.p, spec.q_callable, table[:, 0],
                              rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
        gap = float(np.max(np.abs(table[:, 1] - oracle)))
        metrics["oracle_gap"] = (gap, "1")
        if not gap <= ORACLE_GAP_MAX:
            misses.append(f"oracle_gap {gap!r} > {ORACLE_GAP_MAX}")
    if (out / "kernel_report.json").exists():
        residual = _read(out / "kernel_report.json")["residual_sup"]
        metrics["kernel_residual_sup"] = (residual, "1")
        if not residual <= KERNEL_RESIDUAL_MAX:
            misses.append(f"kernel_residual_sup {residual!r} > {KERNEL_RESIDUAL_MAX}")
    if (out / "bvp_summary.json").exists():
        bvp = _read(out / "bvp_summary.json")
        metrics["bvp_residual_sup"] = (bvp["residual_sup"], "1")
        err = abs(bvp["decay_exponent"] - (2 - cfg.problem_n))
        metrics["decay_exponent_err"] = (err, "1")
        if not err <= DECAY_EXPONENT_TOL:
            misses.append(f"decay exponent {bvp['decay_exponent']!r} is not within "
                          f"{DECAY_EXPONENT_TOL} of {2 - cfg.problem_n}")
        if not bvp["sandwich"]["ok"]:
            misses.append("sandwich.ok is false")
    if (out / "lemma_report.json").exists():
        lemma = _read(out / "lemma_report.json")
        margin = lemma["proof_bound"] - lemma["observed_sup_z"]
        metrics["z_bound_margin"] = (margin, "1")
        if not margin > 0:
            misses.append(f"z_bound_margin {margin!r} is not positive")
        if lemma["ok"] is not True:
            misses.append("lemma_report ok is not true")
    return metrics, misses
