"""Acceptance gate: every advertised guarantee, measured at its stated tolerance.

Each test prints a single PASS/FAIL line with the measured quantity so the
suite log doubles as a certification report.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oscillax.bvp_solver import BvpSolution, check_sandwich, decay_fit, solve_radial
from oscillax.cli_report import default_config
from oscillax.coeff_dsl import parse
from oscillax.example_builder import check_integral_features
from oscillax.kernel import compute_kernel, compute_z, ode_residual, z_ode_oracle
from oscillax.lemma_check import verify_lemma
from oscillax.pde_bridge import (
    RadialProblem,
    beta_map,
    lift_coefficients,
    make_barriers,
    push_a_from_q,
)
from oscillax.quadrature import TailModel, integrate_finite


def _line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def lemma(family, family_kernel):
    params = family.params
    return verify_lemma(
        params.p, family.q_callable, family.nodes,
        p_tail=params.p_tail, family=family, kernel=family_kernel,
        q_minus=params.q_minus,
    )


@pytest.fixture(scope="module")
def fine_kernel(family):
    span = 40 * math.pi
    n_cells = int(round(span / 1e-3))
    n_cells += n_cells % 2
    grid = np.linspace(family.nodes[0], family.nodes[0] + span, n_cells + 1)
    return compute_kernel(family.params.p, family.q_callable, grid)


@pytest.fixture(scope="module")
def solution(problem, solver_barrier):
    return solve_radial(problem, solver_barrier)


def test_criterion_01_kernel_matches_the_independent_integrator(family, family_kernel):
    grid = family_kernel.grid
    t0 = time.perf_counter()
    z = compute_z(family.params.p, family.q_callable, grid)
    oracle = z_ode_oracle(family.params.p, family.q_callable, grid)
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(z - oracle)))
    ok = gap <= 1e-6 and elapsed < 5.0
    _line("criterion 1 (kernel vs independent integrator)", ok,
          f"sup|z - oracle| = {gap:.3e} <= 1e-6, {elapsed:.2f} s < 5 s")


def test_criterion_02_kernel_conclusions_hold_with_margins(family, family_kernel,
                                                           lemma, fine_kernel):
    grid, z, h = family_kernel.grid, family_kernel.z_values, family_kernel.h_values
    beyond = grid > grid[0] + math.pi
    z_neg = float(np.max(z[beyond]))
    bound = lemma.hypotheses.proof_bound()
    sup_z = float(np.max(np.abs(z)))
    ratio_drops = float(np.max(np.diff(h / grid)))
    res = ode_residual(fine_kernel.h_values, family.params.p, family.q_callable,
                       fine_kernel.grid, z_values=fine_kernel.z_values)
    ok = (z_neg < -1e-12
          and bound is not None and sup_z < bound
          and float(np.min(h)) > 0.0
          and ratio_drops < 0.0
          and res["sup"] <= 1e-4)
    _line("criterion 2 (kernel sign, bound, monotonicity, residual)", ok,
          f"max z past first lobe = {z_neg:.3e} < -1e-12, "
          f"sup|z| = {sup_z:.6f} < bound {bound:.6f} "
          f"(margin {bound - sup_z:.4f}), min h = {float(np.min(h)):.4f} > 0, "
          f"max d(h/s) = {ratio_drops:.3e} < 0, "
          f"ODE residual {res['sup']:.3e} <= 1e-4 at step 1e-3")


def test_criterion_03_lobe_integrals_match_their_amplitudes(family):
    nodes, c, d = family.nodes, family.c, family.d
    q = family.q_callable
    worst = 0.0
    for k in range(len(c)):
        pos = integrate_finite(q, nodes[2 * k], nodes[2 * k + 1], tol=1e-13)
        neg = integrate_finite(q, nodes[2 * k + 1], nodes[2 * k + 2], tol=1e-13)
        worst = max(
            worst,
            abs(pos.value - (math.pi / 2) * c[k]) / ((math.pi / 2) * c[k]),
            abs(-neg.value - (math.pi / 2) * d[k]) / ((math.pi / 2) * d[k]),
        )
    ok = worst <= 1e-9
    _line("criterion 3 (lobe integrals equal (pi/2) amplitude)", ok,
          f"worst relative error over {len(c)} periods = {worst:.3e} <= 1e-9")


def test_criterion_04_pair_is_ordered_with_a_clean_amplitude_chain(pair):
    s0 = float(pair.q1.nodes[0])
    step = math.pi / 100
    grid = s0 + step * np.arange(int(round(50 * math.pi / step)) + 1)
    gap = pair.q2.q_callable(grid) - pair.q1.q_callable(grid)
    c1, d1 = pair.q1.c, pair.q1.d
    c2, d2 = pair.q2.c, pair.q2.d
    chain = min(float(np.min(c2 - c1)), float(np.min(c1 - d1)),
                float(np.min(d1 - d2)))
    ok = (float(np.min(gap)) >= 0.0 and chain >= 0.0
          and float(np.min(d2)) > 0.0 and len(c1) >= 25)
    _line("criterion 4 (ordered pair and amplitude chain)", ok,
          f"min(q2 - q1) = {float(np.min(gap)):.3e} >= 0 on a pi/100 grid, "
          f"min chain margin = {chain:.3e} >= 0, min d2 = {float(np.min(d2)):.4f} > 0")


def test_criterion_05_growth_and_convergence_features(family):
    rep = check_integral_features(family, varsigma=1.0, M=50)
    dominated = float(np.min(rep.partial_sums - rep.lower_bounds))
    ok = (rep.dominates and dominated >= 0.0
          and rep.log_slope > 0.0
          and rep.converged and rep.cauchy_gap <= rep.gap_bound)
    _line("criterion 5 (harmonic growth and weighted convergence)", ok,
          f"partial sums clear the lower bound by >= {dominated:.4f}, "
          f"log growth rate {rep.log_slope:.3f} > 0, "
          f"doubling gap {rep.cauchy_gap:.3e} <= bound {rep.gap_bound:.3e}")


def test_criterion_06_coefficient_round_trip_is_the_identity():
    q = parse("sin(s)^2 / s")
    grid = np.linspace(2 * math.pi, 42 * math.pi, 1000)
    reference = q.evaluate_grid(grid)
    scale = float(np.max(np.abs(reference)))
    worst = 0.0
    for n in (3, 4, 5, 6):
        problem = RadialProblem(
            n=n, R=1.0,
            p=parse("1/s^3"), p_tail=TailModel("power", 3.0, 1.0),
            a1=push_a_from_q(q, n),
        )
        q_back, _ = lift_coefficients(problem)
        worst = max(worst, float(np.max(np.abs(q_back(grid) - reference))) / scale)
    identity = np.array_equal(beta_map(3, 1.0, grid), grid)
    ok = worst <= 1e-12 and identity
    _line("criterion 6 (lift inverts push; flat map in dimension 3)", ok,
          f"worst round-trip relative error over n in 3..6 = {worst:.3e} <= 1e-12, "
          f"beta == identity for n = 3: {identity}")


def test_criterion_07_barrier_residuals_keep_their_signs(problem, fine_barrier, pair):
    from oscillax.pde_bridge import subsuper_residual

    rep = subsuper_residual(problem, fine_barrier)
    half_step = (fine_barrier.grid[1] - fine_barrier.grid[0]) / 2.0
    span = float(fine_barrier.grid[-1] - fine_barrier.grid[0])
    n_cells = int(round(span / half_step))
    n_cells += n_cells % 2
    halved_grid = np.linspace(fine_barrier.grid[0], fine_barrier.grid[-1],
                              n_cells + 1)
    halved = subsuper_residual(problem, make_barriers(pair, halved_grid))
    ok = (rep.lower_ok and rep.upper_ok
          and rep.min_rho1 >= -1e-6 and rep.max_rho2 <= 1e-6
          and halved.lower_ok and halved.upper_ok)
    _line("criterion 7 (barrier residual signs, stable under refinement)", ok,
          f"min rho1 = {rep.min_rho1:.3e} >= -1e-6, "
          f"max rho2 = {rep.max_rho2:.3e} <= 1e-6 at step 1e-3; "
          f"halved step verdicts: lower {halved.lower_ok}, upper {halved.upper_ok}")


def test_criterion_08_solver_reproduces_the_kernel_and_converges(problem,
                                                                 solver_barrier,
                                                                 solution):
    a1 = problem.a1

    def constant_floor(r, u):
        return np.asarray(a1(r), dtype=float)

    linear = solve_radial(problem, solver_barrier, f=constant_floor,
                          boundary="lower")
    N = len(solver_barrier.grid)
    edge = int(round(0.025 * N))
    inner = slice(edge, N - edge)
    rel = float(np.max(np.abs(linear.u_values - solver_barrier.h1)[inner]
                       / np.abs(solver_barrier.h1[inner])))
    margins = check_sandwich(solution, solver_barrier)
    least = min(margins["lower_margin"], margins["upper_margin"])
    ok = (rel <= 1e-4
          and solution.iterations <= 50
          and solution.iteration_sup_deltas[-1] <= 1e-10
          and least >= -1e-8
          and margins["ok"])
    _line("criterion 8 (solver matches kernel; blend converges sandwiched)", ok,
          f"constant-forcing relative gap = {rel:.3e} <= 1e-4 on the inner 95%, "
          f"blend converged in {solution.iterations} <= 50 sweeps, "
          f"min sandwich margin = {least:.3e} >= -1e-8")


def test_criterion_09_decay_exponent_is_recovered(problem, solution, solver_barrier):
    fit = decay_fit(solution, problem)
    synthetic = BvpSolution(
        grid=solver_barrier.grid,
        u_values=5.0 * np.ones_like(solver_barrier.grid),
        iterations=1, iteration_sup_deltas=(0.0,),
        decay_exponent=None,
        K_used=0.0, residual_sup=0.0, boundary="upper",
    )
    exact = decay_fit(synthetic, problem)
    ok = (-1.15 <= fit.exponent <= -0.85
          and abs(exact.exponent - (-1.0)) <= 1e-10)
    _line("criterion 9 (power-law decay of the solution)", ok,
          f"fitted exponent = {fit.exponent:.4f} in [-1.15, -0.85], "
          f"synthetic power law recovered to {abs(exact.exponent + 1.0):.2e}")


def test_criterion_10_pipeline_is_deterministic_and_fast(tmp_path, package_env):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(default_config()), encoding="utf-8")
    runs = []
    t0 = time.perf_counter()
    for tag in ("one", "two"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "oscillax", "full-pipeline",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120, env=package_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    elapsed = time.perf_counter() - t0
    same = runs[0] == runs[1]
    ok = same and len(runs[0]) >= 13 and elapsed / 2 < 60.0
    _line("criterion 10 (byte-identical pipeline reruns)", ok,
          f"{len(runs[0])} artifacts identical across runs: {same}, "
          f"{elapsed / 2:.1f} s per run < 60 s")
