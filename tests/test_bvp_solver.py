import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillax import (
    BvpSolution,
    beta_map,
    check_sandwich,
    decay_fit,
    make_barriers,
    make_blend,
    solve_radial,
)
from oscillax.bvp_solver import _CyclicReduction, _sweep_factor
from oscillax.coeff_dsl import as_callable, parse
from oscillax.pde_bridge import _beta_betaprime

PI = math.pi


# ---------------------------------------------------------------------------
# the stock nonlinear solve


@pytest.fixture(scope="module")
def solution(problem, solver_barrier):
    return solve_radial(problem, solver_barrier)


def test_solution_is_sandwiched(solution, solver_barrier):
    out = check_sandwich(solution, solver_barrier)
    assert out["ok"]
    assert out["lower_margin"] > 1e-3
    assert out["upper_margin"] >= 0.0


def test_iteration_contracts(solution):
    deltas = np.asarray(solution.iteration_sup_deltas)
    assert solution.iterations <= 50
    assert deltas[-1] <= 1e-10
    assert np.all(np.diff(deltas[1:]) < 0.0) or len(deltas) <= 2
    # geometric contraction, comfortably below one
    ratios = deltas[2:] / deltas[1:-1]
    assert np.max(ratios) < 0.2


def test_blend_needs_no_shift(solution):
    assert solution.K_used == 0.0


def test_residual_tracks_the_tolerance(solution):
    assert solution.residual_sup <= 10.0 * 1e-10


def test_decay_exponent_matches_the_harmonic_rate(solution):
    # n = 3: u ~ r^(2-n) = 1/r
    assert solution.decay_exponent == pytest.approx(-1.0, abs=0.15)


def test_boundary_choice_brackets_the_same_profile(problem, solver_barrier):
    top = solve_radial(problem, solver_barrier, boundary="upper")
    bot = solve_radial(problem, solver_barrier, boundary="lower")
    # different Dirichlet data, same interior behaviour up to the gap scale
    assert np.all(bot.u_values <= top.u_values + 1e-12)
    mid = len(top.grid) // 2
    assert abs(top.u_values[mid] - bot.u_values[mid]) < solver_barrier.gap_max


def test_returned_residual_matches_a_recomputation(problem, solver_barrier, solution):
    g, H = solution.grid, solution.u_values
    n, R = problem.n, problem.R
    step = g[1] - g[0]
    si = g[1:-1]
    blend = make_blend(problem, solver_barrier, beta_map(n, R, si))
    load = _beta_betaprime(n, si) / (n - 2) * blend(H[1:-1] / si)
    d2 = (H[:-2] - 2.0 * H[1:-1] + H[2:]) / step**2
    d1 = (H[2:] - H[:-2]) / (2.0 * step)
    interior = d2 + np.asarray(as_callable(problem.p)(si), dtype=float) * (d1 - H[1:-1] / si) + load
    assert solution.residual.shape == g.shape
    assert solution.residual[0] == 0.0 and solution.residual[-1] == 0.0
    assert np.array_equal(solution.residual[1:-1], interior)
    assert float(np.max(np.abs(solution.residual))) == solution.residual_sup


def test_decay_exponent_is_the_public_fit(problem, solution):
    assert solution.decay_exponent == decay_fit(solution, problem).exponent


# ---------------------------------------------------------------------------
# degenerate forcing reproduces the linear barrier


def test_constant_lower_forcing_reproduces_h1(problem, solver_barrier):
    a1 = problem.a1
    f_lin = lambda r, u: np.asarray(a1(r), dtype=float)
    sol = solve_radial(problem, solver_barrier, f=f_lin, boundary="lower")
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.u_values - solver_barrier.h1)) <= 1e-4


def test_constant_upper_forcing_reproduces_h2(problem, solver_barrier):
    a2 = problem.a2
    f_lin = lambda r, u: np.asarray(a2(r), dtype=float)
    sol = solve_radial(problem, solver_barrier, f=f_lin, boundary="upper")
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.u_values - solver_barrier.h2)) <= 1e-4


# ---------------------------------------------------------------------------
# the shift machinery


def _reversed_blend(problem, barrier, slope=4.0):
    g, h1, h2 = barrier.grid, barrier.h1, barrier.h2
    a1, a2 = problem.a1, problem.a2

    def f(r, u):
        s = np.asarray(r, dtype=float)  # n = 3: r and s coincide
        v1 = np.interp(s, g, h1) / s
        v2 = np.interp(s, g, h2) / s
        lo = np.asarray(a1(s), dtype=float)
        hi = np.asarray(a2(s), dtype=float)
        mid = 0.5 * (v1 + v2)
        # decreasing in u but still inside [a1, a2]
        return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.tanh(
            slope * (np.asarray(u) - mid) / (v2 - v1))

    return f


def test_decreasing_forcing_with_zero_shift_fails_loudly(problem, solver_barrier):
    f = _reversed_blend(problem, solver_barrier)
    with pytest.raises(RuntimeError, match="larger K"):
        solve_radial(problem, solver_barrier, K=0.0, f=f)


def test_decreasing_forcing_converges_with_the_automatic_shift(problem, solver_barrier):
    # a mild decreasing slope: the shifted iteration contracts like
    # K / (K + mu_1) per sweep, so a steep slope would need thousands
    f = _reversed_blend(problem, solver_barrier, slope=0.1)
    sol = solve_radial(problem, solver_barrier, f=f)
    assert sol.K_used > 0.0
    assert check_sandwich(sol, solver_barrier)["ok"]
    assert sol.iteration_sup_deltas[-1] <= 1e-10


# ---------------------------------------------------------------------------
# consistency guards


def test_negative_shift_is_rejected(problem, solver_barrier):
    with pytest.raises(ValueError):
        solve_radial(problem, solver_barrier, K=-1.0)


def test_a_grid_too_short_for_the_decay_fit_is_refused_before_any_sweep(problem, pair):
    # 23 points leave 7 in the fit window, one short of the 8 the fit needs
    barrier = make_barriers(pair, np.linspace(2 * PI, 42 * PI, 23), extend_to=0.0)
    calls = []

    def f(r, u):
        calls.append(len(u))
        return make_blend(problem, barrier, r)(u)

    with pytest.raises(ValueError, match="fit window too small"):
        solve_radial(problem, barrier, f=f)
    assert calls == []


# ---------------------------------------------------------------------------
# the factor-once tridiagonal solver

# cyclic reduction halves the system level by level, so sizes next to powers
# of two exercise every odd/even remainder
SIZES = sorted({1, 2, 3, 999, 1000, 1001}
               | {2**k + d for k in range(2, 8) for d in (-1, 0, 1)})


def _check_against_dense(factor, lo, dia, up, rng):
    m = len(dia)
    A = np.diag(dia) + np.diag(lo, -1) + np.diag(up, 1)
    rhs, other = rng.normal(size=m), rng.normal(size=m)

    def solve(b):
        factor.rhs[:] = b
        return factor.solve().copy()

    x = solve(rhs)
    reference = np.linalg.solve(A, rhs)
    rel = np.linalg.norm(x - reference) / np.linalg.norm(reference)
    assert rel <= 1e-12 * np.linalg.cond(A, 1)
    assert np.array_equal(solve(rhs), x)
    solve(other)
    assert np.array_equal(solve(rhs), x)


@settings(max_examples=60)
@given(m=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
       margin=st.floats(1e-3, 1.0))
def test_cyclic_reduction_matches_a_dense_solve(m, seed, margin):
    rng = np.random.default_rng(seed)
    lo, up = rng.uniform(-1.0, 1.0, m - 1), rng.uniform(-1.0, 1.0, m - 1)
    weight = np.abs(np.append(0.0, lo)) + np.abs(np.append(up, 0.0))
    dia = (weight + margin) * (1.0 + rng.uniform(0.0, 1.0, m)) * rng.choice([-1.0, 1.0], m)
    _check_against_dense(_CyclicReduction(lo, dia, up), lo, dia, up, rng)


@settings(max_examples=60)
@given(m=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
       K=st.one_of(st.just(0.0), st.floats(1e-6, 100.0)))
def test_sweep_matrix_factor_matches_a_dense_solve(m, seed, K):
    rng = np.random.default_rng(seed)
    step = 40 * PI / (m + 1)
    si = 2 * PI + step * np.arange(1, m + 1)
    p_i = rng.uniform(0.0, 1.9 / step, m) * rng.uniform(0.0, 1.0)
    lo = p_i[1:] / (2 * step) - 1 / step**2
    up = -1 / step**2 - p_i[:-1] / (2 * step)
    dia = 2 / step**2 + (p_i / si + K)
    _check_against_dense(_sweep_factor(p_i, si, step, K), lo, dia, up, rng)


@pytest.mark.parametrize("p, what, other", [
    # central H' outweighs H'': the off-diagonals of L lose their sign
    ("1000", "abs(p) * step < 2", "p/s + K >= 0"),
    # the diagonal no longer dominates
    ("-1/s^3", "p/s + K >= 0", "abs(p) * step < 2"),
])
def test_a_sweep_matrix_that_is_no_m_matrix_is_refused(problem, solver_barrier, p, what, other):
    bad = dataclasses.replace(problem, p=parse(p))
    with pytest.raises(ValueError, match="not an M-matrix") as info:
        solve_radial(bad, solver_barrier, K=0.0)
    message = str(info.value)
    assert what in message and other not in message
    assert "p = " in message and "step = " in message and "K = 0.0" in message


def test_a_shift_restores_diagonal_dominance():
    si = np.linspace(7.0, 9.0, 101)
    p_i = -1.0 / si**3
    with pytest.raises(ValueError, match="not an M-matrix"):
        _sweep_factor(p_i, si, 0.02, 0.0)
    _sweep_factor(p_i, si, 0.02, float(np.max(-p_i / si)))


# ---------------------------------------------------------------------------
# discretisation order


def test_grid_halving_shows_second_order(problem, pair):
    sols = []
    for N in (8193, 16385, 32769):
        grid = np.linspace(2 * PI, 42 * PI, N)
        barrier = make_barriers(pair, grid)
        sols.append(solve_radial(problem, barrier).u_values)
    d1 = np.max(np.abs(sols[0] - sols[1][::2]))
    d2 = np.max(np.abs(sols[1] - sols[2][::2]))
    assert 3.5 <= d1 / d2 <= 4.5


# ---------------------------------------------------------------------------
# decay fitting


def test_decay_fit_recovers_a_synthetic_power_law(problem, solver_barrier):
    grid = solver_barrier.grid
    mock = BvpSolution(
        grid=grid,
        u_values=5.0 * np.ones_like(grid),   # H = const, so u = 5/s exactly
        iterations=1, iteration_sup_deltas=(0.0,),
        sandwich_margins=(0.0, 0.0), decay_exponent=None,
        K_used=0.0, residual_sup=0.0, boundary="upper",
    )
    fit = decay_fit(mock, problem)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-10)
    assert fit.max_log_residual <= 1e-10
    assert fit.n_points >= 8


def test_decay_fit_rejects_nonpositive_windows(problem, solver_barrier):
    grid = solver_barrier.grid
    mock = BvpSolution(
        grid=grid, u_values=np.zeros_like(grid),
        iterations=1, iteration_sup_deltas=(0.0,),
        sandwich_margins=(0.0, 0.0), decay_exponent=None,
        K_used=0.0, residual_sup=0.0, boundary="upper",
    )
    with pytest.raises(ValueError, match="not positive"):
        decay_fit(mock, problem)


def test_a_reversed_barrier_grid_is_refused(problem, solver_barrier):
    reversed_barrier = dataclasses.replace(solver_barrier, grid=solver_barrier.grid[::-1])
    with pytest.raises(ValueError, match="the solver needs a uniform barrier grid"):
        solve_radial(problem, reversed_barrier)
