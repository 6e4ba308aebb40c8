"""Monotone iteration for the truncated radial problem between barriers.

Working on the arc side, the truncated problem on [s0, S] is

    H'' + p (H' - H/s) + B(s) f(beta(s), H/s) = 0,
    B(s) = beta(s) beta'(s) / (n - 2),

with Dirichlet data taken from a barrier trace.  Starting from the upper
barrier H^0 = h2 (or the lower one), each sweep solves the shifted linear
problem

    (L - K) H^{k+1} = -B f(beta, H^k / s) - K H^k

with the tridiagonal central-difference L.  For f nondecreasing in u the
shift K = 0 already makes the sweep order preserving, so the iterates
decrease monotonically from the supersolution and converge geometrically;
a decreasing f needs K at least the worst negative slope of B f / s, which
the solver estimates by sampling the ribbon when K is not given.

The homogeneous solution A s of L is resolved exactly by the scheme, so
boundary data enters without discretisation bias; what remains is the
O(step^2) truncation of the particular part, which the grid-halving checks
in the test suite pin to the expected fourth-fold decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .coeff_dsl import as_callable
from .pde_bridge import (
    BarrierPair,
    RadialProblem,
    _beta_betaprime,
    beta_map,
    resolve_nonlinearity,
)

__all__ = ["BvpSolution", "DecayFit", "solve_radial", "check_sandwich", "decay_fit"]


@dataclass(frozen=True)
class BvpSolution:
    """Converged iterate with its convergence and sandwich accounting.

    ``u_values`` holds the arc-side profile H (the radial solution is
    u(r) = H(s)/s at r = beta(s)); ``iteration_sup_deltas`` the sup norm of
    successive differences, strictly decreasing after the first entry when
    the shift is adequate.  ``residual`` is the discrete residual of the
    converged iterate on the grid, zero at the two Dirichlet nodes; its sup
    is ``residual_sup``.
    """

    grid: np.ndarray
    u_values: np.ndarray
    iterations: int
    iteration_sup_deltas: tuple
    sandwich_margins: tuple          # (min (H - h1)/s, min (h2 - H)/s)
    decay_exponent: Optional[float]
    K_used: float
    residual_sup: float
    boundary: str
    residual: Optional[np.ndarray] = None


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    max_log_residual: float
    r_lo: float
    r_hi: float
    n_points: int


def _estimate_shift(
    problem: RadialProblem,
    barrier: BarrierPair,
    f: Optional[Callable],
    *,
    levels: int = 9,
    safety: float = 1.5,
) -> float:
    """Sampled lower bound for the shift: worst negative u-slope of B f / s.

    Zero for any f nondecreasing in u, in particular the stock blend.
    """
    g = barrier.grid
    n, R = problem.n, problem.R
    si = g[1:-1:max(1, len(g) // 512)]
    r_i = beta_map(n, R, si)
    B = _beta_betaprime(n, si) / (n - 2)
    fn = resolve_nonlinearity(problem, barrier, r_i, f)
    v1 = np.interp(si, g, barrier.h1) / si
    v2 = np.interp(si, g, barrier.h2) / si
    width = v2 - v1
    worst = 0.0
    for t in np.linspace(0.05, 0.95, levels):
        u = v1 + t * width
        du = 1e-4 * width
        slope = (np.asarray(fn(u + du), dtype=float)
                 - np.asarray(fn(u - du), dtype=float)) / (2.0 * du)
        worst = min(worst, float(np.min(B * slope / si)))
    return safety * max(0.0, -worst)


def solve_radial(
    problem: RadialProblem,
    barrier: BarrierPair,
    S: Optional[float] = None,
    N: Optional[int] = None,
    K: Optional[float] = None,
    tol: float = 1e-10,
    *,
    f: Optional[Callable] = None,
    boundary: str = "upper",
    max_iter: int = 200,
) -> BvpSolution:
    """Run the monotone iteration on the barrier grid until sup-convergence.

    The barriers must live on the solver grid, so S and N, when given, only
    assert consistency with barrier.grid.  ``boundary`` picks the barrier
    supplying the Dirichlet trace and the starting iterate: "upper" descends
    from h2 towards the maximal solution, "lower" ascends from h1.
    """
    if boundary not in ("upper", "lower"):
        raise ValueError(f"boundary must be 'upper' or 'lower', got {boundary!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    g = barrier.grid
    step = g[1] - g[0]
    if np.any(np.abs(np.diff(g) - step) > 1e-9 * max(step, 1.0)):
        raise ValueError("the solver needs a uniform barrier grid")
    if S is not None and abs(float(S) - g[-1]) > 1e-9 * max(abs(float(S)), 1.0):
        raise ValueError(
            f"requested truncation S = {S!r} does not match the barrier grid "
            f"end {float(g[-1])!r}; build the barriers on the solver grid"
        )
    if N is not None and int(N) != len(g):
        raise ValueError(
            f"requested N = {N!r} does not match the barrier grid size {len(g)}"
        )
    if len(g) < 9:
        raise ValueError("grid too coarse for the five-figure bookkeeping")

    problem.validate()
    n, R = problem.n, problem.R
    K_used = float(K) if K is not None else _estimate_shift(problem, barrier, f)
    if K_used < 0:
        raise ValueError("the shift K must be nonnegative")

    si = g[1:-1]
    p_i = np.asarray(as_callable(problem.p)(si), dtype=float)
    r_i = beta_map(n, R, si)
    B = _beta_betaprime(n, si) / (n - 2)
    fn = resolve_nonlinearity(problem, barrier, r_i, f)

    sub = 1.0 / step**2 - p_i / (2.0 * step)
    sup = 1.0 / step**2 + p_i / (2.0 * step)
    dia = -2.0 / step**2 - p_i / si - K_used
    ab = np.zeros((3, len(si)))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = dia
    ab[2, :-1] = sub[1:]

    start = barrier.h2 if boundary == "upper" else barrier.h1
    H = start.copy()
    H_left, H_right = float(start[0]), float(start[-1])
    direction = -1.0 if boundary == "upper" else 1.0

    deltas: list[float] = []
    for sweep in range(max_iter):
        load = B * np.asarray(fn(H[1:-1] / si), dtype=float)
        rhs = -load - K_used * H[1:-1]
        rhs[0] -= sub[0] * H_left
        rhs[-1] -= sup[-1] * H_right
        interior = solve_banded((1, 1), ab, rhs)
        H_new = np.concatenate(([H_left], interior, [H_right]))

        # "upper" must descend (H_new <= H), "lower" must ascend.  The first
        # sweep leaves the starting barrier, which satisfies the discrete
        # equations only up to O(step^2) truncation, so monotonicity is
        # enforced from the second sweep on, where it is an exact
        # consequence of the discrete maximum principle.
        overshoot = float(np.max(-direction * (H_new - H)))
        if sweep > 0 and overshoot > 1e-12:
            raise RuntimeError(
                f"iteration left the monotone corridor by {overshoot!r}; "
                f"the shift K = {K_used!r} is too small for this nonlinearity, "
                f"rerun with a larger K"
            )
        delta = float(np.max(np.abs(H_new - H)))
        deltas.append(delta)
        H = H_new
        if delta <= tol:
            break
    else:
        raise RuntimeError(
            f"no convergence in {max_iter} sweeps; last delta {deltas[-1]:.3e} "
            f"(tolerance {tol:.3e})"
        )

    load = B * np.asarray(fn(H[1:-1] / si), dtype=float)
    d2 = (H[:-2] - 2.0 * H[1:-1] + H[2:]) / step**2
    d1 = (H[2:] - H[:-2]) / (2.0 * step)
    interior = d2 + p_i * (d1 - H[1:-1] / si) + load

    return BvpSolution(
        grid=g,
        u_values=H,
        iterations=len(deltas),
        iteration_sup_deltas=tuple(deltas),
        sandwich_margins=(
            float(np.min((H - barrier.h1) / g)),
            float(np.min((barrier.h2 - H) / g)),
        ),
        decay_exponent=_fit_decay(g, H, problem).exponent,
        K_used=K_used,
        residual_sup=float(np.max(np.abs(interior))),
        boundary=boundary,
        residual=np.concatenate(([0.0], interior, [0.0])),
    )


def check_sandwich(solution: BvpSolution, barrier: BarrierPair, tol: float = 1e-8) -> dict:
    """Margins of v1 <= u <= v2 on the grid, in the radial scale u = H/s."""
    g = solution.grid
    if g.shape != barrier.grid.shape or np.any(g != barrier.grid):
        raise ValueError("solution and barriers live on different grids")
    lower = (solution.u_values - barrier.h1) / g
    upper = (barrier.h2 - solution.u_values) / g
    return {
        "lower_margin": float(np.min(lower)),
        "upper_margin": float(np.min(upper)),
        "lower_argmin": float(g[int(np.argmin(lower))]),
        "upper_argmin": float(g[int(np.argmin(upper))]),
        "ok": bool(np.min(lower) >= -tol and np.min(upper) >= -tol),
    }


def decay_fit(
    solution: BvpSolution,
    problem: RadialProblem,
    window: float = 0.30,
    exclude: float = 0.05,
) -> DecayFit:
    """Least-squares decay exponent of u(r) = H/s on a log-log window.

    The window covers the given fraction of the grid, ending just short of
    the truncation boundary (the excluded final fraction) so the Dirichlet
    condition does not contaminate the fit.  For the exterior problem the
    expected exponent is 2 - n.
    """
    return _fit_decay(solution.grid, solution.u_values, problem, window, exclude)


def _fit_decay(
    g: np.ndarray,
    H: np.ndarray,
    problem: RadialProblem,
    window: float = 0.30,
    exclude: float = 0.05,
) -> DecayFit:
    """:func:`decay_fit` on the grid ``g`` and the arc-side profile ``H``."""
    if not (0.0 < window < 1.0 and 0.0 <= exclude < 1.0 and window + exclude < 1.0):
        raise ValueError("window and exclude must be fractions with window + exclude < 1")
    u = H / g
    N = len(g)
    j1 = int(round(N * (1.0 - exclude)))
    j0 = int(round(N * (1.0 - exclude - window)))
    j0, j1 = max(0, j0), min(N, j1)
    if j1 - j0 < 8:
        raise ValueError("fit window too small on this grid")
    if np.any(u[j0:j1] <= 0):
        raise ValueError("solution is not positive on the fit window")
    r = beta_map(problem.n, problem.R, g[j0:j1])
    x = np.log(np.asarray(r, dtype=float))
    y = np.log(u[j0:j1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(
        exponent=float(slope),
        intercept=float(intercept),
        max_log_residual=resid,
        r_lo=float(r[0]),
        r_hi=float(r[-1]),
        n_points=j1 - j0,
    )
