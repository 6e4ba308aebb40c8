"""Monotone iteration for the truncated radial problem between barriers.

Working on the arc side, the truncated problem on [s0, S] is

    H'' + p (H' - H/s) + B(s) f(beta(s), H/s) = 0,
    B(s) = beta(s) beta'(s) / (n - 2),

with Dirichlet data taken from a barrier trace.  Starting from the upper
barrier H^0 = h2 (or the lower one), each sweep solves the shifted linear
problem

    (L - K) H^{k+1} = -B f(beta, H^k / s) - K H^k

with the tridiagonal central-difference L.  The sweep is written for the
increment dH = H^{k+1} - H^k, which keeps the Dirichlet nodes fixed:

    (K - L) dH = L H^k + B f(beta, H^k / s),

whose right-hand side is the discrete residual of H^k, the same formula the
final check reports.  The matrix K - L does not change from sweep to sweep,
so it is factored once per solve by odd-even cyclic reduction (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 7, 1970) and each sweep runs only the
reduction and back-substitution of its right-hand side.  The factorization
first checks that K - L is an M-matrix: off-diagonals of L positive
(p step < 2) and -diag >= sub + sup (p/s + K >= 0).  That is the discrete
maximum principle the monotonicity below rests on, and it also makes the
reduction stable without pivoting (Heller, SIAM J. Numer. Anal. 13, 1976).

For f nondecreasing in u the shift K = 0 already makes the sweep order
preserving, so the iterates decrease monotonically from the supersolution
and converge geometrically; a decreasing f needs K at least the worst
negative slope of B f / s, which the solver estimates by sampling the ribbon
when K is not given.

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

from .coeff_dsl import as_callable
from .kernel import _central_operator
from .pde_bridge import (
    BarrierPair,
    RadialProblem,
    _beta_betaprime,
    beta_map,
    make_blend,
)
from .quadrature import uniform_step

__all__ = ["BvpSolution", "DecayFit", "solve_radial", "check_sandwich", "decay_fit"]

SANDWICH_TOL = 1e-8   # how far below a barrier the solution may dip, in the radial scale
SHIFT_LEVELS = 9      # levels across the ribbon where the shift estimate samples the u-slope
SHIFT_SAFETY = 1.5    # factor on the worst sampled negative slope
FIT_WINDOW = 0.30     # fraction of the grid the decay fit covers ...
FIT_EXCLUDE = 0.05    # ... ending this fraction short of the truncation boundary
FIT_POINTS = 8        # fewest grid points the decay fit's window may hold


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


class _CyclicReduction:
    """A tridiagonal matrix factored once by odd-even cyclic reduction.

    Row i reads ``lo[i-1] x[i-1] + dia[i] x[i] + up[i] x[i+1]``.  Each level
    keeps the odd rows and eliminates the even ones, halving the system until
    one row is left.  No pivoting is done, so the pivots must stay nonzero
    under the reduction, as they do for a diagonally dominant matrix.

    The factor's coefficients live in one block and the right-hand sides of
    every level in another, both allocated here; :meth:`solve` allocates
    nothing, and repeated solves give bit-identical results.
    """

    def __init__(self, lo, dia, up):
        lo, b, up = (np.asarray(v, dtype=float) for v in (lo, dia, up))
        m = len(b)
        sizes = [m]
        while sizes[-1] > 1:
            sizes.append(sizes[-1] // 2)
        # a level of n rows keeps n // 2 and eliminates the other ne; `inner`
        # = ne - 1 eliminated rows have a left neighbour, as many kept rows a
        # right one
        coef = np.empty(sum(3 * n - n // 2 - 2 for n in sizes[:-1]) + 1)
        work = np.empty(sum(sizes))
        self._levels = []
        at = 0
        for n in sizes[:-1]:
            kept, inner = n // 2, (n - 1) // 2
            ne = n - kept
            inv, alpha, gamma, left_e, right_e = np.split(
                coef[at:at + ne + 2 * kept + 2 * inner],
                np.cumsum([ne, kept, inner, inner]))
            at += ne + 2 * kept + 2 * inner
            np.divide(1.0, b[0::2], out=inv)
            np.multiply(lo[0::2], inv[:kept], out=alpha)        # a_k / b_(k-1)
            np.multiply(up[1::2], inv[1:], out=gamma)           # c_k / b_(k+1)
            np.multiply(lo[1::2], inv[1:], out=left_e)          # a_e / b_e
            np.multiply(up[0::2], inv[:kept], out=right_e)      # c_e / b_e
            b_next = b[1::2] - alpha * up[0::2]
            b_next[:inner] -= gamma * lo[1::2]
            lo_next = -alpha[1:] * lo[1::2][:kept - 1]
            up_next = -gamma[:kept - 1] * up[2::2]
            self._levels.append((work[:n], work[n:n + kept], inv, alpha, gamma,
                                 left_e, right_e))
            work = work[n:]
            lo, b, up = lo_next, b_next, up_next
        coef[-1] = 1.0 / b[0]
        self._last = (work, coef[-1:])
        self.rhs = self._levels[0][0] if self._levels else work

    def solve(self) -> np.ndarray:
        """Solve for the right-hand side the caller wrote into :attr:`rhs`.

        Returns :attr:`rhs`, which now holds the solution; the next solve
        overwrites it.
        """
        # d' = d_k - alpha d_(k-1) - gamma d_(k+1); the odd slots of d, read
        # into d' first, then hold the products
        for d, d_next, _, alpha, gamma, _, _ in self._levels:
            tmp = d[1:2 * len(gamma):2]
            np.multiply(alpha, d[0:2 * len(alpha):2], out=d_next)
            np.subtract(d[1::2], d_next, out=d_next)
            np.multiply(gamma, d[2::2], out=tmp)
            d_next[:len(gamma)] -= tmp
        x, inv = self._last
        x *= inv
        # x_e = d_e / b_e - (a_e / b_e) x_(e-1) - (c_e / b_e) x_(e+1), then the
        # kept rows' solution fills the odd slots
        for d, x_kept, inv, _, _, left_e, right_e in reversed(self._levels):
            x_e, tmp = d[0::2], d[1::2]
            x_e *= inv
            np.multiply(right_e, x_kept, out=tmp)
            x_e[:len(tmp)] -= tmp
            np.multiply(left_e, x_kept[:len(left_e)], out=tmp[:len(left_e)])
            x_e[1:] -= tmp[:len(left_e)]
            tmp[:] = x_kept
        return self.rhs


def _sweep_factor(p_i: np.ndarray, si: np.ndarray, step: float, K: float) -> _CyclicReduction:
    """K - L on the interior nodes ``si``, checked to be an M-matrix, then factored.

    L H = (H[i-1] - 2 H[i] + H[i+1]) / step^2 + p (H' - H/s) with the central
    H'.  The off-diagonals of L are positive when p step < 2 in absolute
    value, and -diag >= sub + sup reads p/s + K >= 0 in exact arithmetic;
    together they are the discrete maximum principle of the sweep.
    """
    half = p_i / (2.0 * step)
    slack = p_i / si + K
    steep = ~(np.abs(half) < 1.0 / step**2)
    bad = steep | ~(slack >= 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        need, fix = (("abs(p) * step < 2", "refine the grid") if steep[i]
                     else ("p/s + K >= 0", "raise K"))
        raise ValueError(
            f"the sweep matrix is not an M-matrix at s = {float(si[i])!r}: it needs "
            f"{need}, but p = {float(p_i[i])!r}, step = {float(step)!r}, "
            f"K = {float(K)!r}; {fix}"
        )
    slack += 2.0 / step**2
    return _CyclicReduction(half[1:] - 1.0 / step**2, slack, -1.0 / step**2 - half[:-1])


def _estimate_shift(
    problem: RadialProblem,
    barrier: BarrierPair,
    f: Optional[Callable],
) -> float:
    """Sampled lower bound for the shift: worst negative u-slope of B f / s.

    Zero for any f nondecreasing in u, in particular the stock blend, which
    a missing f stands for.
    """
    g = barrier.grid
    n, R = problem.n, problem.R
    si = g[1:-1:max(1, len(g) // 512)]
    r_i = beta_map(n, R, si)
    B = _beta_betaprime(n, si) / (n - 2)
    fn = make_blend(problem, barrier, r_i) if f is None else lambda u: f(r_i, u)
    v1 = barrier.v1(si)
    width = barrier.v2(si) - v1
    worst = 0.0
    for t in np.linspace(0.05, 0.95, SHIFT_LEVELS):
        u = v1 + t * width
        du = 1e-4 * width
        slope = (np.asarray(fn(u + du), dtype=float)
                 - np.asarray(fn(u - du), dtype=float)) / (2.0 * du)
        worst = min(worst, float(np.min(B * slope / si)))
    return SHIFT_SAFETY * max(0.0, -worst)


def solve_radial(
    problem: RadialProblem,
    barrier: BarrierPair,
    K: Optional[float] = None,
    tol: float = 1e-10,
    *,
    f: Optional[Callable] = None,
    boundary: str = "upper",
    max_iter: int = 200,
) -> BvpSolution:
    """Run the monotone iteration on the barrier grid until sup-convergence.

    ``f(r, u)`` is the nonlinearity, the stock blend of :func:`make_blend`
    when omitted.  ``boundary`` picks the barrier supplying the Dirichlet
    trace and the starting iterate: "upper" descends from h2 towards the
    maximal solution, "lower" ascends from h1.
    """
    if boundary not in ("upper", "lower"):
        raise ValueError(f"boundary must be 'upper' or 'lower', got {boundary!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    g = barrier.grid
    step = uniform_step(g, "the solver needs a uniform barrier grid")
    fit_window(len(g))

    problem.validate()
    n, R = problem.n, problem.R
    K_used = float(K) if K is not None else _estimate_shift(problem, barrier, f)
    if K_used < 0:
        raise ValueError("the shift K must be nonnegative")

    si = g[1:-1]
    p_i = np.asarray(as_callable(problem.p)(si), dtype=float)
    r_i = beta_map(n, R, si)
    B = _beta_betaprime(n, si) / (n - 2)
    fn = make_blend(problem, barrier, r_i) if f is None else lambda u: f(r_i, u)

    factor = _sweep_factor(p_i, si, step, K_used)
    work = np.empty((2, len(si)))

    def residual(out: np.ndarray) -> np.ndarray:
        """out = L H + B f(beta, H/s) on the interior nodes; ``work`` is its scratch."""
        _central_operator(H, si, p_i, step, out, work)
        u, term = work
        np.divide(H[1:-1], si, out=u)
        np.multiply(B, fn(u), out=term)
        out += term
        return out

    H = (barrier.h2 if boundary == "upper" else barrier.h1).copy()
    deltas: list[float] = []
    for sweep in range(max_iter):
        residual(factor.rhs)
        dH = factor.solve()
        lo, hi = float(dH.min()), float(dH.max())

        # "upper" must descend (dH <= 0), "lower" must ascend.  The first
        # sweep leaves the starting barrier, which satisfies the discrete
        # equations only up to O(step^2) truncation, so monotonicity is
        # enforced from the second sweep on, where it is an exact
        # consequence of the discrete maximum principle.
        overshoot = hi if boundary == "upper" else -lo
        if sweep > 0 and overshoot > 1e-12:
            raise RuntimeError(
                f"iteration left the monotone corridor by {overshoot!r}; "
                f"the shift K = {K_used!r} is too small for this nonlinearity, "
                f"rerun with a larger K"
            )
        delta = max(hi, -lo)
        deltas.append(delta)
        H[1:-1] += dH
        if delta <= tol:
            break
    else:
        raise RuntimeError(
            f"no convergence in {max_iter} sweeps; last delta {deltas[-1]:.3e} "
            f"(tolerance {tol:.3e})"
        )

    full_residual = np.zeros(len(g))
    interior = residual(full_residual[1:-1])

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
        residual=full_residual,
    )


def check_sandwich(solution: BvpSolution, barrier: BarrierPair) -> dict:
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
        "ok": bool(np.min(lower) >= -SANDWICH_TOL and np.min(upper) >= -SANDWICH_TOL),
    }


def decay_fit(solution: BvpSolution, problem: RadialProblem) -> DecayFit:
    """Least-squares decay exponent of u(r) = H/s on a log-log window.

    The window covers the fraction FIT_WINDOW of the grid, ending the
    fraction FIT_EXCLUDE short of the truncation boundary so the Dirichlet
    condition does not contaminate the fit.  For the exterior problem the
    expected exponent is 2 - n.
    """
    return _fit_decay(solution.grid, solution.u_values, problem)


def fit_window(N: int) -> tuple[int, int]:
    """Index range [j0, j1) of the decay fit on an N-point grid, at least FIT_POINTS long."""
    j1 = min(N, int(round(N * (1.0 - FIT_EXCLUDE))))
    j0 = max(0, int(round(N * (1.0 - FIT_EXCLUDE - FIT_WINDOW))))
    if j1 - j0 < FIT_POINTS:
        raise ValueError(f"fit window too small on this grid: {N} points leave {j1 - j0} "
                         f"in the decay fit's window, which needs {FIT_POINTS}")
    return j0, j1


def _fit_decay(g: np.ndarray, H: np.ndarray, problem: RadialProblem) -> DecayFit:
    """:func:`decay_fit` on the grid ``g`` and the arc-side profile ``H``."""
    u = H / g
    j0, j1 = fit_window(len(g))
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
