"""Bridge between the exterior radial problem and the comparison equation.

For radial functions on the exterior domain |x| > R in dimension n >= 3,
the substitution

    r = beta(s) = (s / (n-2))^(1/(n-2)),      s = (n-2) r^(n-2),
    v(x) = h(s) / s  at  |x| = beta(s),

turns  v'' + ((n-1)/r) v' + f(r, v) + g(r) r v'  into

    ((n-2) / (beta beta')) * [ h'' + p (h' - h/s) + (1/(n-2)) beta beta' f ],

with  beta(s) beta'(s) = beta^(4-n) / (n-2)^2.  The damping is given once,
on the arc side, as p: the kernels, the barriers, the residual check and
the solver all read it there, and the radial damping it stands for,
g(r) = p(s) / (beta beta')(s) at s = (n-2) r^(n-2), is derived only where
a radial integral needs it.  A source coefficient a(r) lifts to
q(s) = (s/(n-2)) beta beta' a(beta(s)), so q/s is exactly the kernel-ODE
load and the whole machinery of :mod:`oscillax.kernel` applies; pushing a
q back down gives a(r) = (n-2)^2 r^(-2) q((n-2) r^(n-2)).

For n = 3 the map is the identity: g(r) = p(r) / r, q = s^2 a(s).

The barrier pair (h1, h2) built from an ordered coefficient pair provides
v1 = h1/s and v2 = h2/s; a nonlinearity f confined to the ribbon
a1 <= f <= a2 for v1 <= u <= v2 then has v1, v2 as sub- and supersolution,
which :func:`subsuper_residual` checks through the sign of the discrete
residuals.  The nonlinearity is given as ``f(r, u)`` to the functions that
evaluate it; leaving it out means the stock tanh blend of :func:`make_blend`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .example_builder import S0_FIXED, PairResult
from .kernel import HTail, KernelPair, _extrapolated_operator, compute_kernel
from .quadrature import (STOCK_EXTEND_TO, TailModel, integrate_finite, integrate_finite_many,
                         uniform_step)
from .radial import _beta_betaprime, _check_dim, beta_inverse, beta_map, excluded_arc

__all__ = [
    "RadialProblem",
    "BarrierPair",
    "ResidualReport",
    "lift_coefficients",
    "push_a_from_q",
    "make_barriers",
    "make_blend",
    "subsuper_residual",
    "integral_conditions",
]

SIGN_TOL = 1e-6       # tolerated discretisation leak of the barrier residual signs
RIBBON_TOL = 1e-12    # tolerated excursion of f beyond [a1, a2], relative to the ribbon width


class RadialProblem(NamedTuple):
    """Exterior-domain radial problem data.

    ``p`` is the damping on the arc side, a function of s >= S0_FIXED, with
    ``p_tail`` its decay model; they are the p and p_tail of the family.
    The radial damping g is not stored: it is derived from p (see the
    module docstring).  ``a1 <= a2`` are the source coefficients bounding
    the nonlinearity, functions of the radius (expressions use the variable
    name s for their argument).
    """

    n: int = 3
    R: float = 1.0
    p: Callable = None  # type: ignore[assignment]
    p_tail: Optional[TailModel] = None
    a1: Callable = None  # type: ignore[assignment]
    a2: Callable = None  # type: ignore[assignment]
    varsigma: float = 1.0

    def validate(self) -> None:
        _check_dim(self.n)
        if not self.R > 0:
            raise ValueError(f"the excluded ball needs a positive radius, got {self.R!r}")
        s_min = excluded_arc(self.n, self.R)
        if not S0_FIXED > s_min:
            raise ValueError(
                f"the arc parameter must start beyond the excluded ball: need "
                f"s0 = 2 pi > (n-2) R^(n-2) = {s_min!r}"
            )
        if self.p is None:
            raise ValueError("a damping coefficient p is required")
        if not self.varsigma > 0:
            raise ValueError("varsigma must be positive")


def lift_coefficients(problem: RadialProblem):
    """(q1, q2) on the arc side from (a1, a2) on the radial side.

    Returns vectorised callables of s; an entry is None when the
    corresponding a_i is missing.
    """
    problem.validate()
    n, R = problem.n, problem.R

    def lift_one(a):
        def q(s):
            s_arr = np.asarray(s, dtype=float)
            bb = _beta_betaprime(n, s_arr)
            return (s_arr / (n - 2)) * bb * np.asarray(a(beta_map(n, R, s_arr)), dtype=float)

        return q

    q1 = lift_one(problem.a1) if problem.a1 is not None else None
    q2 = lift_one(problem.a2) if problem.a2 is not None else None
    return q1, q2


def push_a_from_q(q: Callable, n: int) -> Callable:
    """a(r) = (n-2)^2 r^(-2) q((n-2) r^(n-2)), inverse of the lift."""
    _check_dim(n)

    def a(r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise ValueError("the radius must be positive")
        s = (n - 2) * np.power(r_arr, n - 2)
        return (n - 2) ** 2 / r_arr**2 * np.asarray(q(s), dtype=float)

    return a


# ---------------------------------------------------------------------------
# Barriers


class BarrierPair(NamedTuple):
    """Barrier traces h1 <= h2 of an ordered coefficient pair on a shared grid.

    Per member: the h-tail record and the sup|z| bound its certificate used.
    No z: only the ordering check of :func:`make_barriers` reads it.  The
    radial barriers v_i = h_i/s are read at the grid's own nodes, so no
    trace is ever interpolated.
    """

    grid: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h_tail: tuple[HTail, HTail]
    z_sup_bound: tuple[float, float]

    @property
    def gap_min(self) -> float:
        return float(np.min(self.h2 - self.h1))

    @property
    def gap_max(self) -> float:
        return float(np.max(self.h2 - self.h1))


def make_barriers(
    pair: PairResult,
    grid: np.ndarray,
    *,
    z_sup_bounds: Optional[tuple[float, float]] = None,
    extend_to: float = STOCK_EXTEND_TO,
    extend_step: float = math.pi / 80.0,
    parallel: bool = False,
) -> BarrierPair:
    """The barriers of an ordered pair on a shared grid, from both members' kernels.

    The ordering q1 <= q2 forces z1 >= z2 and hence h1 <= h2; both are
    verified on the grid and a violation raises, since barriers that cross
    cannot sandwich anything.  Each member's kernel is one build of its own
    cells (see :func:`~oscillax.kernel.compute_kernel`); the members share
    p, but sampling it on the cells costs less than a shared pass would
    save.  ``z_sup_bounds``, proven bounds on sup|z1| and sup|z2|,
    re-certify the h tails through :meth:`KernelPair.with_sup_bound`.  The
    members must be built to an extent at or past extend_to.  ``parallel``
    does nothing; it stays because the benchmark times make_barriers with
    and without it.
    """
    p = pair.q1.params.p

    def one(which: int) -> KernelPair:
        kernel = compute_kernel(p, (pair.q1, pair.q2)[which].q_callable, grid, extend_to=extend_to,
                                extend_step=extend_step)
        return kernel if z_sup_bounds is None else kernel.with_sup_bound(z_sup_bounds[which])

    k1, k2 = one(0), one(1)

    if np.any(k1.z_values < k2.z_values - 1e-12):
        raise ValueError("kernel ordering violated: z1 < z2 somewhere on the grid")
    if np.any(k1.h_values > k2.h_values + 1e-12):
        raise ValueError("barrier ordering violated: h1 > h2 somewhere on the grid")
    return BarrierPair(grid=k1.grid, h1=k1.h_values, h2=k2.h_values,
                       h_tail=(k1.h_tail, k2.h_tail),
                       z_sup_bound=(k1.z_sup_bound, k2.z_sup_bound))


def make_blend(problem: RadialProblem, barrier: BarrierPair, *,
               ribbon: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Callable:
    """The stock nonlinearity bound to the interior nodes of the barrier grid.

        f(r, u) = (a1 + a2)/2 + ((a2 - a1)/2) tanh((u - u_mid) / w),

    at r = beta(s) for s = barrier.grid[1:-1], with u_mid the midpoint of
    (v1, v2) = (h1, h2)/s there and w a quarter of the gap.  f is
    nondecreasing in u and stays strictly inside [a1, a2], so the barriers
    bound it by construction and the monotone iteration needs no shift.

    Everything that depends on s alone (the barrier traces, the gap and its
    check, a1, a2 and the midpoint) is computed here, once; the returned
    ``blend(u)`` evaluates f(r, u) with only the tanh left to do, so a
    monotone sweep over the grid pays for nothing else.  A caller that
    already holds a1 and a2 at those radii passes them as ``ribbon``.
    """
    problem.validate()
    if problem.a1 is None or problem.a2 is None:
        raise ValueError("the blend nonlinearity needs both ribbon edges a1 and a2")
    s = barrier.grid[1:-1]
    v1, v2 = barrier.h1[1:-1] / s, barrier.h2[1:-1] / s
    gap = v2 - v1
    if np.any(gap <= 0):
        raise ValueError("degenerate ribbon: the barriers touch at some radius")
    lo, hi = ribbon if ribbon is not None else _ribbon(problem, beta_map(problem.n, problem.R, s))
    mid = 0.5 * (v1 + v2)
    base = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def blend(u):
        # the expression's own operations, in place in one array of the broadcast shape
        t = np.asarray(np.subtract(np.asarray(u, dtype=float), mid))
        t *= 4.0
        t /= gap
        np.tanh(t, out=t)
        t *= half
        t += base
        return t

    return blend


def _ribbon(problem: RadialProblem, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a1(r), a2(r))."""
    if problem.a1 is None or problem.a2 is None:
        raise ValueError("the ribbon needs both edges a1 and a2")
    return (np.asarray(problem.a1(r), dtype=float),
            np.asarray(problem.a2(r), dtype=float))


# ---------------------------------------------------------------------------
# Residual signs


class ResidualReport(NamedTuple):
    grid: np.ndarray      # every fourth node of the barrier grid, the nodes of rho1 and rho2
    rho1: np.ndarray
    rho2: np.ndarray
    min_rho1: float
    max_rho2: float
    lower_ok: bool
    upper_ok: bool
    ribbon_excursion: float
    rho1_estimate: float  # error estimates of the extrapolated rho1 and rho2
    rho2_estimate: float


def subsuper_residual(
    problem: RadialProblem,
    barrier: BarrierPair,
    *,
    f: Optional[Callable] = None,
) -> ResidualReport:
    """Residuals of the barriers under the nonlinearity f(r, u).

    On the arc side the operator is  L[h] + (1/(n-2)) beta beta' f(beta, h/s)
    with L[h] = h'' + p (h' - h/s).  A subsolution must keep it >= 0 (for
    h1), a supersolution <= 0 (for h2).  L is Richardson-extrapolated from
    central differences on the barrier grid's even nodes, and the pointwise
    f term is added, at every fourth node (see
    :func:`~oscillax.kernel._extrapolated_operator`; the grid needs 17 points
    or more); SIGN_TOL sets the tolerated discretisation leak, and a sign
    holds only when it holds with the extrapolation's error estimate taken
    against it.  f, the stock blend when omitted, is required to respect the
    ribbon a1 <= f <= a2 at every interior node; an excursion beyond
    RIBBON_TOL (relative to the ribbon width) is a hard error because the
    sandwich argument breaks there.
    """
    problem.validate()
    n, R = problem.n, problem.R
    g = barrier.grid
    step = uniform_step(g, "residual checks need a uniform barrier grid")

    si = g[1:-1]
    r_i = beta_map(n, R, si)
    lo, hi = _ribbon(problem, r_i)
    fn = (make_blend(problem, barrier, ribbon=(lo, hi)) if f is None
          else lambda u: f(r_i, u))
    width = np.max(hi - lo)
    p2 = np.asarray(problem.p(g[::2][1:-1]), dtype=float)
    nodes = g[::4][1:-1]
    at = slice(3, 4 * len(nodes), 4)  # those nodes among the interior ones
    B = _beta_betaprime(n, nodes) / (n - 2)

    excursion = 0.0
    rhos, estimates = [], []
    for h in (barrier.h1, barrier.h2):
        fv = np.asarray(fn(h[1:-1] / si), dtype=float)
        over = float(np.max(np.maximum(fv - hi, lo - fv)))
        excursion = max(excursion, over)
        if over > RIBBON_TOL * max(width, 1.0):
            raise ValueError(
                f"nonlinearity leaves the ribbon [a1, a2] by {over!r} "
                f"while evaluating barrier residuals; the comparison argument "
                f"does not apply to such an f"
            )
        rho, _, estimate = _extrapolated_operator(h, g, p2, step)
        rho += B * fv[at]
        rhos.append(rho)
        estimates.append(estimate)
    rho1, rho2 = rhos
    min_rho1, max_rho2 = float(np.min(rho1)), float(np.max(rho2))

    return ResidualReport(
        grid=nodes,
        rho1=rho1,
        rho2=rho2,
        min_rho1=min_rho1,
        max_rho2=max_rho2,
        lower_ok=min_rho1 - estimates[0] >= -SIGN_TOL,
        upper_ok=max_rho2 + estimates[1] <= SIGN_TOL,
        ribbon_excursion=excursion,
        rho1_estimate=estimates[0],
        rho2_estimate=estimates[1],
    )


# ---------------------------------------------------------------------------
# Integral conditions in the radial variable


def integral_conditions(
    problem: RadialProblem,
    T: float,
    *,
    sup_q: Optional[tuple[float, float]] = None,
) -> dict:
    """The three radial integral features, measured up to radius T.

    ``sup_q`` holds certified bounds on sup|q1| and sup|q2|, the lifts of
    a1 and a2; it is required when the problem has a source.

    (i) integral r^(n-1) g dr converges, for the radial damping g derived
        from p.  p is given for s >= s0 only, so g is known for
        r >= beta(s0) and the finite part is taken over [beta(s0), T].
        Through r = beta(s) it equals (1/(n-2)) integral s p ds over
        [s0, S_T], S_T = beta^-1(T), and the two routes are cross-checked;
        the tail beyond T is certified on the arc side by the first moment
        of p_tail beyond S_T.
    (ii) integral r |a_i| dr grows without bound: partial integrals at
        T, 2T, 4T with their growth rate against ln T.
    (iii) integral r^(1 - varsigma (n-2)) |a_i| dr converges: Cauchy gap
        between T and 2T against the closed-form tail bound, which needs
        sup|q_i| from ``sup_q``.  Through r = beta(s) the integral equals
        (n-2)^(1+varsigma) integral |q| / s^(1+varsigma) ds, the integral
        :func:`check_integral_features` tests on the family with the same
        varsigma, so the bound is (n-2)^(1+varsigma) sup|q| S_T^-varsigma / varsigma.
    """
    problem.validate()
    n, R, vs = problem.n, problem.R, problem.varsigma
    if not T > 4.0 * R:
        raise ValueError("truncation radius must exceed the excluded ball comfortably")
    if sup_q is None and (problem.a1 is not None or problem.a2 is not None):
        raise ValueError("the radial sources need certified bounds sup_q on sup|q1|, sup|q2|")
    p = problem.p
    S_T = beta_inverse(n, R, T)

    def radial_damping(r):
        # r^(n-1) g(r), with g(r) = p(s) / (beta beta')(s) at s = beta^-1(r)
        r_arr = np.asarray(r, dtype=float)
        s = beta_inverse(n, R, r_arr)
        g = np.asarray(p(s), dtype=float) / _beta_betaprime(n, s)
        return np.power(r_arr, n - 1) * g

    r_lo = beta_map(n, R, S0_FIXED)
    damping = integrate_finite(radial_damping, r_lo, T, tol=1e-10)
    cross = integrate_finite(
        lambda s: np.asarray(s, dtype=float) * np.asarray(p(s), dtype=float) / (n - 2),
        S0_FIXED, S_T, tol=1e-10,
    )
    moment = problem.p_tail.first_moment() if problem.p_tail is not None else None
    certificate = None if moment is None else moment.tail_bound(S_T) / (n - 2)

    out = {
        "damping_radial_integral": damping.value,
        "damping_certificate": certificate,
        "damping_converges": certificate is not None,
        "substitution_identity_gap": abs(cross.value - damping.value),
        "varsigma": vs,
        "T": float(T),
    }

    seeds = _lobe_radii(problem, source_reach(n, R, T))
    for label, a, sup_val in zip(("a1", "a2"), (problem.a1, problem.a2), sup_q or (None, None)):
        if a is None:
            continue

        def r_weighted(r, power):
            r_arr = np.asarray(r, dtype=float)
            return np.power(r_arr, power) * np.abs(np.asarray(a(r_arr), dtype=float))

        parts = integrate_finite_many(lambda r: r_weighted(r, 1.0),
                                      [(r_lo, T), (r_lo, 2.0 * T), (r_lo, 4.0 * T)],
                                      tol=1e-9, seeds=seeds, limit=20000)
        growth = [part.value for part in parts]
        slope = ((growth[2] - growth[0]) / math.log(4.0))

        heavy_T, heavy_2T = integrate_finite_many(
            lambda r: r_weighted(r, 1.0 - vs * (n - 2)), [(r_lo, T), (r_lo, 2.0 * T)],
            tol=1e-10, seeds=seeds, limit=20000)
        gap_bound = (n - 2) ** (1.0 + vs) * sup_val * S_T ** (-vs) / vs
        out[label] = {
            "growth_partials": growth,
            "growth_slope_vs_logT": slope,
            "diverges": bool(growth[0] < growth[1] < growth[2] and slope > 0),
            "heavy_T": heavy_T.value,
            "heavy_2T": heavy_2T.value,
            "cauchy_gap": abs(heavy_2T.value - heavy_T.value),
            "gap_bound": gap_bound,
            "sup_q": sup_val,
            "sup_q_source": "certified",
            "converges": bool(abs(heavy_2T.value - heavy_T.value) <= gap_bound + 1e-12),
        }
    return out


def source_reach(n: int, R: float, T: float) -> float:
    """The largest s at which :func:`integral_conditions` up to radius T reads the
    sources: that of radius 4 T, where the growth integrals end."""
    with np.errstate(over="ignore"):  # a reach past float range is inf
        return float(beta_inverse(n, R, 4.0 * T))


def _lobe_radii(problem: RadialProblem, s_hi: float) -> np.ndarray:
    """Radial images of the half-period nodes from s0 = 2 pi up to s_hi, for quadrature seeding."""
    n, R = problem.n, problem.R
    m_hi = int(math.ceil(s_hi / math.pi)) + 1
    nodes = math.pi * np.arange(2, m_hi)
    return beta_map(n, R, nodes)
