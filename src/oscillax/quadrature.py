"""Adaptive quadrature with explicit tail accounting.

Finite intervals use a Gauss-Kronrod 7-15 rule with bisection of the panel
carrying the largest error estimate.  Semi-infinite integrals are split at a
cutoff into an adaptive finite part plus a certified analytic tail bound
supplied by a :class:`TailModel`; the model is spot-checked against samples
of the integrand beyond the cutoff, so a wrong decay claim fails loudly
rather than silently biasing the result.

Integrals of one integrand over many intervals run in lockstep: every
interval keeps its own adaptive loop, but each refinement round makes a
single integrand call on the nodes of all panels that round creates, so a
batch of a few hundred small integrals costs tens of calls instead of
thousands.  The one-interval function is the batch function on a batch of
one, and a batched result is bit for bit the one the interval gets alone.

Every result carries the value, an a-posteriori error estimate, the tail
bound that was added to that estimate, and the evaluation count.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "IntegralResult",
    "TailModel",
    "check_envelope",
    "integrate_finite",
    "integrate_finite_many",
    "integrate_tail",
    "cumulative_integral",
    "cumulative_simpson_doubled",
    "equation_grid",
    "uniform_step",
]

class IntegralResult(NamedTuple):
    """Value of an integral together with its accounting.

    ``abs_error_estimate`` bounds the numerical error of the finite part;
    ``tail_bound`` is the certified bound on whatever lies beyond the cutoff
    (zero for finite intervals).  ``evaluations`` counts integrand points,
    not calls: 15 per GK15 panel, plus, for a tail integral, the envelope
    samples :func:`check_envelope` took past its cutoff.
    """

    value: float
    abs_error_estimate: float
    tail_bound: float = 0.0
    evaluations: int = 0


class _TailFields(NamedTuple):
    kind: str
    rate: float
    coef: float = 1.0
    bound_fn: Optional[Callable[[float], float]] = None


class TailModel(_TailFields):
    """Certified decay envelope for an integrand beyond a cutoff.

    kind "power":  |f(s)| <= coef * s**-rate with rate > 1, so the tail
                   beyond S is bounded by coef * S**(1-rate) / (rate-1).
    kind "exp":    |f(s)| <= coef * exp(-rate*s) with rate > 0, tail bound
                   coef * exp(-rate*S) / rate.
    kind "user":   an explicit bound function S -> tail bound; the envelope
                   is taken on trust and not sampled.

    The integrator derives the cutoff from the requested tolerance.  The
    fields are checked here, at construction (``_replace`` and ``_make``
    skip the check).
    """

    __slots__ = ()

    def __new__(cls, kind: str, rate: float, coef: float = 1.0,
                bound_fn: Optional[Callable[[float], float]] = None) -> "TailModel":
        if kind not in ("power", "exp", "user"):
            raise ValueError(f"unknown tail model kind {kind!r}")
        for name, value in (("rate", rate), ("coef", coef)):
            if not math.isfinite(value):
                raise ValueError(f"tail model {name} must be finite, got {value!r}")
        if kind == "power" and not rate > 1.0:
            raise ValueError("power tail needs rate > 1 for an integrable bound")
        if kind == "exp" and not rate > 0.0:
            raise ValueError("exponential tail needs rate > 0")
        if kind == "user" and bound_fn is None:
            raise ValueError("user tail model needs bound_fn")
        if coef < 0:
            raise ValueError("tail envelope coefficient must be nonnegative")
        return super().__new__(cls, kind, rate, coef, bound_fn)

    def envelope(self, s: np.ndarray) -> np.ndarray:
        """Pointwise bound on |f| at s (power and exp kinds only)."""
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            return self.coef * s ** (-self.rate)
        if self.kind == "exp":
            return self.coef * np.exp(-self.rate * s)
        raise ValueError("user tail model has no pointwise envelope")

    def first_moment(self, origin: float = 0.0) -> Optional["TailModel"]:
        """Decay model of (s - origin) f(s) for s >= origin >= 0; None if it has none.

        A power envelope of rate k gives one of rate k - 1, integrable only
        for k > 2.  An exp envelope gives the closed-form tail
        coef e^(-rate S) (S - origin + 1/rate) / rate.  A user model has no
        pointwise envelope to build on.
        """
        if self.kind == "power" and self.rate > 2.0:
            return TailModel(kind="power", rate=self.rate - 1.0, coef=self.coef)
        if self.kind == "exp":
            rate, coef = self.rate, self.coef
            return TailModel(kind="user", rate=rate, coef=coef,
                             bound_fn=lambda S: coef * math.exp(-rate * S)
                             * (S - origin + 1.0 / rate) / rate)
        return None

    def tail_bound(self, cutoff: float) -> float:
        """Bound on the integral of |f| over [cutoff, infinity)."""
        if cutoff <= 0 and self.kind == "power":
            raise ValueError("power tail bound needs a positive cutoff")
        if self.kind == "power":
            return self.coef * cutoff ** (1.0 - self.rate) / (self.rate - 1.0)
        if self.kind == "exp":
            return self.coef * math.exp(-self.rate * cutoff) / self.rate
        assert self.bound_fn is not None
        return float(self.bound_fn(cutoff))

    def cutoff_for(self, target: float, lo: float) -> float:
        """Smallest convenient cutoff with tail_bound(cutoff) <= target."""
        if target <= 0:
            raise ValueError("target tail bound must be positive")
        if self.kind == "power":
            c = (self.coef / (target * (self.rate - 1.0))) ** (1.0 / (self.rate - 1.0))
        elif self.kind == "exp":
            c = math.log(max(self.coef / (target * self.rate), 1.0)) / self.rate
        else:
            # bisect the user bound, assumed nonincreasing
            c = max(lo, 1.0)
            for _ in range(200):
                if self.tail_bound(c) <= target:
                    break
                c *= 2.0
            else:
                raise ValueError("user tail bound never reaches the target")
        return max(c, lo)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 panel rule.  Standard nodes and weights on [-1, 1];
# the 7-point Gauss value is embedded in the 15-point Kronrod value and
# their difference drives the subdivision.

_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
# Gauss-7 weights sit on the odd Kronrod nodes.
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189, 0.2797053914892767, 0.1294849661688697,
])
_GAUSS_SLICE = slice(1, 15, 2)

# Nodes of the Chebyshev-Lobatto rule on each of kernel's cells, the continuation's
# stock end and the kernel grid (equation_grid).  They live here,
# beside the other rule, so that a config can be checked, and a family built,
# without loading kernel.
CELL_NODES = 17
STOCK_EXTEND_TO = 2e4
# Points per block of the passes over a whole grid that run a block at a time (the lobe
# pass of a family, the stock blend and the sweeps of bvp_solver), so that the
# temporaries of each block stay in cache and none of a grid's length is made
BLOCK = 8192


def _blocks(n: int):
    """Slices that cover range(n) in order, BLOCK entries each but the last."""
    return (slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


def equation_grid(start: float, span: float) -> np.ndarray:
    """The kernel grid over [start, start + span], on which the kernel equation is checked.

    Its step is pi/400, so from a lobe join ``start`` every join k pi is
    one of the every-fourth nodes where kernel._extrapolated_operator
    centres its stencils, and the checks read the same nodes whatever grid
    the rest of a run uses.  It ends at the last of those nodes in the
    span: the span's end when the span is a whole number of pi/100 (the
    stock span 40 pi gives 16 001 points).  A span under pi/25 holds no
    join and gets 17 points.
    """
    cells = math.floor(span / (math.pi / 100.0) * (1.0 + 1e-12))
    if cells < 4:
        return np.linspace(start, start + span, 17)
    end = cells * math.pi / 100.0
    return np.linspace(start, start + (span if end >= span * (1.0 - 1e-12) else end),
                       4 * cells + 1)


_TAIL_SPOTS = np.array([1.0, 1.5, 2.0, 4.0, 8.0])  # envelope samples, in cutoffs


def _panels(f: Callable, panels: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """(Kronrod value, error estimate) of every panel, from one call of f.

    The sums of all panels are one stacked matmul whose core, per panel, is
    a vector-vector product: numpy runs it as the same 1-D dot that
    ``_WK @ row`` runs, so a panel gets the same bits whatever other panels
    share the call.  The strided Gauss slice keeps this; a contiguous copy
    of it does not.
    """
    ends = np.array(panels, dtype=float)
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    mid = 0.5 * (ends[:, 1] + ends[:, 0])
    x = (mid[:, None] + half[:, None] * _XK).reshape(-1)
    y = np.asarray(f(x), dtype=float).reshape(len(panels), len(_XK))
    if not np.all(np.isfinite(y)):
        i = int(np.argmax(~np.isfinite(y.reshape(-1))))
        raise ValueError(f"integrand is not finite at s = {float(x[i])!r}")
    k = half * np.matmul(y[:, None, :], _WK[:, None])[:, 0, 0]
    g = half * np.matmul(y[:, None, _GAUSS_SLICE], _WG[:, None])[:, 0, 0]
    return list(zip(k.tolist(), np.abs(k - g).tolist()))


class _Adaptive:
    """The adaptive loop of one interval, advanced one refinement round at a time."""

    def __init__(self, tol: float, limit: int, flipped: bool):
        self.tol = tol
        self.limit = limit
        self.flipped = flipped
        self.evaluations = 0
        self.splits = 0  # bisections so far; the seeded panels do not count
        self.total_err = 0.0
        self.heap: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, value)

    def add(self, panels, sums, *, refined: bool) -> None:
        for (c, d), (val, err) in zip(panels, sums):
            self.evaluations += 15
            self.total_err += err
            heapq.heappush(self.heap, (-err, c, d, val))
        # re-sum occasionally so accumulated rounding cannot mask convergence
        if refined and len(self.heap) % 64 == 0:
            self.total_err = -math.fsum(item[0] for item in self.heap)

    def split_worst(self) -> Optional[list[tuple[float, float]]]:
        """Pop the panel with the largest error and return its halves; None once converged."""
        if not self.total_err > self.tol:
            return None
        if self.splits + 1 >= self.limit:  # an unseeded interval then holds limit panels
            raise RuntimeError(
                f"subdivision limit {self.limit} reached with error estimate "
                f"{self.total_err:.3e} > tol {self.tol:.3e}"
            )
        neg_err, a, b, _ = heapq.heappop(self.heap)
        self.total_err += neg_err
        self.splits += 1
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            raise RuntimeError(
                f"panel [{float(a)!r}, {float(b)!r}] cannot be split further "
                f"at tol {self.tol:.3e}"
            )
        return [(a, m), (m, b)]

    def result(self) -> IntegralResult:
        value = math.fsum(item[3] for item in self.heap)
        error = math.fsum(-item[0] for item in self.heap)
        return IntegralResult(-value if self.flipped else value, error, 0.0, self.evaluations)


def integrate_finite_many(
    f: Callable,
    intervals: Sequence[tuple[float, float]],
    tol: float = 1e-10,
    *,
    seeds: Optional[Sequence[float]] = None,
    limit: int = 4000,
) -> list[IntegralResult]:
    """Adaptive integrals of one integrand over many intervals, run in lockstep.

    Each interval keeps its own heap, pop-worst/bisect order, re-sum and
    stopping test.  A round calls f once, on the nodes of every panel made
    in that round: the seeded panels of all intervals, then the two halves
    of the worst panel of each interval still above ``tol``.  So each result
    is bit for bit the one-interval result, for far fewer integrand calls.

    ``seeds`` lists abscissae where panels must break from the start, e.g.
    breakpoints of a piecewise integrand or sign-change nodes of an
    oscillatory one; each interval takes the seeds strictly inside it, and
    adaptivity then refines within each seeded panel, ``limit - 1`` times at
    most, so seeds do not use the limit up.  A reversed interval
    gives the negated integral over [hi, lo]; a zero-width one gives zero
    without evaluating f.
    """
    for lo, hi in intervals:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("integrate_finite needs finite endpoints")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ordered = sorted(seeds) if seeds is not None else []

    results = [IntegralResult(0.0, 0.0, 0.0, 0)] * len(intervals)
    loops: list[tuple[int, _Adaptive]] = []
    work: list[tuple[_Adaptive, list[tuple[float, float]]]] = []
    for i, (lo, hi) in enumerate(intervals):
        flipped = hi < lo
        if flipped:
            lo, hi = hi, lo
        if hi == lo:
            continue
        cuts = [lo]
        cuts.extend(float(a) for a in ordered if lo < a < hi)
        cuts.append(hi)
        # drop degenerate panels from coincident seeds
        edges = [cuts[0]]
        for a in cuts[1:]:
            if a > edges[-1]:
                edges.append(a)
        loop = _Adaptive(tol, limit, flipped)
        loops.append((i, loop))
        work.append((loop, list(zip(edges, edges[1:]))))

    refined = False
    while work:
        sums = _panels(f, [panel for _, new in work for panel in new])
        at = 0
        for loop, new in work:
            loop.add(new, sums[at:at + len(new)], refined=refined)
            at += len(new)
        refined = True
        work = [(loop, halves) for _, loop in loops
                if (halves := loop.split_worst()) is not None]
    for i, loop in loops:
        results[i] = loop.result()
    return results


def integrate_finite(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    *,
    seeds: Optional[Sequence[float]] = None,
    limit: int = 4000,
) -> IntegralResult:
    """Adaptive integral of f over [lo, hi]: :func:`integrate_finite_many` on one interval."""
    return integrate_finite_many(f, [(lo, hi)], tol, seeds=seeds, limit=limit)[0]


def check_envelope(f: Callable, model: TailModel, cutoffs: Sequence[float]) -> int:
    """Sample f beyond every distinct cutoff, in one call, against the model's envelope.

    Raises ``ValueError`` when f is not finite there or exceeds the claimed
    envelope of a power or exp model; a user model has no envelope and is
    taken on trust.  Returns the samples taken per cutoff (0 when none).
    """
    if model.kind == "user" or not cutoffs:
        return 0
    distinct = np.array(list(dict.fromkeys(cutoffs)), dtype=float)
    sample = (distinct[:, None] * _TAIL_SPOTS).reshape(-1)
    observed = np.abs(np.asarray(f(sample), dtype=float))
    allowed = model.envelope(sample) * (1.0 + 1e-9) + 1e-300
    if not np.all(np.isfinite(observed)):
        raise ValueError("integrand is not finite beyond the cutoff")
    if np.any(observed > allowed):
        i = int(np.argmax(observed > allowed))
        raise ValueError(
            f"tail model violated: |f({float(sample[i])!r})| = {float(observed[i])!r} "
            f"exceeds the claimed envelope {float(allowed[i])!r}"
        )
    return len(_TAIL_SPOTS)


def integrate_tail(
    f: Callable,
    lo: float,
    model: TailModel,
    tol: float = 1e-8,
    *,
    seeds: Optional[Sequence[float]] = None,
    limit: int = 4000,
) -> IntegralResult:
    """Integral of f over [lo, infinity): an adaptive finite part plus a certified tail.

    The cutoff is derived so that the tail bound is at most tol/2 (see
    :meth:`TailModel.cutoff_for`).  For power and exp models the integrand
    must stay within the claimed envelope beyond it (see
    :func:`check_envelope`).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cutoff = model.cutoff_for(0.5 * tol, lo)
    bound = model.tail_bound(cutoff)
    spot_evals = check_envelope(f, model, [cutoff])
    part = integrate_finite(f, lo, cutoff, tol, seeds=seeds, limit=limit)
    return IntegralResult(
        value=part.value,
        abs_error_estimate=part.abs_error_estimate + bound,
        tail_bound=bound,
        evaluations=part.evaluations + spot_evals,
    )


def uniform_step(grid: np.ndarray, message: str) -> float:
    """The step of a uniform increasing grid of two points or more.

    Raises ``ValueError(message)`` unless the first step is positive and
    every step is within 1e-9 max(step, 1) of it, so a NaN anywhere in the
    grid is refused too.  One scratch array holds the steps and then their
    deviations.
    """
    steps = np.diff(grid)
    step = float(steps[0])
    if not step > 0:
        raise ValueError(message)
    steps -= step
    np.abs(steps, out=steps)
    if not np.all(steps <= 1e-9 * max(step, 1.0)):
        raise ValueError(message)
    return step


def cumulative_integral(f: Callable, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of f from grid[0] to every grid point.

    Each cell [s_i, s_{i+1}] contributes a Simpson increment built from the
    endpoint and midpoint samples, so the grid need not be uniform.  The
    result has the same length as the grid and starts at exactly zero.
    """
    s = np.asarray(grid, dtype=float)
    if s.ndim != 1 or len(s) < 2:
        raise ValueError("grid must be one-dimensional with at least two points")
    h = np.diff(s)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")
    mids = 0.5 * (s[:-1] + s[1:])
    fs = np.asarray(f(s), dtype=float)
    fm = np.asarray(f(mids), dtype=float)
    if not (np.all(np.isfinite(fs)) and np.all(np.isfinite(fm))):
        raise ValueError("integrand is not finite on the grid")
    increments = (h / 6.0) * (fs[:-1] + 4.0 * fm + fs[1:])
    out = np.empty(len(s))
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


def cumulative_simpson_doubled(u: np.ndarray, fu: np.ndarray) -> np.ndarray:
    """Cumulative integral over a uniform doubled grid from samples alone.

    ``u`` must be uniform with an even number of cells; odd entries act as
    the midpoints of the coarse cells [u_0, u_2], [u_2, u_4], ...  Even
    output entries accumulate composite Simpson over full coarse cells; odd
    entries add the half-cell value of the same interpolating parabola,
    (dt/24) * (5 f_0 + 8 f_1 - f_2), which is not a Simpson sum: the odd
    entries are less accurate than the even ones, so a finite difference of
    them reads that gap divided by the step squared.
    """
    u = np.asarray(u, dtype=float)
    f = np.asarray(fu, dtype=float)
    if u.shape != f.shape or u.ndim != 1:
        raise ValueError("grid and samples must be one-dimensional and equal length")
    n_cells = len(u) - 1
    if n_cells < 2 or n_cells % 2 != 0:
        raise ValueError("doubled grid needs an even, positive number of cells")
    dt = 2.0 * uniform_step(u, "doubled grid must be uniform")
    f0, f1, f2 = f[0:-1:2], f[1::2], f[2::2]
    # the full-cell increments (dt/6)(f0 + 4 f1 + f2), then the half-cell
    # ones (dt/24)(5 f0 + 8 f1 - f2), in one scratch array; 8 f1 waits in the
    # odd entries of the output until they are written
    inc = np.multiply(f1, 4.0)
    inc += f0
    inc += f2
    inc *= dt / 6.0
    out = np.empty(len(u))
    out[0] = 0.0
    np.cumsum(inc, out=out[2::2])
    odd = out[1::2]
    np.multiply(f1, 8.0, out=odd)
    np.multiply(f0, 5.0, out=inc)
    inc += odd
    inc -= f2
    inc *= dt / 24.0
    np.add(out[0:-1:2], inc, out=odd)
    return out
