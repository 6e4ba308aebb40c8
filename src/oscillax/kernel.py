"""Comparison-equation kernels z and h.

Given coefficient functions p >= 0 and q on [s0, infinity), the first
kernel is

    z(s) = -exp(-P(s)) * integral_{s0}^{s} q(t) exp(P(t)) dt,
    P(s) = integral_{s0}^{s} p,

equivalently the solution of z' = -p z - q with z(s0) = 0.  The second is

    h(s) = -s * integral_{s}^{infinity} z(t) / t^2 dt,

so that h'' + p (h' - h/s) + q/s = 0 and s (h/s)' = h' - h/s = z/s.

Kernels on a grid are computed on uniform grids with a midpoint-doubled
Simpson scheme.  The improper h integral splits into a gridded part, an
optional continuation of z far beyond the working window, a last-window
mean value estimate of the remainder, and a certified bound from a tail
model built on a proven sup bound for |z|.  The certificate and the
estimate are reported separately; nothing is silently mixed.

The far continuation depends on the grid only through x = z(grid end):
continuing from there, z = E x - D with E = exp(-P_loc), D = E C_loc, and
P_loc, C_loc the integrals of p and q exp(P_loc) from the grid end.  It is
resolved on cells whose edges are the grid end, every multiple of pi past
it and the continuation end, so that each cell holds one smooth sin^2 lobe
of a family.  On each cell a 17-node Chebyshev-Lobatto rule with its
spectral integration matrix gives P_loc and C_loc at the nodes, and one
cumulative sum carries the cell totals across cells (Greengard, SIAM J.
Numer. Anal. 28, 1991; Trefethen, Approximation Theory and Approximation
Practice, 2013).  The rule checks itself: on every cell the degree-16
interpolants of p and q must agree with their degree-14 truncations to
CELL_TAIL_TOL of max|p|, max|q|, and a cell that fails is bisected, so a
coefficient with a kink inside a cell is still resolved.

A :class:`FarField` keeps what h needs of the continuation for every x: the
Clenshaw-Curtis cell totals of E/t^2 and D/t^2, E and D on the trailing
window, and E and D at the points within 2 tau of max|z| at the x0 it was
built at, with tau = 1e-9 max(1, |x0|).  That kept set still holds the
maximiser of |z| for any x with max(E) |x - x0| <= tau (the validity
radius), so sup|z| over the sampled points stays exact there.  It is built
once per coefficient pair and passed to every later kernel whose grid ends
at the same point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .coeff_dsl import CoefficientExpr, as_callable
from .quadrature import TailModel, cumulative_simpson_doubled, integrate_tail

__all__ = [
    "KernelPair",
    "HTail",
    "FarField",
    "compute_z",
    "z_ode_oracle",
    "compute_h",
    "compute_kernel",
    "ode_residual",
]

Coefficient = Union[CoefficientExpr, Callable]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HTail:
    """Accounting for the improper part of the h integral.

    ``value`` is the estimate of integral_{cutoff}^{infinity} z/t^2 that was
    actually added (last-window mean of z divided by the cutoff), with
    ``uncertainty`` an a-posteriori estimate of its error from the drift of
    the windowed antiderivative.  ``certificate`` is the rigorous bound
    sup|z| / cutoff that holds regardless of the estimate.
    """

    value: float
    uncertainty: float
    certificate: float
    cutoff: float


@dataclass(frozen=True)
class KernelPair:
    """Sampled kernels with their certified accounting."""

    grid: np.ndarray
    z_values: np.ndarray
    h_values: np.ndarray
    lam: float                # certified integral of p over [s0, infinity)
    z_sup_bound: float        # bound used in the h tail certificate
    tail: TailModel           # envelope for z/t^2 beyond the extension end
    h_tail: HTail
    lam_error: float
    z_sup_observed: float
    far: Optional["FarField"] = None   # continuation summary, reusable by later grids

    @property
    def s0(self) -> float:
        return float(self.grid[0])

    def h_over_s(self) -> np.ndarray:
        return self.h_values / self.grid


def _window_start(u: np.ndarray, window: float) -> int:
    """Index where the trailing window of a uniform grid starts (3 points at least)."""
    w = min(window, u[-1] - u[0])
    i0 = int(np.searchsorted(u, u[-1] - w))
    if len(u) - i0 < 3:
        i0 = max(0, len(u) - 3)
    return i0


CELL_NODES = 17          # Chebyshev-Lobatto nodes per continuation cell
CELL_TAIL_TOL = 1e-9     # self-check: the degree-16 interpolant of p (or q) on a cell and
#                          its degree-14 truncation agree within this fraction of max|p|
#                          (or max|q|) over the continuation
CELL_MAX_SPLITS = 30     # bisections of one cell before the continuation gives up
_BLOCK = 512             # cells per block when the sup set is refined


class _Rule(NamedTuple):
    """The cell rule on [-1, 1]; rows act on a cell's values at the nodes ``x``."""

    x: np.ndarray            # ascending Chebyshev-Lobatto nodes
    to_coef: np.ndarray      # Chebyshev coefficients of the interpolant
    anti: np.ndarray         # Chebyshev coefficients of its antiderivative from -1
    S: np.ndarray            # that antiderivative at the nodes; S[-1] is Clenshaw-Curtis
    diff: np.ndarray         # the interpolant's derivative at the nodes


@functools.cache
def _cell_rule() -> _Rule:
    """The cell rule, built once."""
    from numpy.polynomial import chebyshev

    deg = CELL_NODES - 1
    x = -np.cos(np.pi * np.arange(CELL_NODES) / deg)
    x[deg // 2] = 0.0
    to_coef = np.linalg.inv(chebyshev.chebvander(x, deg))
    anti = chebyshev.chebint(to_coef, lbnd=-1.0)
    S = chebyshev.chebvander(x, deg + 1) @ anti
    S[0] = 0.0
    diff = chebyshev.chebvander(x, deg - 1) @ chebyshev.chebder(to_coef)
    return _Rule(x, to_coef, anti, S, diff)


def _antiderivative(x: np.ndarray) -> np.ndarray:
    """Rows mapping a cell's node values to their integral from -1 to each x."""
    from numpy.polynomial import chebyshev

    return chebyshev.chebvander(x, CELL_NODES) @ _cell_rule().anti


def _subdivisions(widths: np.ndarray, half: float) -> np.ndarray:
    """Steps of each cell's uniform subdivision with spacing at most ``half``.

    A cell of width pi with half = pi/160 gets 160, not 161 for a width one
    rounding error above pi.
    """
    return np.maximum(1, np.ceil(widths / half * (1.0 - 1e-12))).astype(int)


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cell nodes, one row per cell [lo, hi], with the edges exact."""
    x = _cell_rule().x
    t = lo[:, None] + (hi - lo)[:, None] * (0.5 * (x + 1.0))
    t[:, -1] = hi
    return t


def _sample(fe: Callable, name: str, t: np.ndarray) -> np.ndarray:
    """One coefficient at the nodes ``t``, in one call."""
    flat = t.ravel()
    vals = np.broadcast_to(np.asarray(fe(flat), dtype=float), flat.shape).reshape(t.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coefficient {name} is not finite on the continuation")
    return vals


def _unresolved(vals: np.ndarray) -> np.ndarray:
    """Cells whose interpolant fails the self-check (see CELL_TAIL_TOL)."""
    tail = np.sum(np.abs(vals @ _cell_rule().to_coef[-2:].T), axis=1)
    return tail > CELL_TAIL_TOL * float(np.max(np.abs(vals)))


@dataclass(frozen=True)
class _Cells:
    """The continuation from ``lo[0]`` on cells: integrand samples and integrals."""

    lo: np.ndarray
    hi: np.ndarray
    p_vals: np.ndarray       # p at the nodes, one row per cell
    g_vals: np.ndarray       # q exp(P_loc) at the nodes
    P0: np.ndarray           # P_loc at each cell's left edge
    C0: np.ndarray           # C_loc there

    @classmethod
    def build(cls, pe: Callable, qe: Callable, start: float, end: float
              ) -> tuple["_Cells", np.ndarray, np.ndarray, np.ndarray]:
        """The cells, with the nodes and E, D there.

        Edges are start, every multiple of pi between, and end; a cell on
        which p or q fails the self-check is bisected.
        """
        k = np.arange(math.floor(start / math.pi) + 1, math.ceil(end / math.pi))
        inner = math.pi * k
        gap = 1e-9 * math.pi
        inner = inner[(inner > start + gap) & (inner < end - gap)]
        edges = np.concatenate(([start], inner, [end]))
        lo, hi = edges[:-1], edges[1:]
        splits = np.zeros(len(lo), dtype=int)
        t = _nodes(lo, hi)
        p_vals, q_vals = _sample(pe, "p", t), _sample(qe, "q", t)
        while True:
            bad = _unresolved(p_vals) | _unresolved(q_vals)
            if not np.any(bad):
                break
            if int(np.max(splits[bad])) >= CELL_MAX_SPLITS:
                i = int(np.flatnonzero(bad & (splits >= CELL_MAX_SPLITS))[0])
                raise ValueError(
                    f"far-field continuation: p or q is not smooth enough on "
                    f"[{lo[i]!r}, {hi[i]!r}] after {CELL_MAX_SPLITS} bisections")
            mid = 0.5 * (lo[bad] + hi[bad])
            new_lo = np.concatenate((lo[bad], mid))
            new_hi = np.concatenate((mid, hi[bad]))
            new_t = _nodes(new_lo, new_hi)
            new_p, new_q = _sample(pe, "p", new_t), _sample(qe, "q", new_t)
            keep = ~bad
            lo = np.concatenate((lo[keep], new_lo))
            order = np.argsort(lo, kind="stable")
            lo = lo[order]
            hi = np.concatenate((hi[keep], new_hi))[order]
            splits = np.concatenate((splits[keep], splits[bad] + 1, splits[bad] + 1))[order]
            t = np.concatenate((t[keep], new_t))[order]
            p_vals = np.concatenate((p_vals[keep], new_p))[order]
            q_vals = np.concatenate((q_vals[keep], new_q))[order]

        # a node sits at the rounding of lo + (hi - lo)(x_j + 1)/2, and that
        # rounding repeats from cell to cell; move each sample to the node
        # the rule assumes, to first order, so that it does not pile up in P, C
        rule = _cell_rule()
        w = 0.5 * (hi - lo)[:, None]
        shift = ((t - lo[:, None]) - w * (rule.x + 1.0)) / w
        p_vals = p_vals - (p_vals @ rule.diff.T) * shift
        q_vals = q_vals - (q_vals @ rule.diff.T) * shift
        S = rule.S
        P = (p_vals @ S.T) * w                    # P_loc from each left edge
        P0 = np.concatenate(([0.0], np.cumsum(P[:-1, -1])))
        P += P0[:, None]
        E = np.exp(-P)
        g_vals = q_vals / E                       # q exp(P_loc), a fresh array
        D = (g_vals @ S.T) * w                    # C_loc from each left edge
        C0 = np.concatenate(([0.0], np.cumsum(D[:-1, -1])))
        D += C0[:, None]
        D *= E
        return cls(lo, hi, p_vals, g_vals, P0, C0), t, E, D

    def _running(self, vals: np.ndarray, at_lo: np.ndarray, k: np.ndarray,
                 Q: np.ndarray) -> np.ndarray:
        out = vals[k] @ Q
        out *= 0.5 * (self.hi[k] - self.lo[k])[:, None]
        out += at_lo[k][:, None]
        return out

    def E(self, k: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """exp(-P_loc) in the cells ``k`` at the points of ``Q = _antiderivative(x).T``."""
        out = self._running(self.p_vals, self.P0, k, Q)
        np.negative(out, out=out)
        return np.exp(out, out=out)

    def C(self, k: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """C_loc in the cells ``k`` at the points of ``Q``."""
        return self._running(self.g_vals, self.C0, k, Q)

    def E_bound(self) -> np.ndarray:
        """An upper bound on exp(-P_loc) over each cell, whatever the sign of p.

        Over a cell of half-width w, |P_loc - P0| <= 2 w sum|c_j|, with c_j the
        Chebyshev coefficients of p there.
        """
        spread = np.sum(np.abs(self.p_vals @ _cell_rule().to_coef.T), axis=1)
        return np.exp((self.hi - self.lo) * spread - self.P0)


@dataclass(frozen=True, eq=False)
class FarField:
    """What h needs of the continuation of z beyond a grid end, for any z there.

    Continuing from ``start`` with z(start) = x up to ``end`` (start plus an
    even number of extend_step/2 steps, at or past extend_to) gives
    z = E x - D.  The continuation is resolved on cells (see
    :class:`_Cells`): the integral of z/t^2 over it is x A - B, the trailing
    window holds E and D on ``window_u`` (the points start + j extend_step/2
    in the last ``tail_window``), and sup|z| is the largest |E_i x - D_i|
    over the kept points while x stays within the validity radius of ``x0``
    (see :meth:`covers`).  The points sup|z| is taken over are the cell
    nodes and, on every cell, its uniform subdivision with spacing at most
    extend_step/2; so extend_step sets only the window's spacing, this
    spacing and the rounding of ``end``, not the accuracy of A and B.
    """

    p: Coefficient
    q: Coefficient
    start: float
    extend_to: float
    extend_step: float
    tail_window: float
    end: float
    A: float                 # Clenshaw-Curtis total of E/t^2
    B: float                 # Clenshaw-Curtis total of D/t^2
    window_u: np.ndarray
    window_E: np.ndarray
    window_D: np.ndarray
    x0: float
    tau: float               # 1e-9 max(1, |x0|)
    e_max: float             # max(E)
    sup_E: np.ndarray        # E and D where |E x0 - D| is within 2 tau of its max
    sup_D: np.ndarray

    @classmethod
    def build(cls, p: Coefficient, q: Coefficient, start: float, x0: float, *,
              extend_to: float, extend_step: float, tail_window: float) -> "FarField":
        """Continue z from ``start`` once and keep its summary.

        Never writes into what p or q return; only the summary outlives the
        call.
        """
        if not extend_to > start:
            raise ValueError(f"the continuation must end past its start {start!r}, "
                             f"got extend_to = {extend_to!r}")
        half = 0.5 * extend_step
        n_steps = int(math.ceil((extend_to - start) / half))
        n_steps += n_steps % 2
        end = float(n_steps * half + start)
        cells, t, E, D = _Cells.build(as_callable(p), as_callable(q), float(start), end)
        w = 0.5 * (cells.hi - cells.lo)
        cc = _cell_rule().S[-1]
        t *= t
        A = float(w @ ((E / t) @ cc))
        B = float(w @ ((D / t) @ cc))

        j0 = max(0, n_steps - int(tail_window / half) - 2)
        window_u = np.arange(j0, n_steps + 1, dtype=float) * half + start
        window_u = window_u[_window_start(window_u, tail_window):]
        k = np.minimum(np.searchsorted(cells.hi, window_u), len(cells.hi) - 1)
        window_E, window_D = np.empty_like(window_u), np.empty_like(window_u)
        for cell in k[np.flatnonzero(np.diff(k, prepend=-1))]:  # k is sorted
            at = k == cell
            x = (2.0 * window_u[at] - cells.lo[cell] - cells.hi[cell]) \
                / (cells.hi[cell] - cells.lo[cell])
            Q = _antiderivative(np.clip(x, -1.0, 1.0)).T
            window_E[at] = cells.E(np.array([cell]), Q)[0]
            window_D[at] = window_E[at] * cells.C(np.array([cell]), Q)[0]

        # sup set: the nodes, each once (a shared edge counts for the cell on
        # its right), and each cell's uniform subdivision.  There, blocks of
        # cells are screened with the bound E_bound max|x0 - C| >= max|z|, and
        # only cells that may come within 2 tau of the max get E.
        tau = 1e-9 * max(1.0, abs(x0))
        z = np.abs(E * x0 - D)
        z[:-1, -1] = -np.inf
        z_max = float(np.max(z))
        near = z >= z_max - 2.0 * tau
        E_keep, D_keep = [E[near]], [D[near]]
        e_bound = cells.E_bound()
        counts = _subdivisions(cells.hi - cells.lo, half)
        sizes = np.flatnonzero(np.bincount(counts))
        for n in sizes[sizes > 1]:
            Q = _antiderivative(-1.0 + 2.0 * np.arange(1, n) / n).T
            group = np.flatnonzero(counts == n)
            for b in range(0, len(group), _BLOCK):
                block = group[b:b + _BLOCK]
                c = cells.C(block, Q)
                reach = np.maximum(np.max(c, axis=1) - x0, x0 - np.min(c, axis=1))
                rows = np.flatnonzero(reach * e_bound[block] >= z_max - 2.0 * tau)
                if len(rows) == 0:
                    continue
                e = cells.E(block[rows], Q)
                d = e * c[rows]
                z = np.abs(e * x0 - d)
                z_max = max(z_max, float(np.max(z)))
                near = z >= z_max - 2.0 * tau
                E_keep.append(e[near])
                D_keep.append(d[near])
        E_keep, D_keep = np.concatenate(E_keep), np.concatenate(D_keep)
        z = np.abs(E_keep * x0 - D_keep)
        keep = np.flatnonzero(z >= float(np.max(z)) - 2.0 * tau)
        return cls(
            p=p, q=q, start=float(start), extend_to=float(extend_to),
            extend_step=float(extend_step), tail_window=float(tail_window), end=end,
            A=A, B=B, window_u=window_u, window_E=window_E, window_D=window_D,
            x0=float(x0), tau=tau, e_max=float(np.max(E)),
            sup_E=E_keep[keep], sup_D=D_keep[keep],
        )

    def check_inputs(self, p: Coefficient, q: Coefficient, start: float, *,
                     extend_to: float, extend_step: float, tail_window: float) -> None:
        """Raise unless the summary was built for exactly these inputs."""
        for name, ours, theirs in (
            ("start", self.start, start), ("extend_to", self.extend_to, extend_to),
            ("extend_step", self.extend_step, extend_step),
            ("tail_window", self.tail_window, tail_window),
        ):
            if ours != float(theirs):
                raise ValueError(f"far-field summary was built for {name} = {ours!r}, "
                                 f"not {float(theirs)!r}")
        if not (self.p == p and self.q == q):
            raise ValueError("far-field summary was built for other coefficients p, q")

    def covers(self, x: float) -> bool:
        """Whether the kept points still contain the maximiser of |E x - D|."""
        return self.e_max * abs(x - self.x0) <= self.tau

    def beyond(self, x: float) -> float:
        """Integral of z/t^2 over the continuation."""
        return x * self.A - self.B

    def window(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(t, z) on the trailing window."""
        return self.window_u, self.window_E * x - self.window_D

    def sup(self, x: float) -> float:
        """sup|z| over the continuation, certified inside the validity radius."""
        if not self.covers(x):
            raise ValueError(f"z = {x!r} at the grid end lies outside the validity radius "
                             f"of the far-field summary built at {self.x0!r}")
        return float(np.max(np.abs(self.sup_E * x - self.sup_D)))


def _doubled(grid: np.ndarray) -> np.ndarray:
    """Uniform grid with midpoints inserted."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ValueError("grid must be one-dimensional with at least two points")
    steps = np.diff(g)
    if steps[0] <= 0 or np.any(np.abs(steps - steps[0]) > 1e-9 * max(steps[0], 1.0)):
        raise ValueError("kernel grids must be uniform and increasing")
    return np.linspace(g[0], g[-1], 2 * (len(g) - 1) + 1)


def _samples(pe: Callable, qe: Callable, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and q on the doubled grid u, checked to be finite."""
    p_vals = np.asarray(pe(u), dtype=float)
    q_vals = np.asarray(qe(u), dtype=float)
    if not (np.all(np.isfinite(p_vals)) and np.all(np.isfinite(q_vals))):
        raise ValueError("coefficients are not finite on the grid")
    return p_vals, q_vals


def _z_doubled(p_vals: np.ndarray, q_vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """z = -exp(-P) C on the doubled grid u.

    P is the cumulative integral of p and C the cumulative integral of
    q * exp(P), both from u[0].
    """
    P = cumulative_simpson_doubled(u, p_vals)
    C = cumulative_simpson_doubled(u, q_vals * np.exp(P))
    return -np.exp(-P) * C


def compute_z(p: Coefficient, q: Coefficient, grid: np.ndarray) -> np.ndarray:
    """Kernel z on a uniform grid via the weighted cumulative integrals."""
    u = _doubled(grid)
    z = _z_doubled(*_samples(as_callable(p), as_callable(q), u), u)
    return z[::2].copy()


def z_ode_oracle(
    p: Coefficient,
    q: Coefficient,
    grid: np.ndarray,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Independent z via an explicit Runge-Kutta solve of z' = -p z - q.

    Shares nothing with :func:`compute_z` numerically, so agreement of the
    two routes validates both the quadrature scheme and the solver setup.
    """
    from scipy.integrate import solve_ivp

    g = np.asarray(grid, dtype=float)
    pe, qe = as_callable(p), as_callable(q)

    def rhs(t: float, y: np.ndarray) -> list[float]:
        ts = np.asarray([t])
        return [-float(pe(ts)[0]) * y[0] - float(qe(ts)[0])]

    sol = solve_ivp(
        rhs,
        (g[0], g[-1]),
        [0.0],
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.sol(g)[0]


def _window_mean_tail(u: np.ndarray, z: np.ndarray, window: float) -> tuple[float, float]:
    """(mean of z over the trailing window, drift bound of its fluctuation).

    The remainder integral_{S}^{infinity} z/t^2 of a kernel that has settled
    into near-periodic oscillation around a mean zbar equals zbar/S up to
    2 * max|W| / S^2, where W is the running integral of z - zbar over the
    window; integration by parts gives the factor two.
    """
    i0 = _window_start(u, window)
    du = u[i0 + 1] - u[i0]
    seg = z[i0:]
    area = du * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
    zbar = float(area / (u[-1] - u[i0]))
    fluct = np.concatenate(([0.0], np.cumsum(0.5 * (seg[1:] + seg[:-1]) * du - zbar * du)))
    drift = float(np.max(np.abs(fluct)))
    return zbar, 2.0 * drift / (u[-1] ** 2)


def compute_h(
    z_values: np.ndarray,
    grid: np.ndarray,
    tail: TailModel,
    *,
    far: Optional[FarField] = None,
    tail_window: float = TWO_PI,
) -> tuple[np.ndarray, HTail]:
    """Kernel h on the grid from sampled z plus tail accounting.

    ``far`` optionally summarises the continuation of z beyond grid[-1]
    (see :class:`FarField`); the improper remainder past the last available
    sample is estimated by the trailing-window mean of z and certified by
    ``tail`` (an envelope model for z/t^2).
    """
    g = np.asarray(grid, dtype=float)
    z = np.asarray(z_values, dtype=float)
    if g.shape != z.shape:
        raise ValueError("grid and z samples must have equal shape")

    cum = cumulative_simpson_doubled(g, z / g**2)
    beyond = 0.0
    tail_u, tail_z = g, z
    if far is not None:
        if far.start != g[-1]:
            raise ValueError("far-field summary must start exactly at the end of the grid")
        if far.tail_window != tail_window:
            raise ValueError("far-field summary was built for another tail window")
        x = float(z[-1])
        beyond = far.beyond(x)
        tail_u, tail_z = far.window(x)

    cutoff = float(tail_u[-1])
    zbar, uncertainty = _window_mean_tail(tail_u, tail_z, tail_window)
    tail_value = zbar / cutoff
    certificate = tail.tail_bound(cutoff)

    # J(s) = integral_s^infinity z/t^2; h = -s J(s)
    J = (cum[-1] - cum) + beyond + tail_value
    h = -g * J
    info = HTail(value=tail_value, uncertainty=uncertainty,
                 certificate=certificate, cutoff=cutoff)
    return h, info


def compute_kernel(
    p: Coefficient,
    q: Coefficient,
    grid: np.ndarray,
    *,
    p_tail: TailModel,
    z_sup_bound: Optional[float] = None,
    extend_to: float = 2e4,
    extend_step: float = math.pi / 80.0,
    tail_window: float = TWO_PI,
    lam_tol: float = 1e-10,
    far: Optional[FarField] = None,
) -> KernelPair:
    """Compute both kernels with certified accounting.

    ``p_tail`` certifies the integrability of p (for lambda = integral of p).
    ``z_sup_bound`` should be a proven bound on sup|z| (for instance from
    the oscillation lemma); when omitted, the observed sup is used for the
    tail certificate and flagged by z_sup_bound == z_sup_observed.
    ``far`` is the continuation summary of an earlier kernel of the same
    p and q whose grid ended at the same point; it is reused while z at the
    grid end stays inside its validity radius and rebuilt otherwise.  The
    summary in use is returned as ``KernelPair.far``.
    """
    g = np.asarray(grid, dtype=float)
    u = _doubled(g)
    pe, qe = as_callable(p), as_callable(q)
    if far is not None:
        far.check_inputs(p, q, float(g[-1]), extend_to=extend_to,
                         extend_step=extend_step, tail_window=tail_window)

    lam_res = integrate_tail(pe, float(g[0]), p_tail, tol=lam_tol)
    lam = lam_res.value

    # the samples stay bound until the kernel returns: freed as soon as z is
    # made, they let glibc trim the heap, and the arrays made after them
    # fault their pages in again (2.5x the minor faults of a 256k-point
    # make_barriers, 12% more wall time on the solve-fine benchmark)
    p_vals, q_vals = _samples(pe, qe, u)
    z_doubled = _z_doubled(p_vals, q_vals, u)
    z = z_doubled[::2].copy()

    observed = float(np.max(np.abs(z_doubled)))
    if extend_to > g[-1]:
        x = float(z[-1])
        if far is None or not far.covers(x):
            far = FarField.build(p, q, float(g[-1]), x, extend_to=extend_to,
                                 extend_step=extend_step, tail_window=tail_window)
        observed = max(observed, far.sup(x))

    bound = observed if z_sup_bound is None else float(z_sup_bound)
    tail = TailModel(kind="power", rate=2.0, coef=bound,
                     cutoff=far.end if far is not None else float(g[-1]))
    h, h_tail = compute_h(z, g, tail, far=far, tail_window=tail_window)

    for arr in (g, z, h):
        arr.setflags(write=False)
    return KernelPair(
        grid=g,
        z_values=z,
        h_values=h,
        lam=lam,
        z_sup_bound=bound,
        tail=tail,
        h_tail=h_tail,
        lam_error=lam_res.abs_error_estimate,
        z_sup_observed=observed,
        far=far,
    )


def ode_residual(
    h_values: np.ndarray,
    p: Coefficient,
    q: Coefficient,
    grid: np.ndarray,
    *,
    z_values: Optional[np.ndarray] = None,
) -> dict:
    """Finite-difference residual of h'' + p (h' - h/s) + q/s on the grid.

    Central second-order differences on interior nodes.  When z samples are
    given, the first-order identity h' - h/s = z/s is checked as well; both
    are reported as sup and grid-weighted L2 norms.
    """
    g = np.asarray(grid, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if g.shape != h.shape or len(g) < 3:
        raise ValueError("need h sampled on at least three grid points")
    step = g[1] - g[0]
    if np.any(np.abs(np.diff(g) - step) > 1e-9 * max(step, 1.0)):
        raise ValueError("residual check needs a uniform grid")

    pe, qe = as_callable(p), as_callable(q)
    si = g[1:-1]
    d2 = (h[:-2] - 2.0 * h[1:-1] + h[2:]) / step**2
    d1 = (h[2:] - h[:-2]) / (2.0 * step)
    resid = d2 + np.asarray(pe(si), dtype=float) * (d1 - h[1:-1] / si) \
        + np.asarray(qe(si), dtype=float) / si
    out = {
        "sup": float(np.max(np.abs(resid))),
        "l2": float(np.sqrt(step * np.sum(resid**2))),
        "n_interior": int(len(si)),
    }
    if z_values is not None:
        z = np.asarray(z_values, dtype=float)
        ident = d1 - h[1:-1] / si - z[1:-1] / si
        out["identity_sup"] = float(np.max(np.abs(ident)))
        out["identity_l2"] = float(np.sqrt(step * np.sum(ident**2)))
    return out
