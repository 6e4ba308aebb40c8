"""Comparison-equation kernels z and h.

Given coefficient functions p >= 0 and q on [s0, infinity), the first
kernel is

    z(s) = -exp(-P(s)) * integral_{s0}^{s} q(t) exp(P(t)) dt,
    P(s) = integral_{s0}^{s} p,

equivalently the solution of z' = -p z - q with z(s0) = 0.  The second is

    h(s) = -s * integral_{s}^{infinity} z(t) / t^2 dt,

so that h'' + p (h' - h/s) + q/s = 0 and s (h/s)' = h' - h/s = z/s.

Kernels on a grid are computed on uniform grids with a midpoint-doubled
Simpson scheme.  The part that depends on p alone, the doubled grid and P
on it, is a :class:`Damping`, built once and shared by kernels with the
same p and grid, such as the two members of a barrier pair.  It holds
neither exp(P) nor exp(-P): each kernel forms those itself, since two more
arrays of the doubled grid's length held across a pair cost more in pages
faulted in than the two exponentials do.

The improper h integral splits into a gridded part, an optional
continuation of z far beyond the working window, a last-window mean value
estimate of the remainder, and a certified bound from a tail model built
on a bound for sup|z|: the observed one, or a proven one attached by
:meth:`KernelPair.with_sup_bound`.  The certificate and the estimate are
reported separately; nothing is silently mixed.  Kernels do not integrate
p over [s0, infinity); the coefficient family reports lambda.

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

A :class:`FarField` keeps what h needs of the continuation: the
Clenshaw-Curtis cell totals of E/t^2 and D/t^2, E and D on the trailing
window (the last TAIL_WINDOW of the continuation), and sup|z| over the
continuation for the x0 it was built at.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import (CELL_NODES, STOCK_EXTEND_TO, TailModel, cumulative_simpson_doubled,
                         uniform_step)

__all__ = [
    "KernelPair",
    "HTail",
    "FarField",
    "Damping",
    "compute_z",
    "z_ode_oracle",
    "compute_h",
    "compute_kernel",
    "ode_residual",
]

TAIL_WINDOW = 2.0 * math.pi   # trailing window of the h-tail mean value estimate


class HTail(NamedTuple):
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


class KernelPair(NamedTuple):
    """Sampled kernels with their certified accounting."""

    grid: np.ndarray
    z_values: np.ndarray
    h_values: np.ndarray
    z_sup_bound: float        # bound used in the h tail certificate
    tail: TailModel           # envelope for z/t^2 beyond the extension end
    h_tail: HTail
    z_sup_observed: float

    def with_sup_bound(self, bound: float) -> "KernelPair":
        """The same kernel with its h tail certified by a proven bound on sup|z|.

        z and h do not depend on the bound, so the copy shares their
        read-only arrays; only the tail model and the certificate change.
        """
        tail = TailModel(kind="power", rate=2.0, coef=float(bound))
        return self._replace(z_sup_bound=tail.coef, tail=tail,
                             h_tail=self.h_tail._replace(
                                 certificate=tail.tail_bound(self.h_tail.cutoff)))

    def h_over_s(self) -> np.ndarray:
        return self.h_values / self.grid


def _window_start(u: np.ndarray, window: float) -> int:
    """Index where the trailing window of a uniform grid starts (3 points at least)."""
    w = min(window, u[-1] - u[0])
    i0 = int(np.searchsorted(u, u[-1] - w))
    if len(u) - i0 < 3:
        i0 = max(0, len(u) - 3)
    return i0


CELL_TAIL_TOL = 1e-9     # self-check: the degree-16 interpolant of p (or q) on a cell and
#                          its degree-14 truncation agree within this fraction of max|p|
#                          (or max|q|) over the continuation
CELL_MAX_SPLITS = 30     # bisections of one cell before the continuation gives up
_BLOCK = 512             # cells per block when sup|z| is refined


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


class _Cells(NamedTuple):
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
                    f"[{float(lo[i])!r}, {float(hi[i])!r}] after {CELL_MAX_SPLITS} bisections")
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
        return self._from_left(vals[k] @ Q, at_lo, k)

    def _from_left(self, out: np.ndarray, at_lo: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``out`` times the half-widths plus ``at_lo``, row by row in the cells ``k``, in place."""
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

    def C_range(self, k: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row min and max of :meth:`C`, and the product it is formed from in place.

        x -> fl(fl(x w) + C0) is nondecreasing for w > 0, so the row extremes
        of C are those of the product, scaled, to the bit.
        """
        g = self.g_vals[k] @ Q
        top, bottom = self._from_left(
            np.stack((np.max(g, axis=1), np.min(g, axis=1)), axis=1), self.C0, k).T
        return bottom, top, g

    def E_bound(self) -> np.ndarray:
        """An upper bound on exp(-P_loc) over each cell, whatever the sign of p.

        Over a cell of half-width w, |P_loc - P0| <= 2 w sum|c_j|, with c_j the
        Chebyshev coefficients of p there.
        """
        spread = np.sum(np.abs(self.p_vals @ _cell_rule().to_coef.T), axis=1)
        return np.exp((self.hi - self.lo) * spread - self.P0)


class FarField(NamedTuple):
    """What h needs of the continuation of z beyond a grid end.

    Continuing from ``start`` with z(start) = x up to ``end`` (start plus an
    even number of extend_step/2 steps, at or past extend_to) gives
    z = E x - D.  The continuation is resolved on cells (see
    :class:`_Cells`): the integral of z/t^2 over it is x A - B, and the
    trailing window holds E and D on ``window_u`` (the points
    start + j extend_step/2 in the last TAIL_WINDOW).  ``sup`` is sup|z|
    for x = ``x0``: the largest |E x0 - D| over the cell nodes and, on every
    cell, its uniform subdivision with spacing at most extend_step/2.  So
    extend_step sets only the window's spacing, this spacing and the
    rounding of ``end``, not the accuracy of A and B.
    """

    start: float
    extend_step: float
    end: float
    A: float                 # Clenshaw-Curtis total of E/t^2
    B: float                 # Clenshaw-Curtis total of D/t^2
    window_u: np.ndarray
    window_E: np.ndarray
    window_D: np.ndarray
    x0: float
    sup: float               # sup|z| over the sampled points, for x0

    # compared by identity, so that tuple equality never meets an array
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @classmethod
    def build(cls, p: Callable, q: Callable, start: float, x0: float, *,
              extend_to: float, extend_step: float) -> "FarField":
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
        try:  # the first samples of q reach the end
            cells, t, E, D = _Cells.build(p, q, float(start), end)
        except ValueError as exc:  # a family built short of extend_to, say
            raise ValueError(f"continuing z to extend_to = {extend_to!r}: {exc}") from exc
        w = 0.5 * (cells.hi - cells.lo)
        cc = _cell_rule().S[-1]
        t *= t
        A = float(w @ ((E / t) @ cc))
        B = float(w @ ((D / t) @ cc))

        j0 = max(0, n_steps - int(TAIL_WINDOW / half) - 2)
        window_u = np.arange(j0, n_steps + 1, dtype=float) * half + start
        window_u = window_u[_window_start(window_u, TAIL_WINDOW):]
        k = np.minimum(np.searchsorted(cells.hi, window_u), len(cells.hi) - 1)
        window_E, window_D = np.empty_like(window_u), np.empty_like(window_u)
        for cell in k[np.flatnonzero(np.diff(k, prepend=-1))]:  # k is sorted
            at = k == cell
            x = (2.0 * window_u[at] - cells.lo[cell] - cells.hi[cell]) \
                / (cells.hi[cell] - cells.lo[cell])
            Q = _antiderivative(np.clip(x, -1.0, 1.0)).T
            window_E[at] = cells.E(np.array([cell]), Q)[0]
            window_D[at] = window_E[at] * cells.C(np.array([cell]), Q)[0]

        # sup|z| over the nodes, each once (a shared edge counts for the cell on
        # its right), and each cell's uniform subdivision.  There, blocks of
        # cells are screened with the bound E_bound max|x0 - C| >= max|z|, and
        # only cells that may come within 2 tau of the max get E.
        tau = 1e-9 * max(1.0, abs(x0))
        z = np.abs(E * x0 - D)
        z[:-1, -1] = -np.inf
        z_max = float(np.max(z))
        e_bound = cells.E_bound()
        counts = _subdivisions(cells.hi - cells.lo, half)
        sizes = np.flatnonzero(np.bincount(counts))
        for n in sizes[sizes > 1]:
            Q = _antiderivative(-1.0 + 2.0 * np.arange(1, n) / n).T
            group = np.flatnonzero(counts == n)
            for b in range(0, len(group), _BLOCK):
                block = group[b:b + _BLOCK]
                bottom, top, g = cells.C_range(block, Q)
                reach = np.maximum(top - x0, x0 - bottom)
                rows = np.flatnonzero(reach * e_bound[block] >= z_max - 2.0 * tau)
                if len(rows) == 0:
                    continue
                c = cells._from_left(g, cells.C0, block)
                e = cells.E(block[rows], Q)
                z = np.abs(e * x0 - e * c[rows])
                z_max = max(z_max, float(np.max(z)))
        return cls(
            start=float(start), extend_step=float(extend_step), end=end,
            A=A, B=B, window_u=window_u, window_E=window_E, window_D=window_D,
            x0=float(x0), sup=z_max,
        )

    def beyond(self, x: float) -> float:
        """Integral of z/t^2 over the continuation."""
        return x * self.A - self.B

    def window(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(t, z) on the trailing window."""
        return self.window_u, self.window_E * x - self.window_D


def _check_grid(grid: np.ndarray) -> None:
    """Refuse a kernel grid that is not uniform, increasing and of two points or more."""
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be one-dimensional with at least two points")
    uniform_step(grid, "kernel grids must be uniform and increasing")


class Damping(NamedTuple):
    """The part of a kernel that depends on p and the grid only.

    ``u`` is the grid with midpoints inserted and ``P`` the cumulative
    integral of p along it from u[0], by :func:`cumulative_simpson_doubled`.
    exp(P) and exp(-P) are left to each kernel (see the module docstring).
    """

    p: Callable
    u: np.ndarray
    P: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # as FarField

    @classmethod
    def build(cls, p: Callable, grid: np.ndarray) -> "Damping":
        """Check the grid, double it, sample p on it once and integrate."""
        g = np.asarray(grid, dtype=float)
        _check_grid(g)
        u = np.linspace(g[0], g[-1], 2 * (len(g) - 1) + 1)
        p_vals = np.asarray(p(u), dtype=float)
        if not np.all(np.isfinite(p_vals)):
            raise ValueError("coefficients are not finite on the grid")
        return cls(p=p, u=u, P=cumulative_simpson_doubled(u, p_vals))

    def check_inputs(self, p: Callable, grid: np.ndarray) -> None:
        """Raise unless this was built for exactly this p and this grid."""
        grid = np.asarray(grid, dtype=float)
        _check_grid(grid)
        u = self.u
        if (len(u), u[0], u[-1]) != (2 * len(grid) - 1, grid[0], grid[-1]):
            raise ValueError(
                f"damping was built for a grid of {(len(u) + 1) // 2} points on "
                f"[{float(u[0])!r}, {float(u[-1])!r}], not {len(grid)} on "
                f"[{float(grid[0])!r}, {float(grid[-1])!r}]")
        if not self.p == p:
            raise ValueError("damping was built for another coefficient p")


def _q_samples(qe: Callable, u: np.ndarray) -> np.ndarray:
    """q on the doubled grid u, checked to be finite."""
    q_vals = np.asarray(qe(u), dtype=float)
    if not np.all(np.isfinite(q_vals)):
        raise ValueError("coefficients are not finite on the grid")
    return q_vals


def _z_doubled(damping: Damping, q_vals: np.ndarray) -> np.ndarray:
    """z = -exp(-P) C on the doubled grid, C the cumulative integral of q exp(P).

    One array holds q exp(P) and then z, each formed in place by the same
    operations as the expressions above.
    """
    P = damping.P
    z = np.exp(P)
    z *= q_vals
    C = cumulative_simpson_doubled(damping.u, z)
    np.negative(P, out=z)
    np.exp(z, out=z)
    np.negative(z, out=z)
    z *= C
    return z


def compute_z(p: Callable, q: Callable, grid: np.ndarray) -> np.ndarray:
    """Kernel z on a uniform grid via the weighted cumulative integrals."""
    damping = Damping.build(p, grid)
    z = _z_doubled(damping, _q_samples(q, damping.u))
    return z[::2].copy()


def z_ode_oracle(
    p: Callable,
    q: Callable,
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

    def rhs(t: float, y: np.ndarray) -> list[float]:
        ts = np.asarray([t])
        return [-float(p(ts)[0]) * y[0] - float(q(ts)[0])]

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
) -> tuple[np.ndarray, HTail]:
    """Kernel h on the grid from sampled z plus tail accounting.

    ``far`` optionally summarises the continuation of z beyond grid[-1]
    (see :class:`FarField`); the improper remainder past the last available
    sample is estimated by the trailing-window mean of z and certified by
    ``tail`` (an envelope model for z/t^2).  h at the odd nodes carries the
    half-cell parabola of :func:`cumulative_simpson_doubled`, not the
    Simpson sum of the even nodes: on the default family's pi/400 grid it is
    off by 4.7e-11 there against 9.8e-12 at the even nodes (measured against
    a pi/800 build), so the residual checks read the even nodes only.
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
        x = float(z[-1])
        beyond = far.beyond(x)
        tail_u, tail_z = far.window(x)

    cutoff = float(tail_u[-1])
    zbar, uncertainty = _window_mean_tail(tail_u, tail_z, TAIL_WINDOW)
    tail_value = zbar / cutoff
    certificate = tail.tail_bound(cutoff)

    # J(s) = integral_s^infinity z/t^2; h = -s J(s)
    J = (cum[-1] - cum) + beyond + tail_value
    h = -g * J
    info = HTail(value=tail_value, uncertainty=uncertainty,
                 certificate=certificate, cutoff=cutoff)
    return h, info


def compute_kernel(
    p: Callable,
    q: Callable,
    grid: np.ndarray,
    *,
    extend_to: float = STOCK_EXTEND_TO,
    extend_step: float = math.pi / 80.0,
    damping: Optional[Damping] = None,
) -> KernelPair:
    """Compute both kernels with certified accounting.

    The h tail is certified with the observed sup|z|, over the grid and,
    while extend_to lies past the grid end, over the continuation of z to
    it (see :class:`FarField`), flagged by z_sup_bound == z_sup_observed;
    :meth:`KernelPair.with_sup_bound` re-certifies it with a proven bound
    (for instance from the oscillation lemma).  ``damping`` is the
    :class:`Damping` of p on this grid, shared with the other member of a
    pair; it is built here when omitted.  q must be defined up to
    extend_to, so a family must be built to that extent.
    """
    g = np.asarray(grid, dtype=float)
    if damping is None:
        damping = Damping.build(p, g)
    else:
        damping.check_inputs(p, g)

    # the q samples stay bound until the kernel returns: freed as soon as z
    # is made, they let glibc trim the heap, and the arrays made after them
    # fault their pages in again (a 256k-point make_barriers, whose members
    # share one Damping, takes 10.4k minor faults that way against 7.5k)
    q_vals = _q_samples(q, damping.u)
    z_doubled = _z_doubled(damping, q_vals)
    z = z_doubled[::2].copy()

    observed = float(np.max(np.abs(z_doubled)))
    far = None
    if extend_to > g[-1]:
        far = FarField.build(p, q, float(g[-1]), float(z[-1]), extend_to=extend_to,
                             extend_step=extend_step)
        observed = max(observed, far.sup)

    tail = TailModel(kind="power", rate=2.0, coef=observed)
    h, h_tail = compute_h(z, g, tail, far=far)

    for arr in (g, z, h):
        arr.setflags(write=False)
    return KernelPair(
        grid=g,
        z_values=z,
        h_values=h,
        z_sup_bound=observed,
        tail=tail,
        h_tail=h_tail,
        z_sup_observed=observed,
    )


def _central_operator(h: np.ndarray, si: np.ndarray, p_i: np.ndarray, step: float,
                      out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out = h'' + p (h' - h/s) on the interior nodes ``si``, by central differences.

    ``h`` lives on a uniform grid of step ``step`` whose interior nodes are
    ``si``, and ``p_i`` is p there.  Everything is written in place: the
    operator into ``out``, and the two rows of ``work`` end holding h' - h/s
    and p (h' - h/s).  Returns ``out``.
    """
    slope, term = work
    np.multiply(h[1:-1], 2.0, out=out)
    np.subtract(h[:-2], out, out=out)
    out += h[2:]
    out /= step**2
    np.subtract(h[2:], h[:-2], out=slope)
    slope /= 2.0 * step
    np.divide(h[1:-1], si, out=term)
    slope -= term
    np.multiply(slope, p_i, out=term)
    out += term
    return out


def _extrapolated_operator(h: np.ndarray, grid: np.ndarray, p2: np.ndarray,
                           step: float) -> tuple[np.ndarray, np.ndarray, float]:
    """h'' + p (h' - h/s) at every fourth node of h's grid, extrapolated from its even nodes.

    The odd nodes of a kernel grid carry compute_h's half-cell parabola, not
    the Simpson sum (see :func:`compute_h`), so only h[::2] is read.  With
    L_k the central operator on h[::k], at spacing k steps, the operator
    (4 L_2 - L_4)/3 cancels the O(step^2) term at the nodes both stencils
    share: every fourth node, the interior of grid[::4].  ``grid`` is
    uniform of step ``step`` with 17 points or more, and ``p2`` is p on the
    interior of grid[::2].  A stencil that straddles a jump of q'' off its
    centre reads an O(step^2) term that this does not cancel, so a lobe join
    s = k pi belongs at one of those nodes (see :func:`~oscillax.quadrature.equation_grid`).
    Returns that operator, h' - h/s extrapolated the same way, and the error
    estimate max |R(2, 4) - R(4, 8)|/15 over every eighth node.
    """
    if len(grid) < 17:
        raise ValueError(f"the extrapolated residual reads every eighth node, so it needs "
                         f"a grid of at least 17 points, got {len(grid)}")
    s2 = grid[::2][1:-1]
    ops = []
    for k in (2, 4, 8):
        m = len(h[::k]) - 2
        work = np.empty((2, m))
        at = slice(k // 2 - 1, None, k // 2)
        op = _central_operator(h[::k], s2[at][:m], p2[at][:m], k * step, np.empty(m), work)
        ops.append((op, work[0]))

    def extrapolate(fine, coarse):
        return (4.0 * fine[1::2][:len(coarse)] - coarse) / 3.0

    (l2, slope2), (l4, slope4), (l8, _) = ops
    op = extrapolate(l2, l4)
    estimate = float(np.max(np.abs(op[1::2][:len(l8)] - extrapolate(l4, l8)))) / 15.0
    return op, extrapolate(slope2, slope4), estimate


def ode_residual(
    h_values: np.ndarray,
    p: Callable,
    q: Callable,
    grid: np.ndarray,
    *,
    z_values: Optional[np.ndarray] = None,
) -> dict:
    """Residual R of h'' + p (h' - h/s) + q/s on every fourth node of the grid.

    R is the Richardson extrapolation (4 rho_2 - rho_4)/3 of the central
    residuals at spacings of 2 and 4 steps, which read the grid's even nodes
    only, and ``estimate`` is its error estimate (see
    :func:`_extrapolated_operator`; the grid needs 17 points or more).  When
    z samples are given, the first-order identity h' - h/s = z/s is
    extrapolated and checked as well; both are reported as sup and L2 norms
    over those nodes.
    """
    g = np.asarray(grid, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if g.shape != h.shape:
        raise ValueError("need h sampled on the grid")
    step = uniform_step(g, "residual check needs a uniform grid")
    s2 = g[::2][1:-1]
    resid, slope, estimate = _extrapolated_operator(h, g, np.asarray(p(s2), dtype=float), step)
    si = g[::4][1:-1]
    resid += np.asarray(q(si), dtype=float) / si
    step4 = 4.0 * step
    out = {
        "sup": float(np.max(np.abs(resid))),
        "estimate": estimate,
        "l2": float(np.sqrt(step4 * np.sum(resid**2))),
        "n_interior": int(len(si)),
    }
    if z_values is not None:
        ident = slope - np.asarray(z_values, dtype=float)[::4][1:-1] / si
        out["identity_sup"] = float(np.max(np.abs(ident)))
        out["identity_l2"] = float(np.sqrt(step4 * np.sum(ident**2)))
    return out
