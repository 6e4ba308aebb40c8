"""Comparison-equation kernels z and h.

Given coefficient functions p >= 0 and q on [s0, infinity), the first
kernel is

    z(s) = -exp(-P(s)) * integral_{s0}^{s} q(t) exp(P(t)) dt,
    P(s) = integral_{s0}^{s} p,

equivalently the solution of z' = -p z - q with z(s0) = 0.  The second is

    h(s) = -s * integral_{s}^{infinity} z(t) / t^2 dt,

so that h'' + p (h' - h/s) + q/s = 0 and s (h/s)' = h' - h/s = z/s.

A kernel is built once, on cells that cover [s0, end]: end is the grid end,
or the end of a continuation of z far beyond it.  The cell edges are s0,
every multiple of pi past it and end, so that each cell holds one smooth
sin^2 lobe of a family.  On each cell a 17-node Chebyshev-Lobatto rule with
its spectral integration matrix gives P and C = integral q exp(P) at the
nodes, and one cumulative sum carries the cell totals across cells
(Greengard, SIAM J. Numer. Anal. 28, 1991; Trefethen, Approximation Theory
and Approximation Practice, 2013).  The rule checks itself: on every cell
the degree-16 interpolants of p and q must agree with their degree-14
truncations to CELL_TAIL_TOL of max|p|, max|q|, and a cell that fails is
bisected, so a coefficient with a kink inside a cell is still resolved,
while one with a jump is refused.

z and h at any point come from the interpolants on its cell through the
antiderivative (:meth:`_Cells.at`), so every grid node carries the same
accuracy: when every multiple of pi is a grid node, one matrix of its rows
(:func:`_antiderivative`) serves every whole cell, and any other point sums
its cell's Chebyshev coefficients against the Chebyshev polynomials there.
h integrates z/t^2 on the same cells, from each point to end.  Every
product of the rule runs through :func:`_product`, in blocks small enough
for one BLAS thread.

The improper h integral past end is a last-window mean value estimate of
the remainder, with a certified bound from a tail model built on a bound for
sup|z|: the observed one, over the cell nodes, the grid nodes and each
cell's uniform subdivision, or a proven one attached by
:meth:`KernelPair.with_sup_bound`.  The certificate and the estimate are
reported separately; nothing is silently mixed.  Kernels do not integrate
p over [s0, infinity); the coefficient family reports lambda.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import CELL_NODES, STOCK_EXTEND_TO, TailModel, uniform_step

__all__ = [
    "KernelPair",
    "HTail",
    "compute_z",
    "z_ode_oracle",
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
    """Sampled kernels with their certified accounting.

    The h tail certificate is that of the envelope sup|z|/t^2 beyond the
    continuation end, with ``z_sup_bound`` as sup|z|.
    """

    grid: np.ndarray
    z_values: np.ndarray
    h_values: np.ndarray
    z_sup_bound: float        # bound used in the h tail certificate
    h_tail: HTail
    z_sup_observed: float

    def with_sup_bound(self, bound: float) -> "KernelPair":
        """The same kernel with its h tail certified by a proven bound on sup|z|.

        z and h do not depend on the bound, so the copy shares their
        read-only arrays; only the bound and the certificate change.
        """
        tail = TailModel(kind="power", rate=2.0, coef=float(bound))
        return self._replace(z_sup_bound=tail.coef, h_tail=self.h_tail._replace(
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
#                          (or max|q|) over the cells
CELL_MAX_SPLITS = 30     # bisections of one cell before the build gives up
CELL_MAX_DAMPING = 1.0   # a cell times max|p| on it: the most P may change across a cell, so
#                          that exp(P) is resolved as well as p and q
_BLOCK = 512             # cells per block when sup|z| is refined
_POINTS = 2048           # points per block of the Chebyshev sums of _Cells.at
# multiply-adds m k n of one matrix product: OpenBLAS runs a product up to this size on
# one thread, and a larger one may wake its thread pool, which has taken 16 ms for a
# (40 x 17)(17 x 6401) product that one thread does in 0.2 ms
_BLAS_MAX = 1 << 18


def _product(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ b, into ``out`` when given, as products of at most _BLAS_MAX multiply-adds each.

    ``a`` is (m, k) and ``b`` is (k, n) or (k,).  A wide ``b`` is split
    into column blocks that keep every row of ``a``, any other into row
    blocks of ``a``.
    """
    if b.ndim == 1:
        return _product(a, b[:, None])[:, 0]
    (m, k), n = a.shape, b.shape[1]
    cols = max(1, _BLAS_MAX // (k * m)) if n > m else n
    cols = min(cols, max(1, _BLAS_MAX // k))
    rows = max(1, _BLAS_MAX // (k * cols))
    if out is None:
        out = np.empty((m, n))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(a[i:i + rows], b[:, j:j + cols], out=out[i:i + rows, j:j + cols])
    return out


class _Rule(NamedTuple):
    """The cell rule on [-1, 1]; rows act on a cell's values at the nodes ``x``."""

    x: np.ndarray            # ascending Chebyshev-Lobatto nodes
    to_coef: np.ndarray      # Chebyshev coefficients of the interpolant
    anti: np.ndarray         # Chebyshev coefficients of its antiderivative from -1
    S: np.ndarray            # that antiderivative at the nodes; S[-1] is Clenshaw-Curtis
    diff: np.ndarray         # the interpolant's derivative at the nodes


def _chebvander(x: np.ndarray, deg: int) -> np.ndarray:
    """T_0(x), ..., T_deg(x), one column per point of ``x``, by the three-term recurrence."""
    v = np.empty((deg + 1, len(x)))
    v[0] = 1.0
    v[1] = x
    x2 = 2.0 * x
    for i in range(2, deg + 1):
        np.multiply(x2, v[i - 1], out=v[i])
        v[i] -= v[i - 2]
    return v


def _chebint(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (one column each) of the antiderivative from -1 of ``c``'s."""
    n = len(c)
    out = np.zeros((n + 1, c.shape[1]))
    out[1] = c[0]
    out[2] = c[1] / 4.0
    for j in range(2, n):
        out[j + 1] = c[j] / (2 * j + 2)
        out[j - 1] -= c[j] / (2 * j - 2)
    out[0] = -np.sum(out[1:] * (-1.0) ** np.arange(1, n + 1)[:, None], axis=0)
    return out


def _chebder(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (one column each) of the derivative of ``c``'s."""
    c, n = c.copy(), len(c) - 1
    der = np.empty((n, c.shape[1]))
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    der[1] = 4 * c[2]
    der[0] = c[1]
    return der


@functools.cache
def _cell_rule() -> _Rule:
    """The cell rule, built once."""
    deg = CELL_NODES - 1
    x = -np.cos(np.pi * np.arange(CELL_NODES) / deg)
    x[deg // 2] = 0.0
    to_coef = np.linalg.inv(_chebvander(x, deg).T)
    anti = _chebint(to_coef)
    S = _product(_chebvander(x, deg + 1).T, anti)
    S[0] = 0.0
    diff = _product(_chebvander(x, deg - 1).T, _chebder(to_coef))
    return _Rule(x, to_coef, anti, S, diff)


def _antiderivative(x: np.ndarray) -> np.ndarray:
    """Q, one column per point of ``x``: a cell's node values times Q are their integrals
    from -1 to each x, and exactly 0 at x = -1.  Built a column block at a time, so no
    Vandermonde matrix of every point is ever held."""
    anti = _cell_rule().anti.T
    Q = np.empty((CELL_NODES, len(x)))
    width = _BLAS_MAX // anti.size
    for j in range(0, len(x), width):
        _product(anti, _chebvander(x[j:j + width], CELL_NODES), Q[:, j:j + width])
    Q[:, x == -1.0] = 0.0
    return Q


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
        raise ValueError(f"coefficient {name} is not finite on "
                         f"[{float(np.min(t))!r}, {float(np.max(t))!r}]")
    return vals


def _unresolved(vals: np.ndarray, scale: float) -> np.ndarray:
    """Cells whose interpolant fails the self-check (see CELL_TAIL_TOL) against ``scale``."""
    tail = np.sum(np.abs(_product(vals, _cell_rule().to_coef[-2:].T)), axis=1)
    return tail > CELL_TAIL_TOL * scale


class _Cells(NamedTuple):
    """z from ``lo[0]``, where it vanishes, on cells: z at each left edge and z' at the nodes.

    z at any point of a cell is its value at the left edge plus the integral
    of the interpolant of z' = -p z - q from there.
    """

    lo: np.ndarray
    hi: np.ndarray
    z0: np.ndarray           # z at each cell's left edge
    dz: np.ndarray           # z' at the nodes, one row per cell

    @classmethod
    def build(cls, pe: Callable, qe: Callable, start: float, end: float
              ) -> tuple["_Cells", np.ndarray, np.ndarray]:
        """The cells, with the nodes and z there.

        Edges are start, every multiple of pi between, and end; a cell on
        which p or q fails the self-check, or over which P may change by
        more than CELL_MAX_DAMPING, is bisected.  z = -exp(-P) C at the
        nodes, with P and C, the integral of q exp(P), from the rule.
        """
        k = np.arange(math.floor(start / math.pi) + 1, math.ceil(end / math.pi))
        inner = math.pi * k
        gap = 1e-9 * math.pi
        inner = inner[(inner > start + gap) & (inner < end - gap)]
        edges = np.concatenate(([start], inner, [end]))
        lo, hi = edges[:-1], edges[1:]
        t = _nodes(lo, hi)
        p_vals, q_vals = _sample(pe, "p", t), _sample(qe, "q", t)
        done, top_p, top_q = [], 0.0, 0.0   # the cells that passed, and their largest |p|, |q|
        for splits in range(CELL_MAX_SPLITS + 1):
            # the scales are those of every cell, and only grow, so a cell that passed
            # still passes
            abs_p = np.max(np.abs(p_vals), axis=1)
            bad = _unresolved(p_vals, max(top_p, float(np.max(abs_p))))
            bad |= _unresolved(q_vals, max(top_q, float(np.max(np.abs(q_vals)))))
            bad |= (hi - lo) * abs_p > CELL_MAX_DAMPING
            if not np.any(bad):
                break
            if splits == CELL_MAX_SPLITS:
                i = int(np.argmin(np.where(bad, lo, np.inf)))
                raise ValueError(
                    f"p or q is not smooth enough on [{float(lo[i])!r}, {float(hi[i])!r}] "
                    f"after {CELL_MAX_SPLITS} bisections")
            ok = ~bad
            done.append((lo[ok], hi[ok], t[ok], p_vals[ok], q_vals[ok]))
            top_p = max(top_p, float(np.max(abs_p[ok], initial=0.0)))
            top_q = max(top_q, float(np.max(np.abs(q_vals[ok]), initial=0.0)))
            mid = 0.5 * (lo[bad] + hi[bad])
            lo, hi = np.concatenate((lo[bad], mid)), np.concatenate((mid, hi[bad]))
            t = _nodes(lo, hi)
            p_vals, q_vals = _sample(pe, "p", t), _sample(qe, "q", t)
        if done:
            parts = list(zip(*done, (lo, hi, t, p_vals, q_vals)))
            order = np.argsort(np.concatenate(parts[0]), kind="stable")
            lo, hi, t, p_vals, q_vals = (np.concatenate(part)[order] for part in parts)

        # a node sits at the rounding of lo + (hi - lo)(x_j + 1)/2, and that
        # rounding repeats from cell to cell; move each sample to the node
        # the rule assumes, to first order, so that it does not pile up in P, C
        rule = _cell_rule()
        w = 0.5 * (hi - lo)[:, None]
        shift = ((t - lo[:, None]) - w * (rule.x + 1.0)) / w
        p_vals = p_vals - _product(p_vals, rule.diff.T) * shift
        q_vals = q_vals - _product(q_vals, rule.diff.T) * shift
        S = rule.S
        P = _product(p_vals, S.T) * w             # P from each left edge
        P0 = np.concatenate(([0.0], np.cumsum(P[:-1, -1])))
        P += P0[:, None]
        E = np.exp(-P)
        C = _product(q_vals / E, S.T) * w         # C from each left edge
        C0 = np.concatenate(([0.0], np.cumsum(C[:-1, -1])))
        C += C0[:, None]
        z = np.negative(E, out=E)
        z *= C
        dz = p_vals * z
        dz += q_vals
        np.negative(dz, out=dz)
        return cls(lo, hi, z[:, 0].copy(), dz), t, z

    def _from_left(self, out: np.ndarray, at_lo: np.ndarray, k) -> np.ndarray:
        """``out`` times the half-widths plus ``at_lo``, row by row in the cells ``k``, in
        place."""
        out *= 0.5 * (self.hi[k] - self.lo[k])[:, None]
        out += at_lo[k][:, None]
        return out

    def _runs(self, s: np.ndarray):
        """Runs (k, at, Q) of neighbouring cells whose edges are points of the uniform
        increasing ``s`` and that hold the same number n of steps.

        The cells k hold the points s[at], n each with their left edge and
        not their right, at the points of Q = _antiderivative(x): their
        values there are the rows of s[at].reshape(len(k), n).  One Q serves
        each n, so when every multiple of pi is a point of s, one Q serves
        every whole pi-cell.
        """
        step = (s[-1] - s[0]) / (len(s) - 1)
        tol = 16.0 * np.finfo(float).eps * max(abs(s[0]), abs(s[-1]))
        a = (self.lo - s[0]) / step          # the edges in steps of s
        b = (self.hi - s[0]) / step
        ia, ib = np.rint(a), np.rint(b)
        on = (np.abs(a - ia) * step <= tol) & (np.abs(b - ib) * step <= tol)
        on &= (0 <= ia) & (ia < ib) & (ib < len(s))
        n = np.where(on, ib - ia, 0).astype(int)
        cuts = np.flatnonzero(np.diff(n)) + 1
        shared = {}
        for j, e in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [len(n)]))):
            m = int(n[j])
            if m == 0:
                continue
            if m not in shared:
                shared[m] = _antiderivative(np.linspace(-1.0, 1.0, m + 1)[:-1])
            i0 = int(ia[j])
            yield slice(j, e), slice(i0, i0 + (e - j) * m), shared[m]

    def at(self, s: np.ndarray, *pairs: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
        """For each (vals, at_lo): at_lo plus the integral of the interpolant of vals from
        each cell's left edge, at the uniform increasing points ``s`` in [lo[0], hi[-1]].

        A point on an edge belongs to the cell on its right.  The runs of
        :meth:`_runs` are products with their Q; every other point (the
        last, and every point of a cell whose edges are not points of s)
        multiplies its cell's Chebyshev coefficients into the Chebyshev
        polynomials there, a block of points at a time, so no matrix per
        cell is held.
        """
        outs = [np.empty(len(s)) for _ in pairs]
        rest = np.ones(len(s), dtype=bool)
        for k, at, Q in self._runs(s):
            rest[at] = False
            for (vals, at_lo), out in zip(pairs, outs):
                self._from_left(_product(vals[k], Q, out[at].reshape(k.stop - k.start, -1)),
                                at_lo, k)
        i = np.flatnonzero(rest)
        c = np.clip(np.searchsorted(self.lo, s[i], side="right") - 1, 0, len(self.lo) - 1)
        x = np.clip((2.0 * s[i] - self.lo[c] - self.hi[c]) / (self.hi[c] - self.lo[c]),
                    -1.0, 1.0)
        k = c[np.flatnonzero(np.diff(c, prepend=-1))]   # c is sorted: its cells, and
        c = np.searchsorted(k, c)                        # the rank of each among them
        w = 0.5 * (self.hi[k] - self.lo[k])
        # the Chebyshev coefficients of each antiderivative, one row a cell of k
        coefs = [_product(vals[k], _cell_rule().anti.T) for vals, _ in pairs]
        for j in range(0, len(i), _POINTS):
            at, cj = slice(j, j + _POINTS), c[j:j + _POINTS]
            cheb = _chebvander(x[at], CELL_NODES)
            cheb[:, x[at] == -1.0] = 0.0            # exactly 0 at a left edge
            cuts = np.flatnonzero(np.diff(cj)) + 1    # the block's cells
            for coef, (_, at_lo), out in zip(coefs, pairs, outs):
                v = np.empty(len(cj))
                for a, b in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [len(cj)]))):
                    _product(coef[cj[a]:cj[a] + 1], cheb[:, a:b], v[None, a:b])
                v *= w[cj]
                v += at_lo[k[cj]]
                out[i[at]] = v
        return outs


def _sup(cells: _Cells, z: np.ndarray, half: float, z_max: float) -> float:
    """sup|z| over the cell nodes, where it is ``z``, each cell's uniform subdivision with
    spacing at most ``half``, and the points where it already reached ``z_max``.

    Each node counts once (a shared edge for the cell on its right).  On a
    subdivision only the row extremes of the product are scaled: x ->
    fl(fl(x w) + z0) is nondecreasing for w > 0, so they are those of z
    there, to the bit.
    """
    z = np.abs(z)
    z[:-1, -1] = -np.inf
    z_max = max(z_max, float(np.max(z)))
    counts = _subdivisions(cells.hi - cells.lo, half)
    sizes = np.flatnonzero(np.bincount(counts))
    for n in sizes[sizes > 1]:
        Q = _antiderivative(-1.0 + 2.0 * np.arange(1, n) / n)
        group = np.flatnonzero(counts == n)
        for b in range(0, len(group), _BLOCK):
            block = group[b:b + _BLOCK]
            g = _product(cells.dz[block], Q)
            top, bottom = cells._from_left(
                np.stack((np.max(g, axis=1), np.min(g, axis=1)), axis=1), cells.z0, block).T
            z_max = max(z_max, float(np.max(top)), -float(np.min(bottom)))
    return z_max


def _check_grid(grid: np.ndarray) -> None:
    """Refuse a kernel grid that is not uniform, increasing and of two points or more."""
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be one-dimensional with at least two points")
    uniform_step(grid, "kernel grids must be uniform and increasing")


def compute_z(p: Callable, q: Callable, grid: np.ndarray) -> np.ndarray:
    """Kernel z on a uniform grid: that of :func:`compute_kernel` with no continuation."""
    g = np.asarray(grid, dtype=float)
    _check_grid(g)
    cells = _Cells.build(p, q, float(g[0]), float(g[-1]))[0]
    return cells.at(g, (cells.dz, cells.z0))[0]


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


def compute_kernel(
    p: Callable,
    q: Callable,
    grid: np.ndarray,
    *,
    extend_to: float = STOCK_EXTEND_TO,
    extend_step: float = math.pi / 80.0,
) -> KernelPair:
    """Compute both kernels with certified accounting.

    One build of cells (see :class:`_Cells`) covers [grid[0], end], where
    end is the grid end or, while extend_to lies past it, the grid end
    plus an even number of extend_step/2 steps at or past extend_to; q must
    be defined up to it, so a family must be built to that extent.  z and h
    at the grid nodes come from it, and so does the h tail: the mean of z
    over the last TAIL_WINDOW (at the points grid[-1] + j extend_step/2 of
    the continuation, or at the grid nodes without one) estimates the
    remainder past end, certified with the observed sup|z| (flagged by
    z_sup_bound == z_sup_observed; :meth:`KernelPair.with_sup_bound`
    re-certifies it with a proven bound, for instance from the oscillation
    lemma).  sup|z| is the largest |z| over the cell nodes, the grid nodes
    and each cell's uniform subdivision with spacing at most extend_step/2.
    Never writes into what p or q return.
    """
    g = np.asarray(grid, dtype=float)
    _check_grid(g)
    s_end, half = float(g[-1]), 0.5 * extend_step
    end = s_end
    if extend_to > s_end:
        n_steps = int(math.ceil((extend_to - s_end) / half))
        n_steps += n_steps % 2
        end = float(n_steps * half + s_end)
    try:
        cells, t, z_nodes = _Cells.build(p, q, float(g[0]), end)
    except ValueError as exc:  # a family built short of extend_to, say
        if end == s_end:
            raise
        raise ValueError(f"z reaches extend_to = {extend_to!r}: {exc}") from exc

    if end > s_end:
        j0 = max(0, n_steps - int(TAIL_WINDOW / half) - 2)
        tail_u = np.arange(j0, n_steps + 1, dtype=float) * half + s_end
    else:
        tail_u = g
    tail_u = tail_u[_window_start(tail_u, TAIL_WINDOW):]
    tail_z, = cells.at(tail_u, (cells.dz, cells.z0))
    cutoff = float(tail_u[-1])
    zbar, uncertainty = _window_mean_tail(tail_u, tail_z, TAIL_WINDOW)
    tail_value = zbar / cutoff

    # h = s K, K(s) = -(integral_s^end z/t^2 + the tail value), from K' = y = z/t^2 at
    # the nodes: K is its value at each cell's left edge plus the integral of y from there
    w = 0.5 * (cells.hi - cells.lo)
    t *= t
    y = np.divide(z_nodes, t, out=t)
    K0 = np.cumsum((w * _product(y, _cell_rule().S[-1]))[::-1])[::-1]
    K0 += tail_value
    np.negative(K0, out=K0)
    z, h = cells.at(g, (cells.dz, cells.z0), (y, K0))
    h *= g
    observed = _sup(cells, z_nodes, half, max(float(np.max(z)), -float(np.min(z))))
    tail = TailModel(kind="power", rate=2.0, coef=observed)
    for arr in (g, z, h):
        arr.setflags(write=False)
    return KernelPair(
        grid=g,
        z_values=z,
        h_values=h,
        z_sup_bound=observed,
        h_tail=HTail(value=tail_value, uncertainty=uncertainty,
                     certificate=tail.tail_bound(cutoff), cutoff=cutoff),
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

    With L_k the central operator on h[::k], at spacing k steps, the operator
    (4 L_2 - L_4)/3 cancels the O(step^2) term at the nodes both stencils
    share: every fourth node, the interior of grid[::4].  A stencil that
    straddles a jump of q'' off its centre reads an O(step^2) term that this
    does not cancel, and the lobe joins s = k pi sit on every fourth node
    (see :func:`~oscillax.quadrature.equation_grid`), so the operator is
    formed there, from the even nodes.  ``grid`` is uniform of step ``step``
    with 17 points or more, and ``p2`` is p on the interior of grid[::2].
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
