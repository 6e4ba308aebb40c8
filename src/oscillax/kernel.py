"""Comparison-equation kernels z and h.

Given coefficient functions p >= 0 and q on [s0, infinity), the first
kernel is

    z(s) = -exp(-P(s)) * integral_{s0}^{s} q(t) exp(P(t)) dt,
    P(s) = integral_{s0}^{s} p,

equivalently the solution of z' = -p z - q with z(s0) = 0.  The second is

    h(s) = -s * integral_{s}^{infinity} z(t) / t^2 dt,

so that h'' + p (h' - h/s) + q/s = 0 and s (h/s)' = h' - h/s = z/s.

Everything is computed on uniform grids with a midpoint-doubled Simpson
scheme.  The improper h integral splits into a gridded part, an optional
coarse continuation of z far beyond the working window, a last-window mean
value estimate of the remainder, and a certified bound from a tail model
built on a proven sup bound for |z|.  The certificate and the estimate are
reported separately; nothing is silently mixed.

The far continuation depends on the grid only through x = z(grid end):
continuing from there, z = E x - D with E = exp(-P_loc), D = E C_loc, and
P_loc, C_loc the integrals of p and q exp(P_loc) from the grid end.  A
:class:`FarField` keeps what h needs of it for every x: the Simpson totals
of E/t^2 and D/t^2, E and D on the trailing window, and E and D at the
indices within 2 tau of max|z| at the x0 it was built at, with
tau = 1e-9 max(1, |x0|).  That kept set still holds the maximiser of |z|
for any x with max(E) |x - x0| <= tau (the validity radius), so sup|z| over
the continuation stays exact there.  It is built once per coefficient pair
and passed to every later kernel whose grid ends at the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

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


def _simpson_total(f: np.ndarray, dt: float) -> float:
    """Composite Simpson integral over a doubled grid of coarse step dt."""
    return float(dt / 6.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1::2]) + 2.0 * np.sum(f[2:-1:2])))


@dataclass(frozen=True, eq=False)
class FarField:
    """What h needs of the continuation of z beyond a grid end, for any z there.

    Continuing from ``start`` with z(start) = x on the uniform grid
    start, start + extend_step/2, ... up to ``end`` >= extend_to gives
    z = E x - D.  The integral of z/t^2 over the continuation is x A - B,
    the trailing window holds E and D on ``window_u``, and sup|z| is the
    largest |E_i x - D_i| over the kept indices while x stays within the
    validity radius of ``x0`` (see :meth:`covers`).
    """

    p: Coefficient
    q: Coefficient
    start: float
    extend_to: float
    extend_step: float
    tail_window: float
    end: float
    A: float                 # Simpson total of E/t^2
    B: float                 # Simpson total of D/t^2
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

        Works in place on a few continuation-length arrays of its own (never
        on what p or q return); only the summary outlives the call.
        """
        pe, qe = as_callable(p), as_callable(q)
        half = 0.5 * extend_step
        n_cells = int(math.ceil((extend_to - start) / half))
        n_cells += n_cells % 2
        u = np.arange(n_cells + 1, dtype=float)
        u *= half
        u += start
        vals = np.asarray(pe(u), dtype=float)
        E = cumulative_simpson_doubled(u, vals)          # P_loc
        del vals
        np.exp(E, out=E)
        vals = np.multiply(qe(u), E, dtype=float)        # q exp(P_loc)
        D = cumulative_simpson_doubled(u, vals)          # C_loc
        del vals
        np.reciprocal(E, out=E)                          # exp(-P_loc)
        D *= E

        i0 = _window_start(u, tail_window)
        tau = 1e-9 * max(1.0, abs(x0))
        z = np.multiply(E, x0)
        z -= D
        np.abs(z, out=z)
        keep = np.flatnonzero(z >= float(np.max(z)) - 2.0 * tau)

        dt = 2.0 * float(u[1] - u[0])
        end = float(u[-1])
        window_u = u[i0:].copy()
        np.square(u, out=u)
        np.divide(E, u, out=z)
        A = _simpson_total(z, dt)
        np.divide(D, u, out=z)
        B = _simpson_total(z, dt)
        return cls(
            p=p, q=q, start=float(start), extend_to=float(extend_to),
            extend_step=float(extend_step), tail_window=float(tail_window), end=end,
            A=A, B=B, window_u=window_u, window_E=E[i0:].copy(), window_D=D[i0:].copy(),
            x0=float(x0), tau=tau, e_max=float(np.max(E)),
            sup_E=E[keep], sup_D=D[keep],
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
        """Whether the kept indices still contain the maximiser of |E x - D|."""
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
    pe, qe = as_callable(p), as_callable(q)
    p_vals = np.asarray(pe(u), dtype=float)
    q_vals = np.asarray(qe(u), dtype=float)
    if not (np.all(np.isfinite(p_vals)) and np.all(np.isfinite(q_vals))):
        raise ValueError("coefficients are not finite on the grid")
    z = _z_doubled(p_vals, q_vals, u)
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

    p_vals = np.asarray(pe(u), dtype=float)
    q_vals = np.asarray(qe(u), dtype=float)
    if not (np.all(np.isfinite(p_vals)) and np.all(np.isfinite(q_vals))):
        raise ValueError("coefficients are not finite on the grid")
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
