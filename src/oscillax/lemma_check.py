"""Verification of the oscillation test's hypotheses and conclusions.

Hypotheses, per period m with breakpoints a_{2m} < a_{2m+1} < a_{2m+2}:

  (sign)   q > 0 on the first half-interval, q < 0 on the second;
  (hyp1)   integral of q over the positive lobe dominates the negative one
           with the damping markup:  Ipos_m >= (1 + 3 I_m) Ineg_m, where
           I_m = integral_{a_{2m}}^{infinity} p;
  (hyp2)   the surpluses eps_m = max(Ipos_m - Ineg_m, 0), the smallest
           admissible ones (the slack surplus), are summable;
  (hyp3)   each positive-lobe integral alone stays below a fixed delta.

Standing smallness: lambda = integral of p over [s0, infinity) below one.

Conclusions, for the kernels of :mod:`oscillax.kernel`: z stays negative and
bounded by (eps + delta) e^lambda, h stays positive, and h/s decreases. The
monotonicity flag is computed both from differences of h/s and from the
sign of z (the two are equivalent through s (h/s)' = z/s) and the routes
must agree.

All lobe integrals are adaptive with certified error estimates.  Since only
finitely many periods can be measured, the summability and delta checks
combine the measured range with certified tail coefficients supplied by a
built family (see :class:`oscillax.example_builder.OscillationSpec`); for a
bare coefficient function the report states honestly that the tail is not
certified instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coeff_dsl import CoefficientExpr, as_callable
from .example_builder import LAMBDA_TOL, TAIL_TOL
from .kernel import KernelPair
from .quadrature import TailModel, integrate_finite_many, integrate_tail, integrate_tail_many

__all__ = [
    "HypothesesResult",
    "ConclusionsResult",
    "RemarkResult",
    "LemmaReport",
    "check_hypotheses",
    "check_conclusions",
    "check_remark",
    "verify_lemma",
]

Coefficient = Union[CoefficientExpr, Callable]

STRICT = 1e-12       # strict-inequality threshold; closer to zero is inconclusive
SIGN_SAMPLES = 64    # interior samples per lobe of the sign-pattern check
QUAD_TOL = 1e-12     # quadrature tolerance of the lobe integrals
MOMENT_TOL = 1e-10   # quadrature tolerance of check_remark's first moment of p


@dataclass(frozen=True)
class HypothesesResult:
    m_checked: int
    lam: float
    lam_error: float
    lam_ok: bool
    nodes: np.ndarray
    I: np.ndarray
    I_error: np.ndarray
    pos_integrals: np.ndarray
    neg_integrals: np.ndarray
    quad_errors: np.ndarray
    sign_ok: np.ndarray
    sign_margin: float
    sign_inconclusive: int
    hyp1_margins: np.ndarray
    eps: np.ndarray
    sum_I_tail: Optional[float]     # certified bound on sum_{m > M} I_m behind eps_tail
    eps_range_sum: float
    eps_tail: Optional[float]
    eps_total: Optional[float]
    delta_range: float
    delta_tail: Optional[float]
    delta_total: Optional[float]
    deduced_damping_ok: bool

    @property
    def sign_pattern_ok(self) -> bool:
        return bool(np.all(self.sign_ok))

    @property
    def hyp1_ok(self) -> bool:
        return bool(np.all(self.hyp1_margins >= 0.0))

    def proof_bound(self) -> Optional[float]:
        """(eps + delta) e^lambda when both tails are certified."""
        if self.eps_total is None or self.delta_total is None:
            return None
        return (self.eps_total + self.delta_total) * math.exp(self.lam)


@dataclass(frozen=True)
class ConclusionsResult:
    z_negative: bool
    z_negative_margin: float
    z_inconclusive: int
    z_sup_observed: float
    z_bound: Optional[float]
    z_bounded: Optional[bool]
    z_bound_margin: Optional[float]
    h_positive: bool
    h_min: float
    h_sup: float
    ratio_decreasing: bool
    ratio_decreasing_by_z: bool
    routes_agree: bool


@dataclass(frozen=True)
class RemarkResult:
    spacing: float                  # A = min(a_{2m+2} - a_{2m})
    p_moment: Optional[float]       # integral (s - s0) p
    p_moment_error: Optional[float]
    sum_tail_integrals: float       # sum_{m >= 2} I_m over the range
    sum_tail_bound: Optional[float] # with certified remainder
    counting_ok: Optional[bool]     # A * sum <= moment
    eps_budget: Optional[float]     # eps / q_minus
    budget_ok: Optional[bool]


@dataclass(frozen=True)
class LemmaReport:
    hypotheses: HypothesesResult
    conclusions: Optional[ConclusionsResult]
    remark: Optional[RemarkResult]

    @property
    def ok(self) -> bool:
        entries = self.entries()
        return all(e["pass"] for e in entries)

    def entries(self) -> list[dict]:
        """Flat check list: name, pass, margin, details."""
        hyp = self.hypotheses
        out: list[dict] = []
        out.append({
            "name": "damping integral below one",
            "pass": bool(hyp.lam_ok),
            "margin": 1.0 - (hyp.lam + hyp.lam_error),
            "details": {"lambda": hyp.lam, "error": hyp.lam_error},
        })
        out.append({
            "name": "sign pattern of the lobes",
            "pass": hyp.sign_pattern_ok,
            "margin": hyp.sign_margin,
            "details": {
                "periods_checked": hyp.m_checked,
                "inconclusive_samples": hyp.sign_inconclusive,
            },
        })
        out.append({
            "name": "positive lobes dominate damped negative lobes",
            "pass": hyp.hyp1_ok,
            "margin": float(np.min(hyp.hyp1_margins)),
            "details": {"worst_period": int(np.argmin(hyp.hyp1_margins)) + 1},
        })
        out.append({
            "name": "lobe surpluses are summable",
            "pass": hyp.eps_total is not None,
            "margin": hyp.eps_total if hyp.eps_total is not None else hyp.eps_range_sum,
            "details": {
                "mode": "slack",
                "range_sum": hyp.eps_range_sum,
                "certified_tail": hyp.eps_tail,
                "truncated": hyp.eps_total is None,
            },
        })
        out.append({
            "name": "single positive lobe stays below delta",
            "pass": hyp.delta_total is not None,
            "margin": hyp.delta_total if hyp.delta_total is not None else hyp.delta_range,
            "details": {
                "range_max": hyp.delta_range,
                "future_lobe_bound": hyp.delta_tail,
                "truncated": hyp.delta_total is None,
            },
        })
        out.append({
            "name": "damping times negative lobe stays within the surplus",
            "pass": bool(hyp.deduced_damping_ok),
            "margin": None,
            "details": {},
        })
        if self.remark is not None:
            rem = self.remark
            if rem.counting_ok is not None:
                out.append({
                    "name": "period counting against the damping moment",
                    "pass": bool(rem.counting_ok),
                    "margin": (None if rem.p_moment is None
                               else rem.p_moment - rem.spacing * rem.sum_tail_integrals),
                    "details": {
                        "spacing": rem.spacing,
                        "p_moment": rem.p_moment,
                        "sum_tail_integrals": rem.sum_tail_integrals,
                    },
                })
            if rem.budget_ok is not None:
                out.append({
                    "name": "damping tails within the surplus budget",
                    "pass": bool(rem.budget_ok),
                    "margin": (None if rem.eps_budget is None
                               else rem.eps_budget - (rem.sum_tail_bound
                                                      if rem.sum_tail_bound is not None
                                                      else rem.sum_tail_integrals)),
                    "details": {"eps_budget": rem.eps_budget},
                })
        if self.conclusions is not None:
            con = self.conclusions
            out.append({
                "name": "kernel z stays negative",
                "pass": bool(con.z_negative),
                "margin": con.z_negative_margin,
                "details": {"inconclusive_nodes": con.z_inconclusive},
            })
            if con.z_bounded is not None:
                out.append({
                    "name": "kernel z within the proof bound",
                    "pass": bool(con.z_bounded),
                    "margin": con.z_bound_margin,
                    "details": {
                        "observed_sup": con.z_sup_observed,
                        "bound": con.z_bound,
                    },
                })
            out.append({
                "name": "kernel h stays positive",
                "pass": bool(con.h_positive),
                "margin": con.h_min,
                "details": {"h_sup": con.h_sup},
            })
            out.append({
                "name": "h/s decreases, both routes agreeing",
                "pass": bool(con.ratio_decreasing and con.routes_agree),
                "margin": None,
                "details": {
                    "by_differences": con.ratio_decreasing,
                    "by_z_sign": con.ratio_decreasing_by_z,
                },
            })
        return out


def _lobe_bounds(nodes: np.ndarray) -> int:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 3 or len(nodes) % 2 == 0:
        raise ValueError(
            "nodes must list a_2 .. a_{2M+2}, an odd number (>= 3) of breakpoints"
        )
    if not np.all(np.isfinite(nodes)):
        raise ValueError("breakpoints must be finite")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    return (len(nodes) - 1) // 2


def check_hypotheses(
    p: Coefficient,
    q: Coefficient,
    nodes: np.ndarray,
    *,
    p_tail: TailModel,
    family=None,
    parallel: bool = False,
) -> HypothesesResult:
    """Certify the oscillation hypotheses on the given breakpoint range.

    The surpluses are the slack ones, eps_m = max(Ipos_m - Ineg_m, 0).
    ``family`` is the built family of p whose lobes ``nodes`` lists: it
    supplies lambda and the I_m, integrated once when it was built, and
    certified beyond-range coefficients (surplus_tail_bound /
    future_pos_lobe_bound).  A bare q integrates lambda and the I_m here and
    reports the beyond-range sums as not certified rather than guessed.
    The sign pattern of every lobe comes from one call of q on all the
    samples at once.  ``parallel`` does nothing, since no per-period work is
    left to share out; it stays only because the benchmark still times it,
    and goes with the benchmark-only commit of ROADMAP item 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    M = _lobe_bounds(nodes)
    pe, qe = as_callable(p), as_callable(q)

    if family is None:
        lam_res = integrate_tail(pe, float(nodes[0]), p_tail, tol=LAMBDA_TOL)
        lam, lam_error = lam_res.value, lam_res.abs_error_estimate
        tails = integrate_tail_many(pe, nodes[0:-1:2], p_tail, tol=TAIL_TOL)
        I = np.array([r.value for r in tails])
        I_err = np.array([r.abs_error_estimate for r in tails])
    else:
        if not (family.params.p == p and family.params.p_tail == p_tail
                and np.array_equal(family.nodes, nodes)):
            raise ValueError("the family was built for another p, p_tail or breakpoint range")
        lam, lam_error, I, I_err = family.lam, family.lam_error, family.I, family.I_error
    lam_ok = bool(lam + lam_error < 1.0)

    # lobes [a_{2m}, a_{2m+1}] and [a_{2m+1}, a_{2m+2}] alternate in one batch
    lobes = integrate_finite_many(qe, list(zip(nodes[:-1], nodes[1:])), QUAD_TOL)
    pos, neg = lobes[0::2], lobes[1::2]

    # sign samples of all 2M lobes in one q call; negative lobes are negated
    # so that every row must clear STRICT
    frac = np.arange(1, SIGN_SAMPLES + 1) / (SIGN_SAMPLES + 1.0)
    lo, hi = nodes[:-1, None], nodes[1:, None]
    t = lo + (hi - lo) * frac
    qs = np.array(qe(t.reshape(-1)), dtype=float).reshape(t.shape)  # a copy: negated below
    inconclusive = int(np.count_nonzero(np.abs(qs) <= STRICT))
    np.negative(qs[1::2], out=qs[1::2])
    row_min = np.min(qs, axis=1)
    cpos, cneg = row_min[0::2], row_min[1::2]
    clearance = np.where(cneg < cpos, cneg, cpos)  # builtin min(cpos, cneg), NaN included
    sign_ok = clearance > STRICT
    sign_margin = float(min(clearance.tolist()) - STRICT)

    Ipos = np.array([r.value for r in pos])
    Ineg = np.array([-r.value for r in neg])
    quad_err = np.array([a.abs_error_estimate + b.abs_error_estimate for a, b in zip(pos, neg)])

    hyp1 = Ipos - (1.0 + 3.0 * I) * Ineg

    eps = np.maximum(Ipos - Ineg, 0.0)
    sum_I_tail = None if family is None else family.tail_sum_I_bound(M)
    eps_tail = None if sum_I_tail is None else family.surplus_tail_bound(M, sum_I_tail)
    eps_range = float(np.sum(eps))
    eps_total = None if eps_tail is None else eps_range + float(eps_tail)

    delta_range = float(np.max(Ipos + quad_err))
    delta_tail = None if family is None else float(family.future_pos_lobe_bound(M))
    delta_total = None if delta_tail is None else max(delta_range, delta_tail)

    deduced = bool(np.all(3.0 * I * Ineg <= eps + quad_err + 1e-12))

    return HypothesesResult(
        m_checked=M,
        lam=lam, lam_error=lam_error, lam_ok=lam_ok,
        nodes=nodes,
        I=I, I_error=I_err,
        pos_integrals=Ipos, neg_integrals=Ineg, quad_errors=quad_err,
        sign_ok=sign_ok, sign_margin=sign_margin, sign_inconclusive=inconclusive,
        hyp1_margins=hyp1,
        eps=eps, sum_I_tail=sum_I_tail,
        eps_range_sum=eps_range, eps_tail=eps_tail, eps_total=eps_total,
        delta_range=delta_range, delta_tail=delta_tail, delta_total=delta_total,
        deduced_damping_ok=deduced,
    )


def check_conclusions(
    kernel: KernelPair,
    *,
    bound: Optional[float] = None,
) -> ConclusionsResult:
    """Check the kernel conclusions on the computed samples.

    ``bound`` is the proof bound (eps + delta) e^lambda of
    :meth:`HypothesesResult.proof_bound`; without it the bound check is
    skipped rather than improvised.  Strict inequalities use STRICT; samples inside the zone count as
    inconclusive, never as passing.
    """
    g = kernel.grid
    z = kernel.z_values
    h = kernel.h_values

    interior = z[1:]
    z_negative = bool(np.all(interior < -STRICT))
    margin = float(-STRICT - np.max(interior))
    z_inconclusive = int(np.sum((interior > -STRICT) & (interior <= STRICT)))

    bound_margin = None if bound is None else bound - kernel.z_sup_observed
    bounded = None if bound is None else bool(bound_margin > 0.0)

    h_min = float(np.min(h))
    h_positive = bool(h_min > STRICT)

    ratio = h / g
    ratio_dec = bool(np.all(np.diff(ratio) < 0.0))
    by_z = bool(np.all(z[1:] < 0.0))  # s (h/s)' = z/s, z(s0) = 0 exactly
    agree = ratio_dec == by_z

    return ConclusionsResult(
        z_negative=z_negative,
        z_negative_margin=margin,
        z_inconclusive=z_inconclusive,
        z_sup_observed=kernel.z_sup_observed,
        z_bound=bound,
        z_bounded=bounded,
        z_bound_margin=bound_margin,
        h_positive=h_positive,
        h_min=h_min,
        h_sup=float(np.max(h)),
        ratio_decreasing=ratio_dec,
        ratio_decreasing_by_z=by_z,
        routes_agree=agree,
    )


def check_remark(
    p: Coefficient,
    nodes: np.ndarray,
    q_minus: Optional[float] = None,
    *,
    p_tail: TailModel,
    eps: Optional[float] = None,
    I_values: Optional[np.ndarray] = None,
    sum_I_tail: Optional[float] = None,
) -> RemarkResult:
    """Consistency checks tying damping tails, period spacing, and surplus.

    Counting periods against arc length bounds the sum of the damping tails:
    A * sum_{m >= 2} I_m <= integral (s - s0) p, with A the minimal period
    length.  With a surplus budget eps and negative lobes of size at least
    q_minus, the same sum must stay below eps / q_minus.
    """
    nodes = np.asarray(nodes, dtype=float)
    M = _lobe_bounds(nodes)
    pe = as_callable(p)
    s0 = float(nodes[0])
    even = nodes[0::2]
    spacing = float(np.min(np.diff(even)))

    if I_values is None:
        tails = integrate_tail_many(pe, [float(a) for a in even[1:M]], p_tail, tol=TAIL_TOL)
        I_values = np.array([res.value for res in tails])
    else:
        I_values = np.asarray(I_values, dtype=float)[1:M]
    sum_I = float(np.sum(I_values))
    sum_bound = None if sum_I_tail is None else sum_I + float(sum_I_tail)

    moment = moment_err = None
    counting_ok = None
    model = p_tail.first_moment(s0)
    if model is not None:
        res = integrate_tail(lambda s: (np.asarray(s) - s0) * np.asarray(pe(s)),
                             s0, model, tol=MOMENT_TOL)
        moment, moment_err = res.value, res.abs_error_estimate
        counting_ok = bool(spacing * sum_I <= moment + moment_err + 1e-12)

    eps_budget = None
    budget_ok = None
    if eps is not None and q_minus is not None and q_minus > 0:
        eps_budget = eps / q_minus
        effective = sum_bound if sum_bound is not None else sum_I
        budget_ok = bool(effective <= eps_budget + 1e-12)

    return RemarkResult(
        spacing=spacing,
        p_moment=moment,
        p_moment_error=moment_err,
        sum_tail_integrals=sum_I,
        sum_tail_bound=sum_bound,
        counting_ok=counting_ok,
        eps_budget=eps_budget,
        budget_ok=budget_ok,
    )


def verify_lemma(
    p: Coefficient,
    q: Coefficient,
    nodes: np.ndarray,
    *,
    p_tail: TailModel,
    family=None,
    kernel: Optional[KernelPair] = None,
    q_minus: Optional[float] = None,
) -> LemmaReport:
    """Full report: hypotheses, remark consistency, kernel conclusions."""
    hyp = check_hypotheses(p, q, nodes, p_tail=p_tail, family=family)
    remark = check_remark(
        p, nodes, q_minus, p_tail=p_tail,
        eps=hyp.eps_total, I_values=hyp.I, sum_I_tail=hyp.sum_I_tail,
    )
    conclusions = None
    if kernel is not None:
        conclusions = check_conclusions(kernel, bound=hyp.proof_bound())
    return LemmaReport(hypotheses=hyp, conclusions=conclusions, remark=remark)
