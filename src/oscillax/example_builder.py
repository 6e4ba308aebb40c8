"""Construction of the oscillating sin^2-band coefficient families.

A family lives on [s0, infinity) with s0 = 2*pi and the half-period lobe
sequence a_m = m*pi.  On period m (m >= 1) the coefficient is

    q(s) =  c_m * sin(s)^2   on [2m*pi, (2m+1)*pi]    (positive lobe)
    q(s) = -d_m * sin(s)^2   on [(2m+1)*pi, (2m+2)*pi] (negative lobe)

so each lobe integrates to exactly (pi/2) times its amplitude.  The
amplitudes follow affine rules in the damping tail integrals
I_m = integral_{2m*pi}^{infinity} p and a geometric term 2^(1-m)/pi:

    d_m within [2 q_minus / pi, 2 q_plus / pi],
    c_m within [d_m + gamma (q_plus/pi) I_m + eta  2^(1-m)/pi,
                d_m + sigma (q_plus/pi) I_m + theta 2^(1-m)/pi],

with 0 < q_minus < q_plus, 6 <= gamma < sigma, 0 <= eta < theta.  The
positive-lobe surplus then dominates the damping correction of the
oscillation test while remaining summable, which is what the lemma checks
downstream consume.

``build_pair`` constructs two such families sharing p, q_minus, q_plus whose
amplitude rules are separated by gap parameters, giving the pointwise order
q1 <= q2 with explicit per-period margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .coeff_dsl import CoefficientExpr, as_callable
from .quadrature import (
    IntegralResult,
    TailModel,
    cumulative_integral,
    integrate_finite_many,
    integrate_tail,
    integrate_tail_many,
)

__all__ = [
    "OscillationParams",
    "OscillationSpec",
    "PairParams",
    "PairResult",
    "FeatureReport",
    "build_oscillation",
    "build_pair",
    "verify_pair",
    "check_integral_features",
    "default_params",
]

Coefficient = Union[CoefficientExpr, Callable]

PI = math.pi
TWO_PI = 2.0 * math.pi
S0_FIXED = TWO_PI  # families are anchored at s0 = a_2 = 2*pi
LAMBDA_TOL = 1e-10  # quadrature tolerance of lambda = integral of p over [s0, infinity)
TAIL_TOL = 1e-12    # quadrature tolerance of the I_m and of the integrals of tail_sum_I_bound
JOIN_TOL = 1e-10    # |q| allowed at a breakpoint; sqrt(JOIN_TOL) bounds |q'| there

STOCK_P = CoefficientExpr.parse("1/s^3")   # the stock damping and its decay model
STOCK_P_TAIL = TailModel(kind="power", rate=3.0, coef=1.0)


@dataclass(frozen=True)
class BandParams:
    """Surplus constants of one family's band: 6 <= gamma < sigma, 0 <= eta < theta."""

    gamma: float
    sigma: float
    eta: float
    theta: float

    def validate(self) -> None:
        if not (6.0 <= self.gamma < self.sigma):
            raise ValueError(
                f"surplus coefficients require 6 <= gamma < sigma, "
                f"got gamma={self.gamma!r}, sigma={self.sigma!r}"
            )
        if not (0.0 <= self.eta < self.theta):
            raise ValueError(
                f"geometric surplus requires 0 <= eta < theta, "
                f"got eta={self.eta!r}, theta={self.theta!r}"
            )


@dataclass(frozen=True)
class OscillationParams:
    """Parameters of one sin^2-band family; ``s0`` is the fixed anchor 2*pi."""

    s0: ClassVar[float] = S0_FIXED
    q_minus: float = 1.0
    q_plus: float = 2.0
    gamma: float = 6.0
    sigma: float = 7.0
    eta: float = 0.0
    theta: float = 1.0
    p: Coefficient = STOCK_P
    p_tail: TailModel = STOCK_P_TAIL
    m_max: int = 25

    def validate(self) -> None:
        if not (0.0 < self.q_minus < self.q_plus):
            raise ValueError(
                f"negative-lobe band requires 0 < q_minus < q_plus, "
                f"got q_minus={self.q_minus!r}, q_plus={self.q_plus!r}"
            )
        BandParams(self.gamma, self.sigma, self.eta, self.theta).validate()
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")


@dataclass(frozen=True)
class _AmplitudeRule:
    """Affine amplitude rule: x_m = x0 + xI * I_m + xg * 2^(1-m)/pi."""

    d0: float
    dI: float
    dg: float
    c0: float
    cI: float
    cg: float

    def amplitudes(self, I: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        geo = np.power(2.0, 1.0 - m) / PI
        d = self.d0 + self.dI * I + self.dg * geo
        c = self.c0 + self.cI * I + self.cg * geo
        return c, d

    @property
    def slack_I_coef(self) -> float:
        """(pi/2)(c_m - d_m) = slack_I_coef * I_m + slack_geo_coef * 2^-m."""
        return 0.5 * PI * (self.cI - self.dI)

    @property
    def slack_geo_coef(self) -> float:
        return self.cg - self.dg


@dataclass
class OscillationSpec:
    """A built family: amplitudes, breakpoints, and certified p integrals.

    ``q_callable`` is the family's one representation: it evaluates q at
    any s >= s0, from the m_max tabulated periods and, past them, from the
    amplitude rule extended lazily (tail integrals of p beyond the table
    come from a cumulative complement against lambda).  Treat instances as
    immutable.
    """

    params: OscillationParams
    nodes: np.ndarray          # a_2 .. a_{2 m_max + 2}
    c: np.ndarray              # positive-lobe amplitudes, index m = 1 .. m_max
    d: np.ndarray              # negative-lobe amplitudes
    I: np.ndarray              # certified I_m = integral_{2m pi}^inf p
    I_error: np.ndarray
    lam: float
    lam_error: float
    sup_bound: float
    rule: _AmplitudeRule
    _ext: dict = field(default_factory=dict, repr=False, compare=False)

    # -- evaluation beyond the table ----------------------------------------

    def _bulk_amplitudes(self, M: int) -> tuple[np.ndarray, np.ndarray]:
        """Amplitude arrays for m = 1 .. M, extending lazily as needed."""
        cached = self._ext.get("M", 0)
        if M > cached:
            M_new = max(M, 2 * cached, self.params.m_max)
            pe = as_callable(self.params.p)
            # complement route: I_m = lam - integral_{s0}^{2m pi} p, on a
            # refined node grid (8 subcells per pi keeps the Simpson error
            # far below the size of the smallest I_m in use); node k does not
            # depend on the grid's length, so neither does any I_m, whatever
            # extended the table before
            refine = S0_FIXED + (PI / 8) * np.arange(16 * M_new + 1)
            P = cumulative_integral(pe, refine)
            idx = np.arange(1, M_new + 1) * 16 - 16  # position of 2m*pi
            I_bulk = self.lam - P[idx]
            I_bulk[: len(self.I)] = self.I  # certified values take precedence
            m_arr = np.arange(1, M_new + 1, dtype=float)
            c, d = self.rule.amplitudes(I_bulk, m_arr)
            lobes = np.empty(2 * M_new)
            lobes[0::2], lobes[1::2] = c, -d
            self._ext.update({"M": M_new, "c": c, "d": d, "lobes": lobes})
        return self._ext["c"], self._ext["d"]

    def q_callable(self, s) -> np.ndarray:
        """Evaluate the family at any s >= s0, beyond the table if needed."""
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < S0_FIXED - 1e-12):
            bad = float(arr[np.argmax(arr < S0_FIXED - 1e-12)])
            raise ValueError(f"family is defined on [s0, infinity), got s = {bad!r}")
        # period m = max(floor(s / 2 pi), 1); its lobe amplitude sits at
        # 2m - 2 (c_m, positive lobe) or 2m - 1 (-d_m) of the interleaved table
        m = np.floor(arr / TWO_PI)
        np.maximum(m, 1.0, out=m)
        self._bulk_amplitudes(int(m.max()))
        positive = (arr - TWO_PI * m) < PI
        at = m.astype(np.intp)
        at *= 2
        at -= 1
        at -= positive
        out = np.sin(arr)
        out *= out
        out *= self._ext["lobes"][at]
        return float(out[0]) if scalar else out

    # -- certified tail coefficients -----------------------------------------

    def tail_sum_I_bound(self, M: int) -> Optional[float]:
        """Certified bound on sum_{m > M} I_m via lobe counting.

        Counting periods against arc length gives

            sum_{m >= M+2} I_m <= integral_T^inf p + (1/A) integral_T^inf (s - T) p,

        with T = a_{2(M+2)} and A = 2 pi the period length, so the bound
        is I_{M+1} plus that right-hand side.  Needs the first moment of p
        to be certifiable (power tail with rate > 2, or an exponential
        tail); returns None otherwise.
        """
        tail = self.params.p_tail
        T = 2.0 * (M + 2) * PI
        moment_model = tail.first_moment(T)
        if moment_model is None:
            return None
        pe = as_callable(self.params.p)
        I_next = integrate_tail(pe, 2.0 * (M + 1) * PI, tail, tol=TAIL_TOL)
        I_after = integrate_tail(pe, T, tail, tol=TAIL_TOL)
        moment = integrate_tail(lambda s: (np.asarray(s) - T) * np.asarray(pe(s)),
                                T, moment_model, tol=TAIL_TOL)
        envelope = (I_next.value + I_next.abs_error_estimate
                    + I_after.value + I_after.abs_error_estimate
                    + (moment.value + moment.abs_error_estimate) / TWO_PI)
        return float(envelope)

    def surplus_tail_bound(self, M: int, sum_I: float) -> float:
        """Certified bound on sum_{m > M} (pi/2)(c_m - d_m), given ``tail_sum_I_bound(M)``."""
        return self.rule.slack_I_coef * sum_I + self.rule.slack_geo_coef * 2.0 ** (-M)

    def future_pos_lobe_bound(self, M: int) -> float:
        """Bound on (pi/2) c_m for every m > M (amplitudes are nonincreasing)."""
        c, _ = self._bulk_amplitudes(M + 1)
        return 0.5 * PI * float(c[M])


def default_params(m_max: int = 25) -> OscillationParams:
    """The stock family: p = 1/s^3 and the documented band constants."""
    return OscillationParams(m_max=m_max)


def _damping_integrals(params: OscillationParams
                       ) -> tuple[IntegralResult, np.ndarray, np.ndarray]:
    """lambda and the certified I_m with their errors, m = 1 .. m_max."""
    lam_res = integrate_tail(params.p, S0_FIXED, params.p_tail, tol=LAMBDA_TOL)
    los = [2.0 * m * PI for m in range(1, params.m_max + 1)]
    results = integrate_tail_many(params.p, los, params.p_tail, tol=TAIL_TOL)
    return (lam_res, np.array([res.value for res in results]),
            np.array([res.abs_error_estimate for res in results]))


def _assemble(params: OscillationParams, rule: _AmplitudeRule,
              integrals: tuple[IntegralResult, np.ndarray, np.ndarray]) -> OscillationSpec:
    params.validate()

    lam_res, I, I_err = integrals
    lam = lam_res.value
    if not lam < 1.0:
        raise ValueError(
            f"the damping budget requires integral of p below one, got {lam!r}"
        )

    m_arr = np.arange(1, params.m_max + 1, dtype=float)
    c, d = rule.amplitudes(I, m_arr)
    geo = np.power(2.0, 1.0 - m_arr) / PI

    # band membership (builds choose points inside the band, so failures
    # here mean inconsistent parameters, not numerical noise)
    d_lo, d_hi = 2.0 * params.q_minus / PI, 2.0 * params.q_plus / PI
    if np.any(d < d_lo - 1e-12) or np.any(d > d_hi + 1e-12):
        m_bad = int(np.argmax((d < d_lo - 1e-12) | (d > d_hi + 1e-12))) + 1
        raise ValueError(
            f"negative-lobe amplitude d_{m_bad} = {float(d[m_bad - 1])!r} leaves the band "
            f"[{d_lo!r}, {d_hi!r}]; the gap parameters are too large for the bands"
        )
    c_lo = d + params.gamma * (params.q_plus / PI) * I + params.eta * geo
    c_hi = d + params.sigma * (params.q_plus / PI) * I + params.theta * geo
    if np.any(c < c_lo - 1e-12) or np.any(c > c_hi + 1e-12):
        m_bad = int(np.argmax((c < c_lo - 1e-12) | (c > c_hi + 1e-12))) + 1
        raise ValueError(
            f"positive-lobe amplitude c_{m_bad} = {float(c[m_bad - 1])!r} leaves its band "
            f"[{float(c_lo[m_bad - 1])!r}, {float(c_hi[m_bad - 1])!r}]"
        )

    nodes = PI * np.arange(2, 2 * params.m_max + 3)
    sup_bound = ((2.0 + params.sigma * lam) * params.q_plus + params.theta) / PI

    spec = OscillationSpec(
        params=params, nodes=nodes, c=c, d=d, I=I, I_error=I_err,
        lam=lam, lam_error=lam_res.abs_error_estimate,
        sup_bound=sup_bound, rule=rule,
    )

    _check_smooth_joins(spec)
    samples = spec.q_callable(np.linspace(nodes[0], nodes[-1], 4096))
    if np.max(np.abs(samples)) > sup_bound + 1e-12:
        raise ValueError("family exceeds its own sup bound; amplitude rule is inconsistent")
    for arr in (spec.nodes, spec.c, spec.d, spec.I, spec.I_error):
        arr.setflags(write=False)
    return spec


def _check_smooth_joins(spec: OscillationSpec) -> None:
    """q and q' vanish at every breakpoint, checked numerically."""
    nodes = spec.nodes
    vals = np.abs(spec.q_callable(nodes))
    step = 1e-6
    inner = nodes[1:-1]
    deriv = np.abs(
        spec.q_callable(inner + step) - spec.q_callable(inner - step)
    ) / (2.0 * step)
    worst_q, worst_dq = float(np.max(vals)), float(np.max(deriv))
    if worst_q > JOIN_TOL:
        raise ValueError(f"family fails continuity at a breakpoint: |q| = {worst_q!r}")
    if worst_dq > math.sqrt(JOIN_TOL):
        raise ValueError(f"family fails smoothness at a breakpoint: |q'| = {worst_dq!r}")


def build_oscillation(params: Optional[OscillationParams] = None) -> OscillationSpec:
    """Build the single family with d at the band midpoint and c at its floor.

    The midpoint choice for d leaves room on both sides of the
    negative-lobe band; the floor choice for c takes the smallest surplus
    the band allows, which keeps the positive lobes (and hence the kernel
    bound) as small as the constraints permit.
    """
    params = params if params is not None else default_params()
    params.validate()
    d0 = (params.q_minus + params.q_plus) / PI
    rule = _AmplitudeRule(
        d0=d0, dI=0.0, dg=0.0,
        c0=d0, cI=params.gamma * params.q_plus / PI, cg=params.eta,
    )
    return _assemble(params, rule, _damping_integrals(params))


# ---------------------------------------------------------------------------
# Ordered pairs


@dataclass(frozen=True)
class PairParams:
    """Two band parameter sets plus the gaps that separate the families.

    Requires sigma1 < gamma2 and theta1 < eta2 so that set 2 sits strictly
    above set 1, with alpha_gap in (0, gamma2 - sigma1) and beta_gap in
    (0, eta2 - theta1) fixing how much of the corridor the first family's
    negative lobes use up.  Each message of :meth:`validate` starts with the
    field it is about.  Both families are anchored at ``S0_FIXED``.
    """

    q_minus: float = 1.0
    q_plus: float = 2.0
    p: Coefficient = STOCK_P
    p_tail: TailModel = STOCK_P_TAIL
    set1: BandParams = BandParams(6.0, 7.0, 0.0, 1.0)
    set2: BandParams = BandParams(8.0, 9.0, 2.0, 3.0)
    alpha_gap: float = 0.5
    beta_gap: float = 0.5
    m_max: int = 25

    def validate(self) -> None:
        for name in ("set1", "set2"):
            try:
                getattr(self, name).validate()
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not self.set1.sigma < self.set2.gamma:
            raise ValueError(
                f"set2.gamma must exceed set1.sigma to leave a band corridor, got "
                f"set1.sigma={self.set1.sigma!r}, set2.gamma={self.set2.gamma!r}"
            )
        if not self.set1.theta < self.set2.eta:
            raise ValueError(
                f"set2.eta must exceed set1.theta to leave a band corridor, got "
                f"set1.theta={self.set1.theta!r}, set2.eta={self.set2.eta!r}"
            )
        if not (0.0 < self.alpha_gap < self.set2.gamma - self.set1.sigma):
            raise ValueError(
                f"alpha_gap must lie in (0, gamma2 - sigma1) = "
                f"(0, {self.set2.gamma - self.set1.sigma!r}), got {self.alpha_gap!r}"
            )
        if not (0.0 < self.beta_gap < self.set2.eta - self.set1.theta):
            raise ValueError(
                f"beta_gap must lie in (0, eta2 - theta1) = "
                f"(0, {self.set2.eta - self.set1.theta!r}), got {self.beta_gap!r}"
            )


@dataclass
class PairResult:
    """Ordered families q1 <= q2 with the margins of the ordering chain."""

    q1: OscillationSpec
    q2: OscillationSpec
    chain_margins: dict
    min_margin: float
    smallness_margin: float


def _member_params(pp: PairParams, band: BandParams) -> OscillationParams:
    return OscillationParams(
        q_minus=pp.q_minus, q_plus=pp.q_plus,
        gamma=band.gamma, sigma=band.sigma, eta=band.eta, theta=band.theta,
        p=pp.p, p_tail=pp.p_tail, m_max=pp.m_max,
    )


def build_pair(params: Optional[PairParams] = None) -> PairResult:
    """Build the ordered pair and verify each link of the ordering chain.

    The first family raises its negative-lobe amplitude by the gap terms
    alpha_gap * (q_plus/pi) * I_m + beta_gap * 2^(1-m)/pi above the band
    floor, while the second keeps its negative lobes at the floor; both
    put the positive-lobe amplitude at their band's lower edge.  The chain

        band1 floor <= c1 <= band1 ceiling <= corridor <= band2 floor <= c2

    is evaluated per period and the smallest margin of each link reported;
    the first violated link raises with its period index.
    """
    pp = params if params is not None else PairParams()
    pp.validate()

    # the members share p, so lambda and the I_m are integrated once for both
    params1, params2 = _member_params(pp, pp.set1), _member_params(pp, pp.set2)
    integrals = _damping_integrals(params1)
    lam = integrals[0].value
    smallness = pp.q_plus - (
        pp.q_minus + 0.5 * pp.alpha_gap * pp.q_plus * lam + 0.5 * pp.beta_gap
    )
    if not smallness > 0.0:
        raise ValueError(
            "gap parameters are too large for the negative-lobe band: need "
            "q_minus + (alpha_gap/2) q_plus lambda + beta_gap/2 < q_plus, "
            f"margin = {smallness!r}"
        )

    d_floor = 2.0 * pp.q_minus / PI
    b1, b2 = pp.set1, pp.set2
    rule1 = _AmplitudeRule(
        d0=d_floor, dI=pp.alpha_gap * pp.q_plus / PI, dg=pp.beta_gap,
        c0=d_floor,
        cI=(pp.alpha_gap + b1.gamma) * pp.q_plus / PI, cg=pp.beta_gap + b1.eta,
    )
    rule2 = _AmplitudeRule(
        d0=d_floor, dI=0.0, dg=0.0,
        c0=d_floor, cI=b2.gamma * pp.q_plus / PI, cg=b2.eta,
    )
    spec1 = _assemble(params1, rule1, integrals)
    spec2 = _assemble(params2, rule2, integrals)

    # Chain margins in closed form.  Three links are equalities by the
    # construction choice (c at the band floor, d1 absorbing exactly the
    # corridor offset); the inequality links reduce to nonnegative
    # combinations of I_m and the geometric term, which keeps the reported
    # margins free of cancellation noise.  Band membership of the built
    # amplitudes is checked independently inside the assembly, and
    # verify_pair re-checks the ordering pointwise on a grid.
    I = spec1.I
    m_arr = np.arange(1, pp.m_max + 1, dtype=float)
    geo = np.power(2.0, 1.0 - m_arr) / PI
    qp = pp.q_plus / PI
    zero = np.zeros(pp.m_max)
    chain = {
        "c1 at its band floor (equality by construction)": zero,
        "c1 below its band ceiling": (b1.sigma - b1.gamma) * qp * I + (b1.theta - b1.eta) * geo,
        "band1 ceiling meets the corridor (equality by construction)": zero,
        "corridor below band2 floor": (b2.gamma - pp.alpha_gap - b1.sigma) * qp * I
                                      + (b2.eta - pp.beta_gap - b1.theta) * geo,
        "c2 at its band floor (equality by construction)": zero,
        "c2 below its band ceiling": (b2.sigma - b2.gamma) * qp * I + (b2.theta - b2.eta) * geo,
        "negative lobes ordered (d1 - d2)": pp.alpha_gap * qp * I + pp.beta_gap * geo,
        "positive lobes ordered (c2 - c1)": (b2.gamma - b1.gamma - pp.alpha_gap) * qp * I
                                            + (b2.eta - b1.eta - pp.beta_gap) * geo,
        "d1 below its band ceiling": 2.0 * pp.q_plus / PI - spec1.d,
    }
    for name, margins in chain.items():
        if np.min(margins) < 0.0:
            m_bad = int(np.argmin(margins)) + 1
            raise ValueError(
                f"ordering chain fails at link {name!r} for period m = {m_bad}: "
                f"margin {float(np.min(margins))!r}"
            )
    return PairResult(
        q1=spec1,
        q2=spec2,
        chain_margins=chain,
        min_margin=float(min(np.min(m) for m in chain.values())),
        smallness_margin=float(smallness),
    )


def verify_pair(pair: PairResult, grid: np.ndarray) -> dict:
    """Pointwise check q1 <= q2 on a grid, with the slack split per lobe type.

    On positive lobes the slack is (c2_m - c1_m) sin^2, on negative lobes
    (d1_m - d2_m) sin^2, so the pointwise minimum is zero exactly at the
    breakpoints; the report separates the amplitude margins from the grid
    minimum to make that harmless zero visible.
    """
    g = np.asarray(grid, dtype=float)
    q1 = pair.q1.q_callable(g)
    q2 = pair.q2.q_callable(g)
    slack = q2 - q1
    i_min = int(np.argmin(slack))
    return {
        "grid_min_slack": float(slack[i_min]),
        "grid_argmin": float(g[i_min]),
        "amplitude_margin_positive_lobes": float(np.min(pair.q2.c - pair.q1.c)),
        "amplitude_margin_negative_lobes": float(np.min(pair.q1.d - pair.q2.d)),
        "ordered": bool(np.all(slack >= -1e-12)),
    }


# ---------------------------------------------------------------------------
# Integral features


@dataclass(frozen=True)
class FeatureReport:
    """Divergence of integral |q|/s and convergence of integral |q|/s^(1+varsigma)."""

    partial_sums: np.ndarray       # integral of |q|/s over [s0, a_{2m+2}]
    lower_bounds: np.ndarray       # running sum of d_m / (8 (m+1))
    dominates: bool
    log_slope: float               # growth rate against ln m
    varsigma: float
    T: float
    F_T: float                     # integral of |q|/s^(1+varsigma) up to T
    F_2T: float
    cauchy_gap: float
    gap_bound: float               # sup|q| * T^-varsigma / varsigma
    converged: bool


def check_integral_features(
    spec: OscillationSpec,
    varsigma: float = 1.0,
    M: int = 50,
    *,
    T: Optional[float] = None,
) -> FeatureReport:
    """Verify the two integral features that separate the kernels' scales.

    The harmonic-weight integral of |q| diverges at least logarithmically:
    the inner half of each negative lobe keeps sin^2 >= 1/2, so period m
    contributes at least d_m / (8 (m + 1)).  Raising the weight to
    s^(1+varsigma) makes the integral converge, certified by a Cauchy test
    at a doubled truncation point against the closed-form tail bound.
    """
    if varsigma <= 0:
        raise ValueError("varsigma must be positive")
    if M < 2:
        raise ValueError("need at least two periods to fit a growth rate")
    d = spec._bulk_amplitudes(M)[1]

    fn = spec.q_callable
    periods = [(2 * m * PI, 2 * (m + 1) * PI) for m in range(1, M + 1)]
    mids = [(2 * m + 1) * PI for m in range(1, M + 1)]
    parts = integrate_finite_many(lambda s: np.abs(fn(s)) / s, periods,
                                  tol=1e-10, seeds=mids)
    sums = np.cumsum([part.value for part in parts])
    m_arr = np.arange(1, M + 1, dtype=float)
    lower = np.cumsum(d[:M] / (8.0 * (m_arr + 1.0)))
    dominates = bool(np.all(sums >= lower - 1e-12))

    # least squares growth rate of the partial sums against ln m
    x = np.log(m_arr[1:])
    y = sums[1:]
    slope = float(np.polyfit(x, y, 1)[0])

    T_val = float(T) if T is not None else 2.0 * (M + 1) * PI
    # the lobe nodes up to 2T; each interval takes those strictly inside it
    nodes = PI * np.arange(2, int(math.ceil(2.0 * T_val / PI)) + 1)
    weight = lambda s: np.abs(fn(s)) / s ** (1.0 + varsigma)
    F_T, F_2T = (part.value for part in integrate_finite_many(
        weight, [(S0_FIXED, T_val), (S0_FIXED, 2.0 * T_val)], tol=1e-10, seeds=nodes))
    gap = abs(F_2T - F_T)
    gap_bound = spec.sup_bound * T_val ** (-varsigma) / varsigma

    return FeatureReport(
        partial_sums=sums,
        lower_bounds=lower,
        dominates=dominates,
        log_slope=slope,
        varsigma=varsigma,
        T=T_val,
        F_T=F_T,
        F_2T=F_2T,
        cauchy_gap=gap,
        gap_bound=gap_bound,
        converged=bool(gap <= gap_bound + 1e-12),
    )
