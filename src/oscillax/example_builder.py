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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .coeff_dsl import parse
from .quadrature import (
    STOCK_EXTEND_TO,
    TailModel,
    _blocks,
    cumulative_integral,
    integrate_finite_many,
    integrate_tail,
)

__all__ = [
    "Check",
    "OscillationParams",
    "OscillationSpec",
    "PairParams",
    "PairResult",
    "FeatureReport",
    "build_oscillation",
    "build_pair",
    "verify_pair",
    "check_integral_features",
]

PI = math.pi
TWO_PI = 2.0 * math.pi
S0_FIXED = TWO_PI  # families are anchored at s0 = a_2 = 2*pi
TAIL_TOL = 1e-12    # tolerance of each I_m table's one tail and of tail_sum_I_bound's moment
MOMENT_TOL = 1e-10  # quadrature tolerance of lemma_check.check_remark's first moment of p
ULPS = 4            # rounding a check of a built family allows, in units in the last place

STOCK_P = parse("1/s^3")   # the stock damping and its decay model
STOCK_P_TAIL = TailModel(kind="power", rate=3.0, coef=1.0)


class BandParams(NamedTuple):
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


class OscillationParams(NamedTuple):
    """Parameters of one sin^2-band family; ``s0`` is the fixed anchor 2*pi."""

    s0 = S0_FIXED
    q_minus: float = 1.0
    q_plus: float = 2.0
    gamma: float = 6.0
    sigma: float = 7.0
    eta: float = 0.0
    theta: float = 1.0
    p: Callable = STOCK_P
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


class _AmplitudeRule(NamedTuple):
    """Affine amplitude rule: x_m = x0 + xI * I_m + xg * 2^(1-m)/pi."""

    d0: float
    dI: float
    dg: float
    c0: float
    cI: float
    cg: float

    def amplitudes(self, I: np.ndarray, geo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c_m and d_m, given I_m and geo = 2^(1-m)/pi."""
        d = self.d0 + self.dI * I + self.dg * geo
        c = self.c0 + self.cI * I + self.cg * geo
        return c, d


class OscillationSpec(NamedTuple):
    """A built family: amplitudes, breakpoints, and its damping table.

    ``q_callable`` is the family's one representation: it evaluates q at
    any s in [s0, extent) from ``lobes``, the amplitude table built once to
    the extent the family was built for.  ``I`` holds I_m for every period
    of that table (see :func:`_damping_table`); its first m_max + 2 entries
    are the certified ones, with ``I_error``.  ``c`` and ``d`` hold the
    first m_max periods, and lambda is I_1, since s0 = 2 pi.  Every period
    of the table is checked when the family is built.
    """

    params: OscillationParams
    nodes: np.ndarray          # a_2 .. a_{2 m_max + 2}
    c: np.ndarray              # positive-lobe amplitudes, index m = 1 .. m_max
    d: np.ndarray              # negative-lobe amplitudes
    I: np.ndarray              # I_m = integral_{2m pi}^inf p for every period of the table
    I_error: np.ndarray        # errors of the certified I_m, m = 1 .. m_max + 2
    lam: float
    lam_error: float
    sup_bound: float
    rule: _AmplitudeRule
    lobes: np.ndarray          # c_1, -d_1, c_2, -d_2, ... for every period of the table
    extent: float              # start of the table's last period, 2 pi len(lobes) / 2

    def q_callable(self, s) -> np.ndarray:
        """Evaluate the family at any s in [s0, extent), a block of points at a time:
        the one-table case of :func:`_read_lobes`."""
        arr = np.asarray(s, dtype=float)
        flat, out = arr.ravel(), np.empty(arr.size)
        for at in _blocks(arr.size):
            _read_lobes(flat[at], self.extent, (self.lobes,), (out[at],))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # -- certified tail coefficients -----------------------------------------

    def tail_sum_I_bound(self, M: int) -> Optional[float]:
        """Certified bound on sum_{m > M} I_m via lobe counting.

        Counting periods against arc length gives

            sum_{m >= M+2} I_m <= integral_T^inf p + (1/A) integral_T^inf (s - T) p,

        with T = a_{2(M+2)} and A = 2 pi the period length, so the bound
        is I_{M+1} plus that right-hand side.  I_{M+1} and I_{M+2}, with
        their errors, come from the certified table, so M may not exceed
        m_max; the moment is the one integral of its own.  Needs the first
        moment of p to be certifiable (power tail with rate > 2, or an
        exponential tail); returns None otherwise.
        """
        if not 0 <= M <= self.params.m_max:
            raise ValueError(f"M must lie in [0, m_max] = [0, {self.params.m_max}], got {M!r}")
        T = 2.0 * (M + 2) * PI
        moment_model = self.params.p_tail.first_moment(T)
        if moment_model is None:
            return None
        p = self.params.p
        moment = integrate_tail(lambda s: (np.asarray(s) - T) * np.asarray(p(s)),
                                T, moment_model, tol=TAIL_TOL)
        (I_next, I_after), (err_next, err_after) = self.I[M:M + 2], self.I_error[M:M + 2]
        envelope = (I_next + err_next + I_after + err_after
                    + (moment.value + moment.abs_error_estimate) / TWO_PI)
        return float(envelope)

    def surplus_tail_bound(self, M: int, sum_I: float) -> float:
        """Certified bound on sum_{m > M} (pi/2)(c_m - d_m), given ``tail_sum_I_bound(M)``:
        (pi/2)(c_m - d_m) = (pi/2)(cI - dI) I_m + (cg - dg) 2^-m."""
        r = self.rule
        return 0.5 * PI * (r.cI - r.dI) * sum_I + (r.cg - r.dg) * 2.0 ** (-M)

    def future_pos_lobe_bound(self, M: int) -> float:
        """Bound on (pi/2) c_m for every m > M (the build refuses a rising c_m)."""
        return 0.5 * PI * float(self.lobes[2 * M])


def _read_lobes(s: np.ndarray, extent: float, tables, outs) -> None:
    """q of each interleaved lobe table of ``tables`` (families built to one ``extent``)
    at the 1-D points ``s`` in [s0, extent), into the matching array of ``outs``.

    The domain check, each point's lobe and sin^2 are computed once, whatever
    the number of tables; each table is then gathered and multiplied in.  The
    callers pass a block of :data:`~oscillax.quadrature.BLOCK` points at a time.
    """
    inside = s >= S0_FIXED - 1e-12
    inside &= s < extent  # NaN fails both
    if not inside.all():
        bad = float(s[np.argmin(inside)])
        raise ValueError(f"family is defined on [s0, {extent!r}), got s = {bad!r}")
    # period m = max(floor(s / 2 pi), 1); its lobe amplitude sits at
    # 2m - 2 (c_m, positive lobe) or 2m - 1 (-d_m) of the interleaved table
    m = np.floor(s / TWO_PI)
    np.maximum(m, 1.0, out=m)
    positive = (s - TWO_PI * m) < PI
    lobe = m.astype(np.intp)
    lobe *= 2
    lobe -= 1
    lobe -= positive
    sin2 = np.sin(s)
    sin2 *= sin2
    for table, out in zip(tables, outs):
        np.multiply(table[lobe], sin2, out=out)


def _damping_integrals(p: Callable, p_tail: TailModel, los) -> tuple[np.ndarray, np.ndarray]:
    """The integrals of p over [lo, infinity) for each lo of the increasing ``los``,
    and their certified errors.

    One tail from the last lo at TAIL_TOL, plus the suffix sums of one batch of the
    pieces [los[k], los[k+1]].  The pieces share half of what the tail's finite part
    leaves of TAIL_TOL; the sums' rounding, at most u times the sum of the partial sums
    (Higham, Accuracy and Stability, 4.2), is counted twice over in the other half.  So
    no error exceeds a finite part within TAIL_TOL plus the tail's bound.
    """
    tail = integrate_tail(p, float(los[-1]), p_tail, tol=TAIL_TOL)
    share = (TAIL_TOL - (tail.abs_error_estimate - tail.tail_bound)) / (2 * len(los))
    parts = [tail, *integrate_finite_many(p, list(zip(los[:-1], los[1:])), tol=share)[::-1]]
    values = np.cumsum([part.value for part in parts])  # from the last lo back to the first
    errors = np.cumsum([part.abs_error_estimate for part in parts])
    errors[1:] += np.finfo(float).eps * np.cumsum(np.abs(values[1:]))
    return values[::-1], errors[::-1]


def _damping_table(params, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """I_m = integral_{2m pi}^infinity p, m = 1 .. floor(extent / 2 pi) + 2, and at least
    the m_max + 2 of :func:`_damping_integrals`, with their errors, for the p, p_tail and
    m_max of ``params``.  The last period starts past the extent, so that an s below it
    that rounds up still finds its lobe.  Past the certified periods,
    I_m = I_{m_max+2} - integral_{2 (m_max+2) pi}^{2m pi} p, by Simpson on 8 cells per pi
    whose nodes do not depend on the extent (5.0e-13 off 1/(8 pi^2 m^2) for p = 1/s^3 up
    to m = 3 300).  The anchor leaves out its tail bound, so that difference can fall
    below 0 (from m = 1 391 for p = 1/s^4; for every m with p = exp(-s), whose anchor
    is 0); as p >= 0, it is clipped at 0.
    """
    I, I_err = _damping_integrals(params.p, params.p_tail,
                                  TWO_PI * np.arange(1, params.m_max + 3))
    past = 16 * (max(len(I), int(extent // TWO_PI) + 2) - len(I))
    if past:
        P = cumulative_integral(params.p, TWO_PI * len(I) + (PI / 8) * np.arange(past + 1))
        I = np.concatenate((I, np.maximum(I[-1] - P[16::16], 0.0)))
    return I, I_err


def _assemble(params: OscillationParams, rule: _AmplitudeRule,
              table: tuple[np.ndarray, np.ndarray]) -> OscillationSpec:
    """The family ``rule`` makes of a damping table, checked on every period of it: each
    amplitude in its band, and no c_m above c_{m-1} (``future_pos_lobe_bound``)."""
    params.validate()

    I, I_err = table  # s0 = 2 pi, so lambda is I_1
    lam = float(I[0])
    if not lam < 1.0:
        raise ValueError(
            f"the damping budget requires integral of p below one, got {lam!r}"
        )

    periods = len(I)
    geo = np.power(2.0, 1.0 - np.arange(1, periods + 1, dtype=float)) / PI
    c_table, d_table = rule.amplitudes(I, geo)
    lobes = np.empty(2 * periods)
    lobes[0::2], lobes[1::2] = c_table, -d_table

    # band membership (builds choose points inside the band, so failures
    # here mean inconsistent parameters, not numerical noise); each end allows
    # the rounding of its own value
    d_lo, d_hi = 2.0 * params.q_minus / PI, 2.0 * params.q_plus / PI
    outside = (d_table < d_lo - _ulps(d_lo)) | (d_table > d_hi + _ulps(d_hi))
    if np.any(outside):
        m_bad = int(np.argmax(outside)) + 1
        I_bad = float(I[m_bad - 1])
        blame = (f"the damping table has I_{m_bad} = {I_bad!r} < 0 there, and p >= 0 makes "
                 "every I_m >= 0" if I_bad < 0.0 else
                 "the gap parameters are too large for the bands")
        raise ValueError(
            f"negative-lobe amplitude d_{m_bad} = {float(d_table[m_bad - 1])!r} leaves the "
            f"band [{d_lo!r}, {d_hi!r}]; {blame}"
        )
    c_lo = d_table + params.gamma * (params.q_plus / PI) * I + params.eta * geo
    c_hi = d_table + params.sigma * (params.q_plus / PI) * I + params.theta * geo
    outside = (c_table < c_lo - _ulps(c_lo)) | (c_table > c_hi + _ulps(c_hi))
    if np.any(outside):
        m_bad = int(np.argmax(outside)) + 1
        raise ValueError(
            f"positive-lobe amplitude c_{m_bad} = {float(c_table[m_bad - 1])!r} leaves its "
            f"band [{float(c_lo[m_bad - 1])!r}, {float(c_hi[m_bad - 1])!r}]"
        )
    rising = np.flatnonzero(np.diff(c_table) > 0.0)
    if rising.size:
        raise ValueError(f"positive-lobe amplitude c_{rising[0] + 2} exceeds the one "
                         "before it; the damping table increases")

    nodes = PI * np.arange(2, 2 * params.m_max + 3)
    sup_bound = ((2.0 + params.sigma * lam) * params.q_plus + params.theta) / PI

    spec = OscillationSpec(
        params=params, nodes=nodes, c=c_table[:params.m_max], d=d_table[:params.m_max],
        I=I, I_error=I_err,
        lam=lam, lam_error=float(I_err[0]),
        sup_bound=sup_bound, rule=rule, lobes=lobes, extent=TWO_PI * periods,
    )

    _check_lobes(spec)
    for arr in (spec.nodes, spec.c, spec.d, spec.I, spec.I_error, spec.lobes):
        arr.setflags(write=False)
    return spec


def _ulps(x):
    """ULPS units in the last place of x."""
    return ULPS * np.spacing(np.abs(x))


def _check_lobes(spec: OscillationSpec) -> None:
    """q reads the right lobe of the table on each side of every node, and no lobe
    exceeds the sup bound.

    Lobe j of the table spans [(j + 2) pi, (j + 3) pi].  At its midpoint q is the
    lobe's amplitude times sin^2; at the node between lobes j - 1 and j it is one
    of their amplitudes times sin^2 at the float node, so |q| is at most the larger
    of them times that, which is where q and q' vanish.  Both hold to ULPS at every
    midpoint and node before the extent.
    """
    lobes = spec.lobes[:-2]  # the table's last period lies past the extent
    i = np.arange(1, 2 * len(lobes))  # odd: the midpoint of lobe i // 2; even: a node
    s = PI * (2.0 + 0.5 * i)
    sin2 = np.sin(s) ** 2
    left, right = lobes[(i - 1) // 2] * sin2, lobes[i // 2] * sin2
    q = spec.q_callable(s)
    off = np.minimum(np.abs(q - left), np.abs(q - right)) > _ulps(q)
    if np.any(off):
        j = int(np.argmax(off))
        raise ValueError(f"family leaves its lobe table at s = {float(s[j])!r}: q = "
                         f"{float(q[j])!r}, where its lobes give {float(left[j])!r} "
                         f"and {float(right[j])!r}")
    top = float(np.max(np.abs(spec.lobes)))
    if top > spec.sup_bound + _ulps(spec.sup_bound):
        raise ValueError(f"family exceeds its own sup bound {spec.sup_bound!r} with an "
                         f"amplitude of {top!r}; amplitude rule is inconsistent")


def build_oscillation(params: OscillationParams = OscillationParams(),
                      extent: float = STOCK_EXTEND_TO) -> OscillationSpec:
    """Build the single family with d at the band midpoint and c at its floor.

    The midpoint choice for d leaves room on both sides of the
    negative-lobe band; the floor choice for c takes the smallest surplus
    the band allows, which keeps the positive lobes (and hence the kernel
    bound) as small as the constraints permit.  The family can be read at
    every s up to ``extent``; the stock extent is the stock continuation end.
    """
    params.validate()
    d0 = (params.q_minus + params.q_plus) / PI
    rule = _AmplitudeRule(
        d0=d0, dI=0.0, dg=0.0,
        c0=d0, cI=params.gamma * params.q_plus / PI, cg=params.eta,
    )
    return _assemble(params, rule, _damping_table(params, extent))


# ---------------------------------------------------------------------------
# Ordered pairs


class PairParams(NamedTuple):
    """Two band parameter sets plus the gaps that separate the families.

    Requires sigma1 < gamma2 and theta1 < eta2 so that set 2 sits strictly
    above set 1, with alpha_gap in (0, gamma2 - sigma1) and beta_gap in
    (0, eta2 - theta1) fixing how much of the corridor the first family's
    negative lobes use up.  Each message of :meth:`validate` starts with the
    field it is about.  Both families are anchored at ``S0_FIXED``.
    """

    q_minus: float = 1.0
    q_plus: float = 2.0
    p: Callable = STOCK_P
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


class PairResult(NamedTuple):
    """Ordered families q1 <= q2 with the margins of the ordering chain."""

    q1: OscillationSpec
    q2: OscillationSpec
    chain_margins: dict
    min_margin: float
    smallness_margin: float


def build_pair(params: Optional[PairParams] = None, *,
               family: Optional[OscillationSpec] = None,
               extent: float = STOCK_EXTEND_TO) -> PairResult:
    """Build the ordered pair and verify each link of the ordering chain.

    The first family raises its negative-lobe amplitude by the gap terms
    alpha_gap * (q_plus/pi) * I_m + beta_gap * 2^(1-m)/pi above the band
    floor, while the second keeps its negative lobes at the floor; both
    put the positive-lobe amplitude at their band's lower edge.  The chain

        band1 floor <= c1 <= band1 ceiling <= corridor <= band2 floor <= c2

    is evaluated on every period of the damping table and the smallest margin
    of each link reported; the first violated link raises with its period index.
    ``min_margin`` leaves out the three links that are equalities by construction.

    Both members read one damping table, built here, or lent by ``family``, a family
    built for the pair's p, p_tail and m_max, at least to ``extent``, which is as in
    :func:`build_oscillation`.  Lambda is I_1.
    """
    pp = params if params is not None else PairParams()
    pp.validate()

    # the members share p, so one damping table serves both
    params1, params2 = (OscillationParams(q_minus=pp.q_minus, q_plus=pp.q_plus, p=pp.p,
                                          p_tail=pp.p_tail, m_max=pp.m_max, **band._asdict())
                        for band in (pp.set1, pp.set2))
    if family is None:
        table = _damping_table(pp, extent)
    else:
        fp = family.params
        if not (fp.p == pp.p and fp.p_tail == pp.p_tail and fp.m_max == pp.m_max
                and family.extent > extent):
            raise ValueError("the family was built for another p, p_tail or m_max, "
                             f"or short of the extent {extent!r}")
        table = (family.I, family.I_error)
    lam = float(table[0][0])  # I_1
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
    spec1 = _assemble(params1, rule1, table)
    spec2 = _assemble(params2, rule2, table)

    # Chain margins in closed form.  Three links are equalities by the
    # construction choice (c at the band floor, d1 absorbing exactly the
    # corridor offset); the inequality links reduce to nonnegative
    # combinations of I_m and the geometric term, which keeps the reported
    # margins free of cancellation noise.  Band membership of the built
    # amplitudes is checked independently inside the assembly, and
    # verify_pair re-checks the ordering from the lobe tables.
    I = spec1.I
    geo = np.power(2.0, 1.0 - np.arange(1, len(I) + 1, dtype=float)) / PI
    qp = pp.q_plus / PI
    zero = np.zeros(len(I))
    d1 = -spec1.lobes[1::2]
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
        "d1 below its band ceiling": 2.0 * pp.q_plus / PI - d1,
    }
    for name, margins in chain.items():
        if np.min(margins) < 0.0:
            raise ValueError(f"ordering chain fails at link {name!r} for period m = "
                             f"{int(np.argmin(margins)) + 1}: margin {float(np.min(margins))!r}")
    least = min(np.min(m) for m in chain.values() if m is not zero)
    return PairResult(q1=spec1, q2=spec2, chain_margins=chain, min_margin=float(least),
                      smallness_margin=float(smallness))


def verify_pair(pair: PairResult) -> dict:
    """Check q1 <= q2 on every lobe of the pair's table, exactly.

    On each lobe both members multiply their amplitude by the same rounded
    sin^2 s >= 0, and fl(a x) does not decrease as a grows, so q1 <= q2 holds
    on a lobe exactly when its entry of ``q2.lobes - q1.lobes`` is >= 0: c2 - c1
    on a positive lobe, d1 - d2 on a negative one.  Reports the least gap of
    each lobe type over the whole table, the period of the least gap, the
    period count, and whether every gap is >= 0.
    """
    lobes1, lobes2 = pair.q1.lobes, pair.q2.lobes
    if len(lobes1) != len(lobes2):
        raise ValueError(f"the members' tables differ in length: {len(lobes1) // 2} "
                         f"and {len(lobes2) // 2} periods")
    gap = lobes2 - lobes1
    worst = int(np.argmin(gap))
    return {
        "amplitude_margin_positive_lobes": float(np.min(gap[0::2])),
        "amplitude_margin_negative_lobes": float(np.min(gap[1::2])),
        "worst_period": worst // 2 + 1,
        "periods": len(gap) // 2,
        "ordered": bool(gap[worst] >= 0.0),
    }


# ---------------------------------------------------------------------------
# Verdicts


class Check(NamedTuple):
    """One verdict of the chain: a named check, whether it passed, its margin and details."""

    name: str
    passed: bool
    margin: Optional[float] = None
    details: Optional[dict] = None

    def line(self) -> str:
        """The verdict as the CLI prints it: ``PASS|FAIL <name>[ (margin=%.6g)]``."""
        extra = "" if self.margin is None else f" (margin={self.margin:.6g})"
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{extra}"


# ---------------------------------------------------------------------------
# Integral features


class FeatureReport(NamedTuple):
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


def features_reach(M: int) -> float:
    """The largest s at which :func:`check_integral_features` reads a family:
    2 T = 4 pi (M + 1), the far end of its Cauchy test."""
    return 4.0 * (M + 1) * PI


def check_integral_features(
    spec: OscillationSpec,
    varsigma: float = 1.0,
    M: int = 50,
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
    fn = spec.q_callable
    periods = [(2 * m * PI, 2 * (m + 1) * PI) for m in range(1, M + 1)]
    mids = [(2 * m + 1) * PI for m in range(1, M + 1)]
    parts = integrate_finite_many(lambda s: np.abs(fn(s)) / s, periods,
                                  tol=1e-10, seeds=mids)
    sums = np.cumsum([part.value for part in parts])
    m_arr = np.arange(1, M + 1, dtype=float)
    lower = np.cumsum(-spec.lobes[1:2 * M:2] / (8.0 * (m_arr + 1.0)))  # d_m / (8 (m+1))
    dominates = bool(np.all(sums >= lower - 1e-12))

    # least squares growth rate of the partial sums against ln m
    x = np.log(m_arr[1:])
    y = sums[1:]
    slope = float(np.polyfit(x, y, 1)[0])

    T = 0.5 * features_reach(M)
    # the lobe nodes up to 2T; each interval takes those strictly inside it
    nodes = PI * np.arange(2, int(math.ceil(2.0 * T / PI)) + 1)
    weight = lambda s: np.abs(fn(s)) / s ** (1.0 + varsigma)
    F_T, F_2T = (part.value for part in integrate_finite_many(
        weight, [(S0_FIXED, T), (S0_FIXED, 2.0 * T)], tol=1e-10, seeds=nodes))
    gap = abs(F_2T - F_T)
    gap_bound = spec.sup_bound * T ** (-varsigma) / varsigma

    return FeatureReport(
        partial_sums=sums,
        lower_bounds=lower,
        dominates=dominates,
        log_slope=slope,
        varsigma=varsigma,
        T=T,
        F_T=F_T,
        F_2T=F_2T,
        cauchy_gap=gap,
        gap_bound=gap_bound,
        converged=bool(gap <= gap_bound + 1e-12),
    )
