import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscillax import (
    BandParams,
    OscillationParams,
    OscillationSpec,
    PairParams,
    build_oscillation,
    build_pair,
    check_hypotheses,
    check_integral_features,
    compute_kernel,
    integrate_finite,
    parse,
    verify_pair,
)
from oscillax.quadrature import TailModel, equation_grid

PI = math.pi


# ---------------------------------------------------------------------------
# parameter validation


def test_gamma_below_six_is_rejected():
    with pytest.raises(ValueError, match="6 <= gamma"):
        OscillationParams(gamma=5.0).validate()


def test_band_order_is_enforced():
    with pytest.raises(ValueError, match="gamma < sigma"):
        OscillationParams(gamma=7.0, sigma=7.0).validate()
    with pytest.raises(ValueError, match="eta < theta"):
        OscillationParams(eta=1.0, theta=1.0).validate()
    with pytest.raises(ValueError, match="eta"):
        OscillationParams(eta=-0.5).validate()


def test_q_band_must_be_ordered_and_positive():
    with pytest.raises(ValueError):
        OscillationParams(q_minus=2.0, q_plus=1.0).validate()
    with pytest.raises(ValueError):
        OscillationParams(q_minus=0.0).validate()


# ---------------------------------------------------------------------------
# the built family


def test_negative_amplitude_is_the_band_midpoint(family):
    # (q_minus + q_plus)/pi with the defaults 1 and 2
    assert np.all(family.d == family.d[0])
    assert family.d[0] == pytest.approx(3.0 / PI, abs=1e-15)


def test_positive_amplitude_follows_the_floor_rule(family):
    params = OscillationParams()
    geo = 2.0 ** (1.0 - np.arange(1, params.m_max + 1)) / PI
    expect = family.d + params.gamma * (params.q_plus / PI) * family.I \
        + params.eta * geo
    assert np.max(np.abs(family.c - expect)) <= 1e-14


def test_nodes_are_the_half_period_multiples(family):
    params = OscillationParams()
    expect = PI * np.arange(2, 2 * params.m_max + 3)
    assert np.array_equal(family.nodes, expect)


def test_tail_integrals_match_the_closed_form(family):
    m = np.arange(1, len(family.I) + 1)
    exact = 1.0 / (8.0 * PI**2 * m**2)
    assert np.max(np.abs(family.I - exact)) <= np.max(family.I_error) + 1e-12


def test_lobe_integral_identity(family):
    # each lobe of amplitude A integrates to (pi/2) A
    for m in (1, 2, 3):
        a = family.nodes[2 * (m - 1)]
        pos = integrate_finite(family.q_callable, a, a + PI, tol=1e-12)
        neg = integrate_finite(family.q_callable, a + PI, a + 2 * PI, tol=1e-12)
        assert pos.value == pytest.approx(PI / 2 * family.c[m - 1], rel=1e-9)
        assert neg.value == pytest.approx(-PI / 2 * family.d[m - 1], rel=1e-9)


def test_sup_bound_closed_form(family):
    params = OscillationParams()
    expect = ((2.0 + params.sigma * family.lam) * params.q_plus + params.theta) / PI
    assert family.sup_bound == pytest.approx(expect, abs=1e-12)
    s = np.linspace(family.nodes[0], family.nodes[-1], 40001)
    assert np.max(np.abs(family.q_callable(s))) <= family.sup_bound


def test_q_callable_extends_smoothly_beyond_the_certified_range(family):
    # beyond nodes[-1] amplitudes keep following the rule, the curve stays
    # continuous and inside the global bound
    far = family.nodes[-1] + np.linspace(0.0, 20 * PI, 4001)
    vals = family.q_callable(far)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= family.sup_bound
    assert np.max(np.abs(np.diff(vals))) < 0.05   # no parity glitch at the seam


# periods 26-119 (past the certified table of 25), the first far-field cell
# past the default kernel grid, and the far-field end near period 3 200
_FIXED_POINTS = np.concatenate((np.linspace(52 * PI + 0.3, 240 * PI - 0.3, 94),
                                [42 * PI + 0.5, 2e4 - 0.3]))


@functools.cache
def _fresh_values() -> np.ndarray:
    return build_oscillation(OscillationParams()).q_callable(_FIXED_POINTS)


@settings(max_examples=15)
@given(st.lists(st.one_of(st.floats(2 * PI, 2e4), st.just(2e4)), max_size=4))
@example([2e4])
@example([60 * PI, 2e4, 500 * PI])
def test_q_callable_does_not_depend_on_the_call_history(history):
    spec = build_oscillation(OscillationParams())
    for s in history:
        spec.q_callable(np.array([s]))
    assert np.array_equal(spec.q_callable(_FIXED_POINTS), _fresh_values())


@pytest.mark.parametrize("p, tail", [("1/s^3", TailModel("power", 3.0, 1.0)),
                                     ("exp(-s)", TailModel("exp", 1.0, 1.0))])
def test_families_built_to_two_extents_agree_bitwise_on_their_common_range(p, tail):
    params = OscillationParams(p=parse(p), p_tail=tail)
    short, wide = build_oscillation(params, extent=300.0), build_oscillation(params)
    pairs = build_pair(PairParams(p=params.p, p_tail=tail), extent=300.0), build_pair(
        PairParams(p=params.p, p_tail=tail))
    assert short.extent < wide.extent
    assert short.lobes.tobytes() == wide.lobes[:len(short.lobes)].tobytes()
    for member in ("q1", "q2"):
        near, far = (getattr(pair, member) for pair in pairs)
        assert near.lobes.tobytes() == far.lobes[:len(near.lobes)].tobytes()
    s = np.linspace(2 * PI, np.nextafter(short.extent, 0.0), 100001)
    assert short.q_callable(s).tobytes() == wide.q_callable(s).tobytes()


def test_q_callable_refuses_s_outside_s0_to_the_extent():
    spec = build_oscillation(OscillationParams(m_max=5), extent=100.0)
    assert 100.0 + 2 * PI <= spec.extent
    assert len(spec.lobes) == 2 * round(spec.extent / (2 * PI))
    spec.q_callable(np.nextafter(spec.extent, 0.0))
    for outside in (spec.extent, 1e6, np.nan, 6.0):
        with pytest.raises(ValueError, match=re.escape(
                f"family is defined on [s0, {spec.extent!r}), got s = {outside!r}")):
            spec.q_callable(np.array([10.0, outside]))
    # a table holds at least the lobe after the certified ones, whatever the extent
    assert len(build_oscillation(OscillationParams(m_max=5), extent=0.0).lobes) == 2 * 7


def _per_lobe_reference(c, d, s):
    """q from its definition, period by period: c_m sin^2 s on [2m pi, (2m+1) pi]
    and -d_m sin^2 s on [(2m+1) pi, (2m+2) pi], for m = 1 .. len(c)."""
    out = np.full(s.shape, np.nan)
    for m in range(1, len(c) + 1):
        positive = (2 * m * PI <= s) & (s <= (2 * m + 1) * PI)
        negative = ((2 * m + 1) * PI <= s) & (s <= (2 * m + 2) * PI)
        out[positive] = c[m - 1] * np.sin(s[positive]) ** 2
        out[negative] = -d[m - 1] * np.sin(s[negative]) ** 2
    assert not np.any(np.isnan(out))
    return out


def test_piecewise_expression_agrees_with_the_callable(family, pair):
    # the reference tables run 15 periods past m_max = 25, where q_callable
    # extends the amplitude rule by itself
    wide_pair = build_pair(PairParams(m_max=40))
    wide = {"family": build_oscillation(OscillationParams(m_max=40)),
            "q1": wide_pair.q1, "q2": wide_pair.q2}
    s = np.linspace(2 * PI, 82 * PI, 16001)
    for name, spec in (("family", family), ("q1", pair.q1), ("q2", pair.q2)):
        inside = s <= spec.nodes[-1]
        reference = _per_lobe_reference(wide[name].c, wide[name].d, s)
        error = np.abs(spec.q_callable(s) - reference)
        assert np.max(error[inside]) <= 1e-12, name
        assert np.max(error[~inside]) <= 1e-12, name


def test_the_far_field_does_not_depend_on_m_max():
    # the continuation reads the amplitudes past the certified table, which start
    # from the last certified I_m, so a wider certified table leaves the sup of z alone
    grid = equation_grid(2 * PI, 40 * PI)
    sups = []
    for m_max in (25, 40):
        spec = build_oscillation(OscillationParams(m_max=m_max))
        sups.append(compute_kernel(spec.params.p, spec.q_callable, grid).z_sup_observed)
    assert abs(sups[0] - sups[1]) <= 1e-10


def test_lambda_is_the_first_entry_of_the_one_batch(family, pair):
    for spec in (family, pair.q1, pair.q2):
        assert spec.lam == spec.I[0] and spec.lam_error == spec.I_error[0]
    params = OscillationParams()
    hyp = check_hypotheses(params.p, family.q_callable, family.nodes, p_tail=params.p_tail)
    assert hyp.I is not family.I
    assert hyp.lam == hyp.I[0] and hyp.lam_error == hyp.I_error[0]
    assert hyp.lam == family.lam == 0.01266514795479222


def test_a_family_that_is_not_smooth_at_a_join_is_refused(monkeypatch):
    smooth = OscillationSpec.q_callable

    def stepped(self, s):
        return smooth(self, s) + np.where(np.asarray(s) > 5 * PI, 1e-3, 0.0)

    monkeypatch.setattr(OscillationSpec, "q_callable", stepped)
    with pytest.raises(ValueError, match="leaves its lobe table") as err:
        build_oscillation(OscillationParams())
    assert "np.float64" not in str(err.value)


def _two_lookup_q(spec, s):
    """q by the period-and-sign expression that the lobe table replaced."""
    m = np.maximum(np.floor(s / (2 * PI)).astype(int), 1)
    c, d = spec.lobes[0::2], -spec.lobes[1::2]
    positive = (s - (2 * PI) * m) < PI
    return np.where(positive, c[m - 1], -d[m - 1]) * np.sin(s) ** 2


def test_q_callable_is_the_two_lookup_expression_bitwise(family, rng):
    nodes = PI * np.arange(2, 401)
    s = np.concatenate((
        rng.uniform(2 * PI, 400 * PI, 1_000_000),
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
    ))
    assert family.q_callable(s).tobytes() == _two_lookup_q(family, s).tobytes()
    assert family.q_callable(float(nodes[7])) == float(_two_lookup_q(family, nodes[7:8])[0])


def test_tail_sum_bound_is_valid_and_not_wild(family):
    M = 10
    bound = family.tail_sum_I_bound(M)
    true = sum(1.0 / (8.0 * PI**2 * m**2) for m in range(M + 1, 20000))
    assert bound is not None
    assert true <= bound <= 10.0 * true


def _tail_sum_I_bound_reference(spec, M):
    """tail_sum_I_bound with its moment model written out per tail kind."""
    from oscillax.quadrature import integrate_tail

    tail, pe = spec.params.p_tail, spec.params.p
    T = 2.0 * (M + 2) * PI
    I_next = integrate_tail(pe, 2.0 * (M + 1) * PI, tail, tol=1e-12)
    I_after = integrate_tail(pe, T, tail, tol=1e-12)
    if tail.kind == "power":
        moment_model = TailModel(kind="power", rate=tail.rate - 1.0, coef=tail.coef)
    else:
        moment_model = TailModel(kind="user", rate=tail.rate, coef=tail.coef,
                                 bound_fn=lambda S: tail.coef * math.exp(-tail.rate * S)
                                 * (S - T + 1.0 / tail.rate) / tail.rate)
    moment = integrate_tail(lambda s: (np.asarray(s) - T) * np.asarray(pe(s)),
                            T, moment_model, tol=1e-12)
    return float(I_next.value + I_next.abs_error_estimate
                 + I_after.value + I_after.abs_error_estimate
                 + (moment.value + moment.abs_error_estimate) / (2.0 * PI))


@pytest.mark.parametrize("p, tail", [
    ("1/s^3", TailModel("power", 3.0, 1.0)),
    ("2/s^4", TailModel("power", 4.0, 2.0)),
    ("exp(-s)", TailModel("exp", 1.0, 1.0)),
    ("exp(-s/2)/3", TailModel("exp", 0.5, 1.0 / 3.0)),
])
def test_tail_sum_bound_through_the_shared_moment_model_is_unchanged(p, tail):
    base = OscillationParams(m_max=6)
    spec = build_oscillation(OscillationParams(
        q_minus=base.q_minus, q_plus=base.q_plus, gamma=base.gamma, sigma=base.sigma,
        eta=base.eta, theta=base.theta, p=parse(p), p_tail=tail, m_max=6))
    for M in (4, 6, 30):
        assert spec.tail_sum_I_bound(M) == _tail_sum_I_bound_reference(spec, M)


def test_tail_sum_bound_needs_a_fast_enough_rate():
    params = OscillationParams(m_max=4)
    slow = OscillationParams(
        q_minus=params.q_minus, q_plus=params.q_plus, gamma=params.gamma,
        sigma=params.sigma, eta=params.eta, theta=params.theta,
        p=lambda s: 1.0 / np.asarray(s, dtype=float) ** 2 / 40.0,
        p_tail=TailModel("power", 2.0, 1.0 / 40.0), m_max=4,
    )
    spec = build_oscillation(slow)
    assert spec.tail_sum_I_bound(4) is None


# ---------------------------------------------------------------------------
# integral features


def test_harmonic_weight_diverges_and_heavy_weight_converges(family):
    rep = check_integral_features(family, varsigma=1.0, M=50)
    assert rep.dominates
    assert np.all(np.diff(rep.partial_sums) > 0.0)
    assert np.all(rep.partial_sums >= rep.lower_bounds)
    assert 0.3 <= rep.log_slope <= 0.6
    assert rep.converged
    assert rep.cauchy_gap <= rep.gap_bound


# ---------------------------------------------------------------------------
# the ordered pair


def test_pair_defaults_build_and_verify(pair):
    grid = np.linspace(2 * PI, 2 * PI + 50 * PI, 40001)
    check = verify_pair(pair, grid)
    assert check["ordered"]
    assert check["grid_min_slack"] >= 0.0
    assert pair.min_margin >= 0.0


def test_pair_chain_margins_closed_form(pair):
    # with the stock bands the amplitude gaps are
    #   c2 - c1 = 1.5 (2/pi) I_m + 1.5 * 2^(1-m)/pi
    #   d1 - d2 = 0.5 (2/pi) I_m + 0.5 * 2^(1-m)/pi
    I = pair.q1.I
    geo = 2.0 ** (1.0 - np.arange(1, len(I) + 1)) / PI
    expect_c = 1.5 * (2.0 / PI) * I + 1.5 * geo
    expect_d = 0.5 * (2.0 / PI) * I + 0.5 * geo
    assert np.max(np.abs((pair.q2.c - pair.q1.c) - expect_c)) <= 1e-14
    assert np.max(np.abs((pair.q1.d - pair.q2.d) - expect_d)) <= 1e-14


def test_pair_smallness_condition(pair):
    # q_minus + (alpha/2) q_plus lambda + beta/2 stays below q_plus
    lam = pair.q1.lam
    lhs = 1.0 + 0.25 * 2.0 * lam + 0.25
    assert 2.0 - pair.smallness_margin == pytest.approx(lhs, abs=1e-9)
    assert pair.smallness_margin > 0.7


def test_pair_equality_links_are_exact_zeros(pair):
    exact = [k for k, v in pair.chain_margins.items()
             if "equality by construction" in k]
    assert len(exact) == 3
    for k in exact:
        assert np.all(np.asarray(pair.chain_margins[k]) == 0.0)


def test_a_pair_built_from_its_family_is_the_same_pair(family, pair):
    # the family lends lambda and the I_m it integrated; every amplitude keeps its bits
    lent = build_pair(family=family)
    assert lent.q1.I is family.I
    for q in ("q1", "q2"):
        for name in ("c", "d", "I", "I_error"):
            assert np.array_equal(getattr(getattr(lent, q), name), getattr(getattr(pair, q), name))
        assert getattr(lent, q).lam_error == getattr(pair, q).lam_error
    assert lent.min_margin == pair.min_margin
    assert lent.smallness_margin == pair.smallness_margin


@pytest.mark.parametrize("params", [
    PairParams(m_max=24),
    PairParams(p=parse("1/s^4"), p_tail=TailModel("power", 4.0, 1.0)),
    PairParams(p_tail=TailModel("power", 3.0, 2.0)),
], ids=["m_max", "p", "p_tail"])
def test_a_family_for_another_damping_is_refused(family, params):
    with pytest.raises(ValueError, match="another p, p_tail or m_max"):
        build_pair(params, family=family)


def test_pair_margin_shrinks_as_alpha_grows():
    margins = []
    for alpha_gap in (0.25, 0.5, 0.75):
        p = PairParams(alpha_gap=alpha_gap, beta_gap=0.5, m_max=6)
        pair = build_pair(p)
        grid = np.linspace(2 * PI, 14 * PI, 8001)
        margins.append(verify_pair(pair, grid)["amplitude_margin_positive_lobes"])
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_pair_rejects_crossed_corridors():
    bad = PairParams(
        set1=BandParams(6.0, 9.0, 0.0, 1.0),
        set2=BandParams(8.0, 10.0, 2.0, 3.0),   # sigma1 > gamma2 breaks the corridor
    )
    with pytest.raises(ValueError, match="sigma"):
        build_pair(bad)


# ---------------------------------------------------------------------------
# random admissible parameters keep the invariants


@settings(max_examples=12)
@given(
    gamma=st.floats(min_value=6.0, max_value=10.0),
    dsig=st.floats(min_value=0.5, max_value=4.0),
    eta=st.floats(min_value=0.0, max_value=3.0),
    dth=st.floats(min_value=0.25, max_value=2.0),
    q_minus=st.floats(min_value=0.5, max_value=2.0),
    q_ratio=st.floats(min_value=1.2, max_value=3.0),
)
def test_random_admissible_families_stay_in_band(gamma, dsig, eta, dth,
                                                 q_minus, q_ratio):
    params = OscillationParams(m_max=4)
    p = OscillationParams(
        q_minus=q_minus, q_plus=q_minus * q_ratio,
        gamma=gamma, sigma=gamma + dsig, eta=eta, theta=eta + dth,
        p=params.p, p_tail=params.p_tail, m_max=4,
    )
    spec = build_oscillation(p)
    # lobes alternate and respect the band by construction
    geo = 2.0 ** (1.0 - np.arange(1, 5)) / PI
    lo = spec.d + gamma * (p.q_plus / PI) * spec.I + eta * geo
    hi = spec.d + (gamma + dsig) * (p.q_plus / PI) * spec.I + (eta + dth) * geo
    assert np.all(spec.c >= lo - 1e-12)
    assert np.all(spec.c <= hi + 1e-12)
    assert np.all((2.0 / PI) * q_minus - 1e-12 <= spec.d)
    assert np.all(spec.d <= (2.0 / PI) * p.q_plus + 1e-12)
    s = np.linspace(spec.nodes[0], spec.nodes[-1], 2001)
    assert np.max(np.abs(spec.q_callable(s))) <= spec.sup_bound + 1e-12
