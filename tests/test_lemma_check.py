import math

import numpy as np
import pytest

from oscillax import (
    OscillationParams,
    build_oscillation,
    check_conclusions,
    check_hypotheses,
    check_remark,
    compute_kernel,
    parse,
    verify_lemma,
)
from oscillax.lemma_check import QUAD_TOL, SIGN_SAMPLES, STRICT
from oscillax.quadrature import TailModel, integrate_finite_many

PI = math.pi


@pytest.fixture(scope="module")
def report(family, family_kernel):
    params = OscillationParams()
    return verify_lemma(
        params.p, family.q_callable, family.nodes,
        p_tail=params.p_tail, family=family, kernel=family_kernel,
        q_minus=params.q_minus,
    )


# ---------------------------------------------------------------------------
# the default family passes everything


def test_all_checks_pass(report):
    checks = report.checks()
    assert len(checks) == 12
    failed = [check.name for check in checks if not check.passed]
    assert failed == []
    assert report.ok


def test_delta_is_the_largest_single_lobe(report):
    # (pi/2) c_1 = 1.5 + 3/(4 pi^2) for the stock parameters
    exact = 1.5 + 3.0 / (4.0 * PI**2)
    assert report.hypotheses.delta_total == pytest.approx(exact, abs=1e-9)
    assert report.hypotheses.delta_range <= report.hypotheses.delta_total


def test_surplus_total_and_proof_bound(report):
    hyp = report.hypotheses
    assert hyp.eps_total is not None
    assert 0.10 < hyp.eps_total < 0.15
    bound = hyp.proof_bound()
    assert bound == pytest.approx(1.7227233239298512, abs=1e-6)
    # the bound really dominates the observed kernel
    assert report.conclusions.z_sup_observed < bound
    assert report.conclusions.z_bound_margin > 0.1


def test_domination_margins_have_headroom(report):
    hyp = report.hypotheses
    assert np.all(hyp.hyp1_margins > 0.0)
    # surplus gamma/2 - 3 = 0 for gamma 6 would be tight; the floor rule
    # plus the geometric term keeps a visible gap on the worst period
    assert float(np.min(hyp.hyp1_margins)) > 1e-5


def test_sign_pattern_strict(report):
    hyp = report.hypotheses
    assert hyp.sign_pattern_ok
    assert hyp.sign_inconclusive == 0
    assert hyp.sign_margin > 1e-3


def test_conclusion_routes_agree(report):
    con = report.conclusions
    assert con.z_negative
    assert con.ratio_decreasing
    assert con.ratio_decreasing_by_z
    assert con.routes_agree
    assert con.h_positive
    assert con.h_min > 0.7


def test_the_proof_bound_uses_the_familys_lambda():
    # the kernel's bound check and the reported proof bound read one lambda
    params = OscillationParams()
    family = build_oscillation(params)
    grid = np.linspace(2 * PI, 12 * PI, 2001)
    kernel = compute_kernel(params.p, family.q_callable, grid, extend_to=0.0)
    report = verify_lemma(params.p, family.q_callable, family.nodes, p_tail=params.p_tail,
                          family=family, kernel=kernel, q_minus=params.q_minus)
    assert report.hypotheses.lam == family.lam
    assert report.conclusions.z_bound == report.hypotheses.proof_bound()
    assert report.conclusions.z_bound == pytest.approx(1.7227233, abs=1e-7)


def test_a_family_of_another_p_or_other_nodes_is_refused(family):
    params = OscillationParams()
    call = dict(p_tail=params.p_tail, family=family)
    hyp = check_hypotheses(params.p, family.q_callable, family.nodes, **call)
    # the checked periods' I_m are read from the family's table, not integrated again
    assert np.shares_memory(hyp.I, family.I) and np.array_equal(hyp.I, family.I[:25])
    assert hyp.lam == family.lam
    with pytest.raises(ValueError, match="another p, p_tail or breakpoint range"):
        check_hypotheses(parse("2/s^3"), family.q_callable, family.nodes, **call)
    with pytest.raises(ValueError, match="another p, p_tail or breakpoint range"):
        check_hypotheses(params.p, family.q_callable, family.nodes, family=family,
                         p_tail=TailModel("power", 3.0, 2.0))
    for nodes in (family.nodes[:-2], family.nodes + 1e-9):
        with pytest.raises(ValueError, match="another p, p_tail or breakpoint range"):
            check_hypotheses(params.p, family.q_callable, nodes, **call)


def test_parallel_hypotheses_equal_serial_on_200_periods():
    params = OscillationParams(m_max=200)
    wide = build_oscillation(params)
    nodes = PI * np.arange(2, 2 * 200 + 3)
    serial, parallel = (
        check_hypotheses(params.p, wide.q_callable, nodes, p_tail=params.p_tail,
                         family=wide, parallel=flag)
        for flag in (False, True)
    )
    assert serial.m_checked == 200
    for name, value in serial._asdict().items():
        other = getattr(parallel, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), name
        else:
            assert value == other, name


def _sign_check_period_by_period(q, nodes):
    """The sign check one period at a time, two q calls per period."""
    rows = []
    for m in range(1, (len(nodes) - 1) // 2 + 1):
        a, b, c = nodes[2 * m - 2], nodes[2 * m - 1], nodes[2 * m]
        tpos = a + (b - a) * (np.arange(1, SIGN_SAMPLES + 1) / (SIGN_SAMPLES + 1.0))
        tneg = b + (c - b) * (np.arange(1, SIGN_SAMPLES + 1) / (SIGN_SAMPLES + 1.0))
        qpos = np.asarray(q(tpos), dtype=float)
        qneg = np.asarray(q(tneg), dtype=float)
        clearance = min(float(np.min(qpos)), float(np.min(-qneg)))
        inconclusive = int(np.sum(np.abs(qpos) <= STRICT) + np.sum(np.abs(qneg) <= STRICT))
        rows.append((clearance > STRICT, clearance, inconclusive))
    return (np.array([r[0] for r in rows], dtype=bool),
            float(min(r[1] for r in rows) - STRICT),
            int(sum(r[2] for r in rows)))


def _assert_sign_check_matches(hyp, q, nodes):
    ok, margin, inconclusive = _sign_check_period_by_period(q, nodes)
    assert hyp.sign_ok.dtype == ok.dtype and hyp.sign_ok.tobytes() == ok.tobytes()
    assert np.float64(hyp.sign_margin).tobytes() == np.float64(margin).tobytes()
    assert hyp.sign_inconclusive == inconclusive


def test_batched_sign_check_equals_the_period_loop_on_200_periods():
    params = OscillationParams(m_max=200)
    wide = build_oscillation(params)
    hyp = check_hypotheses(params.p, wide.q_callable, wide.nodes,
                           p_tail=params.p_tail, family=wide)
    assert hyp.m_checked == 200
    _assert_sign_check_matches(hyp, wide.q_callable, wide.nodes)


def test_batched_sign_check_equals_the_period_loop_on_a_bare_q():
    # the factor (s - c) puts an exact zero on a sign sample of the third
    # period and flips the sign pattern of every lobe before c
    params = OscillationParams()
    nodes = PI * np.arange(2, 19)
    c = nodes[4] + (nodes[5] - nodes[4]) * (3 / (SIGN_SAMPLES + 1.0))
    q = parse(f"sin(s) * (s - {float(c)!r})")
    hyp = check_hypotheses(params.p, q, nodes, p_tail=params.p_tail)
    assert not hyp.sign_pattern_ok
    assert hyp.sign_inconclusive > 0
    assert list(hyp.sign_ok) == [False] * 3 + [True] * 5
    _assert_sign_check_matches(hyp, q.evaluate_grid, nodes)


def _counting(f):
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return f(s)
    return counted, calls


@pytest.mark.parametrize("M", [1, 2, 15, 25, 200])
def test_sign_check_is_one_q_call(family, M):
    # the lobe quadrature's own calls, then one call for all 2M lobes' samples
    params = OscillationParams()
    nodes = PI * np.arange(2, 2 * M + 3)
    q, calls = _counting(family.q_callable)
    integrate_finite_many(q, list(zip(nodes[:-1], nodes[1:])), QUAD_TOL)
    quadrature_calls = list(calls)
    calls.clear()
    check_hypotheses(params.p, q, nodes, p_tail=params.p_tail)
    assert calls == quadrature_calls + [2 * M * SIGN_SAMPLES]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_breakpoints_are_refused(bad):
    params = OscillationParams()
    nodes = PI * np.arange(2, 9)
    nodes[3] = bad
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        check_hypotheses(params.p, parse("sin(s)"), nodes, p_tail=params.p_tail)
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        check_remark(params.p, nodes, p_tail=params.p_tail)


# ---------------------------------------------------------------------------
# the inequality the damped-domination step leans on


def test_exponential_within_linear_envelope_on_unit_range():
    x = np.linspace(0.0, 1.0, 256)
    assert np.all(np.exp(x) <= 1.0 + 3.0 * x + 1e-15)


# ---------------------------------------------------------------------------
# mutations must fail


def test_swollen_negative_lobes_break_domination(family):
    params = OscillationParams()

    def q_bad(s):
        v = family.q_callable(s)
        return np.where(v < 0.0, 1.5 * v, v)

    hyp = check_hypotheses(params.p, q_bad, family.nodes, p_tail=params.p_tail)
    assert not hyp.hyp1_ok


def test_flipped_sign_pattern_is_caught(family):
    params = OscillationParams()
    q_flip = lambda s: -family.q_callable(s)
    hyp = check_hypotheses(params.p, q_flip, family.nodes, p_tail=params.p_tail)
    assert not hyp.sign_pattern_ok


def test_undamped_oscillation_fails_cleanly():
    params = OscillationParams()
    nodes = PI * np.arange(2, 19)
    hyp = check_hypotheses(params.p, lambda s: np.sin(np.asarray(s)),
                           nodes, p_tail=params.p_tail)
    # equal lobes cannot dominate their damped counterparts
    assert not hyp.hyp1_ok
    # and without a family there is no certified surplus tail
    assert hyp.eps_total is None


# ---------------------------------------------------------------------------
# remark consistency


def test_remark_moment_closed_form(report):
    rem = report.remark
    # integral (s - 2 pi)/s^3 over [2 pi, inf) = 1/(4 pi)
    assert rem.p_moment == pytest.approx(1.0 / (4.0 * PI), abs=1e-8)
    assert rem.spacing == pytest.approx(2.0 * PI, abs=1e-12)
    assert rem.counting_ok
    assert rem.budget_ok
    assert rem.eps_budget == pytest.approx(report.hypotheses.eps_total, abs=1e-15)


def test_remark_standalone_with_exp_damping():
    nodes = PI * np.arange(2, 11)
    p = lambda s: np.exp(-np.asarray(s, dtype=float))
    rem = check_remark(p, nodes, q_minus=1.0,
                       p_tail=TailModel("exp", 1.0, 1.0), eps=0.125)
    assert rem.p_moment is not None
    assert rem.counting_ok is not None


def test_remark_skips_moment_for_slow_power_tails():
    nodes = PI * np.arange(2, 11)
    p = lambda s: 0.02 / np.asarray(s, dtype=float) ** 2
    rem = check_remark(p, nodes, q_minus=1.0,
                       p_tail=TailModel("power", 2.0, 0.02), eps=0.125)
    # rate 2 leaves (s - s0) p without a certified moment
    assert rem.p_moment is None
    assert rem.counting_ok is None


# ---------------------------------------------------------------------------
# conclusions in isolation


def test_conclusions_bound_needs_both_budgets(family_kernel):
    # without a proof bound (eps or delta uncertified) the check is skipped
    con = check_conclusions(family_kernel, bound=None)
    assert con.z_bounded is None
    assert con.z_bound is None
    con2 = check_conclusions(family_kernel, bound=1.75)
    assert con2.z_bounded is True
    assert con2.z_bound_margin == 1.75 - family_kernel.z_sup_observed
