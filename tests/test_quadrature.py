import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oscillax import (
    IntegralResult,
    TailModel,
    cumulative_integral,
    cumulative_simpson_doubled,
    integrate_finite,
    integrate_finite_many,
    integrate_tail,
    integrate_tail_many,
    parse,
)

PI = math.pi


# ---------------------------------------------------------------------------
# finite intervals


def test_sin_squared_half_period():
    res = integrate_finite(parse("sin(s)^2"), 0.0, PI, tol=1e-12)
    assert abs(res.value - PI / 2) <= 1e-12
    assert abs(res.value - PI / 2) <= res.abs_error_estimate + 1e-15


def test_single_panel_is_exact_on_high_degree_polynomials():
    # a single 15-point panel integrates degree <= 22 exactly
    for k in range(14):
        res = integrate_finite(lambda s, k=k: np.asarray(s) ** k, 0.0, 1.0, tol=1.0)
        assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_orientation_and_degenerate_interval():
    fwd = integrate_finite(parse("s^2"), 0.0, 2.0)
    rev = integrate_finite(parse("s^2"), 2.0, 0.0)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-14)
    assert integrate_finite(parse("s"), 1.0, 1.0).value == 0.0


def test_error_estimate_is_honest_on_oscillatory_integrand():
    res = integrate_finite(parse("sin(s)"), 0.0, 10.0, tol=1e-11)
    exact = 1.0 - math.cos(10.0)
    assert abs(res.value - exact) <= max(res.abs_error_estimate, 1e-13)


def test_seeds_break_panels_at_kinks():
    res = integrate_finite(parse("abs(sin(s))"), 0.0, 2 * PI, tol=1e-12, seeds=[PI])
    assert res.value == pytest.approx(4.0, abs=1e-11)


def test_bad_inputs():
    with pytest.raises(ValueError):
        integrate_finite(parse("s"), 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_finite(parse("s"), 0.0, 1.0, tol=-1.0)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_linearity_and_additivity(a, b, split):
    f = lambda s: np.cos(np.asarray(s))
    g = lambda s: np.asarray(s) ** 3
    combined = integrate_finite(lambda s: a * f(s) + b * g(s), 0.0, 1.0, tol=1e-12)
    parts = (a * integrate_finite(f, 0.0, 1.0, tol=1e-12).value
             + b * integrate_finite(g, 0.0, 1.0, tol=1e-12).value)
    assert combined.value == pytest.approx(parts, abs=1e-10)

    whole = integrate_finite(f, 0.0, 1.0, tol=1e-12).value
    left = integrate_finite(f, 0.0, split, tol=1e-13).value
    right = integrate_finite(f, split, 1.0, tol=1e-13).value
    assert left + right == pytest.approx(whole, abs=1e-11)


# ---------------------------------------------------------------------------
# tails


def test_tail_model_validation():
    with pytest.raises(ValueError):
        TailModel("power", rate=1.0)        # not integrable
    with pytest.raises(ValueError):
        TailModel("exp", rate=0.0)
    with pytest.raises(ValueError):
        TailModel("user", rate=1.0)         # needs bound_fn
    with pytest.raises(ValueError):
        TailModel("typo", rate=3.0)


def test_improper_integral_of_inverse_cube():
    # integral over [2 pi, inf) of s^-3 equals 1/(8 pi^2)
    exact = 1.0 / (8.0 * PI**2)
    res = integrate_tail(parse("1/s^3"), 2 * PI, TailModel("power", 3.0, 1.0), tol=1e-10)
    assert abs(res.value - exact) <= res.abs_error_estimate
    # the unaccounted mass is the certified tail, always an undercount
    assert res.value <= exact <= res.value + res.tail_bound + 1e-15
    assert res.tail_bound > 0.0


def test_tail_envelope_violation_is_detected():
    model = TailModel("power", 3.0, 1.0)
    with pytest.raises(ValueError, match="tail model violated") as err:
        integrate_tail(parse("1/s"), 2 * PI, model, tol=1e-8)
    assert "np.float64(" not in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("rate", math.inf), ("coef", math.nan), ("coef", math.inf),
])
def test_a_tail_model_refuses_non_finite_numbers(field, value):
    numbers = {"rate": 3.0, "coef": 1.0, field: value}
    with pytest.raises(ValueError, match=f"tail model {field} must be finite"):
        TailModel("power", **numbers)


def test_exp_tail_model():
    res = integrate_tail(lambda s: np.exp(-np.asarray(s)), 1.0,
                         TailModel("exp", 1.0, 1.0), tol=1e-12)
    assert res.value + res.tail_bound >= math.exp(-1.0) - 1e-12
    assert abs(res.value - math.exp(-1.0)) <= res.abs_error_estimate


def test_user_model_uses_the_supplied_bound():
    model = TailModel("user", rate=1.0, bound_fn=lambda c: 1.0 / c**2)
    res = integrate_tail(parse("1/s^3"), 2 * PI, model, tol=1e-10)
    cutoff = model.cutoff_for(0.5e-10, 2 * PI)
    assert res.tail_bound == 1.0 / cutoff**2 <= 0.5e-10


# ---------------------------------------------------------------------------
# lockstep batches


def _bits(res):
    return (res.value, res.abs_error_estimate, res.tail_bound, res.evaluations)


def _wiggle(s):
    s = np.asarray(s, dtype=float)
    return np.sin(3.0 * s) ** 2 / (1.0 + s * s) + np.abs(np.cos(s))


def _sequential(f, lo, hi, tol, seeds=None, limit=4000):
    """Reference: one panel per integrand call, the classic adaptive GK15 loop."""
    import heapq
    from oscillax.quadrature import _GAUSS_SLICE, _WG, _WK, _XK

    if hi < lo:
        res = _sequential(f, hi, lo, tol, seeds, limit)
        return IntegralResult(-res.value, res.abs_error_estimate, 0.0, res.evaluations)
    if hi == lo:
        return IntegralResult(0.0, 0.0, 0.0, 0)

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        y = np.asarray(f(mid + half * _XK), dtype=float)
        k = half * float(_WK @ y)
        return k, abs(k - half * float(_WG @ y[_GAUSS_SLICE]))

    edges = [lo]
    for a in [float(a) for a in sorted(seeds or []) if lo < a < hi] + [hi]:
        if a > edges[-1]:
            edges.append(a)
    heap, total, evals, splits = [], 0.0, 0, 0
    for a, b in zip(edges, edges[1:]):
        val, err = panel(a, b)
        evals, total = evals + 15, total + err
        heapq.heappush(heap, (-err, a, b, val))
    while total > tol:
        assert splits + 1 < limit
        splits += 1
        neg, a, b, _ = heapq.heappop(heap)
        total += neg
        m = 0.5 * (a + b)
        for c, d in ((a, m), (m, b)):
            val, err = panel(c, d)
            evals, total = evals + 15, total + err
            heapq.heappush(heap, (-err, c, d, val))
        if len(heap) % 64 == 0:
            total = -math.fsum(item[0] for item in heap)
    return IntegralResult(math.fsum(item[3] for item in heap),
                          math.fsum(-item[0] for item in heap), 0.0, evals)


_endpoint = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


@given(
    st.lists(st.tuples(_endpoint, _endpoint, st.booleans()), min_size=1, max_size=6),
    st.one_of(st.none(), st.lists(_endpoint, max_size=5)),
    st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_batch_equals_one_interval_calls_bit_for_bit(raw, seeds, tol):
    # the flag collapses an interval to zero width; hypothesis also draws
    # reversed intervals and seeds outside, on or between the endpoints
    intervals = [(a, a if flat else b) for a, b, flat in raw]
    if seeds:
        seeds = seeds + seeds[:1]  # a coincident seed must not make a panel
    batch = integrate_finite_many(_wiggle, intervals, tol, seeds=seeds)
    alone = [integrate_finite(_wiggle, a, b, tol, seeds=seeds) for a, b in intervals]
    reference = [_sequential(_wiggle, a, b, tol, seeds) for a, b in intervals]
    assert [_bits(r) for r in batch] == [_bits(r) for r in alone]
    assert [_bits(r) for r in alone] == [_bits(r) for r in reference]


def _counting(f):
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return f(s)
    return counted, calls


def test_batch_calls_the_integrand_once_per_round():
    f, calls = _counting(_wiggle)
    integrate_finite_many(f, [(0.0, 1.0), (2.0, 2.0), (3.0, 1.0)], 1e-12)
    # the seeding round holds one panel per non-degenerate interval
    assert calls[0] == 2 * 15
    assert all(n % 30 == 0 for n in calls[1:])
    made = len(calls)
    assert integrate_finite_many(f, [(1.0, 1.0)], 1e-12) == [IntegralResult(0.0, 0.0, 0.0, 0)]
    assert len(calls) == made  # zero width never calls f


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_stacked_panel_sums_equal_per_row_dots_bit_for_bit(n):
    from oscillax.quadrature import _WG, _WK, _panels

    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-30.0, 10.0, (n, 1))
    ends = np.sort(rng.uniform(-5.0, 5.0, (n, 2)), axis=1)
    panels = [tuple(e) for e in ends.tolist()]
    # the central Kronrod node is the panel's midpoint: it picks the panel's row
    by_mid = dict(zip((0.5 * (ends[:, 1] + ends[:, 0])).tolist(), rows))
    f = lambda x: np.concatenate([by_mid[mid] for mid in x[7::15].tolist()])
    got = _panels(f, panels)
    reference = []
    for (a, b), row in zip(panels, rows):
        h = 0.5 * (b - a)
        k = h * float(_WK @ row)
        reference.append((k, abs(k - h * float(_WG @ row[1:15:2]))))
    assert np.array(got).tobytes() == np.array(reference).tobytes()
    alone = [_panels(f, [panel])[0] for panel in panels]
    assert np.array(alone).tobytes() == np.array(got).tobytes()


_TAIL_CASES = {
    "power": (parse("1/s^3"), TailModel("power", 3.0, 1.0)),
    "exp": (lambda s: np.exp(-np.asarray(s)) * np.cos(np.asarray(s)) ** 2,
            TailModel("exp", 1.0, 1.0)),
    "user": (parse("1/s^3"), TailModel("user", rate=1.0, bound_fn=lambda c: 0.5 / c**2)),
}


@pytest.mark.parametrize("case", sorted(_TAIL_CASES))
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_tail_batch_equals_one_tail_calls_bit_for_bit(case, tol):
    f, model = _TAIL_CASES[case]
    los = [2 * PI, 3.0, 2 * PI * 7, 40.0, 3.0]
    batch = integrate_tail_many(f, los, model, tol, seeds=[5.0, 41.0])
    alone = [integrate_tail(f, lo, model, tol, seeds=[5.0, 41.0]) for lo in los]
    assert [_bits(r) for r in batch] == [_bits(r) for r in alone]


def test_tail_batch_spot_checks_each_distinct_cutoff_once():
    f, calls = _counting(parse("1/s^3"))
    model = TailModel("power", 3.0, 1.0)
    results = integrate_tail_many(f, [2 * PI, 4 * PI, 6 * PI], model, 1e-10)
    assert calls[0] == 5  # one shared cutoff (1e5), five envelope samples
    # every result still accounts for its own five samples
    assert all(r.evaluations == integrate_tail(f, lo, model, 1e-10).evaluations
               for r, lo in zip(results, [2 * PI, 4 * PI, 6 * PI]))


def test_lemma_wide_tails_take_few_integrand_calls():
    f, calls = _counting(parse("1/s^3"))
    los = [2.0 * m * PI for m in range(1, 201)]
    results = integrate_tail_many(f, los, TailModel("power", 3.0, 1.0), tol=1e-12)
    assert len(calls) <= 40
    # one call per panel, as each tail alone would make, is over a hundred times more
    assert sum(r.evaluations - 5 for r in results) // 15 > 100 * len(calls)


def test_seeded_panels_do_not_use_up_the_subdivision_limit():
    # 21 seeded panels, more than the limit of 4; the Runge bump at 0.5 needs one bisection
    bump = lambda s: 1.0 / (1.0 + 400.0 * (np.asarray(s) - 0.5) ** 2)
    seeds = np.linspace(0.0, 1.0, 22)[1:-1]
    tight = integrate_finite(bump, 0.0, 1.0, 1e-13, seeds=seeds, limit=4)
    loose = integrate_finite(bump, 0.0, 1.0, 1e-13, seeds=seeds)
    assert _bits(tight) == _bits(loose)
    assert tight.evaluations == 15 * (21 + 2)
    assert tight.value == pytest.approx(math.atan(10.0) / 10.0, abs=1e-15)


def test_batch_keeps_the_one_interval_error_messages():
    with pytest.raises(ValueError, match="tail model violated"):
        integrate_tail_many(parse("1/s"), [2 * PI], TailModel("power", 3.0, 1.0), 1e-8)
    with pytest.raises(ValueError, match="tail model violated"):
        integrate_tail_many(parse("1/s"), [3 * PI, 2 * PI], TailModel("power", 3.0, 1.0), 1e-8)

    kink = lambda s: np.abs(np.asarray(s) - 1.0 / 3.0)
    message = r"subdivision limit 4 reached with error estimate .* > tol 1\.000e-15"
    with pytest.raises(RuntimeError, match=message):
        integrate_finite(kink, 0.0, 1.0, 1e-15, limit=4)
    with pytest.raises(RuntimeError, match=message):
        integrate_finite_many(kink, [(0.0, 1.0), (5.0, 6.0)], 1e-15, limit=4)

    # the central Kronrod node of [0, 1] is 0.5
    pole = lambda s: np.where(np.asarray(s) == 0.5, np.inf, 1.0)
    message = r"integrand is not finite at s = 0\.5$"
    with pytest.raises(ValueError, match=message):
        integrate_finite(pole, 0.0, 1.0)
    with pytest.raises(ValueError, match=message):
        integrate_finite_many(pole, [(2.0, 3.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="integrand is not finite beyond the cutoff"):
        integrate_tail_many(lambda s: np.where(np.asarray(s) > 1e5, np.nan, 1.0 / np.asarray(s) ** 3),
                            [2 * PI, 4 * PI], TailModel("power", 3.0, 1.0), 1e-12)
    with pytest.raises(ValueError, match="finite endpoints"):
        integrate_finite_many(parse("s"), [(0.0, 1.0), (0.0, math.inf)])


def test_first_moment_models():
    power = TailModel("power", 3.5, 2.0).first_moment(10.0)
    assert (power.kind, power.rate, power.coef) == ("power", 2.5, 2.0)
    assert TailModel("power", 2.0, 1.0).first_moment() is None
    assert TailModel("user", 3.0, bound_fn=lambda S: S**-2).first_moment() is None
    # integral_S^inf (s - 5) 3 e^(-2s) ds in closed form
    exp = TailModel("exp", 2.0, 3.0).first_moment(5.0)
    S = 7.0
    assert exp.tail_bound(S) == pytest.approx(3.0 * math.exp(-2.0 * S) * ((S - 5.0) / 2.0 + 0.25),
                                              rel=1e-14)
    res = integrate_tail(lambda s: (s - 5.0) * 3.0 * np.exp(-2.0 * s), S, exp, tol=1e-12)
    assert res.value == pytest.approx(exp.tail_bound(S), rel=1e-9)



# ---------------------------------------------------------------------------
# cumulative forms


def test_cumulative_integral_of_cos_is_sin():
    grid = np.linspace(0.0, 8.0, 801)
    out = cumulative_integral(parse("cos(s)"), grid)
    assert out[0] == 0.0
    assert np.max(np.abs(out - np.sin(grid))) <= 1e-10


def test_cumulative_integral_inverse_cube_closed_form():
    # from 2 pi to 4 pi the mass is 3/(32 pi^2)
    grid = np.linspace(2 * PI, 4 * PI, 501)
    out = cumulative_integral(parse("1/s^3"), grid)
    assert out[-1] == pytest.approx(3.0 / (32.0 * PI**2), abs=1e-13)


def test_cumulative_integral_rejects_bad_grids():
    with pytest.raises(ValueError):
        cumulative_integral(parse("s"), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        cumulative_integral(parse("s"), np.array([1.0]))


def test_doubled_simpson_exact_on_quadratics_at_every_node():
    u = np.linspace(0.0, 3.0, 13)
    out = cumulative_simpson_doubled(u, u**2)
    assert np.max(np.abs(out - u**3 / 3.0)) <= 1e-14


def test_doubled_simpson_fourth_order_on_sin():
    def worst(n):
        u = np.linspace(0.0, 2 * PI, n)
        out = cumulative_simpson_doubled(u, np.sin(u))
        return np.max(np.abs(out - (1.0 - np.cos(u))))

    assert worst(801) <= 5e-10
    # halving the step divides the error by ~16
    ratio = worst(801) / worst(1601)
    assert 12.0 <= ratio <= 20.0


def test_doubled_simpson_agrees_with_composite_on_even_nodes():
    u = np.linspace(0.0, 1.0, 9)
    f = np.exp(u)
    out = cumulative_simpson_doubled(u, f)
    dt = u[2] - u[0]
    acc, expect = 0.0, [0.0]
    for j in range(0, 8, 2):
        acc += dt / 6.0 * (f[j] + 4.0 * f[j + 1] + f[j + 2])
        expect.append(acc)
    assert np.allclose(out[::2], expect, rtol=0, atol=1e-15)


def test_doubled_simpson_rejects_odd_or_nonuniform_grids():
    with pytest.raises(ValueError, match="even, positive number of cells"):
        cumulative_simpson_doubled(np.linspace(0, 1, 4), np.zeros(4))
    with pytest.raises(ValueError, match="doubled grid must be uniform"):
        cumulative_simpson_doubled(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValueError, match="doubled grid must be uniform"):
        cumulative_simpson_doubled(np.linspace(1, 0, 5), np.zeros(5))
    with pytest.raises(ValueError, match="one-dimensional and equal length"):
        cumulative_simpson_doubled(np.linspace(0, 1, 5), np.zeros(3))
    with pytest.raises(ValueError, match="doubled grid must be uniform"):
        cumulative_simpson_doubled(np.array([0.0, 0.5, np.nan, 1.5, 2.0]), np.zeros(5))


def _simpson_doubled_reference(u, f):
    """The rule as whole-array expressions, with their grouping and order of additions."""
    dt = 2.0 * (u[1] - u[0])
    f0, f1, f2 = f[0:-1:2], f[1::2], f[2::2]
    full = (dt / 6.0) * (f0 + 4.0 * f1 + f2)
    half = (dt / 24.0) * (5.0 * f0 + 8.0 * f1 - f2)
    out = np.zeros(len(u))
    np.cumsum(full, out=out[2::2])
    out[1::2] = out[0:-1:2] + half
    return out


@given(
    st.one_of(st.sampled_from([3, 5, 9, 17, 33, 65, 129, 257, 1025]),
              st.integers(1, 600).map(lambda k: 2 * k + 1)),
    st.floats(-50.0, 50.0),
    st.floats(1e-3, 20.0),
    st.integers(0, 2**32 - 1),
)
def test_doubled_simpson_in_place_equals_the_whole_array_rule_bitwise(n, start, span, seed):
    u = np.linspace(start, start + span, n)
    f = np.random.default_rng(seed).standard_normal(n) * 10.0 ** (seed % 7 - 3)
    out = cumulative_simpson_doubled(u, f)
    assert out.tobytes() == _simpson_doubled_reference(u, f).tobytes()
