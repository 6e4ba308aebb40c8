import math

import numpy as np
import pytest

from oscillax import (
    RadialProblem,
    beta_inverse,
    beta_map,
    compute_kernel,
    integral_conditions,
    lift_coefficients,
    make_barriers,
    make_blend,
    parse,
    push_a_from_q,
    solve_radial,
    subsuper_residual,
)
from oscillax import pde_bridge
from oscillax.example_builder import S0_FIXED, PairResult, _read_lobes, build_oscillation
from oscillax.radial import excluded_arc
from oscillax.quadrature import BLOCK, TailModel

PI = math.pi


# ---------------------------------------------------------------------------
# the radial change of variables


def test_beta_is_the_identity_in_dimension_three():
    s = np.linspace(2 * PI, 50.0, 301)
    assert np.max(np.abs(beta_map(3, 1.0, s) - s)) == 0.0
    assert np.max(np.abs(beta_inverse(3, 1.0, s) - s)) == 0.0


def test_beta_closed_form_in_dimension_four():
    # beta(s) = sqrt(s/2); s = 8 maps to r = 2
    assert beta_map(4, 1.0, 8.0) == pytest.approx(2.0, rel=1e-15)
    assert beta_inverse(4, 1.0, 2.0) == pytest.approx(8.0, rel=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_beta_round_trip(n):
    s = np.linspace((n - 2) * 1.0 + 0.5, 400.0, 557)
    back = beta_inverse(n, 1.0, beta_map(n, 1.0, s))
    assert np.max(np.abs(back - s) / s) <= 1e-12
    r = np.linspace(1.0, 12.0, 311)
    there = beta_map(n, 1.0, beta_inverse(n, 1.0, r))
    assert np.max(np.abs(there - r) / r) <= 1e-12


def test_beta_rejects_low_dimensions():
    with pytest.raises(ValueError):
        beta_map(2, 1.0, 3.0)


# ---------------------------------------------------------------------------
# lift and push


@pytest.mark.parametrize("n", [3, 4, 5])
def test_damping_derived_from_inverse_cube_p_has_its_closed_form(n):
    # p = 1/s^3 gives g(r) = r^(2-2n) / (n-2), the inverse quartic for n = 3,
    # so integral from beta(s0) to T of r^(n-1) g dr is
    # ((n-2)/s0 - T^(2-n)) / (n-2)^2, using beta(s0)^(2-n) = (n-2)/s0, and the
    # tail beyond T is T^(2-n) / (n-2)^2, which the moment certificate is
    R, T, s0 = 1.0, 30.0, S0_FIXED
    problem = RadialProblem(n=n, R=R, p=parse("1/s^3"),
                            p_tail=TailModel("power", 3.0, 1.0))
    out = integral_conditions(problem, T)
    assert out["damping_radial_integral"] == pytest.approx(
        ((n - 2) / s0 - T ** (2 - n)) / (n - 2) ** 2, rel=1e-12)
    assert out["damping_certificate"] == pytest.approx(T ** (2 - n) / (n - 2) ** 2, rel=1e-14)
    assert out["damping_converges"]
    assert out["substitution_identity_gap"] <= 1e-12
    assert "a1" not in out and "a2" not in out


def test_damping_integral_reads_p_from_s0_on_only():
    # p = 1/(s-3)^3 is singular at s = 3, inside [(n-2) R^(n-2), s0) = [1, 2 pi),
    # where p is not given; for n = 3, r^2 g = r/(r-3)^3 = u^-2 + 3 u^-3 with
    # u = r - 3, whose antiderivative is -1/u - 3/(2 u^2)
    s0, T = S0_FIXED, 30.0
    problem = RadialProblem(n=3, R=1.0, p=parse("1/(s-3)^3"),
                            p_tail=TailModel("power", 3.0, 8.0))
    out = integral_conditions(problem, T)
    F = lambda r: -1.0 / (r - 3.0) - 1.5 / (r - 3.0) ** 2
    assert out["damping_radial_integral"] == pytest.approx(F(T) - F(s0), rel=1e-12)
    assert out["substitution_identity_gap"] <= 1e-12
    assert out["damping_converges"]


def test_a_ball_too_large_for_floats_is_rejected_not_overflowed():
    assert excluded_arc(4, 1e200) == math.inf
    assert excluded_arc(3, 7.0) == 7.0
    with pytest.raises(ValueError, match="beyond the excluded ball"):
        RadialProblem(n=4, R=1e200, p=parse("1/s^3")).validate()


@pytest.mark.parametrize("tail, converges", [
    (TailModel("power", 2.5, 1.0), True),
    (TailModel("power", 2.0, 1.0), False),
    (TailModel("exp", 1.0, 1.0), True),
    (TailModel("user", 3.0, bound_fn=lambda S: 1.0 / S**2), False),
])
def test_damping_certificate_is_the_first_moment_of_p_tail(problem, pair, tail, converges):
    problem = problem._replace(p_tail=tail)
    T = 120.0
    out = integral_conditions(problem, T, sup_q=(pair.q1.sup_bound, pair.q2.sup_bound))
    assert out["damping_converges"] is converges
    if converges:
        expected = tail.first_moment().tail_bound(beta_inverse(3, 1.0, T))
        assert out["damping_certificate"] == expected
    else:
        assert out["damping_certificate"] is None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_push_then_lift_returns_the_source(n):
    q = lambda s: np.sin(np.asarray(s)) ** 2 / np.asarray(s)
    a = push_a_from_q(q, n)
    s0 = S0_FIXED
    problem = RadialProblem(n=n, R=1.0, p=parse("1/s^3"),
                            p_tail=TailModel("power", 3.0, 1.0), a1=a, a2=a)
    q_back, _ = lift_coefficients(problem)
    s = np.linspace(s0, s0 + 60.0, 2001)
    ref = q(s)
    assert np.max(np.abs(q_back(s) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# the operator identity behind the bridge
#
# For v(r) and h(s) = s v(beta(s)) the two residuals are proportional:
#
#   Dv + g r v' + a(r)  =  [(n-2)^4 r^(2n-6) / s] (h'' + p (h' - h/s) + q/s)
#
# with p the given damping, g(r) = p(s) / (beta beta')(s) the radial damping
# derived from it, and q the lifted source.  The left side uses analytic
# radial derivatives, the right side finite differences in s, so agreement
# pins down every factor of the derivation and the lift.


def _identity_case(n, v, dv, d2v):
    R, s0 = 1.0, S0_FIXED
    p = parse("1/s^3")
    # (beta beta')(s) = r^(4-n) / (n-2)^2 at r = beta(s)
    g = lambda r: (n - 2) ** 2 * r ** (n - 4) * p(beta_inverse(n, R, r))
    a = lambda r: np.cos(np.asarray(r)) / np.asarray(r) ** 2
    problem = RadialProblem(n=n, R=R, p=p,
                            p_tail=TailModel("power", 3.0, 1.0), a1=a, a2=a)
    q, _ = lift_coefficients(problem)

    step = 1e-3
    s = s0 + step * np.arange(12001)
    r = beta_map(n, R, s)
    h = s * v(r)

    d2h = (h[:-2] - 2.0 * h[1:-1] + h[2:]) / step**2
    d1h = (h[2:] - h[:-2]) / (2.0 * step)
    si, ri = s[1:-1], r[1:-1]
    bracket = d2h + p(si) * (d1h - h[1:-1] / si) + q(si) / si

    lap = d2v(ri) + (n - 1) * dv(ri) / ri
    lhs = lap + g(ri) * ri * dv(ri) + a(ri)
    factor = (n - 2) ** 4 * ri ** (2 * n - 6) / si
    return lhs, factor * bracket


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transformation_identity_inverse_square(n):
    lhs, rhs = _identity_case(
        n,
        v=lambda r: r**-2.0,
        dv=lambda r: -2.0 * r**-3.0,
        d2v=lambda r: 6.0 * r**-4.0,
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transformation_identity_exponential(n):
    lhs, rhs = _identity_case(
        n,
        v=lambda r: np.exp(-r / 5.0),
        dv=lambda r: -np.exp(-r / 5.0) / 5.0,
        d2v=lambda r: np.exp(-r / 5.0) / 25.0,
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_transformation_identity_rational():
    lhs, rhs = _identity_case(
        5,
        v=lambda r: 1.0 / (1.0 + r),
        dv=lambda r: -1.0 / (1.0 + r) ** 2,
        d2v=lambda r: 2.0 / (1.0 + r) ** 3,
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


# ---------------------------------------------------------------------------
# barriers


def test_barriers_are_ordered_with_a_uniform_gap(pair, fine_barrier):
    assert fine_barrier.gap_min > 1.0
    assert fine_barrier.gap_max < 2.5
    assert np.all(fine_barrier.h2 > fine_barrier.h1)
    # the pair keeps no z; each member's kernel on the same grid has z <= 0
    for spec in (pair.q1, pair.q2):
        kernel = compute_kernel(spec.params.p, spec.q_callable, fine_barrier.grid)
        assert np.all(kernel.z_values <= 0.0)


def test_swapped_pair_is_rejected(pair):
    swapped = PairResult(q1=pair.q2, q2=pair.q1, chain_margins={},
                         min_margin=0.0, smallness_margin=0.0)
    grid = np.linspace(2 * PI, 12 * PI, 2001)
    with pytest.raises(ValueError):
        make_barriers(swapped, grid)


def test_parallel_barriers_match_serial(pair):
    grid = np.linspace(2 * PI, 12 * PI, 2001)
    serial = make_barriers(pair, grid)
    threaded = make_barriers(pair, grid, parallel=True)
    assert np.array_equal(serial.h1, threaded.h1)
    assert np.array_equal(serial.h2, threaded.h2)
    assert serial.h_tail == threaded.h_tail
    assert serial.z_sup_bound == threaded.z_sup_bound


def test_parallel_barriers_with_summaries_match_serial(pair, solver_barrier):
    # the solver grid's sup bounds stand in for the retired continuation summaries
    grid = np.linspace(solver_barrier.grid[0], solver_barrier.grid[-1], 8001)
    bounds = solver_barrier.z_sup_bound
    serial = make_barriers(pair, grid, z_sup_bounds=bounds)
    threaded = make_barriers(pair, grid, z_sup_bounds=bounds, parallel=True)
    assert serial.z_sup_bound == bounds and threaded.z_sup_bound == bounds
    for name in ("h1", "h2"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))
    assert serial.h_tail == threaded.h_tail
    assert serial.z_sup_bound == threaded.z_sup_bound


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("extend_to", [0.0, 2e4], ids=["no-continuation", "continuation"])
def test_barrier_kernels_are_the_standalone_kernels_bitwise(pair, parallel, extend_to):
    grid = np.linspace(2 * PI, 12 * PI, 2001)
    barrier = make_barriers(pair, grid, extend_to=extend_to, parallel=parallel)
    params = pair.q1.params
    # z is compared in test_kernel, on a kernel that shares its Damping
    for i, (spec, h) in enumerate(((pair.q1, barrier.h1), (pair.q2, barrier.h2))):
        alone = compute_kernel(params.p, spec.q_callable, grid, extend_to=extend_to)
        assert h.tobytes() == alone.h_values.tobytes()
        assert barrier.z_sup_bound[i] == alone.z_sup_observed
        assert barrier.h_tail[i] == alone.h_tail


# ---------------------------------------------------------------------------
# residual signs


def test_barrier_residual_signs_on_fine_grid(problem, fine_barrier):
    rep = subsuper_residual(problem, fine_barrier)
    assert rep.lower_ok
    assert rep.upper_ok
    assert rep.min_rho1 >= -1e-6
    assert rep.max_rho2 <= 1e-6
    assert rep.ribbon_excursion == 0.0


def test_barrier_residuals_live_at_every_fourth_node(problem, solver_barrier):
    rep = subsuper_residual(problem, solver_barrier)
    assert np.array_equal(rep.grid, solver_barrier.grid[4:-4:4])
    assert rep.rho1.shape == rep.rho2.shape == rep.grid.shape == (3999,)
    assert rep.min_rho1 == float(np.min(rep.rho1)) and rep.max_rho2 == float(np.max(rep.rho2))
    assert 0.0 < rep.rho1_estimate < 1e-8 and 0.0 < rep.rho2_estimate < 1e-8


def test_a_sign_holds_only_with_its_estimate_taken_against_it(problem, solver_barrier,
                                                              monkeypatch):
    from oscillax import pde_bridge

    rep = subsuper_residual(problem, solver_barrier)
    assert rep.lower_ok and rep.upper_ok
    operator = pde_bridge._extrapolated_operator

    def loose(*args):
        op, slope, _ = operator(*args)
        return op, slope, pde_bridge.SIGN_TOL

    monkeypatch.setattr(pde_bridge, "_extrapolated_operator", loose)
    worse = subsuper_residual(problem, solver_barrier)
    assert (worse.min_rho1, worse.max_rho2) == (rep.min_rho1, rep.max_rho2)
    assert worse.rho1_estimate == worse.rho2_estimate == pde_bridge.SIGN_TOL
    # min_rho1 < 0 < max_rho2, so SIGN_TOL of estimate takes each past its tolerance
    assert rep.min_rho1 < 0.0 < rep.max_rho2
    assert not worse.lower_ok and not worse.upper_ok


@pytest.mark.parametrize("n_points", [9, 13])
def test_barrier_residuals_name_a_grid_too_short_for_the_extrapolation(problem, pair,
                                                                       n_points):
    barrier = make_barriers(pair, np.linspace(2 * PI, 42 * PI, n_points))
    with pytest.raises(ValueError, match=f"at least 17 points, got {n_points}"):
        subsuper_residual(problem, barrier)


def test_subsuper_residual_pushes_each_ribbon_edge_once(problem, solver_barrier):
    calls = {"a1": 0, "a2": 0}

    def counted(name):
        edge = getattr(problem, name)

        def a(r):
            calls[name] += 1
            return edge(r)
        return a

    counting = problem._replace(a1=counted("a1"), a2=counted("a2"))
    rep = subsuper_residual(counting, solver_barrier)
    assert calls == {"a1": 1, "a2": 1}
    # a blend that pushes a1 and a2 itself gives the same residuals, bit for bit
    again = subsuper_residual(problem, solver_barrier,
                              f=lambda r, u: make_blend(problem, solver_barrier)(u))
    assert np.array_equal(rep.rho1, again.rho1)
    assert np.array_equal(rep.rho2, again.rho2)
    assert rep.ribbon_excursion == again.ribbon_excursion


def test_a_passed_ribbon_is_the_pushed_one(problem, solver_barrier):
    s = solver_barrier.grid[1:-1]
    r = beta_map(problem.n, problem.R, s)
    u = solver_barrier.h1[1:-1] / s
    ribbon = (problem.a1(r), problem.a2(r))
    assert np.array_equal(make_blend(problem, solver_barrier, ribbon=ribbon)(u),
                          make_blend(problem, solver_barrier)(u))


# ---------------------------------------------------------------------------
# one lobe pass for both ribbon edges


def test_the_lobe_pass_reads_each_member_as_its_q_callable(pair, rng):
    q1, q2 = pair.q1, pair.q2
    assert q1.extent == q2.extent
    nodes = PI * np.arange(2, int(q1.extent / PI))   # every lobe node of the table
    s = np.concatenate((rng.uniform(S0_FIXED, q1.extent, 3 * BLOCK + 5), nodes))
    both = np.empty((2, len(s)))
    _read_lobes(s, q1.extent, [q1.lobes, q2.lobes], both)
    assert np.array_equal(both[0], q1.q_callable(s))
    assert np.array_equal(both[1], q2.q_callable(s))
    one = np.empty(len(s))
    _read_lobes(s, q1.extent, [q2.lobes], [one])
    assert np.array_equal(one, both[1])


def _pushed_problem(pair, n, a1=None, a2=None):
    return RadialProblem(n=n, R=1.0, p=parse("1/s^3"), p_tail=TailModel("power", 3.0, 1.0),
                         a1=a1 or push_a_from_q(pair.q1.q_callable, n),
                         a2=a2 or push_a_from_q(pair.q2.q_callable, n))


def _counting_lobe_pass(monkeypatch):
    calls = []

    def counted(s, *args):
        calls.append(len(s))
        return _read_lobes(s, *args)

    monkeypatch.setattr(pde_bridge, "_read_lobes", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4])
def test_the_ribbon_reads_both_pushes_in_one_lobe_pass(pair, n, monkeypatch):
    problem = _pushed_problem(pair, n)
    r = beta_map(n, 1.0, np.linspace(2 * PI, 42 * PI, 2 * BLOCK + 9)[1:-1])
    calls = _counting_lobe_pass(monkeypatch)
    lo, hi = pde_bridge._ribbon(problem, r)
    assert calls == [BLOCK, BLOCK, 7]   # one pass per block, for both edges
    assert np.array_equal(lo, problem.a1(r))
    assert np.array_equal(hi, problem.a2(r))
    assert len(calls) == 3               # the edges called alone take no pair pass


@pytest.mark.parametrize("n", [3, 4])
def test_the_ribbon_refuses_an_s_outside_the_families_with_q_callables_message(pair, n):
    problem = _pushed_problem(pair, n)
    r = beta_map(n, 1.0, np.array([S0_FIXED + 1.0, pair.q1.extent + 1.0]))
    with pytest.raises(ValueError, match="family is defined on") as alone:
        problem.a1(r)
    with pytest.raises(ValueError) as paired:
        pde_bridge._ribbon(problem, r)
    assert str(paired.value) == str(alone.value)


@pytest.mark.parametrize("edges", ["plain", "other-family", "other-n"])
def test_edges_that_are_not_pushes_of_one_pair_are_called_one_by_one(pair, edges, monkeypatch):
    n = 3
    other = build_oscillation(extent=500.0)   # a table of another extent
    a2 = {"plain": lambda r: np.asarray(pair.q2.q_callable(r), dtype=float) / r**2,
          "other-family": push_a_from_q(other.q_callable, n),
          "other-n": push_a_from_q(pair.q2.q_callable, 4)}[edges]
    problem = _pushed_problem(pair, n, a2=a2)
    r = np.linspace(2 * PI, 20 * PI, 1001)[1:-1]
    calls = _counting_lobe_pass(monkeypatch)
    lo, hi = pde_bridge._ribbon(problem, r)
    assert calls == []
    assert np.array_equal(lo, problem.a1(r))
    assert np.array_equal(hi, problem.a2(r))


def _traces(barrier):
    """The interior nodes s of the barrier grid, and v1 = h1/s, v2 = h2/s there."""
    s = barrier.grid[1:-1]
    return s, barrier.h1[1:-1] / s, barrier.h2[1:-1] / s


def test_blend_stays_inside_the_ribbon(problem, fine_barrier):
    s, v1, v2 = _traces(fine_barrier)
    r = beta_map(problem.n, problem.R, s)
    f = make_blend(problem, fine_barrier)
    lo, hi = problem.a1(r), problem.a2(r)
    for u in (v1, v2, 0.5 * (v1 + v2)):
        vals = f(u)
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)
    # nondecreasing in u across the ribbon
    assert np.all(f(v2) >= f(v1))


def _reference_blend(problem, barrier, u):
    """f(r, u) of the tanh blend at the interior nodes of the barrier grid, in one piece."""
    s, v1, v2 = _traces(barrier)
    r = beta_map(problem.n, problem.R, s)
    lo = np.asarray(problem.a1(r), dtype=float)
    hi = np.asarray(problem.a2(r), dtype=float)
    mid = 0.5 * (v1 + v2)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.tanh(4.0 * (u - mid) / (v2 - v1))


def test_bound_blend_equals_the_reference_formula_bitwise(problem, fine_barrier):
    s, v1, v2 = _traces(fine_barrier)
    blend = make_blend(problem, fine_barrier)
    gap = v2 - v1
    # inside the ribbon, on its edges, and a full gap outside either edge
    for u in (v1, v2, v1 + 0.3 * gap, v1 - gap, v2 + gap, np.zeros_like(s)):
        assert np.array_equal(blend(u), _reference_blend(problem, fine_barrier, u))


def test_bound_blend_takes_a_scalar_u_with_the_same_bits(problem, fine_barrier):
    s, v1, _ = _traces(fine_barrier)
    blend = make_blend(problem, fine_barrier)
    for u in (0.0, float(v1[1000]), -1e-3):
        got = blend(u)
        assert got.shape == s.shape
        assert np.array_equal(got, _reference_blend(problem, fine_barrier, u))
        assert np.array_equal(got, blend(np.full_like(s, u)))


def test_degenerate_ribbon_is_raised_when_binding(problem, fine_barrier):
    touching = fine_barrier._replace(h2=fine_barrier.h1)
    with pytest.raises(ValueError, match="degenerate ribbon"):
        make_blend(problem, touching)


def test_a_user_nonlinearity_enters_through_f(problem, fine_barrier, solver_barrier):
    # f(r, u) is called with the radii of the interior nodes; left out, it is
    # the stock blend bound there
    r_i = beta_map(problem.n, problem.R, fine_barrier.grid[1:-1])
    seen = []

    def blend(r_arg, u_arg):
        seen.append(r_arg)
        return make_blend(problem, fine_barrier)(u_arg)

    given = subsuper_residual(problem, fine_barrier, f=blend)
    stock = subsuper_residual(problem, fine_barrier)
    assert len(seen) == 2 and all(np.array_equal(x, r_i) for x in seen)
    for name in ("rho1", "rho2"):
        assert np.array_equal(getattr(given, name), getattr(stock, name))
    lower = subsuper_residual(
        problem, fine_barrier, f=lambda r, u: np.asarray(problem.a1(r), dtype=float) + 0.0 * u)
    assert not np.array_equal(lower.rho2, stock.rho2)

    # a user f rising in u samples a shift of exactly 0: the stock blend, read at
    # the nodes whose radii it is given, whether all of them or the shift's stride
    stock_blend = make_blend(problem, solver_barrier)
    r_nodes = beta_map(problem.n, problem.R, solver_barrier.grid[1:-1])
    lengths = []

    def rising(r, u):
        at = np.searchsorted(r_nodes, r)
        assert np.array_equal(r_nodes[at], r)
        lengths.append(len(at))
        full = np.zeros_like(r_nodes)
        full[at] = u
        return stock_blend(full)[at]

    own = solve_radial(problem, solver_barrier, f=rising)
    assert min(lengths) < len(r_nodes)  # the shift was sampled
    assert own.K_used == 0.0
    assert np.array_equal(own.u_values, solve_radial(problem, solver_barrier).u_values)


def test_ribbon_escape_is_a_hard_error(problem, fine_barrier):
    bad = lambda r, u: np.asarray(problem.a2(r)) + 1.0
    with pytest.raises(ValueError, match="ribbon"):
        subsuper_residual(problem, fine_barrier, f=bad)


# ---------------------------------------------------------------------------
# integral conditions in the radial variable


def test_integral_conditions_on_the_stock_problem(problem, pair):
    T = 120.0
    out = integral_conditions(problem, T,
                              sup_q=(pair.q1.sup_bound, pair.q2.sup_bound))
    assert out["damping_converges"]
    assert out["substitution_identity_gap"] <= 1e-8
    for label in ("a1", "a2"):
        block = out[label]
        assert block["diverges"]
        assert block["growth_slope_vs_logT"] > 0.2
        assert block["converges"]
        assert block["cauchy_gap"] <= block["gap_bound"]
        assert block["sup_q_source"] == "certified"
    # a verdict never rests on a sampled sup|q|
    with pytest.raises(ValueError, match="sup_q"):
        integral_conditions(problem, T)


def test_truncation_radius_must_clear_the_hole(problem):
    with pytest.raises(ValueError):
        integral_conditions(problem, 2.0)
