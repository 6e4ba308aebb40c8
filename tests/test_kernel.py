import ast
import inspect
import math
import subprocess
import sys

import numpy as np
import pytest

from oscillax import (
    OscillationParams,
    TailModel,
    compute_kernel,
    compute_z,
    ode_residual,
    parse,
    z_ode_oracle,
)
from oscillax import kernel
from oscillax.quadrature import cumulative_simpson_doubled, equation_grid

PI = math.pi


def _zero(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def _one(s):
    return np.ones_like(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# z on closed forms


def test_z_vanishes_for_zero_source():
    grid = np.linspace(2 * PI, 6 * PI, 401)
    z = compute_z(lambda s: 1.0 / np.asarray(s) ** 3, _zero, grid)
    assert np.max(np.abs(z)) == 0.0


def test_z_linear_for_unit_source_without_damping():
    grid = np.linspace(2 * PI, 6 * PI, 401)
    z = compute_z(_zero, _one, grid)
    assert np.max(np.abs(z + (grid - grid[0]))) <= 1e-12


def test_z_exponential_damping_closed_form():
    # p = 1, q = 1: z(s) = -(1 - exp(-(s - s0)))
    grid = np.linspace(0.0, 4.0, 801)
    z = compute_z(_one, _one, grid)
    exact = -(1.0 - np.exp(-grid))
    assert np.max(np.abs(z - exact)) <= 1e-12


def test_z_scales_linearly_with_the_source():
    params = OscillationParams()
    grid = np.linspace(2 * PI, 10 * PI, 1601)
    q = lambda s: np.sin(np.asarray(s)) ** 2
    z1 = compute_z(params.p, q, grid)
    z3 = compute_z(params.p, lambda s: 3.0 * q(s), grid)
    assert np.max(np.abs(z3 - 3.0 * z1)) <= 1e-12 * np.max(np.abs(z3))


def test_z_requires_uniform_grid():
    with pytest.raises(ValueError):
        compute_z(_zero, _one, np.array([0.0, 0.1, 0.3, 0.35]))
    grid = np.linspace(2 * PI, 6 * PI, 401)
    with pytest.raises(ValueError, match="kernel grids must be uniform and increasing"):
        compute_kernel(_zero, _one, grid[::-1])


# ---------------------------------------------------------------------------
# independent oracle


def test_rk_oracle_agrees_on_the_default_family(family, family_kernel):
    params = OscillationParams()
    grid = family_kernel.grid
    oracle = z_ode_oracle(params.p, family.q_callable, grid)
    assert np.max(np.abs(oracle - family_kernel.z_values)) <= 1e-6


def test_rk_oracle_on_closed_form():
    grid = np.linspace(0.0, 4.0, 201)
    oracle = z_ode_oracle(_one, _one, grid)
    exact = -(1.0 - np.exp(-grid))
    assert np.max(np.abs(oracle - exact)) <= 1e-8


@pytest.mark.parametrize("grid", [np.linspace(2 * PI, 42 * PI, 8193),
                                  np.linspace(2 * PI, 42 * PI + 0.02, 16001)],
                         ids=["N8193", "span-40pi+0.02"])
def test_z_matches_a_tight_oracle_where_no_multiple_of_pi_is_a_node(family, grid):
    # every cell is reached at its own points, and on the second grid the last cell
    # runs past the grid end
    p = OscillationParams().p
    oracle = z_ode_oracle(p, family.q_callable, grid, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(compute_z(p, family.q_callable, grid) - oracle)) <= 1e-9


# ---------------------------------------------------------------------------
# h from z


def test_constant_z_gives_constant_h():
    # p = q = 10: z = -(1 - exp(-10 (s - s0))) is -1 past s0 + 4 to the last bit,
    # so J(s) = -1/s and h = 1 there; P changes by 10 pi over a pi-cell, so the
    # cells are bisected until exp(P) is resolved
    ten = lambda s: np.full(np.shape(s), 10.0)
    grid = np.linspace(2 * PI, 20 * PI, 2001)
    kern = compute_kernel(ten, ten, grid, extend_to=0.0)
    info = kern.h_tail
    assert np.max(np.abs(kern.h_values[grid >= grid[0] + 4.0] - 1.0)) <= 1e-12
    assert info.value == pytest.approx(-1.0 / grid[-1], rel=1e-12)
    assert info.certificate >= abs(info.value) * (1.0 - 1e-12)


def test_h_matches_its_closed_form_for_unit_p_and_q():
    # z = -(1 - exp(-(s - s0))), so h(s) = 1 - exp(-(s - s0)) + s exp(s0) E1(s)
    from scipy.special import exp1

    grid = np.linspace(2 * PI, 20 * PI, 2001)
    kern = compute_kernel(_one, _one, grid, extend_to=0.0)
    exact = 1.0 - np.exp(-(grid - grid[0])) + grid * np.exp(grid[0]) * exp1(grid)
    assert np.max(np.abs(kern.h_values - exact)) <= 1e-13


def test_h_scales_linearly_with_z():
    p = OscillationParams().p
    q = lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    grid = np.linspace(2 * PI, 20 * PI, 2001)
    h1 = compute_kernel(p, q, grid, extend_to=400.0).h_values
    h3 = compute_kernel(p, lambda s: 3.0 * q(s), grid, extend_to=400.0).h_values
    assert np.max(np.abs(h3 - 3.0 * h1)) <= 1e-11 * np.max(np.abs(h3))


def test_h_extension_must_start_at_grid_end():
    # the continuation runs an even number of extend_step/2 steps from the grid end
    grid = np.linspace(2 * PI, 4 * PI + 0.1, 201)
    kern = compute_kernel(_zero, _one, grid, extend_to=8 * PI, extend_step=PI / 40)
    steps = (kern.h_tail.cutoff - grid[-1]) / (PI / 80)
    assert steps == pytest.approx(round(steps), abs=1e-9) and round(steps) % 2 == 0
    assert 8 * PI <= kern.h_tail.cutoff < 8 * PI + PI / 40


def test_h_extension_must_be_built_for_z_at_the_grid_end():
    # the continuation carries on the grid's own z: a kernel on a grid that runs
    # through it, with the window on its nodes, has the same h at the grid end
    p, q = OscillationParams().p, lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    grid = np.linspace(2 * PI, 4 * PI, 201)
    kern = compute_kernel(p, q, grid, extend_to=8 * PI, extend_step=PI / 40)
    cutoff = kern.h_tail.cutoff
    through = np.linspace(2 * PI, cutoff, 1 + round((cutoff - 2 * PI) / (PI / 80)))
    whole = compute_kernel(p, q, through, extend_to=0.0)
    assert whole.h_tail.cutoff == cutoff
    assert whole.h_tail.value == pytest.approx(kern.h_tail.value, rel=1e-12)
    assert whole.h_values[160] == pytest.approx(kern.h_values[-1], rel=1e-12)
    assert whole.z_values[160] == pytest.approx(kern.z_values[-1], rel=1e-12)


def test_kernels_match_a_four_times_finer_build_at_every_node(family):
    # the nodes are read off the same cells whatever the grid, odd or even
    p = OscillationParams().p
    grid = equation_grid(2 * PI, 40 * PI)
    finer = np.linspace(grid[0], grid[-1], 4 * (len(grid) - 1) + 1)
    kern = compute_kernel(p, family.q_callable, grid, extend_to=0.0)
    fine = compute_kernel(p, family.q_callable, finer, extend_to=0.0)
    assert np.max(np.abs(kern.z_values - fine.z_values[::4])) <= 1e-11
    assert np.max(np.abs(kern.h_values - fine.h_values[::4])) <= 1e-11


# ---------------------------------------------------------------------------
# assembled kernel on the default family


def test_family_kernel_shapes_and_flags(family_kernel):
    k = family_kernel
    assert k.grid.shape == k.z_values.shape == k.h_values.shape
    assert not k.z_values.flags.writeable
    assert not k.h_values.flags.writeable
    assert k.z_values[0] == 0.0
    assert k.z_sup_observed > 1.5


def test_family_kernel_h_anchor(family_kernel):
    # regression anchors for the default family at s0 = 2 pi
    assert family_kernel.h_values[0] == pytest.approx(0.7868626130946933, abs=2e-6)
    assert np.max(family_kernel.h_values) == pytest.approx(0.9334929394451612, abs=2e-6)
    assert np.min(family_kernel.h_values) > 0.75
    ratio = family_kernel.h_over_s()
    assert np.all(np.diff(ratio) < 0.0)


def test_family_kernel_tail_accounting(family_kernel):
    t = family_kernel.h_tail
    assert t.cutoff >= 1.9e4
    assert abs(t.value) <= t.certificate
    assert t.uncertainty < 1e-7


def test_ode_residual_small_on_fine_grid(family):
    params = OscillationParams()
    span = 40 * PI
    n_cells = int(round(span / (PI / 400)))
    n_cells += n_cells % 2
    grid = np.linspace(2 * PI, 2 * PI + span, n_cells + 1)
    kern = compute_kernel(params.p, family.q_callable, grid)
    resid = ode_residual(kern.h_values, params.p, family.q_callable, grid,
                         z_values=kern.z_values)
    assert resid["sup"] <= 1e-4
    assert resid["identity_sup"] <= 1e-4
    span = grid[-1] - grid[0]
    assert resid["l2"] <= resid["sup"] * math.sqrt(span)


def test_the_extrapolated_residual_falls_at_fourth_order_on_a_smooth_q():
    # a smooth q with no lobe joins: R = (4 rho_2 - rho_4)/3 loses its step^2 term,
    # so it falls about 16 times when the grid halves (15.9 and 15.7 here)
    p, q = OscillationParams().p, parse("0.3 + 0.2*cos(s)")
    sups = []
    for n_points in (1001, 2001, 4001):
        grid = np.linspace(2 * PI, 42 * PI, n_points)
        kern = compute_kernel(p, q, grid, extend_to=0.0)
        resid = ode_residual(kern.h_values, p, q, grid, z_values=kern.z_values)
        assert resid["n_interior"] == (n_points - 1) // 4 - 1
        sups.append(resid["sup"])
    assert sups[0] >= 10.0 * sups[1] >= 100.0 * sups[2]


@pytest.mark.parametrize("span, n_points, end", [
    (40 * PI, 16001, 42 * PI),            # the stock span: the stock solver grid
    (20 * PI, 8001, 22 * PI),
    (40 * PI + 0.02, 16001, 42 * PI),     # past a whole number of pi/100: cut back to one
    (10.0, 1273, 2 * PI + 3.18 * PI),
    (0.1, 17, 2 * PI + 0.1),              # no join inside: 17 points
])
def test_the_equation_grid_puts_every_lobe_join_on_every_fourth_node(span, n_points, end):
    grid = equation_grid(2 * PI, span)
    assert len(grid) == n_points and grid[0] == 2 * PI
    assert grid[-1] == pytest.approx(end, rel=1e-14)
    assert np.ptp(np.diff(grid)) <= 1e-9
    if n_points > 17:
        assert grid[1] - grid[0] == pytest.approx(PI / 400, rel=1e-9)
        joins = PI * np.arange(2, int(grid[-1] / PI + 1e-9) + 1)
        at = np.rint((joins - 2 * PI) / (PI / 100)).astype(int)
        assert np.max(np.abs(grid[::4][at] - joins)) <= 1e-12 * grid[-1]
    if span == 40 * PI:
        assert np.array_equal(grid, np.linspace(2 * PI, 2 * PI + span, 16001))


@pytest.mark.parametrize("n_points", [3, 9, 16])
def test_the_extrapolated_residual_names_a_grid_too_short_for_it(n_points):
    grid = np.linspace(2 * PI, 4 * PI, n_points)
    with pytest.raises(ValueError, match=f"at least 17 points, got {n_points}"):
        ode_residual(np.ones(n_points), _one, _zero, grid)
    assert ode_residual(np.ones(17), _zero, _zero, np.linspace(2 * PI, 4 * PI, 17))["sup"] == 0.0


def test_kernel_lambda_matches_closed_form(family):
    # the family is the one source of lambda; the kernel no longer integrates p
    exact = 1.0 / (8.0 * PI**2)
    assert abs(family.lam - exact) <= family.lam_error + 1e-12
    assert family.lam_error <= 1e-9


def test_a_proof_bound_recertifies_the_same_kernel(family, family_kernel):
    params = OscillationParams()
    again = compute_kernel(params.p, family.q_callable, family_kernel.grid)
    bounded = again.with_sup_bound(1.75)
    assert bounded.z_values is again.z_values and bounded.h_values is again.h_values
    assert again.z_values.tobytes() == family_kernel.z_values.tobytes()
    assert again.h_values.tobytes() == family_kernel.h_values.tobytes()
    tail = TailModel("power", 2.0, 1.75)
    assert "tail" not in bounded._fields and bounded.z_sup_bound == tail.coef == 1.75
    for name in ("value", "uncertainty", "cutoff"):
        assert getattr(bounded.h_tail, name) == getattr(family_kernel.h_tail, name)
    assert bounded.h_tail.certificate == tail.tail_bound(family_kernel.h_tail.cutoff)
    assert family_kernel.z_sup_bound == family_kernel.z_sup_observed


# ---------------------------------------------------------------------------
# the continuation of z past the grid end


def test_far_field_holds_no_continuation_length_array(family_kernel):
    # the kernel keeps arrays of the grid's length only, whatever its continuation's
    k = family_kernel
    continuation = (k.h_tail.cutoff - k.grid[-1]) / (0.5 * PI / 80)
    assert continuation > 1e6
    arrays = [v for v in k._asdict().values() if isinstance(v, np.ndarray)]
    assert sum(a.size for a in arrays) == 3 * len(k.grid) == 3 * 8001


@pytest.mark.parametrize("shared, copying", [
    (parse("s"), lambda s: np.array(s)),
    (lambda s: np.broadcast_to(0.3, np.shape(s)), lambda s: np.full(np.shape(s), 0.3)),
])
def test_far_field_leaves_what_q_returns_untouched(shared, copying):
    # q may hand back its input or a read-only array; the build must not write into it
    grid = np.linspace(8 * PI, 10 * PI, 201)
    a = compute_kernel(parse("1/s^3"), shared, grid, extend_to=400.0)
    b = compute_kernel(parse("1/s^3"), copying, grid, extend_to=400.0)
    assert a.h_tail == b.h_tail and a.z_sup_observed == b.z_sup_observed
    for name in ("z_values", "h_values"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _sin2_kernel():
    """A kernel from 8 pi whose |z| grows to the end of its continuation."""
    p, q = parse("1/s^3"), lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    grid = np.linspace(8 * PI, 10 * PI, 401)
    return p, q, grid, compute_kernel(p, q, grid, extend_to=400.0)


def test_far_field_sup_is_exact_within_its_radius():
    # sup|z| is the max over every point the build samples: the cell nodes, the grid
    # nodes and each cell's uniform subdivision, here formed cell by cell
    p, q, grid, kern = _sin2_kernel()
    cells, _, z_nodes = kernel._Cells.build(p, q, grid[0], kern.h_tail.cutoff)
    counts = kernel._subdivisions(cells.hi - cells.lo, PI / 160)
    assert np.all((cells.hi - cells.lo) / counts <= (1 + 1e-12) * PI / 160)
    values = [np.abs(z_nodes).ravel(), np.abs(kern.z_values)]
    for cell, n in enumerate(counts):
        Q = kernel._antiderivative(-1.0 + 2.0 * np.arange(1, n) / n)
        k = slice(cell, cell + 1)
        values.append(np.abs(cells._from_left(kernel._product(cells.dz[k], Q), cells.z0, k)).ravel())
    assert kern.z_sup_observed == pytest.approx(np.max(np.concatenate(values)), rel=1e-13)


@pytest.mark.parametrize("case", ["default family", "sin^2 - 0.4"])
def test_the_sup_screen_keeps_the_bits_of_the_full_block_screen(family, case):
    # on the subdivisions sup|z| scales the row extremes of each block's product
    # instead of forming z there; it keeps the bits of the max of z formed in full
    if case == "default family":
        p, q = OscillationParams().p, family.q_callable
        grid = np.linspace(2 * PI, 42 * PI, 8001)
        kern = compute_kernel(p, q, grid)
    else:
        p, q, grid, kern = _sin2_kernel()
    cells, _, z_nodes = kernel._Cells.build(p, q, grid[0], kern.h_tail.cutoff)
    z = np.abs(z_nodes)
    z[:-1, -1] = -np.inf
    z_max = max(float(np.max(z)), float(np.max(np.abs(kern.z_values))))
    counts = kernel._subdivisions(cells.hi - cells.lo, PI / 160)
    for n in np.unique(counts[counts > 1]):
        Q = kernel._antiderivative(-1.0 + 2.0 * np.arange(1, n) / n)
        group = np.flatnonzero(counts == n)
        for b in range(0, len(group), kernel._BLOCK):
            block = group[b:b + kernel._BLOCK]
            full = cells._from_left(kernel._product(cells.dz[block], Q), cells.z0, block)
            z_max = max(z_max, float(np.max(np.abs(full))))
    assert kern.z_sup_observed == z_max


def test_a_whole_pi_cell_is_subdivided_like_the_uniform_sweep():
    widths = np.array([PI, math.nextafter(PI, 4.0), math.nextafter(PI, 3.0), 0.5 * PI, 1e-3])
    assert list(kernel._subdivisions(widths, PI / 160)) == [160, 160, 160, 80, 1]


def _simpson_total(f, u):
    dt = 2.0 * (u[1] - u[0])
    return dt / 6.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1::2]) + 2.0 * np.sum(f[2:-1:2]))


def _assert_matches_half_step_simpson(kern, p, q, rtol=1e-11):
    """The continuation's share of h at the grid end, the tail value and sup|z| against
    Simpson at step extend_step/4, for a kernel built with extend_step = pi/80.

    The reference continues z from the grid end, where it is x0 = the kernel's
    z: the totals A of E/t^2 and B of D/t^2, and E and E C on the trailing
    window, are each held to ``rtol``, so the integral x0 A - B of z/t^2 over
    the continuation and the window mean are held to ``rtol`` of the sums of
    their terms' sizes.  sup|z| is held against the reference's and the grid's.

    Inside a lobe a cumulative Simpson value is itself off by about
    h^4 max|q'''| / 180, 2e-10 at this step, so the window is referenced by a
    sweep 64 times finer that starts from the reference at the last multiple
    of pi before it, where q''' of a sin^2 lobe vanishes.  Each sweep runs on
    offsets from its first point: far out, the difference of two abscissae
    would carry the rounding of both into the step.
    """
    start, end, x0 = float(kern.grid[-1]), kern.h_tail.cutoff, float(kern.z_values[-1])
    step = PI / 320
    offsets = step * np.arange(round((end - start) / step) + 1)
    u = start + offsets
    assert u[-1] == end
    P = cumulative_simpson_doubled(offsets, p(u))
    C = cumulative_simpson_doubled(offsets, q(u) * np.exp(P))
    E = np.exp(-P)
    D = E * C
    u2 = u * u
    A, B = _simpson_total(E / u2, u), _simpson_total(D / u2, u)
    beyond = -kern.h_values[-1] / start - kern.h_tail.value   # h = -s (beyond + tail) there
    assert abs(beyond - (x0 * A - B)) <= rtol * (abs(x0 * A) + abs(B))
    full = max(np.max(np.abs(E * x0 - D)), np.max(np.abs(kern.z_values)))
    assert kern.z_sup_observed == pytest.approx(full, rel=rtol, abs=0.0)

    # the window: the points start + j pi/160 in the last TAIL_WINDOW of the continuation
    half = PI / 160
    n_steps = round((end - start) / half)
    window_u = np.arange(n_steps - int(kernel.TAIL_WINDOW / half) - 2, n_steps + 1) * half + start
    window_u = window_u[kernel._window_start(window_u, kernel.TAIL_WINDOW):]
    a = int(np.argmin(np.abs(u - PI * math.floor(window_u[0] / PI))))
    fine = step / 64
    offsets = fine * np.arange(64 * (len(u) - 1 - a) + 1)
    v = u[a] + offsets
    Pv = P[a] + cumulative_simpson_doubled(offsets, p(v))
    Cv = C[a] + cumulative_simpson_doubled(offsets, q(v) * np.exp(Pv))
    at = np.rint((window_u - v[0]) / fine).astype(int)
    assert np.max(np.abs(v[at] - window_u)) <= 1e-9
    Ev = np.exp(-Pv[at])
    Dv = Ev * Cv[at]
    zbar, _ = kernel._window_mean_tail(window_u, Ev * x0 - Dv, kernel.TAIL_WINDOW)
    scale = abs(x0) * np.max(np.abs(Ev)) + np.max(np.abs(Dv))
    assert abs(kern.h_tail.value - zbar / end) <= rtol * scale / end


@pytest.mark.parametrize("member", ["family", "q1", "q2"])
def test_far_field_matches_a_half_step_simpson_reference(family, pair, member):
    params = OscillationParams()
    q = {"family": family, "q1": pair.q1, "q2": pair.q2}[member].q_callable
    grid = np.linspace(2 * PI, 42 * PI, 8001)
    kern = compute_kernel(params.p, q, grid, extend_to=2e4, extend_step=PI / 80)
    _assert_matches_half_step_simpson(kern, params.p, q)


def test_node_rounding_does_not_pile_up_over_the_continuation():
    # with p = 0 and q = -cos(2s)/2, z = -C = (sin 2s - sin 2 s0)/4 exactly; every
    # cell sees the same lobe, so a rounding pattern of the nodes that repeats from
    # cell to cell would add up over the 6 300 cells (to 2.4e-9)
    q = lambda s: -0.5 * np.cos(2.0 * np.asarray(s))
    grid = np.linspace(42 * PI, 2e4, 200001)
    exact = (np.sin(2.0 * grid) - math.sin(2.0 * grid[0])) / 4.0
    assert np.max(np.abs(compute_z(_zero, q, grid) - exact)) <= 1e-10


def test_a_kink_inside_a_cell_is_bisected_and_still_resolved():
    # the break sits on a panel edge of the Simpson reference, at a
    # non-dyadic fraction of its pi-cell, so bisection never lands on it
    start = 8 * PI
    kink = start + 213 * PI / 160

    def expr(s):
        s = np.asarray(s, dtype=float)
        return np.sin(s) ** 2 - 0.4 + np.where(s < kink, 0.2 * (s - kink), 0.0)

    calls = []

    def q(s):
        calls.append(np.size(s))
        return expr(s)

    p = parse("1/s^3")
    kern = compute_kernel(p, q, np.linspace(start, start + PI, 201), extend_to=400.0,
                          extend_step=PI / 80)
    assert len(calls) > 10                     # the first sample, then bisection rounds
    assert sum(calls[1:]) < calls[0]           # only the kink's cells were resampled
    _assert_matches_half_step_simpson(kern, p, expr)


def test_a_jump_inside_a_cell_fails_the_self_check_clearly():
    start = 8 * PI
    q = lambda s: np.where(np.asarray(s) < start + 1.3 * PI, 0.1, 0.3)
    message = r"not smooth enough on \[.*\] after 30 bisections"
    with pytest.raises(ValueError, match=message) as err:
        compute_kernel(parse("1/s^3"), q, np.linspace(start, start + PI, 201), extend_to=400.0)
    assert "np.float64" not in str(err.value)


def test_a_jump_inside_the_grid_is_refused_by_the_self_check():
    # the cells cover the grid too, so a q with a jump there is refused, not smoothed
    q = lambda s: np.where(np.asarray(s) < 2 * PI + 1.3 * PI, 0.1, 0.3)
    grid = np.linspace(2 * PI, 6 * PI, 401)
    with pytest.raises(ValueError, match=r"p or q is not smooth enough on \[10\.36\d*, 10\.36\d*\] "
                                         r"after 30 bisections"):
        compute_kernel(parse("1/s^3"), q, grid, extend_to=0.0)


def test_non_finite_coefficients_on_the_continuation_are_rejected():
    q = lambda s: np.where(np.asarray(s) > 100.0, np.nan, 0.5)
    with pytest.raises(ValueError, match=r"coefficient q is not finite on \[25\.13\d*, 400\.\d*\]"):
        compute_kernel(parse("1/s^3"), q, np.linspace(8 * PI, 10 * PI, 201), extend_to=400.0)


def test_a_damping_refuses_a_p_that_is_not_finite_on_the_grid():
    grid = np.linspace(2 * PI, 6 * PI, 401)
    p = lambda s: np.where(np.asarray(s) > 4 * PI, np.inf, 0.0)
    with pytest.raises(ValueError, match=r"coefficient p is not finite on \[6\.28\d*, 18\.84\d*\]"):
        compute_kernel(p, _one, grid, extend_to=0.0)


def test_a_continuation_must_end_past_its_start():
    # extend_to at or before the grid end asks for none: the window is the grid's own
    grid = np.linspace(8 * PI, 10 * PI, 201)
    for extend_to in (0.0, 10 * PI):
        kern = compute_kernel(parse("1/s^3"), _one, grid, extend_to=extend_to)
        assert kern.h_tail.cutoff == grid[-1] == 10 * PI
    kern = compute_kernel(parse("1/s^3"), _one, grid, extend_to=math.nextafter(10 * PI, 40.0))
    assert kern.h_tail.cutoff == 10 * PI + PI / 80


def test_a_family_built_short_of_the_continuation_end_is_named_at_its_start():
    from oscillax import build_oscillation

    spec = build_oscillation(OscillationParams(m_max=5), extent=300.0)
    with pytest.raises(ValueError, match=r"z reaches extend_to = 1000\.0: family is "
                                         r"defined on \[s0, "):
        compute_kernel(parse("1/s^3"), spec.q_callable, np.linspace(8 * PI, 10 * PI, 201),
                       extend_to=1000.0)


def test_a_scalar_coefficient_is_broadcast_to_the_nodes():
    grid = np.linspace(8 * PI, 10 * PI, 201)
    a = compute_kernel(parse("1/s^3"), lambda s: 0.3, grid, extend_to=400.0)
    b = compute_kernel(parse("1/s^3"), lambda s: np.full(np.shape(s), 0.3), grid, extend_to=400.0)
    assert (a.h_tail, a.z_sup_observed) == (b.h_tail, b.z_sup_observed)
    assert np.array_equal(a.z_values, b.z_values) and np.array_equal(a.h_values, b.h_values)


def test_import_and_a_pipeline_run_load_no_scipy(package_env, tmp_path):
    # scipy is left to the z_ode_oracle cross-check; no CLI mode may load it,
    # nor numpy.ma, which costs a cold run 14-20 ms of imports
    config = tmp_path / "small.json"
    config.write_text('{"solver": {"N": 4001}, "oscillation": {"m_max": 10}}',
                      encoding="utf-8")
    probe = (
        "import sys\n"
        "def loaded(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import oscillax\n"
        "print(loaded())\n"
        "from oscillax.cli_report import main\n"
        "code = main(['full-pipeline', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, loaded(), 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(config), str(tmp_path / "out")],
                         capture_output=True, text=True, check=True,
                         env=package_env).stdout.splitlines()
    assert out[0] == "[]"
    assert out[-1] == "0 [] False"


# ---------------------------------------------------------------------------
# products of the cell rule


def test_every_product_of_the_cell_rule_goes_through_one_helper():
    # kernel.py multiplies matrices in _product alone, so its guard bounds them all
    tree = ast.parse(inspect.getsource(kernel))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_product")
    inside = {id(node) for node in ast.walk(helper)}
    products = [node for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Attribute)
                and node.attr in ("dot", "matmul", "einsum", "inner", "tensordot", "vdot")]
    assert products and all(id(node) in inside for node in products)


@pytest.mark.parametrize("shape", ["solve-fine", "stock continuation"])
def test_no_product_of_the_cell_rule_exceeds_one_blas_thread(pair, monkeypatch, shape):
    # OpenBLAS runs a product of at most 2^18 multiply-adds on one thread; a larger
    # one may wake its thread pool, which has taken 16 ms for a 0.2 ms product
    if shape == "solve-fine":       # 40 pi-cells of 6 400 steps
        grid, extend_to = np.linspace(2 * PI, 42 * PI, 256001), 0.0
    else:                           # about 6 364 cells
        grid, extend_to = equation_grid(2 * PI, 40 * PI), 2e4
    sizes, matmul = [], np.matmul

    def recording(a, b, out=None):
        sizes.append(a.shape[0] * a.shape[1] * (b.shape[1] if b.ndim == 2 else 1))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    compute_kernel(pair.q1.params.p, pair.q1.q_callable, grid, extend_to=extend_to)
    assert len(sizes) > 10 and max(sizes) <= kernel._BLAS_MAX == 2**18


def test_a_blocked_product_is_the_unblocked_one(family):
    cells = kernel._Cells.build(OscillationParams().p, family.q_callable, 2 * PI, 42 * PI)[0]
    Q = kernel._antiderivative(np.linspace(-1.0, 1.0, 6401)[:-1])
    for a, b in ((cells.dz, Q), (Q.T, cells.dz.T), (cells.dz, cells.dz[0])):
        full = a @ b
        assert np.max(np.abs(kernel._product(a, b) - full)) <= 1e-15 * np.max(np.abs(full))


# ---------------------------------------------------------------------------
# the central difference operator


@pytest.mark.parametrize("n", [5, 16001, 125665])
def test_central_operator_is_the_written_out_expression_bitwise(n):
    # the expressions the residual checks and the solver sweep wrote out before
    # they shared one operator
    rng = np.random.default_rng(n)
    g = np.linspace(2 * PI, 42 * PI, n)
    step = float(g[1] - g[0])
    h = rng.standard_normal(n) + g
    si = g[1:-1]
    p_i = 1.0 / si**3
    d2 = (h[:-2] - 2.0 * h[1:-1] + h[2:]) / step**2
    d1 = (h[2:] - h[:-2]) / (2.0 * step)
    work = np.empty((3, n - 2))
    out = kernel._central_operator(h, si, p_i, step, np.empty(n - 2), work)
    assert np.array_equal(out, d2 + p_i * (d1 - h[1:-1] / si))
    assert np.array_equal(work[0], d1 - h[1:-1] / si)
    assert np.array_equal(work[1], h[1:-1] / si)
    assert np.array_equal(work[2], p_i * (d1 - h[1:-1] / si))
