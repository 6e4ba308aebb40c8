import math
import subprocess
import sys

import numpy as np
import pytest

from oscillax import (
    Damping,
    FarField,
    OscillationParams,
    TailModel,
    compute_h,
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


# ---------------------------------------------------------------------------
# h from z


def test_constant_z_gives_constant_h():
    # z = -1 implies J(s) = -1/s and h = 1
    grid = np.linspace(2 * PI, 20 * PI, 2001)
    z = -np.ones_like(grid)
    h, info = compute_h(z, grid, TailModel("power", 2.0, 1.0))
    assert np.max(np.abs(h - 1.0)) <= 1e-9
    assert info.value == pytest.approx(-1.0 / grid[-1], rel=1e-12)
    assert info.certificate >= abs(info.value) * (1.0 - 1e-12)


def test_h_scales_linearly_with_z():
    grid = np.linspace(2 * PI, 20 * PI, 2001)
    z = -(1.0 - np.exp(-(grid - grid[0]))) * 0.7
    h1, _ = compute_h(z, grid, TailModel("power", 2.0, 1.0))
    h3, _ = compute_h(3.0 * z, grid, TailModel("power", 2.0, 3.0))
    assert np.max(np.abs(h3 - 3.0 * h1)) <= 1e-11 * np.max(np.abs(h3))


def test_h_extension_must_start_at_grid_end():
    grid = np.linspace(2 * PI, 4 * PI, 201)
    z = -np.ones_like(grid)
    far = FarField.build(_zero, _one, 4 * PI + 0.1, -1.0, extend_to=8 * PI,
                         extend_step=PI / 40)
    with pytest.raises(ValueError, match="start exactly"):
        compute_h(z, grid, TailModel("power", 2.0, 1.0), far=far)


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
    assert bounded.tail == tail and bounded.z_sup_bound == 1.75
    for name in ("value", "uncertainty", "cutoff"):
        assert getattr(bounded.h_tail, name) == getattr(family_kernel.h_tail, name)
    assert bounded.h_tail.certificate == tail.tail_bound(family_kernel.h_tail.cutoff)
    # the certificate compute_h gives that tail model on the same samples
    far = FarField.build(params.p, family.q_callable, float(again.grid[-1]),
                         float(again.z_values[-1]), extend_to=2e4, extend_step=PI / 80)
    _, info = compute_h(again.z_values, again.grid, tail, far=far)
    assert bounded.h_tail == info
    assert family_kernel.z_sup_bound == family_kernel.z_sup_observed


# ---------------------------------------------------------------------------
# far-field summary of the continuation


def test_far_field_holds_no_continuation_length_array(family, family_kernel):
    far = FarField.build(OscillationParams().p, family.q_callable, float(family_kernel.grid[-1]),
                         float(family_kernel.z_values[-1]), extend_to=2e4, extend_step=PI / 80)
    continuation = (far.end - far.start) / (0.5 * far.extend_step)
    assert continuation > 1e6
    arrays = [v for v in far._asdict().values() if isinstance(v, np.ndarray)]
    assert len(far.window_u) == 321
    assert sum(a.size for a in arrays) == 3 * 321


@pytest.mark.parametrize("shared, copying", [
    (parse("s"), lambda s: np.array(s)),
    (lambda s: np.broadcast_to(0.3, np.shape(s)), lambda s: np.full(np.shape(s), 0.3)),
])
def test_far_field_leaves_what_q_returns_untouched(shared, copying):
    # q may hand back its input or a read-only array; the build must not write into it
    kwargs = {"extend_to": 400.0, "extend_step": PI / 80}
    a = FarField.build(parse("1/s^3"), shared, 8 * PI, -0.3, **kwargs)
    b = FarField.build(parse("1/s^3"), copying, 8 * PI, -0.3, **kwargs)
    for name in ("end", "A", "B", "x0", "sup"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("window_u", "window_E", "window_D"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_far_field_sup_is_exact_within_its_radius():
    # the screen must keep the maximiser over every point the build samples:
    # the cell nodes and each cell's uniform subdivision
    p = parse("1/s^3")
    q = lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    start, x0 = 8 * PI, -0.3
    far = FarField.build(p, q, start, x0, extend_to=400.0, extend_step=PI / 80)
    cells, _, E, D = kernel._Cells.build(p, q, start, far.end)
    Es, Ds = [E.ravel()], [D.ravel()]
    counts = kernel._subdivisions(cells.hi - cells.lo, PI / 160)
    assert np.all((cells.hi - cells.lo) / counts <= (1 + 1e-12) * PI / 160)
    for cell, n in enumerate(counts):
        Q = kernel._antiderivative(-1.0 + 2.0 * np.arange(1, n) / n).T
        e = cells.E(np.array([cell]), Q)
        Es.append(e.ravel())
        Ds.append((e * cells.C(np.array([cell]), Q)).ravel())
    Es, Ds = np.concatenate(Es), np.concatenate(Ds)
    assert far.sup == pytest.approx(np.max(np.abs(Es * x0 - Ds)), rel=1e-13)


def _sup_set_screening_full_blocks(cells, E, D, x0, half):
    """E and D where |E x0 - D| is within 2 tau of its max, screening each block on its full C.

    The max of |E x0 - D| over them is the reference for FarField.sup.
    """
    tau = 1e-9 * max(1.0, abs(x0))
    z = np.abs(E * x0 - D)
    z[:-1, -1] = -np.inf
    z_max = float(np.max(z))
    near = z >= z_max - 2.0 * tau
    E_keep, D_keep, reaches = [E[near]], [D[near]], []
    e_bound = cells.E_bound()
    counts = kernel._subdivisions(cells.hi - cells.lo, half)
    sizes = np.flatnonzero(np.bincount(counts))
    for n in sizes[sizes > 1]:
        Q = kernel._antiderivative(-1.0 + 2.0 * np.arange(1, n) / n).T
        group = np.flatnonzero(counts == n)
        for b in range(0, len(group), kernel._BLOCK):
            block = group[b:b + kernel._BLOCK]
            c = cells.C(block, Q)
            reach = np.maximum(np.max(c, axis=1) - x0, x0 - np.min(c, axis=1))
            rows = np.flatnonzero(reach * e_bound[block] >= z_max - 2.0 * tau)
            reaches.append((block, Q, reach, len(rows)))
            if len(rows) == 0:
                continue
            e = cells.E(block[rows], Q)
            d = e * c[rows]
            z = np.abs(e * x0 - d)
            z_max = max(z_max, float(np.max(z)))
            near = z >= z_max - 2.0 * tau
            E_keep.append(e[near])
            D_keep.append(d[near])
    E_keep, D_keep = np.concatenate(E_keep), np.concatenate(D_keep)
    z = np.abs(E_keep * x0 - D_keep)
    keep = np.flatnonzero(z >= float(np.max(z)) - 2.0 * tau)
    return E_keep[keep], D_keep[keep], reaches


@pytest.mark.parametrize("case", ["default family", "sin^2 - 0.4"])
def test_the_sup_screen_keeps_the_bits_of_the_full_block_screen(family, case):
    # the screen scales the row extremes of the product instead of forming C,
    # and keeps only the running max: its reach, and sup|z|, keep their bits
    # (A, B and the window come before the screen).  On the default family's
    # continuation every block is screened out; on sin^2 - 0.4 a block passes
    # and forms C.
    if case == "default family":
        p, q, passing = OscillationParams().p, family.q_callable, 0
        x0 = float(compute_z(p, q, np.linspace(2 * PI, 42 * PI, 8001))[-1])
        far = FarField.build(p, q, 42 * PI, x0, extend_to=2e4, extend_step=PI / 80)
    else:
        p, q, passing = parse("1/s^3"), lambda s: np.sin(np.asarray(s)) ** 2 - 0.4, 1
        far = FarField.build(p, q, 8 * PI, -0.3, extend_to=400.0, extend_step=PI / 80)
    cells, _, E, D = kernel._Cells.build(p, q, far.start, far.end)
    sup_E, sup_D, reaches = _sup_set_screening_full_blocks(cells, E, D, far.x0, PI / 160)
    assert sum(n_passed > 0 for *_, n_passed in reaches) == passing
    for block, Q, reach, _ in reaches:
        bottom, top, g = cells.C_range(block, Q)
        c = cells.C(block, Q)
        assert np.array_equal(bottom, np.min(c, axis=1)) and np.array_equal(top, np.max(c, axis=1))
        assert np.array_equal(np.maximum(top - far.x0, far.x0 - bottom), reach)
        assert np.array_equal(cells._from_left(g, cells.C0, block), c)
    assert far.sup == float(np.max(np.abs(sup_E * far.x0 - sup_D)))


def test_a_whole_pi_cell_is_subdivided_like_the_uniform_sweep():
    widths = np.array([PI, math.nextafter(PI, 4.0), math.nextafter(PI, 3.0), 0.5 * PI, 1e-3])
    assert list(kernel._subdivisions(widths, PI / 160)) == [160, 160, 160, 80, 1]


def _simpson_total(f, u):
    dt = 2.0 * (u[1] - u[0])
    return dt / 6.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1::2]) + 2.0 * np.sum(f[2:-1:2]))


def _assert_matches_half_step_simpson(far, p, q, rtol=1e-11):
    """A, B, the trailing window and sup|z| against Simpson at step extend_step/4.

    Inside a lobe a cumulative Simpson value is itself off by about
    h^4 max|q'''| / 180, 2e-10 at this step, so the window is referenced by a
    sweep 64 times finer that starts from the reference at the last multiple
    of pi before it, where q''' of a sin^2 lobe vanishes.  Each sweep runs on
    offsets from its first point: far out, the difference of two abscissae
    would carry the rounding of both into the step.
    """
    step = far.extend_step / 4
    offsets = step * np.arange(round((far.end - far.start) / step) + 1)
    u = far.start + offsets
    assert u[-1] == far.end
    P = cumulative_simpson_doubled(offsets, p(u))
    C = cumulative_simpson_doubled(offsets, q(u) * np.exp(P))
    E = np.exp(-P)
    D = E * C
    u2 = u * u
    for name, f in (("A", E / u2), ("B", D / u2)):
        assert getattr(far, name) == pytest.approx(_simpson_total(f, u), rel=rtol, abs=0.0)
    full = np.max(np.abs(E * far.x0 - D))
    assert far.sup == pytest.approx(full, rel=rtol, abs=0.0)

    a = int(np.argmin(np.abs(u - PI * math.floor(far.window_u[0] / PI))))
    fine = step / 64
    offsets = fine * np.arange(64 * (len(u) - 1 - a) + 1)
    v = u[a] + offsets
    Pv = P[a] + cumulative_simpson_doubled(offsets, p(v))
    Cv = C[a] + cumulative_simpson_doubled(offsets, q(v) * np.exp(Pv))
    at = np.rint((far.window_u - v[0]) / fine).astype(int)
    assert np.max(np.abs(v[at] - far.window_u)) <= 1e-9
    Ev = np.exp(-Pv[at])
    for ours, theirs in ((far.window_E, Ev), (far.window_D, Ev * Cv[at])):
        assert np.max(np.abs(ours - theirs)) <= rtol * np.max(np.abs(theirs))


@pytest.mark.parametrize("member", ["family", "q1", "q2"])
def test_far_field_matches_a_half_step_simpson_reference(family, pair, member):
    params = OscillationParams()
    q = {"family": family, "q1": pair.q1, "q2": pair.q2}[member].q_callable
    grid = np.linspace(2 * PI, 42 * PI, 8001)
    x0 = float(compute_z(params.p, q, grid)[-1])
    far = FarField.build(params.p, q, 42 * PI, x0, extend_to=2e4, extend_step=PI / 80)
    _assert_matches_half_step_simpson(far, params.p, q)


def test_node_rounding_does_not_pile_up_over_the_continuation():
    # with p = 0 and q = -cos(2s)/2, C_loc = (sin 2 start - sin 2t)/4 exactly;
    # every cell sees the same lobe, so a rounding pattern of the nodes that
    # repeats from cell to cell would add up over the 6 300 cells (to 2.4e-9)
    q = lambda s: -0.5 * np.cos(2.0 * np.asarray(s))
    start = 42 * PI
    far = FarField.build(_zero, q, start, -0.1, extend_to=2e4, extend_step=PI / 80)
    exact = (math.sin(2.0 * start) - np.sin(2.0 * far.window_u)) / 4.0
    assert np.array_equal(far.window_E, np.ones_like(exact))
    assert np.max(np.abs(far.window_D - exact)) <= 1e-10


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
    far = FarField.build(p, q, start, -0.3, extend_to=400.0, extend_step=PI / 80)
    assert len(calls) > 10                     # the first sample, then bisection rounds
    assert sum(calls[1:]) < calls[0]           # only the kink's cells were resampled
    _assert_matches_half_step_simpson(far, p, expr)


def test_a_jump_inside_a_cell_fails_the_self_check_clearly():
    start = 8 * PI
    q = lambda s: np.where(np.asarray(s) < start + 1.3 * PI, 0.1, 0.3)
    message = r"not smooth enough on \[.*\] after 30 bisections"
    with pytest.raises(ValueError, match=message) as err:
        FarField.build(parse("1/s^3"), q, start, -0.3, extend_to=400.0,
                       extend_step=PI / 80)
    assert "np.float64" not in str(err.value)


def test_non_finite_coefficients_on_the_continuation_are_rejected():
    q = lambda s: np.where(np.asarray(s) > 100.0, np.nan, 0.5)
    with pytest.raises(ValueError, match="coefficient q is not finite on the continuation"):
        FarField.build(parse("1/s^3"), q, 8 * PI, -0.3, extend_to=400.0,
                       extend_step=PI / 80)


def test_a_continuation_must_end_past_its_start():
    with pytest.raises(ValueError, match="must end past its start"):
        FarField.build(parse("1/s^3"), _one, 8 * PI, -0.3, extend_to=8 * PI,
                       extend_step=PI / 80)


def test_a_family_built_short_of_the_continuation_end_is_named_at_its_start():
    from oscillax import build_oscillation

    spec = build_oscillation(OscillationParams(m_max=5), extent=300.0)
    with pytest.raises(ValueError, match=r"continuing z to extend_to = 1000\.0: family is "
                                         r"defined on \[s0, "):
        FarField.build(parse("1/s^3"), spec.q_callable, 8 * PI, -0.3, extend_to=1000.0,
                       extend_step=PI / 80)


def test_a_scalar_coefficient_is_broadcast_to_the_nodes():
    kwargs = {"extend_to": 400.0, "extend_step": PI / 80}
    a = FarField.build(parse("1/s^3"), lambda s: 0.3, 8 * PI, -0.3, **kwargs)
    b = FarField.build(parse("1/s^3"), lambda s: np.full(np.shape(s), 0.3), 8 * PI, -0.3,
                       **kwargs)
    assert (a.A, a.B, a.sup) == (b.A, b.B, b.sup)
    assert np.array_equal(a.window_D, b.window_D)


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
# the shared damping pass


def test_a_damping_for_another_p_or_grid_is_refused():
    params = OscillationParams()
    grid = np.linspace(2 * PI, 6 * PI, 401)
    damping = Damping.build(params.p, grid)
    q = lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    kwargs = dict(extend_to=0.0, damping=damping)
    compute_kernel(params.p, q, grid, **kwargs)
    with pytest.raises(ValueError, match="damping was built for another coefficient p"):
        compute_kernel(parse("2/s^3"), q, grid, **kwargs)
    for other in (np.linspace(2 * PI, 6 * PI, 201), np.linspace(2.5 * PI, 6 * PI, 401),
                  np.linspace(2 * PI, 7 * PI, 401)):
        with pytest.raises(ValueError, match=r"damping was built for a grid of 401 points") as err:
            compute_kernel(params.p, q, other, **kwargs)
        assert "np.float64" not in str(err.value)
    with pytest.raises(ValueError, match="kernel grids must be uniform and increasing"):
        compute_kernel(params.p, q, grid[::-1], **kwargs)


@pytest.mark.parametrize("extend_to", [0.0, 2e4], ids=["no-continuation", "continuation"])
def test_a_kernel_on_a_shared_damping_is_the_standalone_kernel_bitwise(pair, extend_to):
    grid = np.linspace(2 * PI, 12 * PI, 2001)
    p = pair.q1.params.p
    damping = Damping.build(p, grid)
    for spec in (pair.q1, pair.q2):
        shared = compute_kernel(p, spec.q_callable, grid, extend_to=extend_to, damping=damping)
        alone = compute_kernel(p, spec.q_callable, grid, extend_to=extend_to)
        assert shared.z_values.tobytes() == alone.z_values.tobytes()
        assert shared.h_values.tobytes() == alone.h_values.tobytes()
        assert shared.z_sup_observed == alone.z_sup_observed
        assert shared.h_tail == alone.h_tail


def test_a_damping_refuses_a_p_that_is_not_finite_on_the_grid():
    grid = np.linspace(2 * PI, 6 * PI, 401)
    p = lambda s: np.where(np.asarray(s) > 4 * PI, np.inf, 0.0)
    with pytest.raises(ValueError, match="coefficients are not finite on the grid"):
        Damping.build(p, grid)


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
    work = np.empty((2, n - 2))
    out = kernel._central_operator(h, si, p_i, step, np.empty(n - 2), work)
    assert np.array_equal(out, d2 + p_i * (d1 - h[1:-1] / si))
    assert np.array_equal(work[0], d1 - h[1:-1] / si)
    assert np.array_equal(work[1], p_i * (d1 - h[1:-1] / si))
