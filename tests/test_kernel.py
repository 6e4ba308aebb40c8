import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from oscillax import (
    FarField,
    TailModel,
    compute_h,
    compute_kernel,
    compute_z,
    default_params,
    ode_residual,
    parse,
    z_ode_oracle,
)
from oscillax import kernel
from oscillax.quadrature import cumulative_simpson_doubled

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
    params = default_params()
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
    params = default_params()
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
                         extend_step=PI / 40, tail_window=2 * PI)
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
    assert k.lam < 1.0
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
    params = default_params()
    span = 40 * PI
    n_cells = int(round(span / (PI / 400)))
    n_cells += n_cells % 2
    grid = np.linspace(2 * PI, 2 * PI + span, n_cells + 1)
    kern = compute_kernel(params.p, family.q_callable, grid, p_tail=params.p_tail)
    resid = ode_residual(kern.h_values, params.p, family.q_callable, grid,
                         z_values=kern.z_values)
    assert resid["sup"] <= 1e-4
    assert resid["identity_sup"] <= 1e-4
    span = grid[-1] - grid[0]
    assert resid["l2"] <= resid["sup"] * math.sqrt(span)


def test_kernel_lambda_matches_closed_form(family_kernel):
    exact = 1.0 / (8.0 * PI**2)
    assert abs(family_kernel.lam - exact) <= family_kernel.lam_error + 1e-12
    assert family_kernel.lam_error <= 1e-9


# ---------------------------------------------------------------------------
# far-field summary of the continuation


def _end_matched_grid(kernel, points):
    return np.linspace(kernel.grid[0], kernel.grid[-1], points)


def test_far_field_reuse_equals_a_fresh_build(family, family_kernel):
    params = default_params()
    grid = _end_matched_grid(family_kernel, 12001)
    fresh = compute_kernel(params.p, family.q_callable, grid, p_tail=params.p_tail)
    reused = compute_kernel(params.p, family.q_callable, grid, p_tail=params.p_tail,
                            far=family_kernel.far)
    assert reused.far is family_kernel.far
    for a, b in ((fresh.z_values, reused.z_values), (fresh.h_values, reused.h_values)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    assert reused.z_sup_observed == pytest.approx(fresh.z_sup_observed, rel=1e-12)
    for name in ("value", "uncertainty", "certificate", "cutoff"):
        assert getattr(reused.h_tail, name) == pytest.approx(
            getattr(fresh.h_tail, name), rel=1e-12)


@pytest.mark.parametrize("change", ["start", "extend_to", "extend_step",
                                    "tail_window", "p", "q"])
def test_far_field_mismatch_is_rejected(family, family_kernel, change):
    params = default_params()
    args = {"p": params.p, "q": family.q_callable,
            "grid": _end_matched_grid(family_kernel, 4001)}
    kwargs = {"extend_to": 2e4, "extend_step": PI / 80, "tail_window": 2 * PI}
    if change == "start":
        args["grid"] = np.linspace(family_kernel.grid[0], family_kernel.grid[-1] - PI, 4001)
    elif change == "p":
        args["p"] = parse("2/s^3")
    elif change == "q":
        args["q"] = lambda s: family.q_callable(s)
    else:
        kwargs[change] *= 1.5
    with pytest.raises(ValueError, match="far-field summary"):
        compute_kernel(args["p"], args["q"], args["grid"], p_tail=params.p_tail,
                       far=family_kernel.far, **kwargs)


def test_far_field_outside_its_radius_is_rebuilt(family, family_kernel):
    params = default_params()
    far = family_kernel.far
    stale = dataclasses.replace(far, x0=far.x0 + 10 * far.tau / far.e_max)
    assert not stale.covers(float(family_kernel.z_values[-1]))
    with pytest.raises(ValueError, match="validity radius"):
        stale.sup(float(family_kernel.z_values[-1]))
    rebuilt = compute_kernel(params.p, family.q_callable, family_kernel.grid,
                             p_tail=params.p_tail, far=stale)
    assert rebuilt.far is not stale
    assert rebuilt.far.x0 == far.x0
    assert np.array_equal(rebuilt.h_values, family_kernel.h_values)
    assert rebuilt.z_sup_observed == family_kernel.z_sup_observed
    assert rebuilt.h_tail == family_kernel.h_tail


def test_far_field_holds_no_continuation_length_array(family_kernel):
    far = family_kernel.far
    continuation = (far.end - far.start) / (0.5 * far.extend_step)
    assert continuation > 1e6
    arrays = [v for v in vars(far).values() if isinstance(v, np.ndarray)]
    window, kept = len(far.window_u), len(far.sup_E)
    assert window == 321
    assert 1 <= kept <= 64
    assert sum(a.size for a in arrays) == 3 * window + 2 * kept


@pytest.mark.parametrize("shared, copying", [
    (parse("s"), lambda s: np.array(s)),
    (lambda s: np.broadcast_to(0.3, np.shape(s)), lambda s: np.full(np.shape(s), 0.3)),
])
def test_far_field_leaves_what_q_returns_untouched(shared, copying):
    # q may hand back its input or a read-only array; the build must not write into it
    kwargs = {"extend_to": 400.0, "extend_step": PI / 80, "tail_window": 2 * PI}
    a = FarField.build(parse("1/s^3"), shared, 8 * PI, -0.3, **kwargs)
    b = FarField.build(parse("1/s^3"), copying, 8 * PI, -0.3, **kwargs)
    for name in ("end", "A", "B", "x0", "e_max"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("window_u", "window_E", "window_D", "sup_E", "sup_D"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_far_field_sup_is_exact_within_its_radius():
    # the kept points must hold the maximiser over every point the build
    # samples: the cell nodes and each cell's uniform subdivision
    p = parse("1/s^3")
    q = lambda s: np.sin(np.asarray(s)) ** 2 - 0.4
    start, x0 = 8 * PI, -0.3
    far = FarField.build(p, q, start, x0, extend_to=400.0, extend_step=PI / 80,
                         tail_window=2 * PI)
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
    radius = far.tau / far.e_max
    for x in (x0, x0 + 0.99 * radius, x0 - 0.99 * radius):
        full = np.max(np.abs(Es * x - Ds))
        assert far.sup(x) == pytest.approx(full, rel=1e-13)


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
    assert far.sup(far.x0) == pytest.approx(full, rel=rtol, abs=0.0)

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
    params = default_params()
    q = {"family": family, "q1": pair.q1, "q2": pair.q2}[member].q_callable
    grid = np.linspace(2 * PI, 42 * PI, 8001)
    x0 = float(compute_z(params.p, q, grid)[-1])
    far = FarField.build(params.p, q, 42 * PI, x0, extend_to=2e4, extend_step=PI / 80,
                         tail_window=2 * PI)
    _assert_matches_half_step_simpson(far, params.p, q)


def test_node_rounding_does_not_pile_up_over_the_continuation():
    # with p = 0 and q = -cos(2s)/2, C_loc = (sin 2 start - sin 2t)/4 exactly;
    # every cell sees the same lobe, so a rounding pattern of the nodes that
    # repeats from cell to cell would add up over the 6 300 cells (to 2.4e-9)
    q = lambda s: -0.5 * np.cos(2.0 * np.asarray(s))
    start = 42 * PI
    far = FarField.build(_zero, q, start, -0.1, extend_to=2e4, extend_step=PI / 80,
                         tail_window=2 * PI)
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
    far = FarField.build(p, q, start, -0.3, extend_to=400.0, extend_step=PI / 80,
                         tail_window=2 * PI)
    assert len(calls) > 10                     # the first sample, then bisection rounds
    assert sum(calls[1:]) < calls[0]           # only the kink's cells were resampled
    _assert_matches_half_step_simpson(far, p, expr)


def test_a_jump_inside_a_cell_fails_the_self_check_clearly():
    start = 8 * PI
    q = lambda s: np.where(np.asarray(s) < start + 1.3 * PI, 0.1, 0.3)
    with pytest.raises(ValueError, match=r"not smooth enough on \[.*\] after 30 bisections"):
        FarField.build(parse("1/s^3"), q, start, -0.3, extend_to=400.0,
                       extend_step=PI / 80, tail_window=2 * PI)


def test_non_finite_coefficients_on_the_continuation_are_rejected():
    q = lambda s: np.where(np.asarray(s) > 100.0, np.nan, 0.5)
    with pytest.raises(ValueError, match="coefficient q is not finite on the continuation"):
        FarField.build(parse("1/s^3"), q, 8 * PI, -0.3, extend_to=400.0,
                       extend_step=PI / 80, tail_window=2 * PI)


def test_a_continuation_must_end_past_its_start():
    with pytest.raises(ValueError, match="must end past its start"):
        FarField.build(parse("1/s^3"), _one, 8 * PI, -0.3, extend_to=8 * PI,
                       extend_step=PI / 80, tail_window=2 * PI)


def test_a_scalar_coefficient_is_broadcast_to_the_nodes():
    kwargs = {"extend_to": 400.0, "extend_step": PI / 80, "tail_window": 2 * PI}
    a = FarField.build(parse("1/s^3"), lambda s: 0.3, 8 * PI, -0.3, **kwargs)
    b = FarField.build(parse("1/s^3"), lambda s: np.full(np.shape(s), 0.3), 8 * PI, -0.3,
                       **kwargs)
    assert (a.A, a.B, a.sup(-0.3)) == (b.A, b.B, b.sup(-0.3))
    assert np.array_equal(a.window_D, b.window_D)


def test_import_and_a_pipeline_run_load_no_scipy(package_env, tmp_path):
    # scipy is left to the z_ode_oracle cross-check; no CLI mode may load it,
    # nor numpy.ma, which costs a cold run 14-20 ms of imports
    config = tmp_path / "small.json"
    config.write_text('{"solver": {"N": 4001}, "kernel": {"step": "pi/100"}, '
                      '"oscillation": {"m_max": 10}}', encoding="utf-8")
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
