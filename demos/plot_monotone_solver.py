"""
Monotone iteration between barriers and the decay of the solution
=================================================================

The truncated radial problem is solved by sweeping a shifted linear
operator: starting from the upper barrier, every iterate solves a
tridiagonal system and descends, squeezed between h_1 and h_2 by the
discrete maximum principle.  Convergence is geometric, the sandwich
margins stay nonnegative, and the recovered profile decays like the
fundamental solution, u(r) ~ r^(2-n).
"""

from pathlib import Path

import numpy as np

from oscillax import (
    RadialProblem,
    build_pair,
    check_sandwich,
    decay_fit,
    emit_plot,
    make_barriers,
    push_a_from_q,
    solve_radial,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

# ----------------------------------------------------------------------
# the exterior problem for n = 3 with the stock ordered pair pushed to
# radial coefficients and the monotone tanh blend between them
pair = build_pair()
s0 = float(pair.q1.nodes[0])
problem = RadialProblem(
    n=3, R=1.0,
    p=pair.q1.params.p, p_tail=pair.q1.params.p_tail,  # the damping the kernels use
    a1=push_a_from_q(pair.q1.q_callable, 3),
    a2=push_a_from_q(pair.q2.q_callable, 3),
)
grid = np.linspace(s0, s0 + 40 * np.pi, 16001)
barrier = make_barriers(pair, grid)

# ----------------------------------------------------------------------
# monotone sweeps from the upper barrier down to the fixed point
solution = solve_radial(problem, barrier)
print(f"converged in {solution.iterations} sweeps "
      f"(shift K = {solution.K_used})")
deltas = ", ".join(f"{d:.2e}" for d in solution.iteration_sup_deltas)
print(f"sup-norm updates per sweep: {deltas}")
print(f"discrete residual of the fixed point: {solution.residual_sup:.3e}")

sandwich = check_sandwich(solution, barrier)
print(f"sandwich holds: {sandwich['ok']} "
      f"(margins {solution.sandwich_margins[0]:.2e}, "
      f"{solution.sandwich_margins[1]:.2e})")

# ----------------------------------------------------------------------
# decay: fit log u against log r on an interior window, away from the
# truncation boundary; for n = 3 the expected exponent is 2 - n = -1
fit = decay_fit(solution, problem)
print(f"\nfitted decay exponent: {fit.exponent:.4f} "
      f"over r in [{fit.r_lo:.1f}, {fit.r_hi:.1f}] (expected -1)")

# ----------------------------------------------------------------------
# the solution u = H/s between its barriers, on a log-log scale
r = grid  # n = 3: the radius and the arc parameter coincide
emit_plot(
    out_dir / "monotone_solution_decay.svg",
    [
        ("u(r)", r, solution.u_values / grid),
        ("lower barrier", r, barrier.h1 / grid),
        ("upper barrier", r, barrier.h2 / grid),
    ],
    title="solution squeezed between barriers, decaying like 1/r",
    xlabel="r", ylabel="u", logx=True, logy=True,
)
print(f"\nwrote {out_dir / 'monotone_solution_decay.svg'}")
