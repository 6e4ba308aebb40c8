"""
An ordered coefficient pair and its radial counterpart
======================================================

Two families over the same band can be cut so that q_1 <= q_2 everywhere
while their amplitude chains stay strictly separated.  The ordered pair
is exactly what the barrier construction needs: the kernels h_1 <= h_2
enclose a corridor, and pushing the forcings through the radial change
of variables r = (s/(n-2))^(1/(n-2)) produces coefficients a_1 <= a_2
for the exterior-domain equation whose barrier residuals keep the
subsolution/supersolution signs.
"""

from pathlib import Path

import numpy as np

from oscillax import (
    RadialProblem,
    build_pair,
    emit_plot,
    lift_coefficients,
    make_barriers,
    push_a_from_q,
    subsuper_residual,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

# ----------------------------------------------------------------------
# the stock ordered pair: shared band, staggered amplitude rules
pair = build_pair()
print("amplitude chain on the first period: "
      f"c2 = {pair.q2.c[0]:.6f} >= c1 = {pair.q1.c[0]:.6f} >= "
      f"d1 = {pair.q1.d[0]:.6f} >= d2 = {pair.q2.d[0]:.6f} > 0")
print(f"worst chain margin over all periods: {pair.min_margin:.3e}")
print(f"smallness margin (room under the band roof): {pair.smallness_margin:.6f}")

# ----------------------------------------------------------------------
# kernels of both members on a shared grid: h1 < h2 with a clean gap
grid = np.linspace(pair.q1.nodes[0], pair.q1.nodes[0] + 40 * np.pi, 8001)
barrier = make_barriers(pair, grid)
print(f"\nbarrier gap h2 - h1 in [{barrier.gap_min:.4f}, "
      f"{float(np.max(barrier.h2 - barrier.h1)):.4f}]")

# ----------------------------------------------------------------------
# push the forcings to radial coefficients for n = 3 and verify that
# lifting them back is the identity
n = 3
a1 = push_a_from_q(pair.q1.q_callable, n)
a2 = push_a_from_q(pair.q2.q_callable, n)
problem = RadialProblem(
    n=n, R=1.0, s0=float(pair.q1.nodes[0]),
    p=pair.q1.params.p, p_tail=pair.q1.params.p_tail,  # the damping the kernels use
    a1=a1, a2=a2,
)
q1_back, q2_back = lift_coefficients(problem)
round_trip = max(
    float(np.max(np.abs(q1_back(grid) - pair.q1.q_callable(grid)))),
    float(np.max(np.abs(q2_back(grid) - pair.q2.q_callable(grid)))),
)
print(f"lift(push(q)) - q, sup over both members: {round_trip:.3e}")

# ----------------------------------------------------------------------
# residual signs of the barriers under the blended nonlinearity, on a
# step small enough that finite-difference leakage stays below 1e-6
span = 40 * np.pi
cells = int(round(span / 1e-3))
cells += cells % 2
fine = np.linspace(problem.s0, problem.s0 + span, cells + 1)
rep = subsuper_residual(problem, make_barriers(pair, fine))
print(f"\nsubsolution residual:  min = {rep.min_rho1:.3e} (must be >= -1e-6)")
print(f"supersolution residual: max = {rep.max_rho2:.3e} (must be <= 1e-6)")
print(f"verdicts: lower {rep.lower_ok}, upper {rep.upper_ok}")

emit_plot(
    out_dir / "ordered_pair_corridor.svg",
    [
        ("h1(s)", grid, barrier.h1),
        ("h2(s)", grid, barrier.h2),
    ],
    title="the kernel corridor of an ordered pair",
    xlabel="s", ylabel="h",
)
print(f"\nwrote {out_dir / 'ordered_pair_corridor.svg'}")
