"""
Comparison kernels z and h with certified tails
===============================================

For a damping coefficient p and an oscillating forcing q, the kernel
z solves z' = -p z - q from z(s_0) = 0, and

    h(s) = -s * integral_s^inf z(t) / t^2 dt

is the induced positive solution of h'' + p (h' - h/s) + q/s = 0.
Quadrature computes both; an independent Runge-Kutta solve of the same
initial value problem cross-checks z, and a central-difference residual
cross-checks h, so no single numerical route is trusted on its own.
"""

from pathlib import Path

import numpy as np

from oscillax import (
    OscillationParams,
    build_oscillation,
    compute_kernel,
    emit_plot,
    ode_residual,
    z_ode_oracle,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

# ----------------------------------------------------------------------
# kernels over twenty periods on a pi/200 grid
params = OscillationParams()
family = build_oscillation(params)
grid = np.linspace(family.nodes[0], family.nodes[0] + 40 * np.pi, 8001)
kernel = compute_kernel(params.p, family.q_callable, grid)

print(f"z(s_0) = {float(kernel.z_values[0])} (starts exactly at zero)")
print(f"sup|z| observed = {kernel.z_sup_observed:.9f}")
print(f"h range: [{kernel.h_values.min():.6f}, {kernel.h_values.max():.6f}]"
      " (stays positive)")
print(f"h tail uncertainty beyond the extension: {kernel.h_tail.uncertainty:.2e}")

# ----------------------------------------------------------------------
# route one cross-check: an adaptive Runge-Kutta integration of
# z' = -p z - q shares nothing with the quadrature path
oracle = z_ode_oracle(params.p, family.q_callable, grid)
gap = float(np.max(np.abs(kernel.z_values - oracle)))
print(f"\nquadrature vs Runge-Kutta: sup difference = {gap:.3e}")

# ----------------------------------------------------------------------
# route two cross-check: plug h back into the comparison equation with
# central differences, and check the first-order identity h' - h/s = z/s
res = ode_residual(kernel.h_values, params.p, family.q_callable, grid,
                   z_values=kernel.z_values)
print(f"ODE residual of h:  sup = {res['sup']:.3e}")
print(f"identity h' - h/s = z/s:  sup gap = {res['identity_sup']:.3e}")

# ----------------------------------------------------------------------
# h/s is strictly decreasing: the barrier ordering depends on it
ratio = kernel.h_over_s()
print(f"h/s decreases across every cell: {bool(np.all(np.diff(ratio) < 0))}")

emit_plot(
    out_dir / "comparison_kernels.svg",
    [
        ("z(s)", grid, kernel.z_values),
        ("h(s)", grid, kernel.h_values),
        ("h(s)/s * 10", grid, 10.0 * ratio),
    ],
    title="kernel z stays negative, kernel h stays positive",
    xlabel="s", ylabel="value",
)
print(f"\nwrote {out_dir / 'comparison_kernels.svg'}")
