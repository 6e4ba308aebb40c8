"""
Building an oscillating coefficient family
==========================================

Construct the stock sign-alternating forcing: sin^2 lobes between the
breakpoints m*pi whose amplitudes sit just above the floor of an
admissible band.  Each positive lobe must outweigh its damped negative
neighbour by a summable surplus, and the whole family has to clear the
oscillation checks with certified margins.
"""

from pathlib import Path

import numpy as np

from oscillax import (
    OscillationParams,
    build_oscillation,
    check_integral_features,
    emit_plot,
    verify_lemma,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

# ----------------------------------------------------------------------
# build the family with the stock band [q_minus, q_plus] = [1, 2] and the
# default amplitude rule; 25 tabulated periods
params = OscillationParams()
family = build_oscillation(params)

print(f"first breakpoint   a_2 = {family.nodes[0]:.6f}")
print(f"positive amplitude c_1 = {family.c[0]:.9f}")
print(f"negative amplitude d_1 = {family.d[0]:.9f}")
print(f"damping integral lambda = {family.lam:.12f} "
      f"(certified to {family.lam_error:.1e})")
print(f"certified bound on sup|z|: {family.sup_bound:.9f}")

# ----------------------------------------------------------------------
# the oscillation hypotheses, checked with margins: sign pattern, lobe
# dominance, summable surpluses, and single lobes staying small (the
# induced kernels are the subject of the companion kernel demo)
report = verify_lemma(params.p, family.q_callable, family.nodes,
                      p_tail=params.p_tail, family=family,
                      q_minus=params.q_minus)

print()
for check in report.checks():
    tag = "ok " if check.passed else "BAD"
    extra = "" if check.margin is None else f"  margin {check.margin:.3e}"
    print(f"  [{tag}] {check.name}{extra}")

# ----------------------------------------------------------------------
# the harmonic-weight integral of |q| diverges like a multiple of ln M
# while the (1 + varsigma)-weight integral converges; both certified
features = check_integral_features(family, varsigma=1.0, M=50)
print()
print(f"growth rate of the harmonic partial sums: {features.log_slope:.3f} * ln M")
print(f"weighted tail gap under doubling: {features.cauchy_gap:.3e} "
      f"<= closed-form bound {features.gap_bound:.3e}")

# ----------------------------------------------------------------------
# plot the first few periods: the forcing oscillates inside the band
# while the damping coefficient p = 1/s^3 fades away
s = np.linspace(family.nodes[0], family.nodes[0] + 8 * np.pi, 2001)
emit_plot(
    out_dir / "oscillating_family.svg",
    [
        ("q(s)", s, family.q_callable(s)),
        ("band floor", s, np.full_like(s, -params.q_plus)),
        ("band roof", s, np.full_like(s, params.q_plus)),
    ],
    title="sign-alternating forcing, first four periods",
    xlabel="s", ylabel="q",
)
print()
print(f"wrote {out_dir / 'oscillating_family.svg'}")
