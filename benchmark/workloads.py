"""The benchmark's workloads: one oscillax mode each, on the stock config.

Each workload is the config ``default_config()`` returns plus a few edits.
Seed 0 gives exactly those inputs.  Any other seed also jitters the band
parameters of the families (gamma, sigma and q_plus) inside ranges where
the validation in example_builder passes and every verdict of the seed-0 run
stays the same, so a claim can be re-checked on inputs it was not tuned on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    edits: dict       # "section.key" -> value, applied over default_config()
    formats: tuple
    why: str
    # FAIL verdicts of known defects, left visible; any other FAIL verdict
    # fails the operation
    known_fails: frozenset = frozenset()


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline-default", "full-pipeline", {}, ("csv", "json", "svg"),
        "The headline run: 7 compute_kernel calls, 4 of them repeating a 1M-point "
        "continuation, plus the CSV writer, so kernel reuse and writer work show.",
    ),
    Workload(
        "solve-fine", "solve-bvp", {"solver.N": 256001, "kernel.extend_to": 0}, ("json",),
        "Blend sweeps of solve_radial on 256k points and a few huge coefficient calls; "
        "no continuation or CSV, so changes to those layers should not move it.",
        # the check's bound 10*tol ignores the roundoff floor of the discrete
        # operator, which exceeds it from N ~ 128001 on
        known_fails=frozenset({"discrete residual small after convergence"}),
    ),
    Workload(
        "lemma-wide", "verify-lemma", {"oscillation.m_max": 200}, ("json",),
        "GK15 quadrature over 200 periods: many tiny coefficient calls, the opposite "
        "use of the layer solve-fine makes, and one kernel with no repeats.",
    ),
)}


def _jitter(raw: dict, rng: random.Random) -> None:
    """Move the band parameters a little; the stock pair's first set is the family."""
    osc, pair = raw["oscillation"], raw["pair"]
    gamma = round(6.0 + rng.uniform(0.0, 0.3), 4)   # the builder needs gamma >= 6
    sigma = round(7.0 + rng.uniform(-0.2, 0.2), 4)
    osc["gamma"], osc["sigma"] = gamma, sigma
    osc["q_plus"] = round(2.0 + rng.uniform(-0.1, 0.1), 4)
    pair["set1"]["gamma"], pair["set1"]["sigma"] = gamma, sigma
    pair["set2"]["gamma"] = round(8.0 + rng.uniform(-0.2, 0.2), 4)
    pair["set2"]["sigma"] = round(9.0 + rng.uniform(-0.2, 0.2), 4)


def make_config(workload: Workload, seed: int, default_config) -> dict:
    """The raw JSON config of a workload for a seed."""
    raw = default_config()
    for key, value in workload.edits.items():
        section, field = key.split(".")
        raw[section][field] = value
    if seed:
        _jitter(raw, random.Random(seed))
    return raw
