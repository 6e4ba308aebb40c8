"""Shared fixtures.

Set OSCILLAX_SEED to reproduce a property-test run; without it the suite
uses a fixed seed so CI runs are deterministic.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import oscillax
from oscillax import (
    build_oscillation,
    build_pair,
    compute_kernel,
    default_params,
    make_barriers,
    parse,
    push_a_from_q,
    RadialProblem,
    TailModel,
)

SEED = int(os.environ.get("OSCILLAX_SEED", "20260819"))

settings.register_profile("oscillax", deadline=None, derandomize="OSCILLAX_SEED" not in os.environ)
settings.load_profile("oscillax")


@pytest.fixture(scope="session")
def package_env():
    """Environment for child interpreters that import this checkout's oscillax from any cwd."""
    env = dict(os.environ)
    src = str(Path(oscillax.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def family():
    return build_oscillation(default_params())


@pytest.fixture(scope="session")
def family_kernel(family):
    params = default_params()
    grid = np.linspace(family.nodes[0], family.nodes[0] + 40 * math.pi, 8001)
    return compute_kernel(params.p, family.q_callable, grid)


@pytest.fixture(scope="session")
def pair():
    return build_pair()


@pytest.fixture(scope="session")
def problem(pair):
    return RadialProblem(
        n=3, R=1.0,
        p=parse("1/s^3"), p_tail=TailModel("power", 3.0, 1.0),
        a1=push_a_from_q(pair.q1.q_callable, 3),
        a2=push_a_from_q(pair.q2.q_callable, 3),
    )


@pytest.fixture(scope="session")
def solver_barrier(pair):
    grid = np.linspace(2 * math.pi, 42 * math.pi, 16001)
    return make_barriers(pair, grid)


@pytest.fixture(scope="session")
def fine_barrier(pair):
    span = 40 * math.pi
    n_cells = int(round(span / 1e-3))
    n_cells += n_cells % 2
    grid = np.linspace(2 * math.pi, 2 * math.pi + span, n_cells + 1)
    return make_barriers(pair, grid)
