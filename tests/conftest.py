"""Shared fixtures.

Set OSCILLAX_SEED to reproduce a property-test run; without it the suite
uses a fixed seed so CI runs are deterministic.
"""

import contextlib
import io
import math
import os
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import settings

import oscillax
from oscillax import (
    build_oscillation,
    build_pair,
    compute_kernel,
    make_barriers,
    OscillationParams,
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
    return build_oscillation(OscillationParams())


@pytest.fixture(scope="session")
def family_kernel(family):
    params = OscillationParams()
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


class ModeRun(NamedTuple):
    code: int
    stdout: str
    ledger: list          # the runner's Check records, in the order they arrived
    out: Path
    lemma: Optional[object]  # the LemmaReport the verify-lemma stage made, if it ran


@pytest.fixture(scope="session")
def mode_runs(tmp_path_factory):
    """Every mode run once in process on the default config, writing JSON only."""
    from oscillax import cli_report

    runners = []

    class Recording(cli_report._Runner):
        def __init__(self, *args):
            super().__init__(*args)
            runners.append(self)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_report, "_Runner", Recording)
        for mode in cli_report.MODES:
            cfg = cli_report.load_config(cli_report.default_config())
            cfg.out, cfg.formats = tmp_path_factory.mktemp(mode), ("json",)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_report.run(mode, cfg)
            runner = runners[-1]
            runs[mode] = ModeRun(code, stdout.getvalue(), runner.ledger, cfg.out, runner.lemma)
    return runs
