"""oscillax benchmark: time to a verified solution, end to end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload pipeline-default --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seconds 30     # every workload in turn

The loop is closed, with one caller: each operation starts after the
previous one has ended.  An operation is one warm in-process
``cli_report.run(mode, cfg)`` or one cold ``python -m oscillax <mode>``
subprocess.  It fails when it raises, exits 2 or 3, writes artifacts that
differ in any byte from the run's first operation, prints a FAIL verdict
other than the workload's known defects (see ``workloads.py``), or misses an
accuracy gate (see ``gates.py``).  FAIL verdict lines count in
``checks_failed``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs untraced and traced operations alternately and prints the
per-layer metrics (see ``tracing.py``), the tracing overhead, and the serial
and ``parallel=True`` times of ``make_barriers`` and ``check_hypotheses``.
Every metric is printed as a ``metric <name> = <value> <unit>`` line; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Artifacts go to ``.bench_out/``
at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One round of --trace 0 takes one cold sample and this many of the other
# kinds.
SETUP_PER_ROUND = 2
WARM_PER_ROUND = 3
# measurement rounds, even when --seconds is short: three give the slowest
# workload three cold samples within the run time
MIN_ROUNDS = 3
# warm samples a --trace 0 run takes at least, so that wall_s has a
# percentile with ten samples beyond it
MIN_WARM = 12
IMPORTTIME_REPS = 3   # fresh `python -X importtime` processes in the traced run
PARALLEL_REPS = 3     # serial/parallel pairs per function in the traced run
SUBPROCESS_TIMEOUT = 120.0

SETUP_SNIPPET = """\
import json, sys, time
raw = json.load(open(sys.argv[1], encoding="utf-8"))
t0 = time.perf_counter()
import oscillax
oscillax.load_config(raw)
print(time.perf_counter() - t0, oscillax.__file__)
"""


def child_env() -> dict:
    """Environment for fresh processes: the checkout's sources, by absolute path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def digest(directory: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every artifact, and the file count."""
    h = hashlib.sha256()
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest(), len(files)


FAIL_VERDICT = re.compile(r"FAIL (.*?)(?: \(margin=[^)]*\))?$")


def fail_verdicts(stdout: str) -> tuple[str, ...]:
    """Names of the checks a run printed a FAIL verdict for."""
    return tuple(m.group(1) for m in map(FAIL_VERDICT.match, stdout.splitlines()) if m)


@dataclass
class Operation:
    kind: str                  # "warm", "traced" or "cold"
    wall_s: float
    error: str | None          # exception, bad exit code or timeout
    fails: tuple               # names of the FAIL verdicts
    artifacts: str | None = None
    tracer: object = None


@dataclass
class Ledger:
    ops: list = field(default_factory=list)

    def add(self, op: Operation, out: Path) -> Operation:
        if op.error is None:
            op.artifacts = digest(out)[0]
        self.ops.append(op)
        return op

    def failures(self, accuracy_misses: list[str], known_fails: frozenset) -> list[str]:
        """One reason per failed operation."""
        reference = self.ops[0].artifacts if self.ops else None
        reasons = []
        for i, op in enumerate(self.ops):
            unexpected = sorted(set(op.fails) - known_fails)
            if op.error is not None:
                reasons.append(f"op {i} ({op.kind}): {op.error}")
            elif op.artifacts != reference:
                reasons.append(f"op {i} ({op.kind}): artifacts differ from op 0")
            elif unexpected:
                reasons.append(f"op {i} ({op.kind}): FAIL verdicts " + "; ".join(unexpected))
            elif accuracy_misses:
                reasons.append(f"op {i} ({op.kind}): " + "; ".join(accuracy_misses))
        return reasons


def warm_op(cli_report, mode, cfg, kind="warm", tracing=None) -> Operation:
    shutil.rmtree(cfg.out, ignore_errors=True)
    buf = io.StringIO()
    error, tracer = None, None
    with contextlib.ExitStack() as stack:
        if tracing is not None:
            tracer = stack.enter_context(tracing())
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_report.run(mode, cfg)  # looked up after patching
            if code not in (0, 1):
                error = f"exit code {code}"
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return Operation(kind, wall, error, fail_verdicts(buf.getvalue()), tracer=tracer)


def cold_op(workload, config_path: Path, out: Path) -> Operation:
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "oscillax", workload.mode, "--config", str(config_path),
           "--out", str(out), "--formats", ",".join(workload.formats)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=OUT, env=child_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return Operation("cold", time.perf_counter() - t0, "timed out", ())
    wall = time.perf_counter() - t0
    error = None if proc.returncode in (0, 1) else (
        f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return Operation("cold", wall, error, fail_verdicts(proc.stdout))


def fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=OUT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def setup_probe(config_path: Path) -> float:
    """import oscillax + load_config in a fresh process, timed inside it."""
    seconds, module_file = fresh_python(["-c", SETUP_SNIPPET, str(config_path)]).stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh process imported oscillax from {module_file}")
    return float(seconds)


def measure_importtime() -> tuple[float, float]:
    """Medians of the cumulative import time of oscillax and scipy.integrate."""
    totals = {"oscillax": [], "scipy.integrate": []}
    for _ in range(IMPORTTIME_REPS):
        seen = dict.fromkeys(totals, 0.0)
        stderr = fresh_python(["-X", "importtime", "-c", "import oscillax"]).stderr
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name, value in seen.items():
            totals[name].append(value)
    return (statistics.median(totals["oscillax"]),
            statistics.median(totals["scipy.integrate"]))


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(samples)[i]


def parallel_timings(cfg) -> dict:
    """Serial and parallel=True times of the two functions with that keyword.

    Inputs are the workload's own: make_barriers on the solver grid of the
    solve stage, check_hypotheses on the family the lemma stage checks.  A
    function whose ``parallel`` keyword has gone is left out.
    """
    import numpy as np
    from oscillax import build_oscillation, build_pair, check_hypotheses, make_barriers

    calls = {}
    if "parallel" in inspect.signature(make_barriers).parameters:
        pair = build_pair(cfg.pair)
        s0 = cfg.oscillation.s0
        grid = np.linspace(s0, s0 + cfg.kernel_span, cfg.solver_N)
        calls["pde_bridge.make_barriers"] = lambda parallel: make_barriers(
            pair, grid, extend_to=cfg.extend_to, extend_step=cfg.extend_step,
            parallel=parallel)
    if "parallel" in inspect.signature(check_hypotheses).parameters:
        osc = cfg.oscillation
        spec = build_oscillation(osc)
        nodes = np.pi * np.arange(2, 2 * osc.m_max + 3)
        calls["lemma_check.check_hypotheses"] = lambda parallel: check_hypotheses(
            osc.p, spec.q_callable, nodes, p_tail=osc.p_tail, family=spec,
            parallel=parallel)
    out = {}
    for name, call in calls.items():
        times = {False: [], True: []}
        for rep in range(PARALLEL_REPS):
            for parallel in ((False, True) if rep % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                call(parallel)
                times[parallel].append(time.perf_counter() - t0)
        out[f"{name}.serial_s"] = (statistics.median(times[False]), "s")
        out[f"{name}.parallel_s"] = (statistics.median(times[True]), "s")
    return out


def provenance(oscillax) -> str:
    import numpy
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"oscillax={oscillax.__version__}")


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import oscillax
    from oscillax import cli_report
    import gates
    from workloads import make_config

    out_root = OUT / workload.name
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    raw = make_config(workload, seed, cli_report.default_config)
    config_path = out_root / "config.json"
    config_path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"workload {workload.name} seed {seed} mode {workload.mode} "
          f"formats {','.join(workload.formats)} trace {int(trace)}")
    print(f"provenance {provenance(oscillax)}")

    cfg = cli_report.load_config(raw)
    cfg.out = out_root / "warm"
    cfg.formats = workload.formats
    ledger = Ledger()
    metrics = {}

    # the first warm operation fills lazy caches and is not a timing sample
    ledger.add(warm_op(cli_report, workload.mode, cfg), cfg.out)
    setup, cold, plain, traced, layers = [], [], [], [], []
    if trace:
        import tracing
        instrumentation = tracing.Instrumentation(oscillax)
    # Each round takes every kind of sample, so each metric spans the whole
    # run instead of one stretch of a machine whose speed drifts.
    # A round starts only if it should end closer to the deadline than not,
    # so a run measures about --seconds whatever a round costs.
    t_end = time.perf_counter() + seconds
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s / 2 < t_end:
        rounds += 1
        t_round = time.perf_counter()
        if trace:
            plain.append(ledger.add(warm_op(cli_report, workload.mode, cfg), cfg.out))
            op = ledger.add(warm_op(cli_report, workload.mode, cfg, "traced",
                                    instrumentation.tracing), cfg.out)
            layers.append(tracing.layer_metrics(op.tracer, op.wall_s))
            op.tracer = None
            traced.append(op)
        else:
            setup.extend(setup_probe(config_path) for _ in range(SETUP_PER_ROUND))
            cold.append(ledger.add(cold_op(workload, config_path, out_root / "cold"),
                                   out_root / "cold"))
            for _ in range(WARM_PER_ROUND):
                plain.append(ledger.add(warm_op(cli_report, workload.mode, cfg), cfg.out))
        round_s = time.perf_counter() - t_round
    while not trace and len(plain) < MIN_WARM:
        plain.append(ledger.add(warm_op(cli_report, workload.mode, cfg), cfg.out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    accuracy, misses = gates.accuracy(cfg.out, cfg)
    reasons = ledger.failures(misses, workload.known_fails)
    reference, n_files = digest(cfg.out)
    if reference != ledger.ops[0].artifacts:
        reasons.append("final artifacts differ from op 0")
    print(f"artifacts sha256 {ledger.ops[0].artifacts} ({n_files} files)")

    walls = [op.wall_s for op in plain]
    if trace:
        metrics.update(tracing.median_metrics(layers))
        metrics["trace.overhead_s"] = (
            statistics.median(op.wall_s for op in traced) - statistics.median(walls), "s")
        import_s, scipy_integrate_s = measure_importtime()
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.import_scipy_integrate_s"] = (scipy_integrate_s, "s")
        metrics.update(parallel_timings(cfg))
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["cold_cli_s"] = (statistics.median(op.wall_s for op in cold), "s")
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    attempted, failed = len(ledger.ops), len(reasons)
    for name, (value, unit) in sorted(metrics.items()):
        note = ""
        if name == "setup_s":
            note = f"median of {len(setup)} fresh processes"
        if name == "cold_cli_s":
            note = f"median of {len(cold)} fresh processes"
        if name == "wall_s":
            tail = tail_percentile(walls)
            note = f"median of {len(walls)} samples; " + (
                f"p{tail[0]:.1f} = {tail[1]!r} s" if tail
                else "no percentile has 10 samples beyond it")
        print_metric(name, value, unit, note)
    print_metric("fail_share", failed / attempted, "ratio", f"{failed} of {attempted}")
    print_metric("checks_failed", statistics.median(len(op.fails) for op in ledger.ops),
                 "count", "FAIL verdict lines per operation")
    for name, (value, unit) in accuracy.items():
        print_metric(name, value, unit)
    for reason in reasons:
        print(f"failed {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "oscillax" / "__init__.py").is_file():
        print(f"no oscillax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oscillax
    if not Path(oscillax.__file__).resolve().is_relative_to(SRC):
        print(f"oscillax was imported from {oscillax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
