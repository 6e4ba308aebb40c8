"""Smoke test of the benchmark: every workload briefly, with and without tracing.

Run from the repository root (it takes a few minutes):

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

ALWAYS = ["setup_s", "wall_s", "cold_cli_s", "peak_rss_mb", "fail_share", "checks_failed"]
ACCURACY = {
    "pipeline-default": ["oracle_gap", "kernel_residual_sup", "bvp_residual_sup",
                         "decay_exponent_err", "z_bound_margin"],
    "solve-fine": ["bvp_residual_sup", "decay_exponent_err"],
    "lemma-wide": ["z_bound_margin"],
}
# the known residual-check defect at N = 256001
CHECKS_FAILED = {"pipeline-default": 0, "solve-fine": 1, "lemma-wide": 0}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def printed(stdout: str) -> dict:
    """metric name -> value, from the `metric <name> = <value> <unit>` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, _, value = line.split()[1:4]
            out[name] = float(value)
    return out


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    res = result(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    metrics = printed(proc.stdout)
    assert set(ALWAYS + ACCURACY[workload]) <= set(metrics)
    assert metrics["checks_failed"] == CHECKS_FAILED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    res = result(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["kernel.compute_kernel.calls"]["value"] >= 1
    assert set(ACCURACY[workload]) <= set(printed(proc.stdout))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
