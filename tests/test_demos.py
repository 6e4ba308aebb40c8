"""The narrative demos run to completion against this checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_runs(tmp_path, package_env):
    # a copy, so the SVGs the demos write land in the temporary directory
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("output"))
    scripts = sorted(copy.glob("*.py"))
    assert len(scripts) == 4
    for script in scripts:
        done = subprocess.run([sys.executable, str(script)], cwd=copy, env=package_env,
                              capture_output=True, text=True)
        assert done.returncode == 0, f"{script.name}:\n{done.stderr}"
    assert len(list((copy / "output").glob("*.svg"))) == 4
