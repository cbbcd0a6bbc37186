"""Each demo runs to completion in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.stem.startswith("04_"):
        # lambda = 1 makes the exact Jacobian singular everywhere; Newton must
        # still reach the mode-1 zeros off the fixed space
        lines = proc.stdout.splitlines()
        assert (
            "rejected (ZeroOutsideFixedSpace): the zero set meets every ball boundary" in lines
        )
        assert any(line.startswith("pipeline:") and line.endswith("equal: True") for line in lines)
