"""Benchmark command: one workload, end-to-end or traced, one JSON result line.

    python3 bench/run.py --workload loops --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh process
(bench/worker.py) that imports eqdeg from ``src/``.  With ``--trace 0`` the
result carries the end-to-end metrics, set-up time being the median over
several fresh processes; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Exits non-zero, printing no result, when any
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2  # extra fresh processes that only set up; the run's own adds one
DEADLINE_S = 170.0


def _spawn(args, extra: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run a worker; return its set-up time and its stdout lines."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} worker ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if len(ready) != 1:
        raise RuntimeError(f"{args.workload} worker did not report set-up once")
    return ready[0] - started, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fixed-space", "loops", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "eqdeg" / "__init__.py").is_file():
        print("no eqdeg sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(args, ["--setup-only"], deadline)[0])
        setup, lines = _spawn(args, [], deadline)
        setups.append(setup)
        report = json.loads(lines[-1])
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    result = report["result"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["detail"]["setup_s_samples"] = setups
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
