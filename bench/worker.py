"""One workload in one process: set up, then run whole passes and report.

Run by run.py; usable alone for debugging:

    python3 bench/worker.py --workload loops --seed 1 --seconds 5 --trace 0

Prints ``ready <monotonic clock>`` once set-up is done (the caller measures
set-up from its own clock), then, unless ``--setup-only``, one JSON line.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with the default threads the
# certificates ran 30% slower and noisier on a 2-CPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import eqdeg  # noqa: E402

if Path(eqdeg.__file__).resolve().parent != ROOT / "src" / "eqdeg":
    sys.exit(f"eqdeg imported from {eqdeg.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(ops, times, failures) -> None:
    """Run each operation once; append (name, seconds) and failures."""
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed one
            times.append((op.name, clock() - start))
            failures.append((op, f"{type(exc).__name__}: {exc}"))
            continue
        times.append((op.name, clock() - start))
        try:
            reason = op.check(out)
        except Exception as exc:  # output the check cannot read
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((op, reason))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    patches = tracing.Patches()
    counters: dict[str, float] = defaultdict(float)
    tracing.count_field_points(patches, counters)
    warmup, ops = workloads.WORKLOADS[args.workload](args.seed, workdir, counters)
    warm_failures: list = []
    run_pass([warmup], [], warm_failures)
    if warm_failures:
        sys.exit(f"warm-up failed: {warm_failures[0][1]}")
    print(f"ready {time.monotonic():.9f}", flush=True)
    if args.setup_only:
        return 0

    counters.clear()
    table = tracing.SpanTable()
    if args.trace:
        tracing.install_spans(patches, table, counters)
    times: list[tuple[str, float]] = []
    failures: list = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        run_pass(ops, times, failures)
        passes += 1
    patches.undo()

    degrees = len(times)
    seconds = [t for _, t in times]
    by_op: dict[str, list[float]] = {}
    for name, t in times:
        by_op.setdefault(name, []).append(t)
    unexpected = [(op.name, why) for op, why in failures if not op.known_fault]
    for name, why in unexpected[:5]:
        print(f"unexpected failure: {name}: {why}", file=sys.stderr)
    degrees_per_s = degrees / sum(seconds)
    if args.trace:
        values = tracing.layer_metrics(table, counters, degrees)
    else:
        values = {
            "degrees_per_s": degrees_per_s,
            "degree_s_p50": statistics.median(seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "field_points_per_degree": counters["field_points"] / degrees,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {
        "correct": not unexpected,
        "attempted": degrees,
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "operations_per_pass": len(ops),
        "degrees_per_s": degrees_per_s,
        "failures": sorted({f"{op.name}: {why}" for op, why in failures}),
        "operation_s_p50": {name: statistics.median(t) for name, t in by_op.items()},
    }
    if args.trace:
        detail["spans"] = {
            name: {
                "calls": table.calls[name],
                "total_s": table.total[name],
                "self_s": table.self_time[name],
            }
            for name in sorted(table.calls)
        }
        detail["counters"] = dict(counters)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"result": result, "detail": detail}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
