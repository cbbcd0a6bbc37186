"""Batch front end: compute degrees from declarative problem files.

Problem files are JSON.  A Hamiltonian problem:

    {"kind": "hamiltonian", "group": "S1", "dof": 1,
     "terms": [{"exps": [2, 0], "coeff": 0.5}, {"exps": [0, 2], "coeff": 0.5}],
     "lambda": 0.5, "radius": 1.0, "truncation": "auto"}

An abstract problem supplies the spectrum and a polynomial potential in
the leading eigencoordinates:

    {"kind": "abstract", "group": "S1",
     "spectrum": [{"eigenvalue": 0.0, "rep": {"trivial": 2, "modes": []}}, ...],
     "nonlinearity": {"variables": 2, "terms": [...]},
     "radius": 1.0, "truncation": "auto", "sampling_budget": 2000}

Exit codes: 0 degree computed (nonzero), 2 degree zero (no certificate),
3 certification failure (any DegreeError from the computation, or a check
that prints ``fail``, after the report, whose verdict then names the failed
checks and claims no certificate), 4 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .errors import BadNumber, DegreeError, InputError
from .euler_ring import CIRCLE, unit
from .galerkin import (
    LocalMapSpec,
    RegionSpec,
    deg_infinite,
    normalization_map,
    potential_nonlinearity,
)
from .hamiltonian import HamiltonianSpec, local_map
from .polynomials import Polynomial
from .reps import SpectralOperator, _json_count, _json_number, rep_from_json, shell_index
from .selftest import run_suites

EXIT_OK = 0
EXIT_ZERO_DEGREE = 2
EXIT_CERTIFICATION = 3
EXIT_INPUT = 4


def _load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    return data


def _require(data: dict, key: str):
    if key not in data:
        raise InputError(f"missing required field {key!r}")
    return data[key]


def _parse_group(data: dict):
    group = data.get("group", "S1")
    if group == "S1":
        return CIRCLE
    if isinstance(group, dict) and "cyclic" in group:
        raise InputError(
            "degree computation is implemented for the circle group; cyclic groups "
            "are available in the ring arithmetic and the selftest ring suite"
        )
    raise InputError(f"unrecognized group {group!r}")


def _read(reader, *args, path: str = ""):
    """reader(*args), where a BadNumber (a count or number that breaks its rule)
    is an InputError naming the field with its ``path`` in the file in front."""
    try:
        return reader(*args)
    except BadNumber as exc:
        raise InputError(f"{path}{exc}") from exc


def _parse_truncation(data: dict, override: Optional[str]):
    raw = override if override is not None else data.get("truncation", "auto")
    if raw == "auto":
        return "auto"
    if override is not None and override.isdecimal():
        raw = int(override)
    return _read(_json_count, raw, "truncation", 1)


def _parse_budget(data: dict) -> Optional[int]:
    budget = data.get("sampling_budget")
    return None if budget is None else _read(_json_count, budget, "sampling_budget", 1)


def build_problem(data: dict, *, radius_override: Optional[float] = None) -> tuple[LocalMapSpec, dict]:
    """Construct the local map described by a problem dictionary."""
    kind = _require(data, "kind")
    _parse_group(data)
    raw_radius = radius_override if radius_override is not None else data.get("radius", 1.0)
    radius = _read(_json_number, raw_radius, "radius", True)
    meta = {"kind": kind, "group": "S1", "radius": radius}

    if kind == "hamiltonian":
        dof = _read(_json_count, _require(data, "dof"), "dof", 1)
        terms = _require(data, "terms")
        lam = _read(_json_number, _require(data, "lambda"), "lambda", True)
        try:
            spec = HamiltonianSpec(dof, _read(Polynomial.from_json, 2 * dof, terms), lam)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad Hamiltonian description: {exc}") from exc
        meta.update({"dof": dof, "lambda": lam})
        return local_map(spec, radius), meta

    if kind == "abstract":
        spectrum = _require(data, "spectrum")
        pairs = []
        try:
            for i, rec in enumerate(spectrum):
                rep = _read(rep_from_json, rec["rep"], path=f"spectrum[{i}].rep.")
                lam = _read(_json_number, rec["eigenvalue"], f"spectrum[{i}].eigenvalue")
                if "shell" in rec:
                    n = _read(_json_count, rec["shell"], f"spectrum[{i}].shell", 0)
                    expected = shell_index(lam)
                    if n != expected:
                        raise InputError(
                            f"eigenvalue {lam} declared in shell {n} but belongs to shell {expected}"
                        )
                pairs.append((lam, rep))
            op = SpectralOperator.from_eigenvalues(pairs, label="abstract")
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad spectrum description: {exc}") from exc
        nl = _require(data, "nonlinearity")
        try:
            nvars = _read(_json_count, nl["variables"], "nonlinearity.variables", 0)
            poly = _read(Polynomial.from_json, nvars, nl["terms"], path="nonlinearity.")
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad nonlinearity description: {exc}") from exc
        try:
            dim0 = op.basis(op.max_level).dim
        except ValueError as exc:
            raise InputError(f"bad spectrum description: {exc}") from exc
        if poly.nvars > dim0:
            raise InputError(
                f"nonlinearity uses {poly.nvars} coordinates but the declared spectrum "
                f"spans only {dim0}"
            )
        meta.update({"variables": poly.nvars})
        return (
            LocalMapSpec(
                operator=op,
                nonlinearity=potential_nonlinearity(poly),
                region=RegionSpec.ball(radius),
                name="abstract problem",
            ),
            meta,
        )

    raise InputError(f"unknown problem kind {kind!r}")


def _run_checks(lm: LocalMapSpec, result, seed: int, budget: Optional[int]) -> dict:
    checks: dict[str, str] = {}
    try:
        norm = deg_infinite(normalization_map(lm.operator), seed=seed, budget=budget)
        checks["normalization_selftest"] = "pass" if norm.value == unit(CIRCLE) else "fail"
    except DegreeError:
        checks["normalization_selftest"] = "fail"
    checks["stabilization"] = (
        "pass" if all(v == result.value for v in result.stabilization) else "fail"
    )
    try:
        shrunk = RegionSpec.ball(0.9 * lm.region.balls[0].radius)
        inner = deg_infinite(lm.with_region(shrunk), seed=seed, budget=budget)
        checks["restriction_consistency"] = "pass" if inner.value == result.value else "fail"
    except DegreeError as exc:
        checks["restriction_consistency"] = f"skipped ({type(exc).__name__})"
    return checks


def _format_report(meta, result, checks, verdict, seed, elapsed) -> dict:
    return {
        "problem": meta,
        "degree": result.to_json(),
        "verdict": verdict,
        "checks": checks,
        "seed": seed,
        "timing_seconds": round(elapsed, 6),
    }


def cmd_compute(args) -> int:
    try:
        data = _load_problem(args.problem)
        lm, meta = build_problem(data, radius_override=args.radius)
        truncation = _parse_truncation(data, args.truncation)
        budget = _parse_budget(data)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    seed = args.seed
    started = time.perf_counter()
    try:
        result = deg_infinite(
            lm,
            level=truncation,
            seed=seed,
            budget=budget,
        )
    except DegreeError as exc:
        print(f"certification failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - started

    nonzero = not result.value.is_zero
    checks = _run_checks(lm, result, seed, budget)
    failed = [name for name, status in checks.items() if status == "fail"]
    if failed:
        verdict = f"no certificate: check {', '.join(failed)} failed"
    elif meta["kind"] == "hamiltonian":
        verdict = (
            "periodic solution certified (nonzero degree)"
            if nonzero
            else "no certificate: degree is zero"
        )
    else:
        verdict = "zero of the map certified (nonzero degree)" if nonzero else "degree is zero"
    report = _format_report(meta, result, checks, verdict, seed, elapsed)

    print(f"degree     : {result.value}")
    print(f"level      : {result.level}")
    print(f"epsilon    : {result.epsilon:.6e}")
    print(f"tail bound : {result.tail_bound:.6e}")
    print(
        "stabilized : "
        + " = ".join(str(v) for v in result.stabilization)
        + f" (levels {result.level}..{result.level + len(result.stabilization) - 1})"
    )
    for name, status in checks.items():
        print(f"check {name}: {status}")
    print(f"verdict    : {verdict}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}")
    if failed:
        return EXIT_CERTIFICATION
    return EXIT_OK if nonzero else EXIT_ZERO_DEGREE


def cmd_selftest(args) -> int:
    names = [args.suite] if args.suite else None
    try:
        results = run_suites(names, seed=args.seed)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed |= not res.passed
    return EXIT_OK if not failed else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, an input error: argparse's own 2 means zero degree here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="eqdeg",
        description="Equivariant gradient degree computations with stabilization diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the degree for a problem file")
    p_compute.add_argument("problem", help="path to a JSON problem file")
    p_compute.add_argument("--truncation", default=None, help="'auto' or an explicit level")
    p_compute.add_argument("--radius", type=float, default=None, help="override the domain radius")
    p_compute.add_argument("--json", default=None, help="write the machine-readable report here")
    p_compute.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    p_compute.set_defaults(func=cmd_compute)

    p_selftest = sub.add_parser("selftest", help="run the embedded property suites")
    p_selftest.add_argument("--suite", default=None, help="run a single suite (ring, oracle, stabilization)")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
