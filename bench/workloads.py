"""Inputs, operations and expected answers of the three benchmark workloads.

Every input is made from the workload seed.  Every expected answer comes
from a computation apart from the truncation pipeline: zeros of separable
fields enumerated here, the closed-form quadratic degree of the program
with its [S1/S1] sign re-derived here from det(-lambda * Hessian H(0)),
and the report invariants of the command line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import eqdeg
import eqdeg.cli
from eqdeg import CIRCLE, FULL, RingElement, selftest

from tracing import counted_value


@dataclass
class Operation:
    """One degree computation: ``call`` is timed, ``check`` is not.

    ``check`` returns None when the output is right and a reason otherwise.
    ``known_fault`` marks operations on seed-independent inputs that a named
    fault of the program may get wrong; they count as failed, but do not make
    the run incorrect.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_fault: bool = False


def _unit_multiple(count: int) -> RingElement:
    return RingElement.make(CIRCLE, {FULL: count})


# ---------------------------------------------------------------------------
# fixed-space: grad_degree on selftest.random_fixed_space_field

FIELD_RADIUS = 2.5  # the default radius of random_fixed_space_field
SPHERE_MARGIN = 0.05  # zeros within this share of the radius of a sphere are redrawn
# (dimension, double-well axes) of the seeded fields, five of each per pass.
# The wells set the number of zeros and most of the cost of an operation, so
# they are fixed; the seed picks the rotation, the depths and the other axes.
# At d = 4 the seeds already come from the fixed Halton set, which missed
# zeros on 2 of 400 random fields with four wells, so three or more wells at
# d = 4 are left out of the seeded part.
SEEDED_SHAPES = (
    (1, 0), (1, 1),
    (2, 0), (2, 1), (2, 2),
    (3, 0), (3, 1), (3, 2), (3, 3),
    (4, 0), (4, 1), (4, 2),
)
SEEDED_PER_SHAPE = 5
# From d = 5 on the Halton set misses zeros often enough to show on some
# seeds (3 of 595 random fields at d = 5, 12 of 20 at d = 8), so these
# inputs are fixed and do not follow the seed; a miss counts as failed.
FAULT_DIMS = (5, 6, 7, 8)
FAULT_PER_DIM = 20


def _draws(field_seed: int, dim: int):
    """The axis kinds (0: +x, 1: -x, 2: double well) and well depths that
    ``random_fixed_space_field(default_rng(field_seed), dim)`` draws first."""
    rng = np.random.default_rng(field_seed)
    return rng.integers(0, 3, size=dim), rng.uniform(0.6, 1.4, size=dim)


def separable_zeros(field_seed: int, dim: int) -> list[tuple[float, int]]:
    """(norm, Brouwer index) of every zero of
    ``random_fixed_space_field(default_rng(field_seed), dim)``.

    The generator's draws are replayed.  In rotated
    coordinates y = Q^T x the field is separable, y_i -> y_i, -y_i or
    y_i^3 - a_i^2 y_i, and the rotation keeps norms and indices, so each
    zero is a product of one-dimensional zeros and its index the product of
    their slopes' signs.
    """
    kinds, wells = _draws(field_seed, dim)
    axes = []
    for kind, a in zip(kinds, wells):
        if kind == 0:
            axes.append([(0.0, 1)])
        elif kind == 1:
            axes.append([(0.0, -1)])
        else:
            axes.append([(0.0, -1), (a, 1), (-a, 1)])
    return [
        (math.sqrt(sum(y * y for y, _ in combo)), math.prod(s for _, s in combo))
        for combo in itertools.product(*axes)
    ]


def fixed_space_case(field_seed: int, dim: int) -> Optional[tuple[RingElement, int]]:
    """Expected degree and number of zeros inside the ball, or None when a
    zero lies near the sphere and the input is to be redrawn."""
    zeros = separable_zeros(field_seed, dim)
    if any(abs(r - FIELD_RADIUS) < SPHERE_MARGIN * FIELD_RADIUS for r, _ in zeros):
        return None
    inside = [s for r, s in zeros if r < FIELD_RADIUS]
    return _unit_multiple(sum(inside)), len(inside)


def _fixed_space_op(field_seed, dim, program_seed, counters, known_fault) -> Operation:
    expected, zero_count = fixed_space_case(field_seed, dim)
    fld = selftest.random_fixed_space_field(np.random.default_rng(field_seed), dim)
    fld.value = counted_value(fld.value, counters)

    def call():
        return eqdeg.grad_degree(fld, seed=program_seed, return_zeros=True)

    def check(out):
        value, zeros = out
        if value != expected:
            return f"degree {value}, expected {expected}"
        if len(zeros) != zero_count:
            return f"{len(zeros)} zeros found, expected {zero_count}"
        return None

    return Operation(f"d={dim} field-seed={field_seed}", call, check, known_fault)


def _eligible_seeds(candidates, dim: int, count: int, wells: Optional[int] = None) -> list[int]:
    out = []
    for s in map(int, candidates):
        if wells is not None and int(np.sum(_draws(s, dim)[0] == 2)) != wells:
            continue
        if fixed_space_case(s, dim) is not None:
            out.append(s)
            if len(out) == count:
                return out
    raise RuntimeError(f"too few eligible fixed-space inputs at d={dim}")


def fixed_space(seed: int, workdir: Path, counters: dict):
    rng = np.random.default_rng(seed)
    candidates = iter(lambda: rng.integers(0, 2**31), None)
    ops = []
    for dim, wells in SEEDED_SHAPES:
        for s in _eligible_seeds(candidates, dim, SEEDED_PER_SHAPE, wells):
            ops.append(_fixed_space_op(s, dim, seed, counters, known_fault=False))
    for dim in FAULT_DIMS:
        for s in _eligible_seeds(itertools.count(), dim, FAULT_PER_DIM):
            ops.append(_fixed_space_op(s, dim, 0, counters, known_fault=True))
    warmup = _fixed_space_op(_eligible_seeds(itertools.count(), 3, 1)[0], 3, 0, counters, False)
    return warmup, ops


# ---------------------------------------------------------------------------
# Hamiltonians: the closed form and its independent sign


def quadratic_hessian(dof: int, terms) -> np.ndarray:
    """Hessian at 0 of the degree-2 part of a polynomial given by its terms."""
    S0 = np.zeros((2 * dof, 2 * dof))
    for exps, coeff in terms:
        if sum(exps) != 2:
            continue
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        i, j = idx
        if i == j:
            S0[i, i] += 2.0 * coeff
        else:
            S0[i, j] += coeff
            S0[j, i] += coeff
    return S0


def mode_block(S0: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Linearization of -J z' - lam * S0 z on the mode-k (cos, sin) pair;
    k = 0 gives the constant loops."""
    n = S0.shape[0] // 2
    if k == 0:
        return -lam * S0
    J = np.zeros_like(S0)
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return np.block([[-lam * S0, -k * J], [k * J, -lam * S0]])


def expected_loop_degree(spec: eqdeg.HamiltonianSpec) -> RingElement:
    """``quadratic_spectral_degree`` of the quadratic part of H, with its
    [S1/S1] coefficient checked against sign det(-lambda * Hessian H(0))."""
    terms = [(e, c) for e, c in spec.potential.terms if sum(e) == 2]
    quadratic = eqdeg.HamiltonianSpec.from_terms(spec.dof, terms, spec.lam)
    value = eqdeg.quadratic_spectral_degree(quadratic)
    sign = int(np.sign(np.linalg.det(-spec.lam * quadratic_hessian(spec.dof, terms))))
    if value.coeff(FULL) != sign:
        raise RuntimeError(
            f"closed-form degree {value} disagrees with sign det(-lambda S0) = {sign}"
        )
    return value


def _loop_cases():
    coupled = eqdeg.HamiltonianSpec.from_terms(
        2,
        [
            ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5),
            ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5),
            ((4, 0, 0, 0), 0.05), ((2, 0, 2, 0), 0.1),
        ],
        0.45,
    )  # the corpus map loop2-coupled-quartic
    cases = [
        (f"quartic dof={d}", selftest.quartic_hamiltonian(d, 0.4), 0.8, None)
        for d in (1, 2, 4, 6)
    ]
    cases += [
        (f"quartic dof=1 level={n}", selftest.quartic_hamiltonian(1, 0.4), 0.8, n)
        for n in (4, 8, 12)
    ]
    cases += [
        ("loop2-quadratic-mixed", selftest.quadratic_hamiltonian(2, [2.0, 0.5, 2.0, 0.5], 0.7), 1.0, None),
        ("loop2-coupled-quartic", coupled, 0.9, None),
    ]
    cases += [
        (f"quadratic dof=1 lambda={lam}", selftest.quadratic_hamiltonian(1, [1.0, 1.0], lam), 1.0, None)
        for lam in (0.5, 1.5)
    ]
    return cases


def _loop_op(name, spec, radius, level, program_seed) -> Operation:
    expected = expected_loop_degree(spec)
    kwargs = {"seed": program_seed}
    if level is not None:
        kwargs["level"] = level

    def call():
        return eqdeg.periodic_existence(spec, radius, **kwargs)

    def check(cert):
        res = cert.result
        if res.value != expected:
            return f"degree {res.value}, expected {expected}"
        if cert.certified == expected.is_zero:
            return f"certified={cert.certified} for degree {expected}"
        if any(n != 1 for n in res.diagnostics["zero_counts"]):
            return f"zero counts {res.diagnostics['zero_counts']}, expected one per level"
        if level is not None and res.level != level:
            return f"level {res.level}, expected {level}"
        return None

    return Operation(name, call, check)


def loops(seed: int, workdir: Path, counters: dict):
    ops = [_loop_op(*case, seed) for case in _loop_cases()]
    return ops[0], ops


# ---------------------------------------------------------------------------
# cli: eqdeg compute on problem files, in-process

# Kernel components of each abstract problem ("l" linear, "w" double well)
# and dof of each Hamiltonian problem in a pass; fixed, so that seeds change
# values but not sizes or shapes, which set the cost of an operation.
ABSTRACT_KERNELS = ("l", "w", "l", "w", "lw", "wl", "ww", "ll", "lww", "wlw", "www", "llw")
HAMILTONIAN_DOFS = (1, 1, 1, 2, 2, 2)
RESTRICTION_SHRINK = 0.9  # the CLI's restriction check shrinks the ball by this factor
CROSSING_GAP = 0.1  # smallest |eigenvalue| allowed in a mode block of a drawn Hamiltonian
_TIMING_LINE = re.compile(rb'\n *"timing_seconds": [^\n]*')

NORMALIZATION_DEMO_SPECTRUM = [(0.0, {"trivial": 2, "modes": []})] + [
    (s * k, {"trivial": 0, "modes": [[k, 1]]}) for k in (1, 2) for s in (-1.0, 1.0)
] + [(s * k, {"trivial": 1, "modes": []}) for k in (3, 4, 5, 6) for s in (-1.0, 1.0)]


def _axis_zeros(comp) -> list[tuple[float, int]]:
    """Zeros of one kernel component g_i = -dp_i/dx_i, with slope signs."""
    if comp[0] == "linear":  # g = c x
        return [(0.0, int(np.sign(comp[1])))]
    _, s, a = comp  # g = s (x^3 - a^2 x)
    return [(0.0, -s), (a, s), (-a, s)]


def _potential_terms(comps) -> list[dict]:
    """Terms of p with -grad p = (g_1, ..., g_n)."""
    n = len(comps)
    terms = []
    for i, comp in enumerate(comps):
        def exps(e):
            return [e if j == i else 0 for j in range(n)]

        if comp[0] == "linear":
            terms.append({"exps": exps(2), "coeff": -0.5 * comp[1]})
        else:
            _, s, a = comp
            terms.append({"exps": exps(4), "coeff": -0.25 * s})
            terms.append({"exps": exps(2), "coeff": 0.5 * s * a * a})
    return terms


def abstract_expected(comps, radius: float) -> Optional[RingElement]:
    """Signed count of the kernel zeros inside the ball, times the unit; None
    when a zero lies near the sphere of the ball or of the shrunk ball, or
    between the two, where the restriction check would rightly fail."""
    zeros = [
        (math.sqrt(sum(y * y for y, _ in combo)), math.prod(s for _, s in combo))
        for combo in itertools.product(*(_axis_zeros(c) for c in comps))
    ]
    inner, outer = RESTRICTION_SHRINK * radius, radius
    for r, _ in zeros:
        if inner * (1 - SPHERE_MARGIN) <= r <= outer * (1 + SPHERE_MARGIN):
            return None
    return _unit_multiple(sum(s for r, s in zeros if r < radius))


def _abstract_problem(rng, kernel: str) -> tuple[dict, RingElement]:
    """An abstract problem whose trivial kernel has one coordinate per
    letter of ``kernel``: "l" for g = c x, "w" for g = s (x^3 - a^2 x).

    Shell n holds -(n - u) and n - u'; for odd n the first is a trivial line
    and the second a mode plane, for even n the other way round, so every
    draw has the same dimensions and costs about the same.  The seed picks
    the offsets, the mode indices, the kernel components and the radius.
    """
    while True:
        comps = []
        for kind in kernel:
            if kind == "l":
                comps.append(("linear", float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5))))
            else:
                comps.append(("well", int(rng.choice([-1, 1])), float(rng.uniform(0.3, 1.2))))
        radius = float(rng.uniform(1.0, 2.0))
        expected = abstract_expected(comps, radius)
        if expected is not None:
            break
    spectrum = [(0.0, {"trivial": len(kernel), "modes": []})]
    for n in range(1, 8):
        for j, sign in enumerate((-1.0, 1.0)):
            lam = sign * (n - float(rng.uniform(0.0, 0.6)))
            if (n + j) % 2:
                rep = {"trivial": 1, "modes": []}
            else:
                rep = {"trivial": 0, "modes": [[int(rng.integers(1, 4)), 1]]}
            spectrum.append((lam, rep))
    return _abstract_json(spectrum, comps, radius), expected


def _abstract_json(spectrum, comps, radius) -> dict:
    return {
        "kind": "abstract",
        "group": "S1",
        "spectrum": [{"eigenvalue": lam, "rep": rep} for lam, rep in spectrum],
        "nonlinearity": {"variables": len(comps), "terms": _potential_terms(comps)},
        "radius": radius,
        "truncation": "auto",
    }


def _hamiltonian_json(dof, diag, lam, radius) -> dict:
    terms = []
    for i, c in enumerate(diag):
        exps = [0] * (2 * dof)
        exps[i] = 2
        terms.append({"exps": exps, "coeff": 0.5 * c})
    return {
        "kind": "hamiltonian",
        "group": "S1",
        "dof": dof,
        "terms": terms,
        "lambda": lam,
        "radius": radius,
        "truncation": "auto",
    }


def _hamiltonian_expected(problem: dict) -> RingElement:
    spec = eqdeg.HamiltonianSpec.from_terms(
        problem["dof"], [(t["exps"], t["coeff"]) for t in problem["terms"]], problem["lambda"]
    )
    return expected_loop_degree(spec)


def _hamiltonian_problem(rng, dof: int) -> tuple[dict, RingElement]:
    while True:
        diag = [float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)) for _ in range(2 * dof)]
        lam = float(rng.uniform(0.3, 1.2))
        S0 = np.diag(diag)
        gap = min(np.min(np.abs(np.linalg.eigvalsh(mode_block(S0, lam, k)))) for k in range(5))
        if gap < CROSSING_GAP:
            continue
        problem = _hamiltonian_json(dof, diag, lam, float(rng.uniform(0.8, 1.5)))
        return problem, _hamiltonian_expected(problem)


def cli_problems(seed: int) -> list[tuple[str, dict, RingElement]]:
    """The demo problems, then seeded abstract and Hamiltonian problems."""
    normalization = _abstract_json(
        NORMALIZATION_DEMO_SPECTRUM, [("linear", 1.0), ("linear", 1.0)], 1.0
    )
    quadratic_half = _hamiltonian_json(1, [1.0, 1.0], 0.5, 1.0)
    problems = [
        ("normalization", normalization, _unit_multiple(1)),
        ("quadratic_half", quadratic_half, _hamiltonian_expected(quadratic_half)),
    ]
    rng = np.random.default_rng(seed)
    for i, kernel in enumerate(ABSTRACT_KERNELS):
        problems.append((f"abstract-{i}", *_abstract_problem(rng, kernel)))
    for i, dof in enumerate(HAMILTONIAN_DOFS):
        problems.append((f"hamiltonian-{i}", *_hamiltonian_problem(rng, dof)))
    return problems


def _cli_op(name, problem, expected, seed, workdir: Path) -> Operation:
    path = workdir / f"{name}.json"
    report = workdir / f"{name}.report.json"
    path.write_text(json.dumps(problem, indent=2) + "\n", encoding="utf-8")
    argv = ["compute", str(path), "--json", str(report), "--seed", str(seed)]
    want_code = 2 if expected.is_zero else 0
    first: list[bytes] = []

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return eqdeg.cli.main(argv)

    def check(code):
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        raw = report.read_bytes()
        report.unlink()  # the next pass must write its own
        data = json.loads(raw)
        checks = data["checks"]
        if len(checks) != 3 or any(v != "pass" for v in checks.values()):
            return f"report checks {checks}"
        value = eqdeg.ring_element_from_json(data["degree"]["value"], CIRCLE)
        if value != expected:
            return f"degree {value}, expected {expected}"
        stable = _TIMING_LINE.sub(b"", raw)
        if not first:
            first.append(stable)
        elif stable != first[0]:
            return "report differs from the first pass beyond timing_seconds"
        return None

    return Operation(name, call, check)


def cli(seed: int, workdir: Path, counters: dict):
    ops = [_cli_op(n, p, e, seed, workdir) for n, p, e in cli_problems(seed)]
    warmup_problem = _hamiltonian_json(1, [1.0, 1.0], 0.5, 1.0)
    warmup = _cli_op("warmup", warmup_problem, _hamiltonian_expected(warmup_problem), seed, workdir)
    return warmup, ops


WORKLOADS = {"fixed-space": fixed_space, "loops": loops, "cli": cli}
