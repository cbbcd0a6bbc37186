"""Embedded property suites and the shared verification corpus.

The CLI selftest subcommand runs these suites; the pytest acceptance
module drives the same corpus at larger sample counts.  Everything is
seeded and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import Ball
from .errors import DegreeError
from .euler_ring import (
    CIRCLE,
    FULL,
    GroupDescriptor,
    RingElement,
    SubgroupClass,
    unit,
    unit_class,
)
from .finite_degree import GradientField, brouwer_oracle, grad_degree, linear_degree
from .galerkin import (
    LocalMapSpec,
    RegionSpec,
    deg_infinite,
    normalization_map,
    potential_nonlinearity,
)
from .hamiltonian import HamiltonianSpec, local_map
from .polynomials import Polynomial
from .reps import EquivariantSymOp, Rep, SpectralOperator


# ---------------------------------------------------------------------------
# Random generators


def random_ring_element(
    group: GroupDescriptor,
    rng: np.random.Generator,
    max_support: int = 4,
    coeff_bound: int = 5,
    max_mode: int = 9,
) -> RingElement:
    coeffs = {}
    if group.is_circle:
        pool = [FULL] + [SubgroupClass.finite(k) for k in range(1, max_mode + 1)]
    else:
        pool = [SubgroupClass.divisor(d) for d in group.divisors()]
    count = int(rng.integers(0, min(max_support, len(pool)) + 1))
    picks = rng.choice(len(pool), size=count, replace=False)
    for i in picks:
        c = int(rng.integers(-coeff_bound, coeff_bound + 1))
        coeffs[pool[int(i)]] = c
    return RingElement.make(group, coeffs)


def random_sym_op(rng: np.random.Generator, max_mode: int = 5) -> EquivariantSymOp:
    """A random equivariant self-adjoint isomorphism (no near-zero eigenvalues)."""
    trivial = int(rng.integers(0, 4))
    n_modes = int(rng.integers(0, 4))
    modes = {}
    ks = rng.choice(np.arange(1, max_mode + 1), size=n_modes, replace=False)
    for k in ks:
        modes[int(k)] = int(rng.integers(1, 3))
    rep = Rep(trivial, tuple(modes.items()))

    def spectrum(n):
        signs = rng.choice([-1.0, 1.0], size=n)
        return signs * rng.uniform(0.2, 2.0, size=n)

    tb = np.zeros((trivial, trivial))
    if trivial:
        q, _ = np.linalg.qr(rng.standard_normal((trivial, trivial)))
        tb = q @ np.diag(spectrum(trivial)) @ q.T
        tb = 0.5 * (tb + tb.T)
    blocks = {}
    for k, n in rep.modes:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        b = q @ np.diag(spectrum(n)).astype(complex) @ q.conj().T
        blocks[k] = 0.5 * (b + b.conj().T)
    return EquivariantSymOp(rep, tb, blocks)


def random_fixed_space_field(
    rng: np.random.Generator, dim: int, radius: float = 2.5
) -> GradientField:
    """A polynomial gradient field on a trivial representation with known,
    nondegenerate, well-separated zeros: separable one-dimensional
    potentials composed with a random rotation."""
    kinds = rng.integers(0, 3, size=dim)  # 0: +x, 1: -x, 2: double well
    wells = rng.uniform(0.6, 1.4, size=dim)
    q = np.eye(dim)
    if dim > 1:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))

    def grad1(kind, a, x):
        if kind == 0:
            return x
        if kind == 1:
            return -x
        return x**3 - a * a * x

    def value(X):
        Y = np.atleast_2d(X) @ q  # rows of Q^T x
        G = np.empty_like(Y)
        for i in range(dim):
            G[:, i] = grad1(kinds[i], wells[i], Y[:, i])
        return G @ q.T

    return GradientField(
        rep=Rep(dim),
        value=value,
        domain=Ball(np.zeros(dim), radius),
        name=f"random field(d={dim})",
    )


def brute_force_inverse(a: RingElement, coeff_bound: int = 2) -> Optional[RingElement]:
    """Exhaustive small-coefficient inverse search over cyclic-group elements."""
    group = a.group
    divs = group.divisors()
    one = unit(group)
    ranges = [range(-coeff_bound, coeff_bound + 1)] * len(divs)
    for combo in itertools.product(*ranges):
        cand = RingElement.make(
            group, {SubgroupClass.divisor(d): c for d, c in zip(divs, combo)}
        )
        if a * cand == one:
            return cand
    return None


# ---------------------------------------------------------------------------
# Synthetic spectral operators and the local-map corpus


def synthetic_operator_a() -> SpectralOperator:
    """Trivial kernel plane; each shell adds one negative trivial line and
    one positive mode-n plane."""

    def shells(n):
        if n == 0:
            return [(0.0, Rep(2))]
        return [(-(n - 0.25), Rep(1)), (n - 0.5, Rep(0, ((n, 1),)))]

    return SpectralOperator(shells, label="synthetic-a")


def synthetic_operator_b() -> SpectralOperator:
    """Kernel with a mode-2 plane; shells mix negative mode-1 planes with
    positive trivial lines."""

    def shells(n):
        if n == 0:
            return [(0.0, Rep(1, ((2, 1),)))]
        return [(-(n - 0.3), Rep(0, ((1, 1),))), (float(n), Rep(1))]

    return SpectralOperator(shells, label="synthetic-b")


def synthetic_operator_c() -> SpectralOperator:
    """An explicit finite spectral table with mixed shell contents."""
    table = {
        0: [(0.0, Rep(2))],
        1: [(0.5, Rep(1, ((1, 1),))), (-1.0, Rep(0, ((3, 1),)))],
        2: [(1.5, Rep(2)), (-1.75, Rep(0, ((1, 2),)))],
    }
    for n in range(3, 13):
        table[n] = [(n - 0.5, Rep(1)), (-(n - 0.5), Rep(0, ((2, 1),)))]
    return SpectralOperator(table, label="synthetic-c")


def quadratic_hamiltonian(dof: int, diag: Sequence[float], lam: float) -> HamiltonianSpec:
    terms = []
    for i, c in enumerate(diag):
        e = [0] * (2 * dof)
        e[i] = 2
        terms.append((e, 0.5 * c))
    return HamiltonianSpec.from_terms(dof, terms, lam)


def quartic_hamiltonian(dof: int, lam: float, quartic_coeff: float = 0.3) -> HamiltonianSpec:
    """H = |z|^2 / 2 + quartic_coeff * z_1^4 / 4."""
    terms = []
    for i in range(2 * dof):
        e = [0] * (2 * dof)
        e[i] = 2
        terms.append((e, 0.5))
    e = [0] * (2 * dof)
    e[0] = 4
    terms.append((e, quartic_coeff / 4.0))
    return HamiltonianSpec.from_terms(dof, terms, lam)


def _e(k: int) -> RingElement:
    return RingElement.make(CIRCLE, {SubgroupClass.finite(k): 1})


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    build: Callable[[], LocalMapSpec]
    expected: Optional[RingElement]


def corpus_local_maps() -> list[CorpusInstance]:
    """Local maps with hand-derived degrees, exercising kernels with and
    without mode planes, trivial shell parts, and Fourier tails."""
    one = unit(CIRCLE)

    def loop1_quadratic():
        return local_map(quadratic_hamiltonian(1, [1.0, 1.0], 0.5), radius=1.0)

    def loop1_quartic():
        return local_map(quartic_hamiltonian(1, 0.4), radius=0.8)

    def loop2_mixed():
        return local_map(quadratic_hamiltonian(2, [2.0, 0.5, 2.0, 0.5], 0.7), radius=1.0)

    def loop2_coupled_quartic():
        spec = HamiltonianSpec.from_terms(
            2,
            [
                ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5),
                ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5),
                ((4, 0, 0, 0), 0.05), ((2, 0, 2, 0), 0.1),
            ],
            0.45,
        )
        return local_map(spec, radius=0.9)

    def abstract_a():
        # Double well along the first kernel coordinate, restoring force on
        # the second: zeros at x1 in {-0.5, 0, +0.5}.
        poly = Polynomial.from_terms(
            2, [((4, 0), 0.25), ((2, 0), -0.125), ((0, 2), 0.25)]
        )
        return LocalMapSpec(
            operator=synthetic_operator_a(),
            nonlinearity=potential_nonlinearity(poly),
            region=RegionSpec.ball(1.5),
            name="abstract-a double well",
        )

    def abstract_b():
        # Invariant quadratic potential over the kernel (one trivial line
        # plus a mode-2 plane): Hessian mixes signs across isotypes.
        poly = Polynomial.from_terms(
            3, [((2, 0, 0), -0.4), ((0, 2, 0), 0.3), ((0, 0, 2), 0.3)]
        )
        return LocalMapSpec(
            operator=synthetic_operator_b(),
            nonlinearity=potential_nonlinearity(poly),
            region=RegionSpec.ball(1.2),
            name="abstract-b quadratic",
        )

    return [
        CorpusInstance("loop1-quadratic", loop1_quadratic, one),
        CorpusInstance("loop1-quartic", loop1_quartic, one),
        CorpusInstance("loop2-quadratic-mixed", loop2_mixed, one - _e(1)),
        CorpusInstance("loop2-coupled-quartic", loop2_coupled_quartic, one),
        CorpusInstance("abstract-a", abstract_a, one),
        CorpusInstance("abstract-b", abstract_b, one - _e(2)),
    ]


def normalization_operators() -> list[tuple[str, SpectralOperator]]:
    from .hamiltonian import loop_operator

    ops = [(f"loop dof={n}", loop_operator(n)) for n in (1, 2, 3)]
    ops += [
        ("synthetic-a", synthetic_operator_a()),
        ("synthetic-b", synthetic_operator_b()),
        ("synthetic-c", synthetic_operator_c()),
    ]
    return ops


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite_ring(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    groups = [CIRCLE] + [GroupDescriptor.cyclic(m) for m in (2, 3, 4, 6, 8)]
    checked = 0
    for group in groups:
        one = unit(group)
        for _ in range(200):
            a = random_ring_element(group, rng)
            b = random_ring_element(group, rng)
            c = random_ring_element(group, rng)
            if (a + b) + c != a + (b + c) or a + b != b + a:
                return SuiteResult("ring", False, f"additive axiom failed over {group}")
            if (a * b) * c != a * (b * c) or a * b != b * a:
                return SuiteResult("ring", False, f"multiplicative axiom failed over {group}")
            if a * (b + c) != a * b + a * c:
                return SuiteResult("ring", False, f"distributivity failed over {group}")
            if one * a != a:
                return SuiteResult("ring", False, f"unit law failed over {group}")
            for elem in (a + b, a * b):
                if any(v == 0 for _, v in elem.terms):
                    return SuiteResult("ring", False, "zero coefficient survived")
            checked += 1
    # invertibility cross-check on small cyclic groups
    brute_checked = 0
    for m in (2, 3, 4, 6, 8):
        group = GroupDescriptor.cyclic(m)
        for _ in range(30):
            a = random_ring_element(group, rng, coeff_bound=2)
            inv = a.invert()
            if inv is not None:
                if a * inv != unit(group):
                    return SuiteResult("ring", False, f"bad inverse over {group}")
            elif brute_checked < 25:
                if brute_force_inverse(a) is not None:
                    return SuiteResult("ring", False, f"missed an inverse over {group}")
                brute_checked += 1
    return SuiteResult("ring", True, f"{checked} random triples, {brute_checked} brute-force inverse checks")


def _suite_oracle(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    fields = 0
    for _ in range(8):
        d = int(rng.integers(1, 4))
        fld = random_fixed_space_field(rng, d)
        deg = grad_degree(fld, seed=int(rng.integers(0, 2**31)))
        oracle = brouwer_oracle(fld, seed=int(rng.integers(0, 2**31)))
        if deg.coeff(unit_class(CIRCLE)) != oracle:
            return SuiteResult("oracle", False, f"fixed-space coefficient != oracle on {fld.name}")
        fields += 1
    for _ in range(50):
        op = random_sym_op(rng)
        d = linear_degree(op)
        if d.invert() is None:
            return SuiteResult("oracle", False, "linear degree not invertible")
    return SuiteResult("oracle", True, f"{fields} oracle agreements, 50 invertibility checks")


def _suite_stabilization(seed: int) -> SuiteResult:
    for inst in corpus_local_maps():
        try:
            res = deg_infinite(inst.build(), stabilization_depth=2, seed=seed)
        except DegreeError as exc:
            return SuiteResult("stabilization", False, f"{inst.name}: {exc}")
        if inst.expected is not None and res.value != inst.expected:
            return SuiteResult(
                "stabilization",
                False,
                f"{inst.name}: got {res.value}, expected {inst.expected}",
            )
        if not res.limit_class_consistent():
            return SuiteResult("stabilization", False, f"{inst.name}: limit class inconsistent")
    for name, op in normalization_operators():
        res = deg_infinite(normalization_map(op), seed=seed)
        if res.value != unit(CIRCLE):
            return SuiteResult("stabilization", False, f"normalization failed for {name}")
    return SuiteResult(
        "stabilization",
        True,
        f"{len(corpus_local_maps())} corpus maps stable over three levels, "
        f"{len(normalization_operators())} normalization checks",
    )


SUITES = {
    "ring": _suite_ring,
    "oracle": _suite_oracle,
    "stabilization": _suite_stabilization,
}


def run_suites(names: Optional[Sequence[str]] = None, seed: int = 0) -> list[SuiteResult]:
    chosen = list(SUITES) if not names else list(names)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(SUITES[name](seed))
    return results
