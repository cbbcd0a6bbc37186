"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its runtime and enforces the
stated wall-clock budget.  All equality assertions on ring elements are
exact (integer coefficient maps).
"""

import time

import numpy as np
import pytest

from eqdeg.errors import (
    DegenerateZero,
    MarginFailure,
    NoncompactZeroSet,
    SliceMarginFailure,
    ZeroOutsideFixedSpace,
)
from eqdeg.euler_ring import (
    CIRCLE,
    DirectLimitClass,
    GroupDescriptor,
    limit_class_equal,
    unit,
    unit_class,
)
from eqdeg.finite_degree import (
    brouwer_oracle,
    field_from_operator,
    grad_degree,
    linear_degree,
    product_degree,
)
from eqdeg.galerkin import (
    BallSpec,
    LocalMapSpec,
    OtopyPath,
    RegionSpec,
    deg_along_otopy,
    deg_infinite,
    normalization_map,
    scalar_nonlinearity,
)
from eqdeg.hamiltonian import (
    HamiltonianSpec,
    LoopState,
    default_quadrature_size,
    hamiltonian_gradient,
    loop_operator,
    periodic_existence,
    quadratic_spectral_degree,
)
from eqdeg.selftest import (
    corpus_local_maps,
    normalization_operators,
    quadratic_hamiltonian,
    random_fixed_space_field,
    random_ring_element,
    random_sym_op,
)

ONE = unit(CIRCLE)


class criterion:
    """Times a criterion, prints its PASS/FAIL line, enforces the budget."""

    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2}: {self.description}: {status} "
            f"({elapsed:.2f}s < {self.limit:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit:g}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_ring_axioms():
    with criterion(1, "ring axioms, 1000 random triples per group", 5.0):
        rng = np.random.default_rng(1001)
        groups = [CIRCLE] + [GroupDescriptor.cyclic(m) for m in (2, 3, 4, 6, 8)]
        for group in groups:
            one = unit(group)
            for _ in range(1000):
                a = random_ring_element(group, rng)
                b = random_ring_element(group, rng)
                c = random_ring_element(group, rng)
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert one * a == a


def test_criterion_02_linear_degree_invertibility():
    with criterion(2, "linear degrees of 200 random isomorphisms invert", 10.0):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            op = random_sym_op(rng)
            d = linear_degree(op)
            inv = d.invert()
            assert inv is not None
            assert d * inv == ONE


def test_criterion_03_brouwer_oracle_agreement():
    with criterion(3, "oracle agreement on 25 random polynomial fields", 60.0):
        rng = np.random.default_rng(1003)
        for i in range(25):
            d = int(rng.integers(1, 4))
            fld = random_fixed_space_field(rng, d)
            deg = grad_degree(fld, seed=1000 + i)
            oracle = brouwer_oracle(fld, seed=2000 + i)
            assert deg.coeff(unit_class(CIRCLE)) == oracle
            assert deg == oracle * ONE  # trivial action: no mode classes


def test_criterion_04_product_property():
    with criterion(4, "product property, 100 linear + 10 nonlinear pairs", 60.0):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            a, b = random_sym_op(rng), random_sym_op(rng)
            assert linear_degree(a.direct_sum(b)) == linear_degree(a) * linear_degree(b)
        for i in range(10):
            da, db = int(rng.integers(1, 3)), 1
            fa = random_fixed_space_field(rng, da, radius=2.2)
            if i % 2:
                fb = random_fixed_space_field(rng, db, radius=2.2)
                vb = grad_degree(fb, seed=300 + i)
            else:
                op = random_sym_op(rng)
                while op.rep.dim == 0:
                    op = random_sym_op(rng)
                fb = field_from_operator(op)
                vb = linear_degree(op)
            va = grad_degree(fa, seed=400 + i)
            assert product_degree(fa, fb, seed=500 + i) == va * vb


def test_criterion_05_normalization():
    with criterion(5, "normalization A + P0 over six operators", 30.0):
        for name, op in normalization_operators():
            res = deg_infinite(normalization_map(op))
            assert res.value == ONE, name


def test_criterion_06_stabilization():
    with criterion(6, "corrected degree identical at N, N+1, N+2", 120.0):
        for inst in corpus_local_maps():
            res = deg_infinite(inst.build(), stabilization_depth=2)
            assert len(res.stabilization) == 3
            assert all(v == res.value for v in res.stabilization), inst.name
            if inst.expected is not None:
                assert res.value == inst.expected, inst.name


def test_criterion_07_domain_independence():
    with criterion(7, "degree independent of the admissible domain", 60.0):
        for inst in corpus_local_maps():
            f = inst.build()
            base = f.region.balls[0].radius
            kernel_dim = f.operator.basis(0).dim
            reference = deg_infinite(f).value
            shrunk = deg_infinite(f.with_region(RegionSpec.ball(0.75 * base))).value
            assert shrunk == reference, inst.name
            center = (0.05 * base,) + (0.0,) * (kernel_dim - 1)
            anticenter = (-0.05 * base,) + (0.0,) * (kernel_dim - 1)
            left = BallSpec(0.9 * base, center, 0)
            right = BallSpec(0.9 * base, anticenter, 0)
            overlap_l = deg_infinite(f.with_region(RegionSpec((left,)))).value
            overlap_r = deg_infinite(f.with_region(RegionSpec((right,)))).value
            overlap_i = deg_infinite(
                f.with_region(RegionSpec((left, right), mode="intersection"))
            ).value
            assert overlap_l == overlap_r == overlap_i == reference, inst.name


def test_criterion_08_otopy_invariance():
    with criterion(8, "constant degree along certified otopies", 60.0):
        def family(t):
            return LocalMapSpec(
                loop_operator(1),
                scalar_nonlinearity(0.4 + 0.2 * t),
                RegionSpec.ball(1.0),
                name=f"shift {0.4 + 0.2 * t:.2f}",
            )

        results = deg_along_otopy(OtopyPath.uniform(family, steps=10))
        assert len(results) == 11
        assert all(r.value == results[0].value for r in results)

        def crossing(u):
            return LocalMapSpec(
                loop_operator(1),
                scalar_nonlinearity(0.5 + u),
                RegionSpec.ball(1.0),
                name=f"shift {0.5 + u:.2f}",
            )

        with pytest.raises(SliceMarginFailure):
            deg_along_otopy(OtopyPath.uniform(crossing, steps=10))


def test_criterion_09_hamiltonian_end_to_end():
    with criterion(9, "Hamiltonian certificates and quadratic closed form", 120.0):
        cert = periodic_existence(quadratic_hamiltonian(1, [1.0, 1.0], 0.5), 1.0)
        assert cert.result.value == ONE
        assert cert.certified

        with pytest.raises(
            (NoncompactZeroSet, DegenerateZero, ZeroOutsideFixedSpace, MarginFailure)
        ):
            periodic_existence(quadratic_hamiltonian(1, [1.0, 1.0], 1.0), 1.0)

        cases = [
            (1, [((2, 0), 0.5), ((0, 2), 0.5)], 0.5),
            (1, [((2, 0), 0.5), ((0, 2), 0.5)], 1.5),
            (1, [((2, 0), 0.8), ((0, 2), 0.3), ((1, 1), 0.25)], 0.9),
            (2, [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 0.25),
                 ((0, 0, 2, 0), 1.0), ((0, 0, 0, 2), 0.25)], 0.7),
            (1, [((2, 0), -0.5), ((0, 2), -0.5)], 0.6),
        ]
        for dof, terms, lam in cases:
            spec = HamiltonianSpec.from_terms(dof, terms, lam)
            got = periodic_existence(spec, 1.0).result.value
            assert got == quadratic_spectral_degree(spec), (dof, terms, lam)


def test_criterion_10_direct_limit_consistency():
    with criterion(10, "limit classes equivalent to corrected values", 10.0):
        for inst in corpus_local_maps():
            res = deg_infinite(inst.build())
            assert res.limit_class_consistent(), inst.name
            anchor = DirectLimitClass(0, res.value, ())
            assert limit_class_equal(anchor, res.limit_class), inst.name


def test_criterion_11_gradient_consistency():
    with criterion(11, "action gradient vs central differences, 50 pairs", 30.0):
        rng = np.random.default_rng(1011)
        import math

        for _ in range(50):
            dof = int(rng.integers(1, 3))
            nv = 2 * dof
            terms = []
            for _ in range(4):
                exps = rng.integers(0, 3, size=nv)
                if sum(exps) == 0:
                    continue
                terms.append((tuple(int(x) for x in exps), float(rng.uniform(-0.8, 0.8))))
            if not terms:
                terms = [((2,) + (0,) * (nv - 1), 0.5)]
            spec = HamiltonianSpec.from_terms(dof, terms, 1.0)
            modes = int(rng.integers(1, 4))
            u = LoopState(dof, rng.standard_normal(nv),
                          rng.standard_normal((modes, nv)), rng.standard_normal((modes, nv)))
            v = LoopState(dof, rng.standard_normal(nv),
                          rng.standard_normal((modes, nv)), rng.standard_normal((modes, nv)))
            M = default_quadrature_size(spec.potential.degree + 1, modes)

            def action(state):
                vals = spec.potential.value(state.values_on_grid(M))
                return float(np.sum(vals)) * 2.0 * math.pi / M

            h = 1e-5
            up = LoopState(dof, u.constant + h * v.constant, u.cos + h * v.cos, u.sin + h * v.sin)
            dn = LoopState(dof, u.constant - h * v.constant, u.cos - h * v.cos, u.sin - h * v.sin)
            fd = (action(up) - action(dn)) / (2 * h)
            g = hamiltonian_gradient(spec, u)
            n = min(g.modes, v.modes)
            inner = 2.0 * math.pi * float(g.constant @ v.constant)
            inner += math.pi * float(np.sum(g.cos[:n] * v.cos[:n]) + np.sum(g.sin[:n] * v.sin[:n]))
            assert abs(inner - fd) <= 1e-6 * max(1.0, abs(fd))
