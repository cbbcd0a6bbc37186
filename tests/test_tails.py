"""Exact projection tails on V_n and the one boundary pass per level.

A map's declared tail |(I - P_n) F| is checked against tails estimated
here from F on much finer levels, and against the estimate on the level
n + 4 that it replaced, which can only miss part of the tail.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import eqdeg.galerkin
from eqdeg.cli import build_problem
from eqdeg.finite_degree import BOUNDARY_PER_DIM, grad_degree
from eqdeg.galerkin import (
    LocalMapSpec,
    RegionSpec,
    certify_margin,
    correction_factor,
    deg_infinite,
    direct_sum_local_maps,
    kernel_projection_nonlinearity,
    normalization_map,
    potential_nonlinearity,
    scalar_nonlinearity,
    shell_field,
    zero_nonlinearity,
)
from eqdeg.hamiltonian import HamiltonianSpec, local_map, loop_operator
from eqdeg.polynomials import Polynomial
from eqdeg.selftest import corpus_local_maps, quartic_hamiltonian, synthetic_operator_a

from declarations import declared

DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"
OFFSET = 4  # tails were once estimated on the level n + OFFSET


def sextic_map():
    """H = |z|^2/2 + |z|^6/6 on R^2, lambda 0.4, on the ball of radius 0.8."""
    terms = [((2, 0), 0.5), ((0, 2), 0.5)]
    terms += [((6, 0), 1 / 6), ((4, 2), 0.5), ((2, 4), 0.5), ((0, 6), 1 / 6)]
    return local_map(HamiltonianSpec.from_terms(1, terms, 0.4), radius=0.8)


def offset_tail(f, X, n, m, *, with_scale=False):
    """|(P_m - P_n) F(x)| for the rows x of X in V_n, from F on V_m, and
    on request |F(x)| on V_m, the scale of its rounding."""
    basis, basis_m = f.operator.basis(n), f.operator.basis(m)
    Xm = np.zeros((len(X), basis_m.dim))
    Xm[:, : basis.dim] = X
    F = f.nonlinearity(Xm, basis_m)
    tail = np.linalg.norm(F[:, basis.dim :], axis=1)
    return (tail, np.linalg.norm(F, axis=1)) if with_scale else tail


def boundary(f, n, seed=0):
    fld = shell_field(f, n)
    return fld.domain.boundary_samples(BOUNDARY_PER_DIM * fld.rep.dim, np.random.default_rng(seed))


def demo_maps():
    return [
        build_problem(json.loads((DEMO_PROBLEMS / f"{name}.json").read_text()))[0]
        for name in ("normalization", "quadratic_half")
    ]


def test_sextic_tail_matches_a_far_reference_level():
    f = sextic_map()
    margin = certify_margin(f, 3)
    assert f"{margin.tail:.5e}" == "1.38463e-03"
    far = offset_tail(f, margin.samples, 3, 23)
    assert abs(margin.tail - far.max()) < 1e-10
    exact = f.tail(margin.samples, f.operator.basis(3))
    assert np.max(np.abs(exact - far)) < 1e-10
    # the level n + 4 misses part of this tail
    assert offset_tail(f, margin.samples, 3, 3 + OFFSET).max() < margin.tail - 2e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_tails_bound_the_reference_level_estimate(n):
    maps = [inst.build() for inst in corpus_local_maps()] + demo_maps()
    for f in maps:
        top = f.operator.max_level
        m = n + OFFSET if top is None else min(n + OFFSET, top)
        if m <= n:
            continue
        X = boundary(f, n)
        exact = f.tail(X, f.operator.basis(n))
        estimate, scale = offset_tail(f, X, n, m, with_scale=True)
        # the estimate carries the rounding of F's grid sums on V_m: for a
        # quadratic H, whose affine F keeps V_n, it is nothing else
        rounding = 64 * np.finfo(float).eps * scale
        assert np.all(exact >= estimate - rounding), (f.name, n)
        assert np.any(exact > 0) == np.any(estimate > rounding), (f.name, n)


def test_quartic_tails_match_a_far_reference_level():
    for inst in corpus_local_maps():
        f = inst.build()
        if f.operator.max_level is not None:
            continue
        for n in (1, 2):
            X = boundary(f, n)
            exact = f.tail(X, f.operator.basis(n))
            assert np.max(np.abs(exact - offset_tail(f, X, n, n + 12))) < 1e-10, (inst.name, n)


def test_nonlinearities_inside_v_n_have_exactly_zero_tail():
    op = synthetic_operator_a()
    poly = Polynomial.from_terms(2, [((4, 0), 0.25), ((2, 0), -0.125), ((0, 2), 0.25)])
    maps = [
        LocalMapSpec(op, potential_nonlinearity(poly), RegionSpec.ball(1.5), name="potential"),
        LocalMapSpec(op, kernel_projection_nonlinearity(), RegionSpec.ball(1.0), name="kernel"),
        LocalMapSpec(loop_operator(1), scalar_nonlinearity(0.5), RegionSpec.ball(1.0), name="scalar"),
        LocalMapSpec(loop_operator(1), zero_nonlinearity, RegionSpec.ball(1.0), name="zero"),
        normalization_map(loop_operator(2)),
    ]
    for f in maps:
        for n in (1, 2):
            X = boundary(f, n)
            assert np.all(f.tail(X, f.operator.basis(n)) == 0.0), f.name
        margin = certify_margin(f, 2)
        assert margin.tail == 0.0, f.name
    assert deg_infinite(maps[-1]).tail_bound == 0.0


def test_a_quadratic_hamiltonian_has_no_tail():
    f = demo_maps()[1]
    assert certify_margin(f, 1).tail == 0.0


def test_direct_sum_tail_is_the_hypot_of_the_summand_tails():
    f = local_map(quartic_hamiltonian(1, 0.4, quartic_coeff=0.8), radius=0.9)
    g = sextic_map()
    fg = direct_sum_local_maps(f, g)
    n = 2
    basis = fg.operator.basis(n)
    X = boundary(fg, n)
    (ia, _), (ib, _) = basis.parts
    tails = fg.tail(X, basis)
    parts = np.hypot(f.tail(X[:, ia], f.operator.basis(n)), g.tail(X[:, ib], g.operator.basis(n)))
    assert np.array_equal(tails, parts)
    assert np.max(np.abs(tails - offset_tail(fg, X, n, n + 20))) < 1e-10
    # a summand cannot be built without a tail
    with pytest.raises(ValueError, match="tail"):
        LocalMapSpec(f.operator, lambda X, basis: f.nonlinearity(X, basis), f.region)


# ---------------------------------------------------------------------------
# One boundary pass per level


def counted(f):
    """f with its nonlinearity recording (level, rows) of every call."""
    calls = []
    inner = f.nonlinearity

    def nonlinearity(X, basis):
        calls.append((basis.level, len(X)))
        return inner(X, basis)

    nonlinearity = declared(nonlinearity, jacobian=f.jacobian, affine=f.affine, tail=f.tail)
    return LocalMapSpec(f.operator, nonlinearity, f.region, f.name), calls


@pytest.mark.parametrize("depth", [1, 2])
def test_each_level_evaluates_its_boundary_once(depth):
    f, calls = counted(local_map(quartic_hamiltonian(2, 0.4), radius=0.8))
    res = deg_infinite(f, stabilization_depth=depth)
    levels = res.diagnostics["levels_checked"]
    assert {level for level, _ in calls} == set(levels)  # nothing on a finer level
    for n in levels:
        count = BOUNDARY_PER_DIM * f.operator.basis(n).dim
        assert calls.count((n, count)) == 1, n


def test_a_sampling_budget_sizes_each_levels_one_pass():
    f, calls = counted(local_map(quartic_hamiltonian(1, 0.4), radius=0.8))
    res = deg_infinite(f, budget=100)
    assert res.diagnostics["sample_budget"] == 100
    for n in res.diagnostics["levels_checked"]:
        assert calls.count((n, 100)) == 1
        assert calls.count((n, BOUNDARY_PER_DIM * f.operator.basis(n).dim)) == 0


def test_each_level_builds_its_field_once(monkeypatch):
    built = []
    original = eqdeg.galerkin.shell_field

    def shell_field(f, n):
        built.append(n)
        return original(f, n)

    monkeypatch.setattr(eqdeg.galerkin, "shell_field", shell_field)
    res = deg_infinite(local_map(quartic_hamiltonian(1, 0.4), radius=0.8), stabilization_depth=2)
    assert built == res.diagnostics["levels_checked"] == [1, 2, 3]


def test_shared_and_separate_passes_give_the_same_degrees():
    # each level's degree on the certified pass against grad_degree on a
    # field of its own, which draws its own boundary pass
    for inst in corpus_local_maps():
        f = inst.build()
        shared = deg_infinite(f, stabilization_depth=2)
        for j, n in enumerate(shared.diagnostics["levels_checked"]):
            degree, zeros = grad_degree(shell_field(f, n), seed=0, return_zeros=True)
            assert correction_factor(f.operator, n) * degree == shared.stabilization[j], (inst.name, n)
            assert len(zeros) == shared.diagnostics["zero_counts"][j], (inst.name, n)


def test_certify_margin_builds_no_basis_above_its_level(monkeypatch):
    f = local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
    op = f.operator
    requested = []
    original = type(op).basis

    def basis(self, n):
        requested.append(n)
        return original(self, n)

    monkeypatch.setattr(type(op), "basis", basis)
    certify_margin(f, 2)
    assert requested and max(requested) == 2
