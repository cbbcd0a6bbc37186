"""Fields declared affine: the declarations hold, the zero search solves
them from one start without probes, a false declaration is caught, and
Newton evaluates each point once."""

import dataclasses
import json

import numpy as np
import pytest

import eqdeg.cli
import eqdeg.finite_degree as finite_degree
from eqdeg.cli import EXIT_CERTIFICATION, main
from eqdeg.domains import Ball
from eqdeg.errors import AffinityFailure, ZeroOutsideFixedSpace
from eqdeg.euler_ring import CIRCLE, FULL, unit, zero
from eqdeg.finite_degree import (
    GradientField,
    OrbitNormalForm,
    _newton_batch,
    field_from_operator,
    grad_degree,
    orbit_normal_form_field,
    product_field,
)
from eqdeg.galerkin import (
    LocalMapSpec,
    RegionSpec,
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
from eqdeg.reps import EquivariantSymOp, Rep
from eqdeg.selftest import (
    corpus_local_maps,
    normalization_operators,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    random_fixed_space_field,
    random_sym_op,
    synthetic_operator_a,
    synthetic_operator_b,
)

from declarations import declared

AFFINE_RTOL = 1e-12  # f(x) - f(0) - J(0) x against the largest |f(x)| sampled
CORPUS = {inst.name: inst for inst in corpus_local_maps()}
S_COUPLED = HamiltonianSpec.from_terms(  # demo 04: quadratic with a (1,1) term
    1, [((2, 0), 0.8), ((0, 2), 0.3), ((1, 1), 0.25)], 0.9
)
QUADRATIC_POTENTIAL = Polynomial.from_terms(2, [((2, 0), -0.4), ((1, 1), 0.2), ((0, 1), 0.1)])
CUBIC_POTENTIAL = Polynomial.from_terms(2, [((2, 0), -0.4), ((3, 0), 0.2), ((0, 2), 0.3)])


def affine_maps():
    maps = {f"normalization {name}": normalization_map(op) for name, op in normalization_operators()}
    maps["quadratic dof=1"] = local_map(quadratic_hamiltonian(1, [1.0, 1.0], 0.5), radius=1.0)
    maps["quadratic dof=2"] = local_map(quadratic_hamiltonian(2, [2.0, 0.5, 2.0, 0.5], 0.7), radius=1.0)
    maps["demo 04 S_coupled"] = local_map(S_COUPLED, radius=1.0)
    maps["abstract-b quadratic potential"] = CORPUS["abstract-b"].build()
    for name, nonlinearity in (
        ("zero", zero_nonlinearity),
        ("scalar", scalar_nonlinearity(0.3)),
        ("kernel projection", kernel_projection_nonlinearity()),
        ("quadratic potential", potential_nonlinearity(QUADRATIC_POTENTIAL)),
    ):
        maps[name] = LocalMapSpec(synthetic_operator_a(), nonlinearity, RegionSpec.ball(1.0))
    maps["quadratic loops x normalization"] = direct_sum_local_maps(
        maps["quadratic dof=1"], normalization_map(synthetic_operator_b())
    )
    return maps


def affine_fields():
    rng = np.random.default_rng(3)
    ops = [op for op in (random_sym_op(rng) for _ in range(12)) if op.rep.dim][:2]
    linear_a, linear_b = (field_from_operator(op) for op in ops)
    normal = orbit_normal_form_field(OrbitNormalForm(FULL, Rep(2, ((1, 1),))))
    return {
        "linear": linear_a,
        "normal form (fixed orbit)": normal,
        "linear x linear": product_field(linear_a, linear_b),
        "linear x normal form": product_field(linear_a, normal),
    }


def non_affine_maps():
    return {
        "quartic potential": CORPUS["abstract-a"].build(),
        "cubic potential": LocalMapSpec(
            synthetic_operator_a(), potential_nonlinearity(CUBIC_POTENTIAL), RegionSpec.ball(1.0)
        ),
        "quartic hamiltonian": local_map(quartic_hamiltonian(1, 0.4), radius=0.8),
        "affine x quartic": direct_sum_local_maps(
            normalization_map(synthetic_operator_b()), local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
        ),
    }


def affine_gap(fld: GradientField, rng) -> float:
    """max |f(x) - f(0) - J(0) x| over 50 interior points, relative to max |f(x)|."""
    X = fld.domain.interior_samples(50, rng)
    origin = np.zeros((1, fld.layout.size))
    J = fld.jacobian(origin, list(range(fld.layout.size)))[0]
    F = fld.evaluate(X)
    return float(np.max(np.abs(F - fld.evaluate(origin) - X @ J.T)) / np.max(np.abs(F)))


@pytest.mark.parametrize("name", sorted(affine_maps()))
@pytest.mark.parametrize("level", [1, 2, 3])
def test_declared_affine_maps_equal_their_linearization(name, level):
    lm = affine_maps()[name]
    fld = shell_field(lm, level)
    assert lm.affine and fld.affine
    assert affine_gap(fld, np.random.default_rng(level)) <= AFFINE_RTOL


@pytest.mark.parametrize("name", sorted(affine_fields()))
def test_declared_affine_fields_equal_their_linearization(name):
    fld = affine_fields()[name]
    assert fld.affine
    assert affine_gap(fld, np.random.default_rng(5)) <= AFFINE_RTOL


@pytest.mark.parametrize("name", sorted(non_affine_maps()))
def test_nonlinear_maps_are_not_declared_affine(name):
    lm = non_affine_maps()[name]
    fld = shell_field(lm, 2)
    assert not lm.affine and not fld.affine
    assert affine_gap(fld, np.random.default_rng(6)) > 1e-6


def test_random_fixed_space_field_is_not_declared_affine():
    assert not random_fixed_space_field(np.random.default_rng(0), 3).affine


def test_user_nonlinearity_is_not_declared_affine():
    lm = LocalMapSpec(
        synthetic_operator_a(),
        declared(lambda X, basis: 0.3 * X, tail=lambda X, basis: np.zeros(len(X))),
        RegionSpec.ball(1.0),
    )
    assert not lm.affine and not shell_field(lm, 1).affine


def test_with_region_keeps_the_declaration():
    lm = normalization_map(loop_operator(1))
    assert lm.with_region(RegionSpec.ball(0.5)).affine


def search_calls(monkeypatch):
    """Record the number of starts of every Newton batch, and count the
    off-space scans."""
    calls = {"starts": [], "scans": 0}
    newton, scan = finite_degree._newton_batch, finite_degree._scan_off_space_zeros

    def counted_newton(fld, seeds, **kwargs):
        calls["starts"].append(len(seeds))
        return newton(fld, seeds, **kwargs)

    def counted_scan(*args, **kwargs):
        calls["scans"] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(finite_degree, "_newton_batch", counted_newton)
    monkeypatch.setattr(finite_degree, "_scan_off_space_zeros", counted_scan)
    return calls


def test_nonsingular_affine_field_takes_one_start_and_no_probe(monkeypatch):
    fld = shell_field(local_map(S_COUPLED, radius=1.0), 2)
    assert fld.layout.pairs and fld.layout.trivial
    general = dataclasses.replace(fld, affine=False)
    calls = search_calls(monkeypatch)
    value, zeros = grad_degree(fld, return_zeros=True)
    assert calls == {"starts": [1], "scans": 0}
    assert len(zeros) == 1
    assert grad_degree(general) == value
    assert calls["starts"][1] > 1 and calls["scans"] == 1


def linear_field(shift, radius=1.0):
    """x -> x - shift on R^2, declared affine."""
    shift = np.asarray(shift, dtype=float)
    return GradientField(
        Rep(2),
        lambda X: np.atleast_2d(X) - shift,
        Ball(np.zeros(2), radius),
        jacobian=lambda X, idx: np.broadcast_to(np.eye(len(idx)), (len(X), len(idx), len(idx))),
        affine=True,
    )


def test_affine_field_with_its_zero_outside_the_ball_has_degree_zero():
    assert grad_degree(linear_field([1.5, 0.5])) == zero(CIRCLE)
    assert grad_degree(linear_field([0.5, -0.5])) == unit(CIRCLE)


def test_singular_affine_map_still_finds_the_zeros_off_the_fixed_space():
    # at lambda = 1 the mode-1 loops of H = |z|^2 / 2 are all zeros: the
    # Jacobian is singular, so the declared-affine field takes the general path
    spec = HamiltonianSpec.from_terms(1, [((2, 0), 0.5), ((0, 2), 0.5)], 1.0)
    fld = shell_field(local_map(spec, radius=1.0), 1)
    assert fld.affine
    with pytest.raises(ZeroOutsideFixedSpace):
        grad_degree(fld)


def test_field_wrongly_declared_affine_is_an_affinity_failure():
    cubic = GradientField(
        Rep(1), lambda X: np.atleast_2d(X) + np.atleast_2d(X) ** 3, Ball(np.zeros(1), 1.0), affine=True
    )
    with pytest.raises(AffinityFailure):
        grad_degree(cubic)
    quartic = local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
    quartic = dataclasses.replace(quartic, nonlinearity=declared(quartic.nonlinearity, affine=True))
    with pytest.raises(AffinityFailure):
        deg_infinite(quartic)


def test_wrong_affine_declaration_is_a_certification_failure(tmp_path, capsys, monkeypatch):
    def declared_affine(poly):
        F = potential_nonlinearity(poly)
        F.affine = True
        return F

    monkeypatch.setattr(eqdeg.cli, "potential_nonlinearity", declared_affine)
    problem = {
        "kind": "abstract",
        "spectrum": [{"eigenvalue": lam, "rep": {"trivial": 1, "modes": []}} for lam in (0.0, 1.0, 2.0, 3.0)],
        "nonlinearity": {"variables": 1, "terms": [{"exps": [4], "coeff": 0.25}, {"exps": [2], "coeff": -0.5}]},
        "radius": 1.5,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert main(["compute", str(path)]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err.startswith("certification failure (AffinityFailure)")


def test_newton_evaluates_each_point_once():
    # on a linear field one full step reaches the zero: the seeds are
    # evaluated, then each accepted trial point, and nothing twice
    op = EquivariantSymOp(Rep(3), np.diag([2.0, -1.0, 0.5]))
    fld = field_from_operator(op)
    rows = []

    def value(X, inner=fld.value):
        rows.append(len(X))
        return inner(X)

    fld.value = value
    seeds = np.random.default_rng(7).uniform(-0.5, 0.5, size=(6, 3))
    zeros, _ = _newton_batch(fld, seeds)
    assert len(zeros) == 6 and np.max(np.abs(zeros)) <= 1e-12
    assert sum(rows) == 2 * len(seeds)
