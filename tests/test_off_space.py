"""A declared derivative bound L proves that no zero lies off the fixed space
where L < mu_n, the least |eigenvalue| of A on the rotation planes of V_n:
the bound holds on sampled loops, the proof skips the probes, and every
known orbit off the fixed space is still rejected."""

import math
from pathlib import Path

import numpy as np
import pytest

import eqdeg.finite_degree as finite_degree
from eqdeg.cli import EXIT_CERTIFICATION, main
from eqdeg.errors import DegreeError, ZeroOutsideFixedSpace
from eqdeg.euler_ring import CIRCLE, unit
from eqdeg.galerkin import (
    LocalMapSpec,
    RegionSpec,
    _lipschitz_bound,
    deg_infinite,
    direct_sum_local_maps,
    kernel_projection_nonlinearity,
    realize_region,
    scalar_nonlinearity,
    zero_nonlinearity,
)
from eqdeg.hamiltonian import (
    HamiltonianSpec,
    _fourier_batches,
    _grid_values,
    _loop_sup_bound,
    local_map,
    periodic_existence,
)
from eqdeg.polynomials import Polynomial
from eqdeg.selftest import corpus_local_maps, quadratic_hamiltonian, quartic_hamiltonian, synthetic_operator_a

from declarations import declared

ONE = unit(CIRCLE)
DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def rotating_quartic(lam: float) -> HamiltonianSpec:
    """H = |z|^2 / 2 + |z|^4 / 4 (dof 1): its k-fold orbit of period 2 pi lam
    has |z|^2 = k / lam - 1."""
    terms = [((2, 0), 0.5), ((0, 2), 0.5), ((4, 0), 0.25), ((2, 2), 0.5), ((0, 4), 0.25)]
    return HamiltonianSpec.from_terms(1, terms, lam)


def coupled_quartic() -> HamiltonianSpec:
    terms = [
        ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5), ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5),
        ((4, 0, 0, 0), 0.05), ((2, 0, 2, 0), 0.1),
    ]
    return HamiltonianSpec.from_terms(2, terms, 0.45)


def random_quartic(seed: int, dof: int) -> tuple[HamiltonianSpec, float]:
    """A quadratic part plus cubic and quartic monomials with random
    coefficients, and a radius."""
    rng = np.random.default_rng(seed)
    n2 = 2 * dof
    terms = []
    for i in range(n2):
        e = [0] * n2
        e[i] = 2
        terms.append((e, float(rng.uniform(-1.5, 1.5))))
    for p in (3, 4, 4):
        e = [0] * n2
        for j in rng.integers(0, n2, size=p):
            e[j] += 1
        terms.append((e, float(rng.uniform(-0.4, 0.4))))
    return HamiltonianSpec.from_terms(dof, terms, float(rng.uniform(0.3, 1.0))), float(rng.uniform(0.5, 1.2))


def bound_cases():
    cases = {
        f"quartic dof={d}": (quartic_hamiltonian(d, 0.4), RegionSpec.ball(0.8)) for d in (1, 2)
    }
    cases["coupled quartic"] = (coupled_quartic(), RegionSpec.ball(0.9))
    cases["quadratic mixed"] = (quadratic_hamiltonian(2, [2.0, 0.5, 2.0, 0.5], 0.7), RegionSpec.ball(1.0))
    for dof in (1, 2, 3):
        spec, radius = random_quartic(100 + dof, dof)
        cases[f"random dof={dof}"] = (spec, RegionSpec.ball(radius))
        center = tuple(np.random.default_rng(dof).uniform(-0.5, 0.5, size=2 * dof))
        cases[f"random dof={dof} centered"] = (spec, RegionSpec.ball(0.6 * radius, center=center))
    return cases


@pytest.mark.parametrize("name", sorted(bound_cases()))
def test_the_bounds_hold_on_sampled_loops_at_levels_one_to_four(name):
    spec, region = bound_cases()[name]
    f = local_map(spec, 1.0).with_region(region)
    bound, rho = f.lipschitz(f.region), _loop_sup_bound(f.region)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        basis = f.operator.basis(n)
        domain = realize_region(f.region, basis)
        X = np.concatenate([domain.boundary_samples(48, rng), domain.interior_samples(48, rng)])
        loops = _grid_values(*_fourier_batches(X, spec.dof, n), 8 * (n + 1))
        assert np.linalg.norm(loops, axis=2).max() <= rho, (name, n)
        norms = np.linalg.norm(f.nonlinearity.jacobian(X, basis, np.arange(basis.dim)), 2, axis=(1, 2))
        assert norms.max() <= bound, (name, n)


def test_the_bound_of_a_loop_map_has_its_closed_form():
    # quartic_hamiltonian(1, 0.4): S = I, one term 0.075 z_1^4 with
    # |hess z_1^4(1, 1)|_F = 12, on the ball of radius 0.8
    rho = 0.8 * math.sqrt(0.5 / math.tanh(math.pi))
    f = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    assert _loop_sup_bound(f.region) == rho
    assert f.lipschitz(f.region) == pytest.approx(0.4 * (1.0 + 0.075 * 12.0 * rho**2), rel=1e-11)
    centered = RegionSpec((RegionSpec.ball(0.5).balls[0], RegionSpec.ball(0.3, center=(3.0, 4.0)).balls[0]))
    assert _loop_sup_bound(centered) == pytest.approx(5.0 / math.sqrt(2.0 * math.pi) + 0.3 * rho / 0.8, rel=1e-15)


def test_the_built_in_nonlinearities_declare_their_bounds():
    region = RegionSpec.ball(1.0)
    assert zero_nonlinearity.lipschitz(region) == 0.0
    assert scalar_nonlinearity(-2.5).lipschitz(region) == 2.5
    assert kernel_projection_nonlinearity().lipschitz(region) == 1.0


def test_a_region_set_later_re_derives_the_bound():
    # a bound stored as a number at radius 0.2 would prove the orbit at
    # |z|^2 = 0.25 away and return [S1/S1]
    small = local_map(rotating_quartic(0.8), 0.2)
    assert deg_infinite(small).value == ONE
    assert small.lipschitz(small.region) < 1.0
    moved = small.with_region(RegionSpec.ball(2.0))
    assert moved.lipschitz(moved.region) > 1.0
    with pytest.raises(ZeroOutsideFixedSpace):
        deg_infinite(moved)
    with pytest.raises(ZeroOutsideFixedSpace):
        deg_infinite(local_map(rotating_quartic(0.8), 2.0))


@pytest.mark.parametrize("lam, radius", [(0.8, 2.0), (0.6, 3.0)])
def test_orbits_off_the_fixed_space_are_still_rejected(lam, radius):
    with pytest.raises(ZeroOutsideFixedSpace):
        periodic_existence(rotating_quartic(lam), radius)


def test_the_bound_equal_to_the_gap_proves_nothing():
    # demo 04's lambda = 1: L = |S| = 1 = mu_n, and the mode-1 loops are zeros
    f = local_map(quadratic_hamiltonian(1, [1.0, 1.0], 1.0), 1.0)
    assert not _lipschitz_bound(f) < f.operator.gap(1)
    with pytest.raises(DegreeError):
        deg_infinite(f)


def test_the_offspace_orbit_problem_exits_3(capsys):
    assert main(["compute", str(DEMO_PROBLEMS / "offspace_orbit.json")]) == EXIT_CERTIFICATION
    assert "ZeroOutsideFixedSpace" in capsys.readouterr().err


def forbid_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("off-space scan called where the bound proves the exclusion")

    monkeypatch.setattr(finite_degree, "_scan_off_space_zeros", scan)


@pytest.mark.parametrize("depth", [1, 2])
def test_a_proved_exclusion_never_scans(monkeypatch, depth):
    maps = {
        "quartic dof=1": local_map(quartic_hamiltonian(1, 0.4), 0.8),
        "quartic dof=2": local_map(quartic_hamiltonian(2, 0.4), 0.8),
        "coupled quartic": local_map(coupled_quartic(), 0.9),
    }
    unproved = {name: deg_infinite(LocalMapSpec(f.operator, declared(f.nonlinearity, lipschitz=None), f.region, f.name),
                                   stabilization_depth=depth) for name, f in maps.items()}
    forbid_scan(monkeypatch)
    for name, f in maps.items():
        res = deg_infinite(f, stabilization_depth=depth)
        bound = f.lipschitz(f.region)
        assert res.diagnostics["off_space"] == [{"proved": True, "bound": bound, "gap": 1.0}] * (depth + 1)
        before = unproved[name]
        assert res.value == before.value == ONE, name
        assert res.diagnostics["zero_counts"] == before.diagnostics["zero_counts"]
        assert (res.epsilon, res.tail_bound) == (before.epsilon, before.tail_bound)


def test_without_a_proof_the_scan_runs_at_every_level(monkeypatch):
    calls = []
    scan = finite_degree._scan_off_space_zeros

    def counted(fld, *args, **kwargs):
        calls.append(fld.name)
        return scan(fld, *args, **kwargs)

    monkeypatch.setattr(finite_degree, "_scan_off_space_zeros", counted)
    f = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    plain = LocalMapSpec(f.operator, declared(f.nonlinearity, lipschitz=None), f.region, f.name)
    res = deg_infinite(plain, stabilization_depth=2)
    assert res.value == ONE
    assert res.diagnostics["off_space"] == [{"proved": False}] * 3
    assert len(calls) == 3


def test_maps_without_a_usable_bound_record_no_proof():
    inst = {i.name: i for i in corpus_local_maps()}
    potential = inst["abstract-a"].build()
    assert potential.lipschitz is None
    assert deg_infinite(potential).diagnostics["off_space"] == [{"proved": False}] * 2
    loop = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    product = direct_sum_local_maps(loop, potential)
    assert product.region == RegionSpec(parts=((loop.operator, loop.region), (potential.operator, potential.region)))
    assert product.lipschitz(product.region) is None
    assert deg_infinite(product).diagnostics["off_space"] == [{"proved": False}] * 2


@pytest.mark.parametrize("depth", [1, 2])
def test_a_product_of_loop_maps_proves_its_exclusion_from_both_bounds(monkeypatch, depth):
    # DF is block diagonal, so the larger summand bound bounds it on the
    # product region, and the fixed-space zeros of level N serve every level
    f = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    g = local_map(quartic_hamiltonian(1, 0.3), 0.9)
    values = [deg_infinite(m, stabilization_depth=depth).value for m in (f, g)]
    product = direct_sum_local_maps(f, g)
    bound = max(f.lipschitz(f.region), g.lipschitz(g.region))
    assert product.lipschitz(product.region) == bound
    forbid_scan(monkeypatch)
    res = deg_infinite(product, stabilization_depth=depth)
    assert res.value == values[0] * values[1] == ONE
    assert res.diagnostics["off_space"] == [{"proved": True, "bound": bound, "gap": 1.0}] * (depth + 1)
    assert res.diagnostics["zeros_from"] == [res.level] * (depth + 1)
    assert res.diagnostics["zero_counts"] == [1] * (depth + 1)
    # off a product region the summands' bounds say nothing
    assert product.lipschitz(RegionSpec.ball(0.8)) is None


def test_a_region_must_be_a_region_spec():
    f = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    with pytest.raises(ValueError, match="callable region: region must be a RegionSpec"):
        LocalMapSpec(f.operator, f.nonlinearity, lambda basis: realize_region(f.region, basis), "callable region")
    with pytest.raises(ValueError, match=r"hamiltonian\(dof=1, lambda=0.4\): region must be a RegionSpec"):
        f.with_region(lambda basis: realize_region(f.region, basis))


def test_a_bound_must_be_callable():
    with pytest.raises(ValueError, match="bad map: lipschitz must be"):
        LocalMapSpec(synthetic_operator_a(), declared(zero_nonlinearity, lipschitz=0.5), RegionSpec.ball(1.0), "bad map")


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), True, "0.5", np.array([0.5])])
def test_a_bound_must_be_a_finite_number_at_least_zero(value):
    F = declared(scalar_nonlinearity(0.5), lipschitz=lambda region: value)
    f = LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), "bad bound")
    with pytest.raises(ValueError, match="bad bound: lipschitz"):
        deg_infinite(f)


def test_a_bound_may_decline_a_region():
    F = declared(scalar_nonlinearity(0.2), lipschitz=lambda region: None)
    f = LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), "declines")
    res = deg_infinite(f)
    assert all(entry == {"proved": False} for entry in res.diagnostics["off_space"])


def test_the_gradient_builds_only_the_powers_it_reads(monkeypatch):
    built = []
    powers = Polynomial._powers

    def recorded(self, x, monomials):
        table = powers(self, x, monomials)
        built.append([len(column) for column in table])
        return table

    monkeypatch.setattr(Polynomial, "_powers", recorded)
    poly = Polynomial.from_terms(2, [((4, 0), 0.25), ((2, 2), 0.5), ((0, 1), 1.0)])
    x = np.array([[1.5, -0.5], [0.3, 2.0]])
    grad = poly.gradient(x)
    assert built == [[3, 2]]
    X, Y = x[:, 0], x[:, 1]
    assert np.allclose(grad, np.stack([X**3 + X * Y**2, X**2 * Y + 1.0], axis=1), rtol=1e-14)
