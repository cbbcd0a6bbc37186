"""The scaling relations: for c > 0, c f and f are homotopic with no zero on
the boundary, so grad_degree gives c f the value and the zeros of f; and for
s > 0 the equivariant change of variables x = s y takes f on a domain to
y -> f(s y) on the domain shrunk by s, with the same degree and the zeros
of f divided by s.

The zero search reads every tolerance against the largest |f| sampled on
the boundary, and every length against the domain's scale, so no scale of
f or of its domain is special.  Only the boundary-zero floor
BOUNDARY_MARGIN is absolute: a field whose boundary |f| falls below it is a
BoundaryZero at any scale.
"""

import functools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eqdeg import (
    Ball,
    BoundaryZero,
    GradientField,
    Rep,
    ZeroOutsideFixedSpace,
    field_from_operator,
    grad_degree,
    product_field,
)
from eqdeg.cli import EXIT_OK, main
from eqdeg.galerkin import shell_field
from eqdeg.hamiltonian import local_map
from eqdeg.selftest import quartic_hamiltonian, random_fixed_space_field, random_sym_op

SCALES = (1e-6, 1e-3, 1e3, 1e6, 1e8, 1e12)


def times(c, fld):
    """c fld, with its exact Jacobian times c when fld has one."""
    jacobian = None if fld.jacobian is None else (lambda X, idx: c * fld.jacobian(X, idx))
    return replace(fld, value=lambda X: c * np.asarray(fld.value(X), dtype=float), jacobian=jacobian)


def loop_level_2():
    """The quartic loop map's level-2 field, with its rotation planes."""
    return shell_field(local_map(quartic_hamiltonian(1, 0.4), radius=0.8), 2)


FIELDS = {
    **{f"fixed space d={d}": functools.partial(random_fixed_space_field, np.random.default_rng(7), d)
       for d in range(1, 6)},
    "loop level 2": loop_level_2,
    "loop level 2, finite differences": lambda: replace(loop_level_2(), jacobian=None),
    "operator": lambda: field_from_operator(random_sym_op(np.random.default_rng(5)), radius=2.0),
    "product": lambda: product_field(
        random_fixed_space_field(np.random.default_rng(3), 1), random_fixed_space_field(np.random.default_rng(4), 2)
    ),
}


@functools.lru_cache(maxsize=None)
def unscaled(name):
    fld = FIELDS[name]()
    return fld, grad_degree(fld, return_zeros=True)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_positive_multiple_keeps_the_value_and_the_zeros(name, c):
    # before the search read its scale from the boundary, x1e6 gave the
    # product field 0 with 6 of its 27 zeros, and x1e8 stopped the operator
    # field with an EquivarianceFailure
    fld, (value, zeros) = unscaled(name)
    got, found = grad_degree(times(c, fld), return_zeros=True)
    assert got == value
    assert found.shape == zeros.shape
    # each zero found lies at a zero of f; the order of the two may differ
    assert np.all(np.abs(found[:, None] - zeros[None]).max(axis=2).min(axis=1) <= 1e-7)


@pytest.mark.parametrize("name", ["loop level 2", "operator", "product"])
def test_a_boundary_below_the_absolute_margin_stays_a_boundary_zero(name):
    # x1e-9 puts |f| <= 1e-8 at a boundary sample: no size of f's own tells
    # such a boundary from one that vanishes
    fld, _ = unscaled(name)
    with pytest.raises(BoundaryZero):
        grad_degree(times(1e-9, fld))


# ---------------------------------------------------------------------------
# The length half: y -> f(s y) on the domain shrunk by s

LENGTH_SCALES = (1e-12, 1e-6, 1e4, 1e5, 1e6, 1e8)
DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def complex_step_jacobian(fld):
    """fld's Jacobian to rounding, by complex steps: fld's value must be a
    polynomial that takes complex points, as random_fixed_space_field's is."""

    def jacobian(X, idx):
        X, idx = np.atleast_2d(X), np.asarray(idx, dtype=int)
        J = np.empty((len(X), len(idx), len(idx)))
        for j, c in enumerate(idx):
            Z = X.astype(complex)
            Z[:, c] += 1e-30j
            J[:, :, j] = np.imag(fld.value(Z))[:, idx] / 1e-30
        return J

    return jacobian


def shrunk(fld, s, jacobian=None):
    """y -> fld(s y) on fld's ball shrunk by s, with the Jacobian y -> s J(s y)
    when ``jacobian`` is fld's."""
    ball = fld.domain
    return replace(
        fld,
        value=lambda Y: fld.value(s * np.asarray(Y)),
        domain=Ball(ball.center / s, ball.radius / s, ball.weights),
        jacobian=None if jacobian is None else (lambda Y, idx: s * jacobian(s * np.asarray(Y), idx)),
    )


@functools.lru_cache(maxsize=None)
def seeded_field(dim, field_seed):
    fld = random_fixed_space_field(np.random.default_rng(field_seed), dim)
    return fld, grad_degree(fld, return_zeros=True)


@pytest.mark.parametrize("s", LENGTH_SCALES)
@pytest.mark.parametrize("dim", range(1, 5))
def test_a_shrunk_domain_keeps_the_value_and_the_zeros(dim, s):
    # before the search read its lengths from the domain, 9 of 40 such fields
    # (d = 1..4, seeds 0-9) took a wrong value or zero count at s = 1e5 and 33
    # at 1e6 and 1e8, and 29 raised UnresolvedZeroCluster at 1e-12
    for field_seed in range(5):
        fld, (value, zeros) = seeded_field(dim, field_seed)
        for jacobian in (None, complex_step_jacobian(fld)):
            got, found = grad_degree(shrunk(fld, s, jacobian), return_zeros=True)
            assert got == value, (field_seed, jacobian)
            assert found.shape == zeros.shape, (field_seed, jacobian)
            # s times each zero found lies at a zero of f, within f's merge distance
            gaps = np.abs(s * found[:, None] - zeros[None]).max(axis=2).min(axis=1)
            assert np.all(gaps <= 1e-7), (field_seed, jacobian)


def orbit_field(s):
    """(x, w) -> (x, (|w|^2 - 1/4) w) at s (x, w), on the ball of radius 1/s:
    a mode-1 orbit of zeros |w| = 1/(2 s) off the fixed space."""

    def value(Y):
        X = s * np.atleast_2d(Y)
        out = X.copy()
        out[:, 1:] *= (np.sum(X[:, 1:] ** 2, axis=1) - 0.25)[:, None]
        return out

    return GradientField(Rep(1, ((1, 1),)), value, Ball(np.zeros(3), 1.0 / s), name="shrunk orbit")


@pytest.mark.parametrize("s", (1.0,) + LENGTH_SCALES)
def test_a_shrunk_off_space_orbit_is_still_found(s):
    # the probes' off-space threshold was once 1e-6 (1 + max|x|): from s = 1e6
    # the orbit fell below it and the field returned [S1/S1]
    with pytest.raises(ZeroOutsideFixedSpace):
        grad_degree(orbit_field(s))


def test_the_two_wells_with_every_length_divided_keep_their_degree(tmp_path, capsys):
    # the first and third wells of double_wells.json on a kernel of trivial 2,
    # with every length /1e7: a term c x^p becomes c 1e7^(p-1) x^p and the
    # radius 1.9e-7; the search once printed 5*[S1/S1] here with exit 0
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    problem["spectrum"][0]["rep"]["trivial"] = 2
    problem["nonlinearity"]["variables"] = 2
    problem["nonlinearity"]["terms"] = [
        {"exps": [t["exps"][0], t["exps"][2]], "coeff": t["coeff"] * 1e7 ** (sum(t["exps"]) - 1)}
        for t in problem["nonlinearity"]["terms"]
        if t["exps"][1] == 0
    ]
    problem["radius"] /= 1e7
    path = tmp_path / "two_wells.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert main(["compute", str(path)]) == EXIT_OK
    assert "degree     : [S1/S1]\n" in capsys.readouterr().out
