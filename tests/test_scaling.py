"""The scaling relation: for c > 0, c f and f are homotopic with no zero on
the boundary, so grad_degree gives c f the value and the zeros of f.

The zero search reads every tolerance against the largest |f| sampled on
the boundary, so no scale of f is special.  Only the boundary-zero floor
BOUNDARY_MARGIN is absolute: a field whose boundary |f| falls below it is a
BoundaryZero at any scale.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from eqdeg import BoundaryZero, field_from_operator, grad_degree, product_field
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
