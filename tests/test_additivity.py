"""The additivity relation: on a union of disjoint balls, with no zero on
any boundary, the degree is the sum of the balls' degrees.

Each ball's degree counts the zeros inside it, so a union of small balls
around some of a field's zeros gives the sum of those zeros' local
degrees, and a union around all of them gives the field's degree on any
ball that holds them all (excision).
"""

from dataclasses import replace

import numpy as np
import pytest

from eqdeg import Ball, BallSpec, GradientField, Rep, RegionSpec, UnionDomain, deg_infinite, grad_degree
from eqdeg.euler_ring import CIRCLE, FULL, basis_element, zero as ring_zero
from eqdeg.hamiltonian import local_map
from eqdeg.selftest import quartic_hamiltonian, random_fixed_space_field

S1_S1 = basis_element(CIRCLE, FULL)


def cubic_on(centers, radius=0.4):
    """(x, w) -> (x^3 - x, w) on the balls of ``radius`` around (c, 0, 0):
    one zero x = c in each, of degree [S1/S1] at x = +-1 and -[S1/S1] at 0."""
    balls = [Ball(np.array([c, 0.0, 0.0]), radius) for c in centers]
    value = lambda X: np.column_stack([X[:, 0] ** 3 - X[:, 0], X[:, 1:]])
    return GradientField(Rep(1, ((1, 1),)), value, UnionDomain(balls), name="cubic well")


@pytest.mark.parametrize(
    "centers, value",
    [
        ((-1.0,), S1_S1),
        ((0.0,), -S1_S1),
        ((1.0,), S1_S1),
        ((-1.0, 1.0), 2 * S1_S1),
        ((-1.0, 0.0, 1.0), S1_S1),
    ],
)
def test_a_union_of_balls_has_the_sum_of_their_degrees(centers, value):
    # the field has a rotation plane, so the equivariance spot check and the
    # off-space probes draw from UnionDomain.interior_samples
    assert grad_degree(cubic_on(centers)) == value


def test_a_galerkin_union_has_the_degree_of_the_ball_holding_the_zero():
    # the quartic loop map's one zero is the origin; a second ball of the
    # same radius around (1.5, 0) holds none and adds 0
    lm = local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
    origin = deg_infinite(lm.with_region(RegionSpec((BallSpec(0.3),))))
    union = deg_infinite(lm.with_region(RegionSpec((BallSpec(0.3), BallSpec(0.3, (1.5, 0.0))))))
    assert origin.value == union.value == S1_S1


SEEDED = [(dim, seed) for dim in (1, 2) for seed in range(10)]


@pytest.mark.parametrize("dim, field_seed", SEEDED)
def test_balls_around_a_seeded_fields_zeros_add_up(dim, field_seed):
    # the zeros of random_fixed_space_field lie at least 0.6 apart, so balls
    # of radius 0.2 around them are disjoint and hold one zero each
    fld = random_fixed_space_field(np.random.default_rng(field_seed), dim)
    total, zeros = grad_degree(fld, return_zeros=True)
    around = lambda picked: replace(fld, domain=UnionDomain([Ball(zeros[i], 0.2) for i in picked]))
    local = [grad_degree(around([i])) for i in range(len(zeros))]
    assert all(v in (S1_S1, -S1_S1) for v in local)
    assert grad_degree(around(range(len(zeros)))) == total
    rng = np.random.default_rng(100 + field_seed)
    picked = sorted(rng.choice(len(zeros), size=rng.integers(1, len(zeros) + 1), replace=False))
    assert grad_degree(around(picked)) == sum((local[i] for i in picked), ring_zero(CIRCLE))
