"""The gradient hypothesis, checked at every zero: a field whose Jacobian
there is not symmetric and equivariant has no gradient degree, and its
symmetric part would give a wrong one."""

import numpy as np
import pytest

from eqdeg import finite_degree
from eqdeg.domains import Ball
from eqdeg.errors import DegreeError, NotAGradient
from eqdeg.euler_ring import CIRCLE, unit
from eqdeg.finite_degree import GRADIENT_RATIO, GradientField, brouwer_oracle, classify_zeros, grad_degree, search_zeros
from eqdeg.galerkin import LocalMapSpec, RegionSpec, deg_infinite, potential_nonlinearity
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep
from eqdeg.selftest import random_fixed_space_field, synthetic_operator_a

ROTATION = np.array([[1.0, 3.0], [-3.0, -1.0]])  # symmetric part diag(1, -1), det 8


@pytest.mark.parametrize("exact", [False, True], ids=["differences", "exact"])
def test_a_field_that_is_not_a_gradient_is_refused(exact):
    # its symmetric part has Morse index 1, so the degree once read -[S1/S1];
    # the Brouwer degree is sign det = 1
    jacobian = (lambda X, idx: np.broadcast_to(ROTATION[np.ix_(idx, idx)], (len(X), len(idx), len(idx)))) if exact else None
    fld = GradientField(Rep(2), lambda X: np.atleast_2d(X) @ ROTATION.T, Ball(np.zeros(2), 1.0), name="turn", jacobian=jacobian)
    assert brouwer_oracle(fld) == 1
    with pytest.raises(NotAGradient, match=r"turn: zero at \[.*\]: J less its symmetric equivariant part reaches 9.49e-01") as err:
        grad_degree(fld)
    assert isinstance(err.value, DegreeError)


def test_a_symmetric_jacobian_that_is_not_complex_linear_on_a_plane_is_refused(monkeypatch):
    # w -> (w_0, -w_1) on a mode-1 plane is symmetric but commutes with no
    # rotation; with the spot check off, the zero's Jacobian has the say
    monkeypatch.setattr(finite_degree, "_spot_check_equivariance", lambda fld, rng: None)
    flip = np.diag([1.0, -1.0])
    fld = GradientField(Rep(0, ((1, 1),)), lambda X: np.atleast_2d(X) @ flip, Ball(np.zeros(2), 1.0), name="flip")
    with pytest.raises(NotAGradient, match="flip: zero at"):
        classify_zeros(*search_zeros(fld, off_space_proved=True))


def rotating_potential(eps):
    """The wells -x^4/4 + 0.3 x^2 on the two kernel coordinates of
    synthetic_operator_a, plus eps times a rotation of that plane."""
    F = potential_nonlinearity(Polynomial.from_terms(2, [((4, 0), -0.25), ((2, 0), 0.3), ((0, 4), -0.25), ((0, 2), 0.3)]))

    def G(X, basis):
        out = F(X, basis)
        out[:, 0] += eps * X[:, 1]
        out[:, 1] -= eps * X[:, 0]
        return out

    G.tail = F.tail
    return G


def test_a_galerkin_map_with_a_rotation_in_a_trivial_plane_is_refused():
    op = synthetic_operator_a()
    assert deg_infinite(LocalMapSpec(op, rotating_potential(0.0), RegionSpec.ball(1.5))).value == unit(CIRCLE)
    with pytest.raises(NotAGradient, match="turning"):
        deg_infinite(LocalMapSpec(op, rotating_potential(0.05), RegionSpec.ball(1.5), name="turning"))


def test_the_ratio_sits_orders_above_the_difference_noise():
    # central differences at the zeros of seeded gradient fields leave at
    # most a thousandth of the ratio
    worst = 0.0
    for d in (1, 2, 3, 4):
        for seed in range(5):
            fld = random_fixed_space_field(np.random.default_rng(seed), d)
            _, zeros = grad_degree(fld, return_zeros=True)
            for J in finite_degree._full_jacobians(fld, zeros):
                drop = J - finite_degree._full_matrix(finite_degree._hessian_op(J, fld.layout), fld.layout)
                worst = max(worst, np.linalg.norm(drop) / np.linalg.norm(J))
    assert 0.0 < worst < 1e-3 * GRADIENT_RATIO
