# The finite-dimensional equivariant gradient degree: closed form for
# linear isomorphisms, Newton-based computation for nonlinear gradient
# fields, and the independent Brouwer-degree oracle that cross-checks the
# fixed-space coefficient.

import numpy as np

from eqdeg import (
    Ball,
    EquivariantSymOp,
    GradientField,
    Rep,
    brouwer_oracle,
    field_from_operator,
    grad_degree,
    linear_degree,
    product_degree,
)

print("== linear isomorphisms ==")
# -identity on R^1 (trivial action): the classical degree -1
flip = EquivariantSymOp(Rep(1), [[-1.0]], {})
print("deg(-id on R):", linear_degree(flip))

# -identity on a rotation plane with mode 1: the fixed space is {0}
plane = EquivariantSymOp.scalar(Rep(0, ((1, 1),)), -1.0)
print("deg(-id on mode-1 plane):", linear_degree(plane))

# the degree only sees eigenvalue signs
mixed = EquivariantSymOp(Rep(2, ((2, 1),)), np.diag([3.0, -0.5]), {2: [[-7.0 + 0j]]})
print("deg(diag(3,-1/2) + mode-2 block -7):", linear_degree(mixed))
print("same after scaling all blocks by 10:", linear_degree(mixed.scale_blocks(10.0)))

print()
print("== a nonlinear field and the oracle ==")
# gradient of x^4/4 - x^2/2 on (-2, 2): zeros at -1, 0, 1
well = GradientField(
    Rep(1),
    lambda X: np.atleast_2d(X) ** 3 - np.atleast_2d(X),
    Ball(np.zeros(1), 2.0),
    name="double well",
)
deg = grad_degree(well)
oracle = brouwer_oracle(well)
print("grad_degree:", deg)
print("Brouwer oracle (sign enumeration):", oracle)

print()
print("== the product property ==")
lhs = product_degree(well, field_from_operator(plane))
rhs = grad_degree(well) * linear_degree(plane)
print("deg(f x g) =", lhs)
print("deg(f) * deg(g) =", rhs)
print("equal:", lhs == rhs)
