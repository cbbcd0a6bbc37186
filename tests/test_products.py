"""The product relation: degrees multiply over products (Geba 1997).

Twenty seeded separable potentials on a trivial kernel, each with 2 to 6
blocks: one-variable wells, one-variable linear terms, and one coupled pair
that is a well along (x_i + x_j) / sqrt(2) and linear along (x_i - x_j) /
sqrt(2).  Every zero is a tuple of closed-form one-variable roots, so the
degree is the signed count of the tuples inside the ball, computed here
without the pipeline.  Each instance also multiplies two of its blocks as
fields: grad_degree of their product_field is the product of their degrees.
"""

import itertools
import math

import numpy as np
import pytest

from eqdeg.cli import build_problem
from eqdeg.domains import Ball
from eqdeg.euler_ring import CIRCLE, FULL, RingElement
from eqdeg.finite_degree import GradientField, grad_degree, product_field
from eqdeg.galerkin import deg_infinite
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep

NEAR = 0.05  # draws with a tuple within this share of the sphere are redrawn
ROOT2 = math.sqrt(2.0)


def unit_multiple(count):
    return RingElement.make(CIRCLE, {FULL: count})


def axis(rng, kind):
    """One variable of a block, as ("w", s, a) for f = s (u^3 - a^2 u) or
    ("l", c) for f = c u, with its zeros and their slope signs."""
    if kind == "w":
        s, a = int(rng.choice([-1, 1])), float(rng.uniform(0.3, 0.9))
        return ("w", s, a), [(0.0, -s), (a, s), (-a, s)]
    c = float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5))
    return ("l", c), [(0.0, int(np.sign(c)))]


def potential(part):
    """p along the variable u of a part, as {power: coefficient}: f = -p'."""
    if part[0] == "w":
        _, s, a = part
        return {4: -0.25 * s, 2: 0.5 * s * a * a}
    return {2: -0.5 * part[1]}


def power_terms(nvars, coords, weights, power, coeff):
    """coeff (sum_k weights[k] x_coords[k])^power as polynomial terms."""
    terms = []
    for split in itertools.product(range(len(coords)), repeat=power):
        exps = [0] * nvars
        for k in split:
            exps[coords[k]] += 1
        terms.append((tuple(exps), coeff * math.prod(weights[k] for k in split)))
    return terms


def instance(seed):
    """A separable problem, the blocks' (coordinates, zeros) and the
    expected degree and zero count in the ball."""
    rng = np.random.default_rng(seed)
    count = 6 if seed % 5 == 0 else int(rng.integers(2, 7))
    kinds = ["w"] * (count - 1) if seed % 5 == 0 else [str(rng.choice(["w", "l"])) for _ in range(count - 1)]
    nvars = count + 1
    order = rng.permutation(nvars)  # the pair's coordinates need not be neighbours
    pair, singles = sorted(order[:2]), order[2:]
    terms, blocks = [], []
    for var, kind in zip(singles, kinds):
        part, zeros = axis(rng, kind)
        for p, c in potential(part).items():
            terms += power_terms(nvars, [var], [1.0], p, c)
        blocks.append(([int(var)], [((y,), s) for y, s in zeros]))
    along, roots_u = axis(rng, "w")
    across, roots_v = axis(rng, "l")
    for part, weights in ((along, [1 / ROOT2, 1 / ROOT2]), (across, [1 / ROOT2, -1 / ROOT2])):
        for p, c in potential(part).items():
            terms += power_terms(nvars, list(pair), weights, p, c)
    pair_zeros = [(((u + v) / ROOT2, (u - v) / ROOT2), su * sv) for u, su in roots_u for v, sv in roots_v]
    blocks.append(([int(i) for i in pair], pair_zeros))
    norms = [
        (math.hypot(*(y for z, _ in combo for y in z)), math.prod(s for _, s in combo))
        for combo in itertools.product(*(zeros for _, zeros in blocks))
    ]
    while True:  # a radius that leaves out some tuples, as a rule
        radius = float(rng.uniform(0.5, 1.1)) * max(r for r, _ in norms)
        if all(abs(r - radius) > NEAR * radius for r, _ in norms):
            break
    inside = [s for r, s in norms if r < radius]
    spectrum = [{"eigenvalue": 0.0, "rep": {"trivial": nvars, "modes": []}}]
    spectrum += [{"eigenvalue": s * (n - 0.3), "rep": {"trivial": 1, "modes": []}} for n in (1, 2, 3) for s in (-1, 1)]
    problem = {
        "kind": "abstract",
        "spectrum": spectrum,
        "nonlinearity": {"variables": nvars, "terms": [{"exps": list(e), "coeff": c} for e, c in terms]},
        "radius": radius,
    }
    return problem, blocks, unit_multiple(sum(inside)), len(inside)


@pytest.mark.parametrize("seed", range(20))
def test_a_separable_potential_counts_its_zero_tuples_in_the_ball(seed):
    problem, blocks, expected, count = instance(seed)
    f, _ = build_problem(problem)
    assert sorted(f.blocks) == sorted(tuple(coords) for coords, _ in blocks)
    res = deg_infinite(f)
    assert res.value == expected
    assert res.diagnostics["zero_counts"] == [count, count]


def block_field(problem, coords, radius):
    """The kernel field f = -grad p restricted to the block ``coords`` (the
    other variables at 0), on the ball of ``radius`` there."""
    poly = Polynomial.from_json(problem["nonlinearity"]["variables"], problem["nonlinearity"]["terms"])

    def value(Y):
        X = np.zeros((len(np.atleast_2d(Y)), poly.nvars))
        X[:, coords] = Y
        return -poly.gradient(X)[:, coords]

    return GradientField(Rep(len(coords)), value, Ball(np.zeros(len(coords)), radius), name=f"block {coords}")


@pytest.mark.parametrize("seed", range(20))
def test_the_degree_of_a_product_field_is_the_product_of_the_degrees(seed):
    problem, blocks, _, _ = instance(seed)
    (first, first_zeros), (pair, pair_zeros) = blocks[0], blocks[-1]
    f = block_field(problem, first, 1.0)
    g = block_field(problem, pair, 1.2)
    df, dg = grad_degree(f), grad_degree(g)
    assert df == unit_multiple(sum(s for z, s in first_zeros if math.hypot(*z) < 1.0))
    assert dg == unit_multiple(sum(s for z, s in pair_zeros if math.hypot(*z) < 1.2))
    assert grad_degree(product_field(f, g)) == df * dg
