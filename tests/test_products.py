"""The product relation: degrees multiply over products (Geba 1997).

Twenty seeded separable potentials on a trivial kernel, each with 2 to 6
blocks: one-variable wells, one-variable linear terms, and one coupled pair
that is a well along (x_i + x_j) / sqrt(2) and linear along (x_i - x_j) /
sqrt(2).  Every zero is a tuple of closed-form one-variable roots, so the
degree is the signed count of the tuples inside the ball, computed here
without the pipeline.  Each instance also multiplies two of its blocks as
fields: grad_degree of their product_field is the product of their degrees.
Twenty seeded pairs of one-degree-of-freedom Hamiltonians give the same
relation on loop space: their decoupled sum is the product of their maps.
"""

import itertools
import math

import numpy as np
import pytest

from eqdeg.cli import build_problem
from eqdeg.domains import Ball
from eqdeg.euler_ring import CIRCLE, FULL, RingElement, SubgroupClass
from eqdeg.finite_degree import GradientField, grad_degree, product_field
from eqdeg.galerkin import deg_infinite, direct_sum_local_maps
from eqdeg.hamiltonian import HamiltonianSpec, periodic_existence, quadratic_spectral_degree, symplectic_matrix
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep
from eqdeg.selftest import corpus_local_maps

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


CROSSING_GAP = 0.1  # smallest |eigenvalue| allowed in a mode block of a drawn Hamiltonian


def loop_pair(seed):
    """A shared lambda, the terms of two dof-1 Hamiltonians and a radius."""
    rng = np.random.default_rng(seed)
    J = symplectic_matrix(1)
    while True:
        lam = float(rng.uniform(0.3, 1.2))
        diags = [[float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)) for _ in range(2)] for _ in range(2)]
        blocks = [
            np.block([[-lam * np.diag(d), -k * J], [k * J, -lam * np.diag(d)]]) if k else -lam * np.diag(d)
            for d in diags
            for k in range(5)
        ]
        if min(np.min(np.abs(np.linalg.eigvalsh(b))) for b in blocks) >= CROSSING_GAP:
            break
    terms = [[((2, 0), 0.5 * a), ((0, 2), 0.5 * b), ((0, 4), float(rng.uniform(0.0, 0.3)))] for a, b in diags]
    return lam, terms, float(rng.uniform(0.5, 1.0))


@pytest.mark.parametrize("seed", range(20))
def test_a_decoupled_hamiltonian_has_the_product_of_its_degrees(seed):
    """H(q1, q2, p1, p2) = H1(q1, p1) + H2(q2, p2), each H_i = (a q^2 + b p^2) / 2
    + c p^4 with a, b = +-[0.5, 1.5], lambda in [0.3, 1.2] and every mode block
    of the linearization at least 0.1 from singular, as the cli benchmark
    draws them; c in [0, 0.3] and radius in [0.5, 1.0].  The loop map of H is
    the product of those of H1 and H2, so its degree is the product of
    theirs, and both equal the closed form of its quadratic part.

    The draw keeps lambda |S| <= 1.8.  From lambda |S| >= 2 the mode-2 block
    has crossed, the automatic level 1 starts below it, and the level step
    raises StabilizationFailure (H = |z|^2 / 2 at lambda = 2.1 does); that
    case belongs to the truncation floor (ROADMAP.md item 10), not to this
    relation.
    """
    lam, (first, second), radius = loop_pair(seed)
    joint = [((e[0], 0, e[1], 0), c) for e, c in first] + [((0, e[0], 0, e[1]), c) for e, c in second]
    v1, v2 = (periodic_existence(HamiltonianSpec.from_terms(1, t, lam), radius).result.value for t in (first, second))
    value = periodic_existence(HamiltonianSpec.from_terms(2, joint, lam), radius).result.value
    quadratic = HamiltonianSpec.from_terms(2, [(e, c) for e, c in joint if sum(e) == 2], lam)
    assert value == v1 * v2 == quadratic_spectral_degree(quadratic)


def test_a_sum_of_three_maps_has_the_product_of_their_degrees_either_way_it_nests():
    """f + (g + h) and (f + g) + h, with f the quartic loop map (the unit),
    g abstract-b and h loop2-quadratic-mixed: the product of the three
    values, [S1/S1] - [S1/Z1] - [S1/Z2] since [S1/Z1][S1/Z2] = 0."""
    corpus = {inst.name: inst for inst in corpus_local_maps()}
    f, g, h = (corpus[name] for name in ("loop1-quartic", "abstract-b", "loop2-quadratic-mixed"))
    product = f.expected * g.expected * h.expected
    one, z1, z2 = (RingElement.make(CIRCLE, {k: 1}) for k in (FULL, SubgroupClass.finite(1), SubgroupClass.finite(2)))
    assert product == one - z1 - z2
    for nested in (
        direct_sum_local_maps(f.build(), direct_sum_local_maps(g.build(), h.build())),
        direct_sum_local_maps(direct_sum_local_maps(f.build(), g.build()), h.build()),
    ):
        assert deg_infinite(nested).value == product
