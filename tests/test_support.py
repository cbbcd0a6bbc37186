"""Maps that declare blocks: the zero search, one block at a time, on the
leading eigencoordinates their nonlinearity reads and writes, against the
search over all of V_n, and the rules of the declaration."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import eqdeg.galerkin
from eqdeg.cli import EXIT_CERTIFICATION, EXIT_OK, EXIT_ZERO_DEGREE, build_problem, main
from eqdeg.errors import DegreeError, SupportFailure
from eqdeg.euler_ring import CIRCLE, FULL, RingElement, ring_element_from_json
from eqdeg.finite_degree import fixed_space_field, grad_degree, restricted_field
from eqdeg.galerkin import (
    LocalMapSpec,
    RegionSpec,
    _level_degrees,
    _search_blocks,
    certify_margin,
    deg_infinite,
    direct_sum_local_maps,
    normalization_map,
    potential_nonlinearity,
    scalar_nonlinearity,
    shell_field,
    zero_nonlinearity,
)
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Layout, Rep, SpectralOperator
from eqdeg.selftest import corpus_local_maps, synthetic_operator_a

from declarations import count_searches, declared

DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"
SHRINK = 0.9  # the CLI's restriction check shrinks the ball by this factor
NEAR = 0.05  # zeros within this share of a sphere are redrawn


def unit_multiple(count):
    return RingElement.make(CIRCLE, {FULL: count})


def kernel_problem(rng, kernel):
    """An abstract problem with one trivial kernel coordinate per letter of
    ``kernel``, "l" for g = c x and "w" for the double well
    g = s (x^3 - a^2 x), and shells 1 .. 7 that each hold a trivial line and
    a mode plane; with the signed count of its kernel zeros in the ball.
    Draws with a zero near the sphere of the ball or of the shrunk ball,
    or between them, are redrawn."""
    while True:
        comps = []
        for kind in kernel:
            if kind == "l":
                comps.append(("l", float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5))))
            else:
                comps.append(("w", int(rng.choice([-1, 1])), float(rng.uniform(0.3, 1.2))))
        radius = float(rng.uniform(1.0, 2.0))
        axes = [
            [(0.0, int(np.sign(c[1])))] if c[0] == "l" else [(0.0, -c[1]), (c[2], c[1]), (-c[2], c[1])]
            for c in comps
        ]
        zeros = [
            (math.hypot(*(y for y, _ in combo)), math.prod(s for _, s in combo))
            for combo in itertools.product(*axes)
        ]
        if all(not SHRINK * radius * (1 - NEAR) <= r <= radius * (1 + NEAR) for r, _ in zeros):
            break
    spectrum = [{"eigenvalue": 0.0, "rep": {"trivial": len(kernel), "modes": []}}]
    for n in range(1, 8):
        for j, sign in enumerate((-1.0, 1.0)):
            lam = sign * (n - float(rng.uniform(0.0, 0.6)))
            if (n + j) % 2:
                rep = {"trivial": 1, "modes": []}
            else:
                rep = {"trivial": 0, "modes": [[int(rng.integers(1, 4)), 1]]}
            spectrum.append({"eigenvalue": lam, "rep": rep})
    terms = []
    for i, comp in enumerate(comps):
        def exps(e):
            return [e if j == i else 0 for j in range(len(comps))]

        if comp[0] == "l":
            terms.append({"exps": exps(2), "coeff": -0.5 * comp[1]})
        else:
            _, s, a = comp
            terms += [{"exps": exps(4), "coeff": -0.25 * s}, {"exps": exps(2), "coeff": 0.5 * s * a * a}]
    problem = {
        "kind": "abstract",
        "spectrum": spectrum,
        "nonlinearity": {"variables": len(comps), "terms": terms},
        "radius": radius,
    }
    return problem, sum(s for r, s in zeros if r < radius)


def compute(tmp_path, problem, *args):
    """Exit code and degree of ``eqdeg compute`` on the problem."""
    path, report = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    report.unlink(missing_ok=True)
    code = main(["compute", str(path), "--json", str(report), *args])
    if not report.exists():
        return code, None
    return code, ring_element_from_json(json.loads(report.read_text())["degree"]["value"], CIRCLE)


# ---------------------------------------------------------------------------
# The dimension cliff: explicit truncations of kernel problems


@pytest.mark.parametrize("truncation", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kernel", ["ww", "www", "wlw"])
def test_explicit_truncations_of_kernel_problems_certify(tmp_path, kernel, truncation):
    # the search over all of V_n seeded its fixed space, which grows by one
    # dimension per shell, from Halton points from 4 dimensions on, and
    # missed zeros: 16 of these 45 runs failed, every www one at level >= 4
    rng = np.random.default_rng(7)
    for _ in range(3):
        problem, count = kernel_problem(rng, kernel)
        want = EXIT_OK if count else EXIT_ZERO_DEGREE
        assert compute(tmp_path, problem, "--truncation", str(truncation)) == (want, unit_multiple(count))


@pytest.mark.parametrize("truncation", ["auto", "5"])
def test_the_double_wells_demo_certifies_its_27_zeros(truncation):
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    assert main(["compute", str(DEMO_PROBLEMS / "double_wells.json"), "--truncation", truncation]) == EXIT_OK
    f, _ = build_problem(problem)
    res = deg_infinite(f, level=truncation if truncation == "auto" else int(truncation))
    assert res.value == unit_multiple(1)
    assert res.diagnostics["zero_counts"] == [27, 27]


# ---------------------------------------------------------------------------
# The search by blocks against the search over all of V_n


def equivalence_cases():
    insts = {i.name: i for i in corpus_local_maps()}
    cases = {name: insts[name].build() for name in ("abstract-a", "abstract-b")}
    cases["normalization demo"] = build_problem(
        json.loads((DEMO_PROBLEMS / "normalization.json").read_text())
    )[0]
    rng = np.random.default_rng(11)
    for kernel in ("w", "lw", "ww"):
        cases[f"kernel {kernel}"] = build_problem(kernel_problem(rng, kernel)[0])[0]
    # a center on the trivial line of shell 1: W splits into three blocks
    ww = cases["kernel ww"]
    ball = ww.region.balls[0]
    cases["kernel ww off center"] = ww.with_region(RegionSpec.ball(ball.radius, center=(0, 0, 0.1, 0, 0), center_level=1))
    return cases


@pytest.mark.parametrize("name", sorted(equivalence_cases()))
def test_each_level_equals_the_search_over_all_of_v_n(name):
    f = equivalence_cases()[name]
    assert f.blocks is not None
    # levels 1 and 2 while the fixed space of V_n has at most 3 dimensions,
    # where the full search seeds a full grid
    levels = [n for n in (1, 2) if len(f.operator.basis(n).layout.trivial) <= 3]
    N = levels[0]
    per_level = _level_degrees(f, N, certify_margin(f, N), depth=len(levels) - 1, seed=0, budget=None)
    # the zeros of W: the tuples in the region of each block's zeros
    label = _search_blocks(f, f.operator.basis(N))
    blocks = [np.flatnonzero(label == k) for k in dict.fromkeys(label.tolist())]
    field = shell_field(f, N)
    found = [grad_degree(restricted_field(field, b), seed=0, return_zeros=True)[1] for b in blocks]
    zeros = np.zeros((math.prod(map(len, found)), len(label)))
    for row, combo in enumerate(itertools.product(*found)):
        for b, z in zip(blocks, combo):
            zeros[row, b] = z
    zeros = zeros[field.domain.section(range(len(label))).contains(zeros)]
    for n, (degree, count, _) in zip(levels, per_level):
        full, full_zeros = grad_degree(shell_field(f, n), seed=0, return_zeros=True)
        assert degree == full and count == len(zeros) == len(full_zeros), (name, n)
        padded = np.pad(zeros, ((0, 0), (0, f.operator.basis(n).dim - len(label))))
        order = lambda Z: Z[np.lexsort(np.round(Z, 6).T[::-1])]
        assert np.abs(order(padded) - order(full_zeros)).max(initial=0.0) < 1e-8, (name, n)


def test_the_levels_of_a_certificate_share_one_restricted_search(monkeypatch):
    dims = count_searches(monkeypatch)
    f = next(i for i in corpus_local_maps() if i.name == "abstract-a").build()
    res = deg_infinite(f, stabilization_depth=2)
    assert res.diagnostics["levels_checked"] == [1, 2, 3]
    assert res.diagnostics["zero_counts"] == [3, 3, 3]
    assert dims == [2]  # the kernel plane that the potential reads
    dims.clear()
    deg_infinite(normalization_map(f.operator), stabilization_depth=2)
    assert dims == [f.operator.basis(n).dim for n in (1, 2, 3)]


def leaky_potential():
    """abstract-a's potential plus 1e-3 |x_2|^2 / 2, x_2 being the first
    coordinate beyond its kernel plane."""
    poly = Polynomial.from_terms(2, [((4, 0), 0.25), ((2, 0), -0.125), ((0, 2), 0.25)])
    F = potential_nonlinearity(poly)

    def leaky(X, basis):
        out = F(X, basis)
        out[:, 2] += 1e-3 * X[:, 2]
        return out

    leaky.tail = F.tail
    return leaky


def test_a_nonlinearity_that_writes_beyond_its_support_is_a_support_failure():
    f = LocalMapSpec(synthetic_operator_a(), leaky_potential(), RegionSpec.ball(1.5), name="leaky")
    assert f.blocks is None and deg_infinite(f).value == unit_multiple(1)
    with_support = dataclasses.replace(f, nonlinearity=declared(f.nonlinearity, blocks=((0, 1),)))
    with pytest.raises(SupportFailure, match=r"leaky: declared blocks \(\(0, 1\),\)") as err:
        deg_infinite(with_support)
    assert isinstance(err.value, DegreeError)


# ---------------------------------------------------------------------------
# Declaration rules


@pytest.mark.parametrize("support", [-1, 1.5, True, "2", np.float64(2.0)])
def test_a_support_must_be_an_integer_at_least_zero(support):
    # blocks replace the support: neither a bare count nor blocks of
    # coordinates that are not integers >= 0
    for blocks in (support, ((support,),), ((0,), (support,))):
        with pytest.raises(ValueError, match="odd support: blocks must be None or a tuple of nonempty tuples that partition"):
            F = declared(zero_nonlinearity, blocks=blocks, jacobian=zero_nonlinearity.jacobian)
            LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), name="odd support")


@pytest.mark.parametrize(
    "blocks",
    [((0,), (0, 1)), ((0,), ()), ((), (0,)), ((1,),), ((0,), (2,)), [(0,)], ((0,), [1])],
    ids=["overlap", "empty", "empty first", "no 0", "a gap", "a list", "a list block"],
)
def test_blocks_must_partition_their_leading_coordinates(blocks):
    F = declared(zero_nonlinearity, blocks=blocks, jacobian=zero_nonlinearity.jacobian)
    with pytest.raises(ValueError, match="odd blocks: blocks must be None or a tuple of nonempty tuples that partition"):
        LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), name="odd blocks")


def test_two_blocks_need_a_jacobian():
    F = declared(zero_nonlinearity, blocks=((0,), (1,)), jacobian=None)
    with pytest.raises(ValueError, match="no jacobian: 2 blocks need a jacobian to check them"):
        LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), name="no jacobian")
    one = declared(zero_nonlinearity, blocks=((0, 1),), jacobian=None)
    assert LocalMapSpec(synthetic_operator_a(), one, RegionSpec.ball(1.0)).blocks == ((0, 1),)


@pytest.mark.parametrize(
    "declaration, value",
    [("tail", None), ("tail", 5), ("jacobian", 5), ("jacobian", "exact"), ("affine", "no"), ("affine", 1)],
)
def test_every_declaration_is_checked_where_the_map_is_built(declaration, value):
    # a non-callable tail or jacobian once built and failed inside deg_infinite,
    # and a truthy non-bool affine was taken as affine
    F = declared(zero_nonlinearity, **{declaration: value})
    with pytest.raises(ValueError, match=f"odd map: {declaration} must be"):
        LocalMapSpec(synthetic_operator_a(), F, RegionSpec.ball(1.0), name="odd map")


def test_a_support_is_read_from_the_nonlinearity():
    poly = Polynomial.from_terms(3, [((2, 0, 0), 1.0)])
    op = synthetic_operator_a()
    assert LocalMapSpec(op, potential_nonlinearity(poly), RegionSpec.ball(1.0)).blocks == ((0,), (1,), (2,))
    assert LocalMapSpec(op, zero_nonlinearity, RegionSpec.ball(1.0)).blocks == ()
    two = declared(zero_nonlinearity, blocks=((np.int64(0), np.int64(1)),))
    assert LocalMapSpec(op, two, RegionSpec.ball(1.0)).blocks == ((0, 1),)
    f = LocalMapSpec(op, zero_nonlinearity, RegionSpec.ball(1.0))
    assert direct_sum_local_maps(f, f).blocks is None
    assert normalization_map(op).blocks is None


@pytest.mark.parametrize(
    "terms, blocks",
    [
        ([((2, 0, 0, 0), 1.0), ((0, 0, 0, 2), 1.0)], ((0,), (1,), (2,), (3,))),
        ([((1, 0, 0, 1), 1.0), ((0, 1, 1, 0), 1.0)], ((0, 3), (1, 2))),
        ([((1, 1, 0, 0), 1.0), ((0, 0, 1, 1), 1.0), ((0, 1, 1, 0), 1.0)], ((0, 1, 2, 3),)),
        ([((0, 2, 0, 1), 1.0), ((4, 0, 0, 0), 1.0), ((0, 0, 3, 0), 1.0)], ((0,), (1, 3), (2,))),
    ],
)
def test_a_potential_declares_the_components_of_the_variables_its_terms_share(terms, blocks):
    assert potential_nonlinearity(Polynomial.from_terms(4, terms)).blocks == blocks


def test_the_zero_nonlinearity_searches_no_coordinate(monkeypatch):
    dims = count_searches(monkeypatch)
    pairs = [(-1.0, Rep(1)), (0.5, Rep(0, ((1, 1),))), (2.0, Rep(1)), (-2.5, Rep(0, ((2, 1),)))]
    op = SpectralOperator.from_eigenvalues(pairs)
    f = LocalMapSpec(op, zero_nonlinearity, RegionSpec.ball(1.0))
    full = LocalMapSpec(op, scalar_nonlinearity(0.0), RegionSpec.ball(1.0))
    assert deg_infinite(f).value == deg_infinite(full).value == unit_multiple(1)
    assert len(dims) == 2  # the two levels of the full search: no block, no search
    dims.clear()
    # a ball off the origin, the one zero of Ax: W widens over its center
    off = f.with_region(RegionSpec.ball(0.5, center=(0.7, 0.0, 0.0), center_level=1))
    assert deg_infinite(off).value == unit_multiple(0)
    assert dims == [1]


def spectrum(kernel_rep):
    lines = [{"eigenvalue": lam, "rep": {"trivial": 1, "modes": []}} for lam in (-1.0, 1.0, -2.0, 2.0, -3.0, 3.0)]
    return [{"eigenvalue": 0.0, "rep": kernel_rep}] + lines


def two_variable_problem(kernel_rep):
    """The potential -(x_0^2 + x_1^2) / 2 on its leading two coordinates."""
    terms = [{"exps": [2, 0], "coeff": -0.5}, {"exps": [0, 2], "coeff": -0.5}]
    return {
        "kind": "abstract",
        "spectrum": spectrum(kernel_rep),
        "nonlinearity": {"variables": 2, "terms": terms},
        "radius": 1.0,
    }


def test_a_support_ending_inside_a_plane_takes_the_whole_plane(tmp_path, capsys, monkeypatch):
    # the kernel is a trivial line and a mode-1 plane, and the potential
    # reads half the plane, which breaks equivariance
    dims = count_searches(monkeypatch)
    problem = two_variable_problem({"trivial": 1, "modes": [[1, 1]]})
    assert compute(tmp_path, problem) == (EXIT_CERTIFICATION, None)
    assert "(EquivarianceFailure)" in capsys.readouterr().err
    assert dims == [3]


def test_a_kernel_coordinate_beyond_the_support_is_a_degenerate_zero(tmp_path, capsys):
    problem = two_variable_problem({"trivial": 3, "modes": []})
    assert compute(tmp_path, problem) == (EXIT_CERTIFICATION, None)
    assert "(DegenerateZero)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Direct sums


def test_a_direct_sum_of_two_potential_maps_has_the_product_degree():
    insts = {i.name: i for i in corpus_local_maps()}
    f, g = insts["abstract-a"].build(), insts["abstract-b"].build()
    fg = direct_sum_local_maps(f, g)
    assert fg.blocks is None  # the summands' coordinates interleave
    assert deg_infinite(fg).value == deg_infinite(f).value * deg_infinite(g).value == insts["abstract-b"].expected


def test_a_restriction_holds_whole_rotation_planes():
    f = next(i for i in corpus_local_maps() if i.name == "abstract-b").build()
    fld = shell_field(f, 1)  # the kernel: a trivial line, then a mode-2 plane
    with pytest.raises(ValueError, match="of a mode-2 plane are split"):
        restricted_field(fld, [0, 1])
    sub = restricted_field(fld, [0, 1, 2])
    assert sub.layout == Layout(3, (0,), ((2, 1),)) and sub.rep == Rep(1, ((2, 1),))
    assert fixed_space_field(fld).layout == restricted_field(fld, fld.layout.trivial).layout
