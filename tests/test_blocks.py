"""Maps whose nonlinearity declares two or more blocks: each block of W is
searched on its own, the zero tuples in the region are counted with the
products of their blocks' degrees, and every level checks the declaration."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import eqdeg.galerkin
from eqdeg.cli import EXIT_CERTIFICATION, EXIT_OK, build_problem, main
from eqdeg.errors import DimensionLimit, SupportFailure, UnresolvedZeroCluster
from eqdeg.euler_ring import CIRCLE, FULL, RingElement, SubgroupClass
from eqdeg.galerkin import LocalMapSpec, RegionSpec, deg_infinite, potential_nonlinearity
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep, SpectralOperator
from eqdeg.selftest import synthetic_operator_a

from declarations import count_searches, declared

DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def separable_wells(d):
    """``double_wells.json`` with d kernel variables, -x^4/4 + a x^2 on each,
    radius 2.9, the a the last of the draws of n values from [0.15, 0.3]
    that one default_rng(5) makes for n = 3 .. d in that order, so that the
    wells of each d are the CI step's: all 3^d zeros lie in the ball (for d
    up to 17 at least), and the degree is [S1/S1]."""
    rng = np.random.default_rng(5)
    for n in range(3, d + 1):
        wells = rng.uniform(0.15, 0.3, size=n)
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    problem["spectrum"][0]["rep"]["trivial"] = d
    problem["nonlinearity"] = {
        "variables": d,
        "terms": [
            {"exps": [p if i == j else 0 for i in range(d)], "coeff": c}
            for j in range(d) for p, c in ((4, -0.25), (2, float(wells[j])))
        ],
    }
    problem["radius"] = 2.9
    return problem


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 12])
def test_separable_wells_certify_through_the_command_line(tmp_path, capsys, d):
    # one seed grid over all d variables found only some of the 3^d zeros:
    # 7, -10, -3, -4 and -3 [S1/S1] at d = 5 .. 9, each with exit 0; at
    # d = 12 the 3^12 tuples are counted by their running distance
    path = tmp_path / "wells.json"
    path.write_text(json.dumps(separable_wells(d)))
    assert main(["compute", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree     : [S1/S1]\n" in out
    assert out.count(": pass\n") == 3


def test_equal_wells_past_the_tuple_budget_count_only_the_tuples_in_the_ball(tmp_path, capsys):
    # 16 wells -x^4/4 + x^2/4, zeros 0 and +-1/sqrt(2) with indices -1 and +1:
    # of the 3^16 tuples, more than MAX_ZERO_TUPLES, those with k nonzero
    # coordinates lie at squared distance k / 2 from the center
    problem = separable_wells(16)
    for term in problem["nonlinearity"]["terms"]:
        term["coeff"] = 0.25 if 2 in term["exps"] else -0.25
    problem["radius"] = 1.17
    path = tmp_path / "wells.json"
    path.write_text(json.dumps(problem))
    degree = sum(math.comb(16, k) * 2**k * (-1) ** (16 - k) for k in range(17) if k / 2 < 1.17**2)
    assert degree == 449
    assert main(["compute", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"degree     : {RingElement.make(CIRCLE, {FULL: degree})}\n" in out
    assert out.count(": pass\n") == 3


def test_the_wells_count_every_zero_tuple_at_every_level():
    f, _ = build_problem(separable_wells(6))
    res = deg_infinite(f)
    assert res.value == RingElement.make(CIRCLE, {FULL: 1})
    assert res.diagnostics["zero_counts"] == [3**6, 3**6]


def test_tuples_past_the_budget_are_a_dimension_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eqdeg.galerkin, "MAX_ZERO_TUPLES", 3**5 - 1)
    f, _ = build_problem(separable_wells(5))
    with pytest.raises(DimensionLimit, match="243 zero tuples of 5 blocks, more than MAX_ZERO_TUPLES = 242"):
        deg_infinite(f)
    path = tmp_path / "wells.json"
    path.write_text(json.dumps(separable_wells(5)))
    assert main(["compute", str(path)]) == EXIT_CERTIFICATION
    assert "(DimensionLimit)" in capsys.readouterr().err


def plane_kernel_map(radius=1.6):
    """Wells on two trivial kernel coordinates and (|z|^2 + |z|^4 / 2) / 2 on
    a mode-1 kernel plane z = (x_2, x_3): three blocks, the plane's one zero
    at z = 0 with degree 1 - [S1/Z1]."""
    pairs = [(0.0, Rep(2, ((1, 1),)))] + [(s * (n - 0.3), Rep(1)) for n in (1, 2, 3) for s in (-1, 1)]
    op = SpectralOperator.from_eigenvalues(pairs)
    terms = [((4, 0, 0, 0), 0.25), ((2, 0, 0, 0), -0.18), ((0, 4, 0, 0), -0.25), ((0, 2, 0, 0), 0.32)]
    terms += [((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5)]
    terms += [((0, 0, 4, 0), 0.125), ((0, 0, 2, 2), 0.25), ((0, 0, 0, 4), 0.125)]
    F = potential_nonlinearity(Polynomial.from_terms(4, terms))
    return LocalMapSpec(op, F, RegionSpec.ball(radius), name="plane kernel")


def test_a_plane_block_multiplies_its_mode_class_into_every_tuple(monkeypatch):
    f = plane_kernel_map()
    assert f.blocks == ((0,), (1,), (2, 3))
    dims = count_searches(monkeypatch)
    split = deg_infinite(f)
    assert dims == [1, 1, 2]
    monkeypatch.setattr(eqdeg.galerkin, "SPLIT_WIDTH", 5)  # W searched whole
    whole = deg_infinite(f)
    assert dims[3:] == [4]
    # the first well has index +1 at 0 and -1 at its two other zeros, the
    # second -1 and +1, +1: (1 - 2)(-1 + 2) = -1, times the plane's 1 - [S1/Z1]
    assert split.value == whole.value == RingElement.make(CIRCLE, {FULL: -1, SubgroupClass.finite(1): 1})
    assert split.diagnostics["zero_counts"] == whole.diagnostics["zero_counts"] == [9, 9]


def coupled_potential(nvars):
    """Wells on each of nvars variables and 0.1 x_0 x_1, which couples the
    first two."""
    terms = [(tuple(p * (i == j) for i in range(nvars)), c) for j in range(nvars) for p, c in ((4, -0.25), (2, 0.3))]
    return potential_nonlinearity(Polynomial.from_terms(nvars, terms + [((1, 1) + (0,) * (nvars - 2), 0.1)]))


@pytest.mark.parametrize("nvars", [2, 3])
def test_blocks_that_a_term_couples_are_a_support_failure(nvars):
    # the ball's center on the trivial line of shell 1 makes W 3 coordinates
    # or more, so that W splits and every level checks the blocks
    F = coupled_potential(nvars)
    assert F.blocks == ((0, 1),) + tuple((i,) for i in range(2, nvars))
    op = SpectralOperator.from_eigenvalues([(0.0, Rep(nvars))] + [(s * (n - 0.3), Rep(1)) for n in (1, 2, 3) for s in (-1, 1)])
    ball = RegionSpec.ball(1.5, center=(0.0,) * nvars + (0.1, 0.0), center_level=1)
    right = deg_infinite(LocalMapSpec(op, F, ball, name="coupled"))
    assert right.value == RingElement.make(CIRCLE, {FULL: 1})
    wrong = declared(F, blocks=tuple((i,) for i in range(nvars)))
    claim = r"coupled: declared blocks \(\(0,\), \(1,\)" + r".*, but at level 1 the Jacobian between blocks reaches"
    with pytest.raises(SupportFailure, match=claim):
        deg_infinite(LocalMapSpec(op, wrong, ball, name="coupled"))


def test_a_map_without_a_jacobian_declares_one_block_and_searches_beyond_it(monkeypatch):
    # the ball's center lies on the trivial line of shell 1, beyond the one
    # declared block: that coordinate is a block of its own, and W splits
    F = potential_nonlinearity(Polynomial.from_terms(2, [((4, 0), -0.25), ((2, 0), 0.3), ((0, 4), -0.25), ((0, 2), 0.3)]))
    ball = RegionSpec.ball(1.5, center=(0.0, 0.0, 0.2, 0.0, 0.0), center_level=1)
    f = LocalMapSpec(synthetic_operator_a(), declared(F, jacobian=None, blocks=((0, 1),)), ball, name="one block")
    g = LocalMapSpec(synthetic_operator_a(), F, ball, name="two blocks")
    dims = count_searches(monkeypatch)
    assert deg_infinite(f).value == deg_infinite(g).value == RingElement.make(CIRCLE, {FULL: 1})
    assert dims == [2, 1, 1, 1, 1]


DEGENERATE_WELL = [((1, 0, 0), -0.7), ((2, 0, 0), 0.5), ((0, 4, 0), 0.25), ((0, 3, 0), -2 / 3), ((0, 2, 0), 0.5), ((0, 0, 2), 0.5)]

OUT_OF_THE_REGION = {  # case -> (terms, radius, (multiple, count) or the error of both searches)
    # x_0 - 0.7, x_1 (x_1 - 1)^2 and x_2: the degenerate zero x_1 = 1 lies in
    # the projection of the ball, but its one tuple (0.7, 1, 0) outside
    "a degenerate zero": (DEGENERATE_WELL, 1.2, (-1, 1)),
    # x_0 - 1.2, x_1 - 0.5 and x_2 + x_2^3: the zero x_0 = 1.2 lies on the
    # boundary of the projection, and its one tuple (1.2, 0.5, 0) outside
    "a zero on the boundary of the projection": (
        [((2, 0, 0), 0.5), ((1, 0, 0), -1.2), ((0, 2, 0), 0.5), ((0, 1, 0), -0.5), ((0, 0, 2), 0.5), ((0, 0, 4), 0.25)],
        1.2, (0, 0),
    ),
    # the other side: at radius 1.5 the tuple (0.7, 1, 0) lies inside, and
    # its degenerate zero x_1 = 1, not its block's nearest, is classified
    "a degenerate zero in a tuple of the region": (DEGENERATE_WELL, 1.5, UnresolvedZeroCluster),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_THE_REGION))
def test_a_block_zero_in_no_tuple_of_the_region_raises_nothing(monkeypatch, case):
    # as the search of W whole finds; a zero in a tuple of the region raises
    terms, radius, expected = OUT_OF_THE_REGION[case]
    F = potential_nonlinearity(Polynomial.from_terms(3, terms))
    op = SpectralOperator.from_eigenvalues([(0.0, Rep(3))] + [(s * (n - 0.3), Rep(1)) for n in (1, 2, 3) for s in (-1, 1)])
    f = LocalMapSpec(op, F, RegionSpec.ball(radius), name="block zero")
    dims = count_searches(monkeypatch)
    if isinstance(expected, type):
        for width in (3, 4):  # SPLIT_WIDTH: W split, then W searched whole
            monkeypatch.setattr(eqdeg.galerkin, "SPLIT_WIDTH", width)
            with pytest.raises(expected):
                deg_infinite(f)
        assert dims == [1, 1, 1, 3]
        return
    multiple, count = expected
    split = deg_infinite(f)
    assert dims == [1, 1, 1]
    monkeypatch.setattr(eqdeg.galerkin, "SPLIT_WIDTH", 4)  # W searched whole
    whole = deg_infinite(f)
    assert dims[3:] == [3]
    assert split.value == whole.value == RingElement.make(CIRCLE, {FULL: multiple})
    assert split.diagnostics["zero_counts"] == whole.diagnostics["zero_counts"] == [count, count]
