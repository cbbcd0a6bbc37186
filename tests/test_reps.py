import math

import numpy as np
import pytest

from eqdeg.errors import NearSingular
from eqdeg.euler_ring import RingElement
from eqdeg.galerkin import deg_infinite
from eqdeg.hamiltonian import loop_operator
from eqdeg.reps import (
    EquivariantSymOp,
    Rep,
    SpectralOperator,
    _json_count,
    canonical_layout,
    rep_from_json,
    rep_to_json,
    shell_index,
    shell_operator,
)
from eqdeg.selftest import (
    corpus_local_maps,
    random_sym_op,
    synthetic_operator_a,
    synthetic_operator_b,
    synthetic_operator_c,
)


def test_dim_examples():
    assert Rep(0).dim == 0
    assert Rep(2, ((1, 1),)).dim == 4
    assert Rep(1, ((2, 3), (5, 1))).dim == 9


def test_direct_sum_examples():
    r = Rep(1, ((1, 1),))
    assert r + Rep() == r
    assert Rep(1, ((1, 1),)) + Rep(0, ((1, 2),)) == Rep(1, ((1, 3),))


def test_direct_sum_dim_additive_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        r1 = Rep(int(rng.integers(0, 4)), ((int(rng.integers(1, 5)), int(rng.integers(0, 3))),))
        r2 = Rep(int(rng.integers(0, 4)), ((int(rng.integers(1, 5)), int(rng.integers(0, 3))),))
        assert (r1 + r2).dim == r1.dim + r2.dim


def test_rep_drops_zero_multiplicities():
    assert Rep(1, ((2, 0), (3, 1))).modes == ((3, 1),)


def test_rep_rejects_negative():
    with pytest.raises(ValueError):
        Rep(-1)
    with pytest.raises(ValueError):
        Rep(0, ((1, -2),))


def test_negative_part_identity_and_minus_identity():
    rep = Rep(2, ((1, 1), (3, 2)))
    assert EquivariantSymOp.scalar(rep, 1.0).negative_part() == Rep()
    assert EquivariantSymOp.scalar(rep, -1.0).negative_part() == rep


def test_negative_part_mixed_blocks():
    op = EquivariantSymOp(Rep(2, ((1, 1),)), np.diag([2.0, -3.0]), {1: [[-1.0 + 0j]]})
    assert op.negative_part() == Rep(1, ((1, 1),))


def test_negative_part_near_singular():
    # the threshold is relative to the block's spectral norm
    mixed = EquivariantSymOp(Rep(2), np.diag([1.0, 1e-11]), {})
    with pytest.raises(NearSingular):
        mixed.negative_part()
    zero_block = EquivariantSymOp(Rep(1), [[0.0]], {})
    with pytest.raises(NearSingular):
        zero_block.negative_part()
    # a uniformly scaled isomorphism is fine however small the scale
    tiny = EquivariantSymOp(Rep(1), [[-1e-12]], {})
    assert tiny.negative_part() == Rep(1)


def test_negative_part_splits_over_direct_sums():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_sym_op(rng), random_sym_op(rng)
        joined = a.direct_sum(b)
        assert joined.negative_part() == a.negative_part() + b.negative_part()


def test_negative_parts_complement():
    rng = np.random.default_rng(2)
    for _ in range(50):
        op = random_sym_op(rng)
        flipped = op.scale_blocks(-1.0)
        total = op.negative_part() + flipped.negative_part()
        assert total.dim == op.rep.dim


def test_symmetry_validation():
    with pytest.raises(ValueError):
        EquivariantSymOp(Rep(2), [[0.0, 1.0], [0.0, 0.0]], {})
    with pytest.raises(ValueError):
        EquivariantSymOp(Rep(0, ((1, 2),)), None, {1: np.array([[1.0, 1j], [1j, 1.0]])})


def test_block_shape_validation():
    with pytest.raises(ValueError):
        EquivariantSymOp(Rep(2), np.eye(3), {})
    with pytest.raises(ValueError):
        EquivariantSymOp(Rep(1), [[1.0]], {2: [[1.0]]})


# ---------------------------------------------------------------------------
# Spectral operators and shells


def _toy_operator():
    return SpectralOperator(
        {
            0: [(0.0, Rep(2))],
            1: [(1.0, Rep(0, ((1, 1),))), (-1.0, Rep(0, ((1, 1),)))],
            2: [(1.5, Rep(1)), (-2.0, Rep(0, ((2, 1),)))],
        }
    )


def test_shell_contents_sorted():
    op = _toy_operator()
    assert [lam for lam, _ in op.shell(1)] == [-1.0, 1.0]


def test_shell_validation_rejects_misplaced_eigenvalue():
    with pytest.raises(ValueError):
        SpectralOperator({1: [(2.5, Rep(1))]}).shell(1)
    with pytest.raises(ValueError):
        SpectralOperator({0: [(0.5, Rep(1))]}).shell(0)
    with pytest.raises(ValueError):
        SpectralOperator({1: [(0.5, Rep(1)), (0.5, Rep(1))]}).shell(1)


def test_from_eigenvalues_bins_correctly():
    op = SpectralOperator.from_eigenvalues(
        [(0.0, Rep(2)), (0.5, Rep(1)), (-1.0, Rep(1)), (2.2, Rep(0, ((1, 1),))), (2.0, Rep(1))]
    )
    assert dict((lam, r) for lam, r in op.shell(0)) == {0.0: Rep(2)}
    assert set(lam for lam, _ in op.shell(1)) == {0.5, -1.0}
    assert set(lam for lam, _ in op.shell(2)) == {2.0}
    assert set(lam for lam, _ in op.shell(3)) == {2.2}


def test_shell_index_rounds_just_above_an_integer_down():
    assert shell_index(0.0) == 0
    assert [shell_index(lam) for lam in (0.5, -1.0, 1.0 + 1e-9, 2.0, -2.5)] == [1, 1, 2, 2, 3]
    assert shell_index(3 + 4e-16) == shell_index(-(3 + 4e-16)) == 3
    assert shell_index(2.0000000000005) == 2


def test_eigenvalue_just_above_an_integer_stays_in_its_shell():
    lam = 3 + 4e-16
    assert lam > 3.0
    op = SpectralOperator.from_eigenvalues([(0.0, Rep(1)), (lam, Rep(1))])
    assert op.shell(3) == ((lam, Rep(1)),)
    assert op.eigenspace(lam) == Rep(1)
    assert op.basis(3).dim == 2


def test_table_with_an_eigenvalue_in_the_wrong_shell_raises():
    for table in (
        {4: [(3 + 4e-16, Rep(1))]},  # shell 3 under the 1e-12 tolerance
        {3: [(3.5, Rep(1))]},
        {2: [(0.0, Rep(1))]},
    ):
        n = max(table)
        with pytest.raises(ValueError, match="belongs to shell"):
            SpectralOperator(table).shell(n)


def test_from_eigenvalues_merges_duplicates():
    op = SpectralOperator.from_eigenvalues([(1.0, Rep(1)), (1.0, Rep(0, ((1, 1),)))])
    assert op.shell(1) == ((1.0, Rep(1, ((1, 1),))),)


@pytest.mark.parametrize("lam", ["0.5", True, float("nan"), float("inf")])
def test_from_eigenvalues_never_coerces_an_eigenvalue(lam):
    # "0.5" and True were once read as numbers, nan and inf failed in shell_index
    with pytest.raises(ValueError) as info:
        SpectralOperator.from_eigenvalues([(0.0, Rep(1)), (lam, Rep(1))], label="op")
    assert str(info.value) == f"op: pairs[1] eigenvalue must be a finite number, got {lam!r}"


def test_a_shell_table_never_coerces_an_eigenvalue_or_a_level():
    with pytest.raises(ValueError, match="op: eigenvalue must be a finite number, got '1.0'"):
        SpectralOperator({1: [("1.0", Rep(1))]}, label="op").shell(1)
    with pytest.raises(ValueError, match="op: shell level must be an integer >= 0, got 1.5"):
        SpectralOperator({1.5: [(1.0, Rep(1))]}, label="op")


def test_max_level_enforced():
    op = _toy_operator()
    with pytest.raises(ValueError):
        op.shell(3)


def test_shell_operator_single_mode():
    op = SpectralOperator({2: [(1.5, Rep(0, ((1, 1),)))]}, max_level=2)
    so = shell_operator(op, 2)
    assert so.rep == Rep(0, ((1, 1),))
    assert np.allclose(so.mode_blocks[1], [[1.5]])


def test_shell_operator_empty_shell():
    op = SpectralOperator({1: [(1.0, Rep(1))]}, max_level=5)
    so = shell_operator(op, 3)
    assert so.rep == Rep()
    assert so.negative_part() == Rep()


def test_shell_operator_negative_part_counts_negative_eigenvalues():
    op = _toy_operator()
    so = shell_operator(op, 2)
    assert so.negative_part() == Rep(0, ((2, 1),))
    so1 = shell_operator(op, 1)
    assert so1.negative_part() == Rep(0, ((1, 1),))


def test_shell_operator_eigenvalues_in_range():
    op = _toy_operator()
    for n in (1, 2):
        so = shell_operator(op, n)
        eigs = list(np.diag(so.trivial_block)) + [
            v for blk in so.mode_blocks.values() for v in np.diag(blk).real
        ]
        assert all(n - 1 < abs(v) <= n for v in eigs)


def test_eigenspace_lookup():
    op = _toy_operator()
    assert op.eigenspace(0.0) == Rep(2)
    assert op.eigenspace(-2.0) == Rep(0, ((2, 1),))
    assert op.eigenspace(0.25) == Rep()


def test_space_rep_cumulative():
    op = _toy_operator()
    assert op.basis(0).rep == Rep(2)
    assert op.basis(1).rep == Rep(2, ((1, 2),))
    assert op.basis(2).rep == Rep(3, ((1, 2), (2, 1)))


def test_basis_is_built_once_per_level_and_read_only():
    op = _toy_operator()
    basis = op.basis(2)
    assert op.basis(2) is basis
    assert op.basis(1) is not basis
    assert basis.dim == 9 and basis.prefix_dim(1) == 6
    for arr in (basis.eigenvalues, basis.graph_weights):
        with pytest.raises(ValueError):
            arr[0] = 7.0


def test_direct_sum_of_operators_merges_shells():
    a = SpectralOperator({0: [(0.0, Rep(1))], 1: [(1.0, Rep(1))]}, max_level=1)
    b = SpectralOperator({0: [(0.0, Rep(0, ((1, 1),)))], 1: [(1.0, Rep(1)), (-0.5, Rep(1))]}, max_level=1)
    merged = a.direct_sum(b)
    assert merged.shell(0) == ((0.0, Rep(1, ((1, 1),))),)
    assert dict(merged.shell(1))[1.0] == Rep(2)
    assert dict(merged.shell(1))[-0.5] == Rep(1)


# ---------------------------------------------------------------------------
# The spectral ladder: levels, gaps and fixed-coordinate growth, checked
# against brute-force answers read from the shell tables


def _random_rep(rng) -> Rep:
    modes = rng.choice(np.arange(1, 5), size=int(rng.integers(0, 3)), replace=False)
    rep = Rep(int(rng.integers(0, 3)), tuple((int(k), int(rng.integers(1, 3))) for k in modes))
    return rep if not rep.is_zero else Rep(1)


def _random_operator(seed: int, eigenvalues=None, max_level=None) -> SpectralOperator:
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        eigenvalues = rng.uniform(-7.0, 7.0, size=10)
    signs = rng.choice([-1.0, 1.0], size=len(eigenvalues))
    pairs = [(sign * lam, _random_rep(rng)) for sign, lam in zip(signs, eigenvalues)]
    return SpectralOperator.from_eigenvalues(pairs, max_level=max_level, label=f"random-{seed}")


def _ladder_operators() -> dict[str, SpectralOperator]:
    """Fresh operators, so that no test sees the bases another one built."""
    squares = [0.0] + [float(k * k) for k in range(1, 13)]  # shells between the squares are empty
    ops = {f"random seed={seed}": _random_operator(seed) for seed in range(4)}
    ops |= {f"random seed={seed} max_level=4": _random_operator(seed, max_level=4) for seed in (4, 5)}
    ops |= {f"squares seed={seed}": _random_operator(seed, squares) for seed in (6, 7)}
    ops |= {f"loop dof={dof}": loop_operator(dof) for dof in (1, 2, 3)}
    return ops | {
        "synthetic-a": synthetic_operator_a(),
        "synthetic-b": synthetic_operator_b(),
        "synthetic-c": synthetic_operator_c(),
        "loop dof=1 + synthetic-c": loop_operator(1).direct_sum(synthetic_operator_c()),
        "synthetic-a + synthetic-b": synthetic_operator_a().direct_sum(synthetic_operator_b()),
    }


LADDER = list(_ladder_operators())


def _top(op: SpectralOperator) -> int:
    """The highest level the brute-force checks read: the declared max level, capped."""
    return 12 if op.max_level is None else min(op.max_level, 150)


def _holds(op: SpectralOperator, m: int) -> bool:
    try:
        op.shell(m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", LADDER)
def test_levels_are_those_whose_shells_the_spectrum_holds(name):
    op = _ladder_operators()[name]
    top = _top(op)
    for first in (0, 1, 3):
        for last in (first, first + 2, top - 1, top, top + 4):
            for depth in (0, 1, 2, 3):
                brute = [N for N in range(first, last + 1) if all(_holds(op, m) for m in range(N, N + depth + 1))]
                assert list(op.levels(first, last, depth)) == brute, (first, last, depth)


@pytest.mark.parametrize("name", LADDER)
def test_gap_is_the_least_rotation_plane_eigenvalue(name):
    op = _ladder_operators()[name]
    least = math.inf
    for n in range(_top(op) + 1):
        least = min([least] + [abs(lam) for lam, rep in op.shell(n) if rep.modes])
        assert op.gap(n) == least, n
    assert any(math.isfinite(op.gap(n)) for n in range(_top(op) + 1))


@pytest.mark.parametrize("name", LADDER)
def test_adds_fixed_reads_the_trivial_parts_of_the_shells_between(name):
    op = _ladder_operators()[name]
    top = min(_top(op), 20)
    for N in range(top + 1):
        for n in range(N, top + 1):
            brute = any(rep.trivial for m in range(N + 1, n + 1) for _, rep in op.shell(m))
            assert op.adds_fixed(N, n) == brute, (N, n)


def test_the_ladder_operators_cover_open_and_declared_spectra_and_both_answers():
    ops = _ladder_operators().values()
    assert {op.max_level is None for op in ops} == {True, False}
    assert {op.adds_fixed(1, 3) for op in ops} == {True, False}
    assert {math.isinf(op.gap(0)) for op in ops} == {True, False}


@pytest.mark.parametrize(
    "name, level, depth",
    [("loop1-quartic", 12, 1), ("loop1-quartic", 4, 3), ("abstract-a", "auto", 2), ("abstract-b", "auto", 1)],
)
def test_a_certificate_inverts_each_shell_degree_once(monkeypatch, name, level, depth):
    # m_n = m_{n-1} a_n^{-1}: N + depth inversions, not one per shell of every prefix
    f = {inst.name: inst.build for inst in corpus_local_maps()}[name]()
    calls = []
    invert = RingElement.invert
    monkeypatch.setattr(RingElement, "invert", lambda a: calls.append(a) or invert(a))
    res = deg_infinite(f, level=level, stabilization_depth=depth)
    assert len(calls) == res.level + depth
    if level != "auto":
        assert res.level == level



# ---------------------------------------------------------------------------
# Layouts


def test_canonical_layout_structure():
    lay = canonical_layout(Rep(2, ((1, 1), (3, 2))))
    assert lay.trivial == (0, 1)
    assert lay.pairs == ((1, 2), (3, 4), (3, 6))
    assert lay.size == 8


def test_layout_rotation_is_orthogonal_and_periodic():
    rng = np.random.default_rng(3)
    lay = canonical_layout(Rep(1, ((2, 1), (5, 1))))
    x = rng.standard_normal(lay.size)
    theta = 0.83
    y = lay.rotate(theta, x)
    assert np.isclose(np.linalg.norm(y), np.linalg.norm(x))
    back = lay.rotate(-theta, y)
    assert np.allclose(back, x)
    full_turn = lay.rotate(2 * np.pi, x)
    assert np.allclose(full_turn, x, atol=1e-12)


def test_rep_serialization_round_trip():
    r = Rep(3, ((2, 1), (7, 4)))
    assert rep_from_json(rep_to_json(r)) == r
    assert rep_to_json(r) == {"trivial": 3, "modes": [[2, 1], [7, 4]]}


def test_rep_from_json_reads_numpy_integers():
    assert rep_from_json({"trivial": np.int64(2), "modes": [[np.int32(3), np.int64(1)]]}) == Rep(2, ((3, 1),))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"trivial": 3.5, "modes": [[1, 1]]}, "trivial must be an integer >= 0, got 3.5"),
        ({"trivial": True, "modes": []}, "trivial must be an integer >= 0, got True"),
        ({"trivial": -1, "modes": []}, "trivial must be an integer >= 0, got -1"),
        ({"trivial": "2", "modes": []}, "trivial must be an integer >= 0, got '2'"),
        ({"trivial": 3, "modes": [[1.9, 1]]}, "modes[0] mode must be an integer >= 1, got 1.9"),
        ({"trivial": 3, "modes": [[0, 1]]}, "modes[0] mode must be an integer >= 1, got 0"),
        ({"trivial": 3, "modes": [[1, True]]}, "modes[0] multiplicity must be an integer >= 0, got True"),
        ({"trivial": 3, "modes": [[2, -1]]}, "modes[0] multiplicity must be an integer >= 0, got -1"),
        ({"trivial": 3, "modes": [[2, 1.0]]}, "modes[0] multiplicity must be an integer >= 0, got 1.0"),
    ],
)
def test_rep_from_json_never_coerces_a_count(data, message):
    with pytest.raises(ValueError) as info:
        rep_from_json(data)
    assert str(info.value) == message


def test_a_bounded_count_is_a_machine_integer_and_a_ring_coefficient_is_not():
    top = int(np.iinfo(np.intp).max)
    assert _json_count(top, "n", 0) == top and _json_count(np.intp(top), "n", 1) == top
    for raw in (top + 1, 10**400, np.uint64(top + 1)):
        with pytest.raises(ValueError) as info:
            _json_count(raw, "n", 0)
        assert str(info.value) == f"n must be an integer >= 0 and <= {top}, got {raw!r}"
    assert _json_count(-(10**400), "coeff", None) == -(10**400)  # least=None: any integer
