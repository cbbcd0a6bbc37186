import numpy as np
import pytest

from eqdeg.errors import NearSingular
from eqdeg.reps import (
    EquivariantSymOp,
    Rep,
    SpectralOperator,
    canonical_layout,
    rep_from_json,
    rep_to_json,
    shell_index,
    shell_operator,
)
from eqdeg.selftest import random_sym_op


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
        ({"trivial": 3, "modes": [[1.9, 1]]}, "mode must be an integer >= 1, got 1.9"),
        ({"trivial": 3, "modes": [[0, 1]]}, "mode must be an integer >= 1, got 0"),
        ({"trivial": 3, "modes": [[1, True]]}, "multiplicity of mode 1 must be an integer >= 0, got True"),
        ({"trivial": 3, "modes": [[2, -1]]}, "multiplicity of mode 2 must be an integer >= 0, got -1"),
        ({"trivial": 3, "modes": [[2, 1.0]]}, "multiplicity of mode 2 must be an integer >= 0, got 1.0"),
    ],
)
def test_rep_from_json_never_coerces_a_count(data, message):
    with pytest.raises(ValueError) as info:
        rep_from_json(data)
    assert str(info.value) == message
