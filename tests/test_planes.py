"""The rotation-plane map Layout.planes and its readers, against the
per-plane loops they replaced (kept here as references)."""

import math

import numpy as np
import pytest

from eqdeg.finite_degree import _full_matrix, blocks_from_matrix
from eqdeg.hamiltonian import loop_operator
from eqdeg.reps import EquivariantSymOp, Layout, canonical_layout, concat_layouts
from eqdeg.selftest import random_sym_op, synthetic_operator_b


def loop_full_matrix(op, lay):
    d = lay.size
    mat = np.zeros((d, d))
    t = list(lay.trivial)
    if t:
        mat[np.ix_(t, t)] = op.trivial_block
    by_mode = {}
    for k, i in lay.pairs:
        by_mode.setdefault(k, []).append(i)
    for k, bases in by_mode.items():
        blk = op.mode_blocks[k]
        for a, ia in enumerate(bases):
            for b, ib in enumerate(bases):
                al, be = blk[a, b].real, blk[a, b].imag
                mat[ia, ib] += al
                mat[ia + 1, ib + 1] += al
                mat[ia, ib + 1] += -be
                mat[ia + 1, ib] += be
    return mat


def loop_blocks_from_matrix(S, layout):
    tidx = list(layout.trivial)
    trivial = S[np.ix_(tidx, tidx)] if tidx else np.zeros((0, 0))
    trivial = 0.5 * (trivial + trivial.T)
    by_mode = {}
    for k, i in layout.pairs:
        by_mode.setdefault(k, []).append(i)
    blocks = {}
    for k, bases in by_mode.items():
        n = len(bases)
        blk = np.empty((n, n), dtype=complex)
        for a, ia in enumerate(bases):
            for b, ib in enumerate(bases):
                sub = S[np.ix_([ia, ia + 1], [ib, ib + 1])]
                blk[a, b] = complex(0.5 * (sub[0, 0] + sub[1, 1]), 0.5 * (sub[1, 0] - sub[0, 1]))
        blocks[k] = 0.5 * (blk + blk.conj().T)
    counts = {}
    for k, _ in layout.pairs:
        counts[k] = counts.get(k, 0) + 1
    return EquivariantSymOp(layout.rep(), trivial, blocks), counts


def loop_rotate(lay, theta, x):
    out = np.array(x, dtype=float, copy=True)
    for k, i in lay.pairs:
        c, s = math.cos(k * theta), math.sin(k * theta)
        u = out[..., i].copy()
        v = out[..., i + 1].copy()
        out[..., i] = c * u - s * v
        out[..., i + 1] = s * u + c * v
    return out


def random_op_on(lay, rng):
    """A random equivariant self-adjoint operator on the layout's representation,
    with full (non-real) Hermitian mode blocks."""
    rep = lay.rep()
    t = rng.standard_normal((rep.trivial, rep.trivial))
    blocks = {}
    for k, n in rep.modes:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks[k] = 0.5 * (z + z.conj().T)
    return EquivariantSymOp(rep, 0.5 * (t + t.T), blocks)


def sample_layouts():
    """(layout, operator) pairs: canonical layouts of random operators,
    concatenated products whose modes interleave, and shell-basis layouts
    whose mode-1 planes recur in several eigenspaces."""
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(12):
        op = random_sym_op(rng)
        cases.append((canonical_layout(op.rep), op))
    for _ in range(6):
        a, b = random_sym_op(rng), random_sym_op(rng)
        cases.append((concat_layouts([canonical_layout(a.rep), canonical_layout(b.rep)]), a.direct_sum(b)))
    for op in (loop_operator(1), loop_operator(2), synthetic_operator_b()):
        lay = op.basis(3).layout
        cases.append((lay, random_op_on(lay, rng)))
    interleaved = concat_layouts(
        [canonical_layout(random_sym_op(rng).rep) for _ in range(3)] + [Layout(4, (), ((2, 0), (1, 2)))]
    )
    cases.append((interleaved, random_op_on(interleaved, rng)))
    return cases


CASES = sample_layouts()


def assert_ops_identical(a, b):
    assert a.rep == b.rep
    assert a.trivial_block.tobytes() == b.trivial_block.tobytes()
    assert list(a.mode_blocks) == list(b.mode_blocks)
    for k in a.mode_blocks:
        assert a.mode_blocks[k].tobytes() == b.mode_blocks[k].tobytes()


def test_sample_layouts_cover_recurring_and_interleaved_planes():
    shell = [lay for lay, _ in CASES if len(lay.planes.get(1, ())) >= 4]
    assert shell, "a shell-basis layout with mode-1 planes in several eigenspaces"
    modes_in_pair_order = [[k for k, _ in lay.pairs] for lay, _ in CASES]
    assert any(m != sorted(m) for m in modes_in_pair_order)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_planes_group_pairs_by_mode_in_pair_order(case):
    lay, _ = CASES[case]
    assert list(lay.planes) == sorted({k for k, _ in lay.pairs})
    for k, bases in lay.planes.items():
        assert bases.dtype.kind == "i"
        assert bases.tolist() == [i for kk, i in lay.pairs if kk == k]


def test_planes_are_read_only_and_computed_once():
    lay, _ = CASES[-1]
    assert lay.planes is lay.planes
    with pytest.raises(ValueError):
        lay.planes[1][0] = 99
    with pytest.raises(TypeError):
        lay.planes[7] = np.arange(2)


def test_layout_without_planes_has_an_empty_map():
    lay = Layout(3, (0, 1, 2), ())
    assert dict(lay.planes) == {}
    assert lay.rep().modes == ()
    x = np.arange(3.0)
    assert lay.rotate(0.7, x).tobytes() == x.tobytes()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_full_matrix_matches_plane_loop(case):
    lay, op = CASES[case]
    assert _full_matrix(op, lay).tobytes() == loop_full_matrix(op, lay).tobytes()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_blocks_from_matrix_matches_plane_loop(case):
    lay, op = CASES[case]
    rng = np.random.default_rng(case)
    noise = rng.standard_normal((lay.size, lay.size))
    for S in (_full_matrix(op, lay), noise, 0.5 * (noise + noise.T)):
        expected, counts = loop_blocks_from_matrix(S, lay)
        got = blocks_from_matrix(S, lay)
        assert_ops_identical(got, expected)
        assert dict(got.rep.modes) == counts


@pytest.mark.parametrize("case", range(len(CASES)))
def test_blocks_from_matrix_inverts_full_matrix(case):
    lay, op = CASES[case]
    assert_ops_identical(blocks_from_matrix(_full_matrix(op, lay), lay), op)


def test_full_matrix_of_a_direct_sum_is_block_diagonal():
    rng = np.random.default_rng(5)
    a, b = random_sym_op(rng), random_sym_op(rng)
    la, lb = canonical_layout(a.rep), canonical_layout(b.rep)
    mat = _full_matrix(a.direct_sum(b), concat_layouts([la, lb]))
    da = la.size
    assert np.array_equal(mat[:da, :da], _full_matrix(a, la))
    assert np.array_equal(mat[da:, da:], _full_matrix(b, lb))
    assert not mat[:da, da:].any() and not mat[da:, :da].any()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_rotate_matches_plane_loop(case):
    lay, _ = CASES[case]
    rng = np.random.default_rng(100 + case)
    for shape in ((lay.size,), (5, lay.size), (2, 3, lay.size)):
        x = rng.standard_normal(shape)
        for theta in rng.uniform(-7.0, 7.0, size=3):
            got, want = lay.rotate(theta, x), loop_rotate(lay, theta, x)
            assert got.shape == x.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=8 * np.finfo(float).eps * np.abs(x).max())


@pytest.mark.parametrize("case", range(len(CASES)))
def test_rotate_is_a_group_action(case):
    lay, _ = CASES[case]
    rng = np.random.default_rng(200 + case)
    x = rng.standard_normal((4, lay.size))
    a, b = rng.uniform(-3.0, 3.0, size=2)
    assert np.array_equal(lay.rotate(0.0, x), x)
    np.testing.assert_allclose(lay.rotate(a, lay.rotate(b, x)), lay.rotate(a + b, x), atol=1e-12)
    np.testing.assert_allclose(lay.rotate(-a, lay.rotate(a, x)), x, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(lay.rotate(a, x), axis=1), np.linalg.norm(x, axis=1))
