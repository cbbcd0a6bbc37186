"""The Hamiltonian local map's grid work in row blocks.

The nonlinearity, its Jacobian and its tail run their grid arrays over
consecutive row blocks of a batch.  Each row is computed on its own, so
the blocks must agree with a row-by-row loop, the first block must be the
same rows evaluated alone, and a margin pass must hold only a few blocks'
grid arrays at a time.
"""

import tracemalloc

import numpy as np
import pytest

import eqdeg.hamiltonian as hamiltonian
from eqdeg.galerkin import certify_margin
from eqdeg.hamiltonian import local_map
from eqdeg.selftest import corpus_local_maps, quartic_hamiltonian

BLOCK_RTOL = 1e-13  # blocks against the row-by-row loop, relative to the batch's largest |value|
MEMORY_LIMIT = 4 * 2**20  # traced bytes of a level-13 margin pass beyond the samples and values it keeps


def block_maps():
    """(map, level) pairs whose level-n boundary pass spans several blocks."""
    coupled = next(c for c in corpus_local_maps() if c.name == "loop2-coupled-quartic")
    return {
        "quartic dof=1": (local_map(quartic_hamiltonian(1, 0.4), radius=0.8), 13),
        "loop2-coupled-quartic": (coupled.build(), 8),
    }


@pytest.fixture
def block_sizes(monkeypatch):
    """Records the row count of every block that ``_row_blocks`` hands its kernel."""
    sizes = []
    blocks = hamiltonian._row_blocks

    def spy(kernel, X, row_bytes):
        def counted(Y):
            sizes.append(len(Y))
            return kernel(Y)

        return blocks(counted, X, row_bytes)

    monkeypatch.setattr(hamiltonian, "_row_blocks", spy)
    return sizes


def one_by_one(fn, X):
    return np.concatenate([fn(X[i : i + 1]) for i in range(len(X))])


def assert_rows_match(blocked, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(blocked - reference)) <= BLOCK_RTOL * scale


@pytest.mark.parametrize("name", sorted(block_maps()))
def test_blocks_match_the_row_by_row_loop(name, block_sizes):
    f, level = block_maps()[name]
    basis = f.operator.basis(level)
    X = certify_margin(f, level, seed=0).samples
    trivial = list(basis.layout.trivial)
    everything = list(range(basis.dim))
    few = X[:: max(1, len(X) // 40)]  # about 40 rows across the pass
    cases = [
        (lambda Y: f.nonlinearity(Y, basis), X),
        (lambda Y: f.tail(Y, basis), X),
        (lambda Y: f.jacobian(Y, basis, trivial), X),
        (lambda Y: f.jacobian(Y, basis, everything), few),
    ]
    for fn, rows in cases:
        block_sizes.clear()
        blocked = fn(rows)
        assert len(block_sizes) >= 3 and sum(block_sizes) == len(rows)
        assert_rows_match(blocked, one_by_one(fn, rows))
        first = block_sizes[0]
        assert fn(rows[:first]).tobytes() == blocked[:first].tobytes()


def test_a_batch_that_fits_one_block_is_one_kernel_call(block_sizes):
    f, level = block_maps()["quartic dof=1"]
    basis = f.operator.basis(level)
    X = certify_margin(f, level, seed=0).samples[:50]
    block_sizes.clear()
    for out in (f.nonlinearity(X, basis), f.tail(X, basis)):
        assert len(out) == 50
    assert block_sizes == [50, 50]


def test_a_level_13_margin_pass_holds_few_grid_arrays():
    f = local_map(quartic_hamiltonian(1, 0.4), 0.8)
    tracemalloc.start()
    try:
        margin = certify_margin(f, 13, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - margin.samples.nbytes - margin.values.nbytes < MEMORY_LIMIT
