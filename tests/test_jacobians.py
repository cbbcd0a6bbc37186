"""Exact Jacobians against central differences, the vectorized polynomial
Hessian, and the synthesis-matrix value path of the Hamiltonian local map."""

import math

import numpy as np
import pytest

import eqdeg.finite_degree as finite_degree
from eqdeg.errors import ZeroOutsideFixedSpace
from eqdeg.euler_ring import FULL
from eqdeg.finite_degree import _fd_jacobian, brouwer_oracle, grad_degree
from eqdeg.galerkin import LocalMapSpec, ShellBasis, deg_infinite, normalization_map, shell_field
from eqdeg.hamiltonian import (
    HamiltonianSpec,
    _coords_batches,
    _fourier_batches,
    default_quadrature_size,
    local_map,
    loop_operator,
)
from eqdeg.polynomials import Polynomial
from eqdeg.selftest import (
    corpus_local_maps,
    quartic_hamiltonian,
    random_fixed_space_field,
    synthetic_operator_a,
)

JAC_RTOL = 1e-6  # exact against central differences, relative to the largest entry
HESS_RTOL = 1e-12  # Polynomial.hessian against the single-point loop, relative to the largest entry
SYNTH_RTOL = 1e-12  # synthesis-matrix values against the cos/sin + rfft reference

CORPUS = {inst.name: inst for inst in corpus_local_maps()}
COUPLED_QUARTIC = HamiltonianSpec.from_terms(  # the Hamiltonian of loop2-coupled-quartic
    2,
    [
        ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5),
        ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5),
        ((4, 0, 0, 0), 0.05), ((2, 0, 2, 0), 0.1),
    ],
    0.45,
)


def jacobian_maps():
    return {
        "quartic dof=1": local_map(quartic_hamiltonian(1, 0.4), radius=0.8),
        "quartic dof=2": local_map(quartic_hamiltonian(2, 0.4), radius=0.8),
        "loop2-coupled-quartic": CORPUS["loop2-coupled-quartic"].build(),
        "abstract-a potential": CORPUS["abstract-a"].build(),
        "abstract-b potential": CORPUS["abstract-b"].build(),
        "normalization loop": normalization_map(loop_operator(2)),
        "normalization synthetic": normalization_map(synthetic_operator_a()),
    }


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", sorted(jacobian_maps()))
@pytest.mark.parametrize("level", [1, 3])
def test_exact_jacobian_matches_central_differences(name, level):
    fld = shell_field(jacobian_maps()[name], level)
    assert fld.jacobian is not None
    rng = np.random.default_rng(level)
    X = np.vstack([fld.domain.interior_samples(6, rng), fld.domain.boundary_samples(2, rng)])
    for idx in (list(fld.layout.trivial), list(range(fld.layout.size))):
        exact = fld.jacobian(X, idx)
        assert exact.shape == (len(X), len(idx), len(idx))
        assert relative_gap(exact, _fd_jacobian(fld, X, idx)) <= JAC_RTOL


def hessian_loop(p, x):
    """The single-point Hessian loop that Polynomial.hessian replaced."""
    h = np.zeros((p.nvars, p.nvars))
    for exps, coeff in p.terms:
        for i, ei in enumerate(exps):
            if ei == 0:
                continue
            for j, ej in enumerate(exps):
                if i == j:
                    if ei < 2:
                        continue
                    factor = coeff * ei * (ei - 1)
                else:
                    if ej == 0:
                        continue
                    factor = coeff * ei * ej
                term = factor
                for l, el in enumerate(exps):
                    q = el - (l == i) - (l == j)
                    if q:
                        term = term * x[l] ** q
                h[i, j] += term
    return h


def test_polynomial_hessian_matches_the_single_point_loop_row_by_row():
    rng = np.random.default_rng(3)
    p = Polynomial.from_terms(
        4,
        [((2, 1, 0, 0), 1.5), ((0, 0, 4, 0), -0.5), ((1, 1, 1, 1), 2.0),
         ((3, 0, 0, 2), 0.25), ((0, 2, 0, 0), 0.7), ((1, 0, 0, 0), 3.0)],
    )
    X = rng.uniform(-1.5, 1.5, size=(5, 7, 4))
    H = p.hessian(X)
    assert H.shape == (5, 7, 4, 4)
    for i in range(5):
        for j in range(7):
            ref = hessian_loop(p, X[i, j])
            assert np.array_equal(p.hessian_at(X[i, j]), H[i, j])
            assert np.max(np.abs(H[i, j] - ref)) <= HESS_RTOL * np.max(np.abs(ref))


def reference_nonlinearity(spec, X, level):
    """The cos/sin synthesis with rfft projection that the synthesis matrix replaced."""
    poly, dof = spec.potential, spec.dof
    M = default_quadrature_size(poly.degree, level)
    c0, C, S = _fourier_batches(X, dof, level)
    t = 2.0 * math.pi * np.arange(M) / M
    ks = np.arange(1, level + 1)
    u = (
        c0[:, None, :]
        + np.einsum("tk,mkj->mtj", np.cos(np.outer(t, ks)), C)
        + np.einsum("tk,mkj->mtj", np.sin(np.outer(t, ks)), S)
    )
    Wf = np.fft.rfft(poly.gradient(u), axis=1)
    gc0 = Wf[:, 0, :].real / M
    gC = 2.0 * Wf[:, 1 : level + 1, :].real / M
    gS = -2.0 * Wf[:, 1 : level + 1, :].imag / M
    return spec.lam * _coords_batches(gc0, gC, gS, dof)


@pytest.mark.parametrize(
    "spec", [quartic_hamiltonian(1, 0.4), COUPLED_QUARTIC], ids=["quartic", "coupled-quartic"]
)
def test_synthesis_matrix_matches_fft_reference(spec):
    lm = local_map(spec, radius=0.9)
    rng = np.random.default_rng(11)
    for level in range(1, 13):
        basis = ShellBasis(lm.operator, level)
        X = rng.uniform(-0.5, 0.5, size=(9, basis.dim))
        ref = reference_nonlinearity(spec, X, level)
        assert relative_gap(lm.nonlinearity(X, basis), ref) <= SYNTH_RTOL


def counting(monkeypatch, name):
    """Replace a finite-difference helper of finite_degree by a counting wrapper."""
    calls = []
    original = getattr(finite_degree, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(finite_degree, name, wrapper)
    return calls


def test_field_without_jacobian_falls_back_to_central_differences(monkeypatch):
    fld = random_fixed_space_field(np.random.default_rng(4), 2)
    assert fld.jacobian is None
    newton = counting(monkeypatch, "_fd_jacobian")
    hessian = counting(monkeypatch, "_fd_hessian_full")
    value = grad_degree(fld)
    assert newton and hessian
    assert value.coeff(FULL) == brouwer_oracle(fld)


def test_maps_with_jacobians_use_no_finite_differences(monkeypatch):
    newton = counting(monkeypatch, "_fd_jacobian")
    hessian = counting(monkeypatch, "_fd_hessian_full")
    for name in ("loop1-quartic", "abstract-a"):
        inst = CORPUS[name]
        assert deg_infinite(inst.build()).value == inst.expected
    assert not newton and not hessian


def test_local_map_spec_without_jacobian_gives_the_same_degree():
    inst = CORPUS["loop2-coupled-quartic"]
    lm = inst.build()
    plain = LocalMapSpec(lm.operator, lambda X, basis: lm.nonlinearity(X, basis), lm.region)
    assert plain.jacobian is None and shell_field(plain, 1).jacobian is None
    assert deg_infinite(plain).value == deg_infinite(lm).value == inst.expected


def test_newton_on_an_everywhere_singular_exact_jacobian_finds_off_space_zeros():
    # at lambda = 1 the mode-1 loops of H = |z|^2 / 2 are all zeros; the exact
    # Jacobian is singular up to rounding everywhere, and the off-space scan
    # must still reach those zeros
    spec = HamiltonianSpec.from_terms(1, [((2, 0), 0.5), ((0, 2), 0.5)], 1.0)
    fld = shell_field(local_map(spec, radius=1.0), 1)
    assert fld.jacobian is not None
    with pytest.raises(ZeroOutsideFixedSpace):
        grad_degree(fld)
