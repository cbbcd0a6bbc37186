"""Exact Jacobians against central differences, polynomial evaluation
against the term-by-term power loops, the synthesis-matrix value path of the
Hamiltonian local map, its affine/grid split against the whole-grid
formula, and the action gradient against the whole-grid projection it
replaced."""

import inspect
import math

import numpy as np
import pytest

import eqdeg.finite_degree as finite_degree
from eqdeg.errors import ZeroOutsideFixedSpace
from eqdeg.euler_ring import FULL
from eqdeg.finite_degree import (
    OrbitNormalForm,
    _fd_jacobian,
    brouwer_oracle,
    field_from_operator,
    grad_degree,
    orbit_normal_form_field,
    product_field,
)
from eqdeg.galerkin import (
    LocalMapSpec,
    ShellBasis,
    deg_infinite,
    direct_sum_local_maps,
    normalization_map,
    shell_field,
)
from eqdeg.hamiltonian import (
    HamiltonianSpec,
    LoopState,
    _coords_batches,
    _fourier_batches,
    _synthesis_matrix,
    default_quadrature_size,
    hamiltonian_gradient,
    local_map,
    loop_operator,
)
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep
from eqdeg.selftest import (
    corpus_local_maps,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    random_fixed_space_field,
    random_sym_op,
    synthetic_operator_a,
)

JAC_RTOL = 1e-6  # exact against central differences, relative to the largest entry
HESS_RTOL = 1e-12  # Polynomial.hessian against the loop at single points, relative to the largest entry
SYNTH_RTOL = 1e-12  # synthesis-matrix values against the cos/sin + rfft reference
POWER_RTOL = 1e-13  # multiplied powers against the ** loops, relative to the largest entry
SPLIT_RTOL = 1e-12  # affine matrix plus active grid against the whole-grid formula
GRADIENT_RTOL = 1e-12  # hamiltonian_gradient against its former whole-grid projection
FD_BATCH_RTOL = 1e-12  # batched central differences against the per-column loop

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
S_COUPLED = HamiltonianSpec.from_terms(  # demo 04: quadratic with a (1,1) term
    1, [((2, 0), 0.8), ((0, 2), 0.3), ((1, 1), 0.25)], 0.9
)
CUBIC = HamiltonianSpec.from_terms(  # cubic in z_1, z_2, with linear and constant terms
    2,
    [
        ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5),
        ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5), ((1, 0, 0, 1), 0.2),
        ((3, 0, 0, 0), 0.1), ((1, 2, 0, 0), -0.05),
        ((1, 0, 0, 0), 0.3), ((0, 0, 1, 0), -0.2), ((0, 0, 0, 0), 1.0),
    ],
    0.4,
)
QUADRATIC = quadratic_hamiltonian(2, [2.0, 0.5, 2.0, 0.5], 0.7)  # no active variables


def jacobian_maps():
    return {
        "quartic dof=1": local_map(quartic_hamiltonian(1, 0.4), radius=0.8),
        "quartic dof=2": local_map(quartic_hamiltonian(2, 0.4), radius=0.8),
        "cubic dof=2": local_map(CUBIC, radius=0.8),
        "quadratic dof=2": local_map(QUADRATIC, radius=1.0),
        "loop2-coupled-quartic": CORPUS["loop2-coupled-quartic"].build(),
        "loop2-quadratic-mixed x abstract-b": direct_sum_local_maps(
            CORPUS["loop2-quadratic-mixed"].build(), CORPUS["abstract-b"].build()
        ),
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


def fd_jacobian_loop(fld, X, idx, step=1e-6):
    """_fd_jacobian as it was: two evaluations per column of idx."""
    h = step * (1.0 + np.max(np.abs(X), axis=1))
    J = np.empty((len(X), len(idx), len(idx)))
    for jc, c in enumerate(idx):
        Xp = X.copy()
        Xp[:, c] += h
        Xm = X.copy()
        Xm[:, c] -= h
        J[:, :, jc] = (fld.evaluate(Xp)[:, idx] - fld.evaluate(Xm)[:, idx]) / (2 * h)[:, None]
    return J


@pytest.mark.parametrize("dim", range(1, 9))
def test_batched_central_differences_match_the_column_loop(dim):
    rng = np.random.default_rng(dim)
    fld = random_fixed_space_field(rng, dim)
    X = fld.domain.interior_samples(7, rng)
    for idx in (list(range(dim)), list(range(dim))[::-2]):
        for step in (1e-6, 1e-5):
            got = _fd_jacobian(fld, X, idx, step=step)
            assert relative_gap(got, fd_jacobian_loop(fld, X, idx, step)) <= FD_BATCH_RTOL


def test_central_differences_evaluate_the_field_twice():
    fld = random_fixed_space_field(np.random.default_rng(0), 5)
    calls = []

    def value(X, inner=fld.value):
        calls.append(len(X))
        return inner(X)

    fld.value = value
    _fd_jacobian(fld, fld.domain.interior_samples(3, np.random.default_rng(1)), [0, 2, 3, 4])
    assert calls == [12, 12]  # all shifted-up points, then all shifted-down ones


def exact_jacobian_fields():
    rng = np.random.default_rng(9)
    ops = [op for op in (random_sym_op(rng) for _ in range(12)) if op.rep.dim][:2]
    linear_a, linear_b = (field_from_operator(op) for op in ops)
    quartic = shell_field(local_map(quartic_hamiltonian(1, 0.4), radius=0.8), 1)
    normal = orbit_normal_form_field(OrbitNormalForm(FULL, Rep(2, ((1, 1),))))
    return {
        "linear": linear_a,
        "normal form (fixed orbit)": normal,
        "linear x linear": product_field(linear_a, linear_b),
        "quartic loops x linear": product_field(quartic, linear_b),
        "linear x normal form": product_field(linear_a, normal),
    }


@pytest.mark.parametrize("name", sorted(exact_jacobian_fields()))
def test_finite_degree_jacobians_match_central_differences(name):
    fld = exact_jacobian_fields()[name]
    assert fld.jacobian is not None
    X = fld.domain.interior_samples(6, np.random.default_rng(2))
    for idx in (list(fld.layout.trivial), list(range(fld.layout.size))):
        exact = fld.jacobian(X, idx)
        assert exact.shape == (len(X), len(idx), len(idx))
        assert relative_gap(exact, _fd_jacobian(fld, X, idx)) <= JAC_RTOL


def value_loop(p, x):
    """Polynomial.value as it was, with ** on every factor."""
    out = np.zeros(x.shape[:-1])
    for exps, coeff in p.terms:
        term = np.full(x.shape[:-1], coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * x[..., i] ** e
        out += term
    return out


def gradient_loop(p, x):
    """Polynomial.gradient as it was, with ** on every factor."""
    out = np.zeros_like(x)
    for exps, coeff in p.terms:
        for i, e in enumerate(exps):
            if e == 0:
                continue
            term = np.full(x.shape[:-1], coeff * e)
            for j, ej in enumerate(exps):
                q = ej - 1 if j == i else ej
                if q:
                    term = term * x[..., j] ** q
            out[..., i] += term
    return out


def hessian_loop(p, x):
    """Polynomial.hessian as it was, with ** on every factor; x may be a single point."""
    out = np.zeros(x.shape + (p.nvars,))
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
                term = np.full(x.shape[:-1], factor)
                for l, el in enumerate(exps):
                    q = el - (l == i) - (l == j)
                    if q:
                        term = term * x[..., l] ** q
                out[..., i, j] += term
    return out


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
            assert np.array_equal(p.hessian(X[i, j]), H[i, j])
            assert np.max(np.abs(H[i, j] - ref)) <= HESS_RTOL * np.max(np.abs(ref))


POWER_POLYNOMIALS = {
    "sextic": Polynomial.from_terms(
        3,
        [((6, 0, 0), 0.3), ((2, 3, 1), -1.25), ((0, 5, 0), 0.7), ((1, 1, 4), 2.0),
         ((3, 0, 2), -0.4), ((0, 0, 2), 1.5), ((1, 0, 0), -0.8), ((0, 0, 0), 2.5)],
    ),
    "linear and constant": Polynomial.from_terms(2, [((1, 0), 0.5), ((0, 1), -2.0), ((0, 0), 1.0)]),
    "no terms": Polynomial(3, ()),
}


@pytest.mark.parametrize("name", sorted(POWER_POLYNOMIALS))
@pytest.mark.parametrize("shape", [(), (7,), (5, 9)], ids=["point", "batch", "grid"])
def test_polynomial_powers_by_multiplication_match_the_power_loops(name, shape):
    p = POWER_POLYNOMIALS[name]
    x = np.random.default_rng(5).uniform(-1.6, 1.6, size=shape + (p.nvars,))
    for got, ref in (
        (p.value(x), value_loop(p, x)),
        (p.gradient(x), gradient_loop(p, x)),
        (p.hessian(x), hessian_loop(p, x)),
    ):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= POWER_RTOL * np.max(np.abs(ref), initial=0.0)
    if not shape:
        assert np.array_equal(p.hessian(x), p.hessian(x).T)


def whole_grid_reference(spec, X, level, idx):
    """The whole-grid formula that the affine/grid split replaced:
    F = w grad H(X B^T) B and the idx-block w B[:, idx]^T hess H B[:, idx]."""
    poly, n2 = spec.potential, 2 * spec.dof
    M = default_quadrature_size(poly.degree, level)
    B = _synthesis_matrix(spec.dof, level, M)
    w = spec.lam * 2.0 * math.pi / M
    u = (X @ B.T).reshape(len(X), M, n2)
    F = w * poly.gradient(u).reshape(len(X), -1) @ B
    Bi = B[:, idx].reshape(M, n2, len(idx))
    J = w * np.einsum("tjk,mtjl,tli->mki", Bi, poly.hessian(u), Bi)
    return F, J


@pytest.mark.parametrize(
    "spec",
    [quartic_hamiltonian(1, 0.4), COUPLED_QUARTIC, S_COUPLED, CUBIC, QUADRATIC],
    ids=["quartic", "coupled-quartic", "demo04-S-coupled", "cubic", "quadratic"],
)
def test_affine_matrix_split_matches_the_whole_grid_formula(spec):
    lm = local_map(spec, radius=0.9)
    rng = np.random.default_rng(17)
    for level in range(1, 13):
        basis = ShellBasis(lm.operator, level)
        X = rng.uniform(-0.5, 0.5, size=(6, basis.dim))
        idx = sorted(rng.choice(basis.dim, size=min(basis.dim, 9), replace=False))
        F, J = whole_grid_reference(spec, X, level, idx)
        assert relative_gap(lm.nonlinearity(X, basis), F) <= SPLIT_RTOL
        assert relative_gap(lm.jacobian(X, basis, idx), J) <= SPLIT_RTOL


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


def former_hamiltonian_gradient(spec, state):
    """The projection hamiltonian_gradient ran before it became the local
    map's nonlinearity at lambda = 1: grad H on the whole grid, projected
    back through the whole synthesis matrix."""
    N = state.modes
    M = default_quadrature_size(spec.potential.degree, N)
    B = _synthesis_matrix(state.dof, N, M)
    w = spec.potential.gradient(state.values_on_grid(M))
    c0, C, S = _fourier_batches((2.0 * math.pi / M) * w.reshape(1, -1) @ B, state.dof, N)
    return LoopState(state.dof, c0[0], C[0], S[0])


@pytest.mark.parametrize(
    "spec",
    [quartic_hamiltonian(1, 0.4), COUPLED_QUARTIC, CUBIC, quartic_hamiltonian(2, 2.5, 0.7)],
    ids=["quartic", "coupled-quartic", "cubic", "quartic-lambda-2.5"],
)
@pytest.mark.parametrize("modes", range(5))
def test_hamiltonian_gradient_matches_the_former_whole_grid_projection(spec, modes):
    rng = np.random.default_rng(23 + modes)
    n2 = 2 * spec.dof
    for _ in range(3):
        state = LoopState(
            spec.dof,
            rng.uniform(-0.8, 0.8, n2),
            rng.uniform(-0.5, 0.5, (modes, n2)),
            rng.uniform(-0.5, 0.5, (modes, n2)),
        )
        got, ref = hamiltonian_gradient(spec, state), former_hamiltonian_gradient(spec, state)
        assert got.modes == ref.modes == modes
        flat = lambda s: np.concatenate([s.constant, s.cos.ravel(), s.sin.ravel()])
        assert relative_gap(flat(got), flat(ref)) <= GRADIENT_RTOL


def fd_steps(monkeypatch):
    """Replace finite_degree._fd_jacobian by a wrapper that records the step of each call."""
    steps = []
    original = finite_degree._fd_jacobian
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        steps.append(bound.arguments["step"])
        return original(*args, **kwargs)

    monkeypatch.setattr(finite_degree, "_fd_jacobian", wrapper)
    return steps


def test_field_without_jacobian_falls_back_to_central_differences(monkeypatch):
    fld = random_fixed_space_field(np.random.default_rng(4), 2)
    assert fld.jacobian is None
    steps = fd_steps(monkeypatch)
    value = grad_degree(fld)
    assert set(steps) == {1e-6, 1e-5}  # Newton steps, then the Hessians at zeros
    assert value.coeff(FULL) == brouwer_oracle(fld)


def test_maps_with_jacobians_use_no_finite_differences(monkeypatch):
    steps = fd_steps(monkeypatch)
    for name in ("loop1-quartic", "abstract-a"):
        inst = CORPUS[name]
        assert deg_infinite(inst.build()).value == inst.expected
    assert not steps


def test_local_map_spec_without_jacobian_gives_the_same_degree():
    inst = CORPUS["loop2-coupled-quartic"]
    lm = inst.build()
    plain = LocalMapSpec(
        lm.operator, lambda X, basis: lm.nonlinearity(X, basis), lm.region, tail=lm.tail
    )
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


def test_batched_hessians_match_the_per_zero_ones():
    # one Jacobian call over all zeros: exact Jacobians give the same blocks,
    # central differences the same to 1e-9
    for fld, exact in (
        (shell_field(CORPUS["abstract-a"].build(), 1), True),
        (random_fixed_space_field(np.random.default_rng(4), 3), False),
    ):
        _, zeros = grad_degree(fld, return_zeros=True)
        assert len(zeros) > 1
        batched = finite_degree._full_jacobians(fld, zeros)
        for z, J in zip(zeros, batched):
            one = finite_degree._hessian_op(finite_degree._full_jacobians(fld, z[None])[0], fld.layout)
            many = finite_degree._hessian_op(J, fld.layout)
            gap = np.max(np.abs(one.trivial_block - many.trivial_block), initial=0.0)
            for k, blk in one.mode_blocks.items():
                gap = max(gap, float(np.max(np.abs(blk - many.mode_blocks[k]))))
            assert gap == 0.0 if exact else gap <= 1e-9


def test_hessians_at_27_zeros_take_two_evaluations(monkeypatch):
    fld = random_fixed_space_field(np.random.default_rng(4), 3)  # three double wells
    assert fld.jacobian is None
    hessian_calls = []
    inside = []
    original = finite_degree._fd_jacobian

    def fd(fld, X, idx, step=1e-6):
        inside.append(step == 1e-5)
        try:
            return original(fld, X, idx, step=step)
        finally:
            inside.pop()

    def value(X, inner=fld.value):
        if inside and inside[-1]:
            hessian_calls.append(len(X))
        return inner(X)

    fld.value = value
    monkeypatch.setattr(finite_degree, "_fd_jacobian", fd)
    _, zeros = grad_degree(fld, return_zeros=True)
    assert len(zeros) == 27
    assert hessian_calls == [3 * 27, 3 * 27]
