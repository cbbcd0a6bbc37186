import math

import numpy as np
import pytest

from eqdeg.errors import (
    DegenerateZero,
    MarginFailure,
    NearSingular,
    NoncompactZeroSet,
    ZeroOutsideFixedSpace,
)
from eqdeg.euler_ring import CIRCLE, SubgroupClass, basis_element, unit
from eqdeg.galerkin import ShellBasis
from eqdeg.hamiltonian import (
    HamiltonianSpec,
    LoopState,
    coords_to_state,
    default_quadrature_size,
    degree_jump,
    hamiltonian_gradient,
    loop_operator,
    periodic_existence,
    quadratic_spectral_degree,
    state_to_coords,
    symplectic_matrix,
    _grid_values,
    _mode_transform,
    _synthesis_matrix,
)
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep
from eqdeg.selftest import quadratic_hamiltonian, quartic_hamiltonian

ONE = unit(CIRCLE)


def e(k):
    return basis_element(CIRCLE, SubgroupClass.finite(k))


def l2_pairing(u: LoopState, v: LoopState) -> float:
    n = min(u.modes, v.modes)
    out = 2.0 * math.pi * float(u.constant @ v.constant)
    if n:
        out += math.pi * float(
            np.sum(u.cos[:n] * v.cos[:n]) + np.sum(u.sin[:n] * v.sin[:n])
        )
    return out


# ---------------------------------------------------------------------------
# The loop operator


def test_loop_operator_shells_dof1():
    op = loop_operator(1)
    assert op.shell(0) == ((0.0, Rep(2)),)
    assert op.shell(1) == ((-1.0, Rep(0, ((1, 1),))), (1.0, Rep(0, ((1, 1),))))


def test_loop_operator_mode_block_diagonalization():
    # -J d/dt on span{cos kt a + sin kt b} acts as (a, b) -> (-kJb, kJa);
    # its explicit matrix must have eigenvalues +-k with multiplicity 2*dof,
    # and the mode transform must diagonalize it in that order.
    for dof, k in ((1, 1), (2, 3)):
        n2 = 2 * dof
        J = symplectic_matrix(dof)
        M = np.zeros((2 * n2, 2 * n2))
        M[:n2, n2:] = -k * J
        M[n2:, :n2] = k * J
        eigs = np.sort(np.linalg.eigvalsh(M))
        assert np.allclose(eigs[:n2], -k)
        assert np.allclose(eigs[n2:], k)
        entry = dict(loop_operator(dof).shell(k))
        assert entry[float(-k)] == Rep(0, ((k, dof),))
        assert entry[float(k)] == Rep(0, ((k, dof),))
        assert entry[float(k)].dim == n2
        Q = _mode_transform(dof)
        D = Q.T @ M @ Q
        assert np.allclose(D, np.diag([-k] * n2 + [k] * n2), atol=1e-12)


def test_loop_space_dimension_count():
    for dof in (1, 2, 3):
        for level in (1, 3, 5):
            basis = ShellBasis(loop_operator(dof), level)
            assert basis.dim == 2 * dof * (2 * level + 1)


def test_state_coords_round_trip_and_action():
    rng = np.random.default_rng(0)
    dof = 2
    basis = ShellBasis(loop_operator(dof), 3)
    st = LoopState(
        dof,
        rng.standard_normal(2 * dof),
        rng.standard_normal((3, 2 * dof)),
        rng.standard_normal((3, 2 * dof)),
    )
    coords = state_to_coords(st, basis)
    back = coords_to_state(coords, basis, dof)
    assert np.allclose(back.constant, st.constant)
    assert np.allclose(back.cos, st.cos)
    assert np.allclose(back.sin, st.sin)
    theta = 1.234
    rotated = basis.layout.rotate(theta, coords)
    shifted = state_to_coords(st.shift_time(theta), basis)
    assert np.allclose(rotated, shifted, atol=1e-12)
    assert np.isclose(np.sqrt(np.sum(basis.graph_weights * coords**2)), st.graph_norm())


def test_mode_transform_is_shared_and_read_only():
    # built once per dof and shared by every loop map, so no caller may write to it
    for dof in (1, 2, 3):
        Q = _mode_transform(dof)
        assert Q is _mode_transform(dof) and not Q.flags.writeable
        assert np.allclose(Q.T @ Q, np.eye(4 * dof), atol=1e-15)


def mode_transform_loop(dof):
    """The mode transform built column by column, as before its block stacks."""
    n2 = 2 * dof
    J = symplectic_matrix(dof)
    Q = np.zeros((2 * n2, 2 * n2))
    col = 0
    s = 1.0 / math.sqrt(2.0)
    for j in range(dof):
        e = np.zeros(n2)
        e[j] = 1.0
        Je = J @ e
        Q[:n2, col], Q[n2:, col] = s * Je, s * e
        Q[:n2, col + 1], Q[n2:, col + 1] = s * e, -s * Je
        col += 2
    for j in range(dof):
        e = np.zeros(n2)
        e[j] = 1.0
        Je = J @ e
        Q[:n2, col], Q[n2:, col] = s * e, s * Je
        Q[:n2, col + 1], Q[n2:, col + 1] = s * Je, -s * e
        col += 2
    return Q


def synthesis_matrix_loop(dof, level, size):
    """The synthesis matrix from per-mode products with the looped transform."""
    n2, dim = 2 * dof, 2 * dof * (2 * level + 1)
    Q, X = mode_transform_loop(dof), np.eye(dim)
    C, S = np.zeros((dim, level, n2)), np.zeros((dim, level, n2))
    sp = math.sqrt(math.pi)
    for k in range(1, level + 1):
        off = n2 + 2 * n2 * (k - 1)
        ab = X[:, off : off + 2 * n2] @ Q.T
        C[:, k - 1, :], S[:, k - 1, :] = ab[:, :n2] / sp, ab[:, n2:] / sp
    loops = _grid_values(X[:, :n2] / math.sqrt(2.0 * math.pi), C, S, size)
    return np.moveaxis(loops, 0, -1).reshape(size * n2, dim)


def test_mode_transform_and_synthesis_match_the_per_mode_loops_bit_for_bit():
    for dof in range(1, 7):
        assert _mode_transform(dof).tobytes() == mode_transform_loop(dof).tobytes()
        for level in range(1, 14):
            for size in (8, 16, 32, 64, 128):
                if size >= level:
                    got, ref = _synthesis_matrix(dof, level, size), synthesis_matrix_loop(dof, level, size)
                    assert got.tobytes() == ref.tobytes(), (dof, level, size)


def test_coords_to_state_refuses_coordinates_that_do_not_fit_the_basis():
    level2 = ShellBasis(loop_operator(1), 2)
    assert level2.dim == 10
    with pytest.raises(ValueError, match="14 coordinates .* basis of dimension 10"):
        coords_to_state(np.ones(14), level2, 1)
    with pytest.raises(ValueError, match="8 coordinates .* basis of dimension 10"):
        coords_to_state(np.ones(8), level2, 1)
    dof2 = ShellBasis(loop_operator(2), 1)
    with pytest.raises(ValueError, match=r"12 coordinates of dof-1 loops \(dimension 6 .* dimension 12"):
        coords_to_state(np.ones(12), dof2, 1)
    assert coords_to_state(np.ones(12), dof2, 2).modes == 1


def test_state_to_coords_refuses_a_state_of_another_dof():
    st = LoopState(1, np.ones(2), np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match=r"6 coordinates of dof-1 loops .* dimension 12"):
        state_to_coords(st, ShellBasis(loop_operator(2), 1))
    assert len(state_to_coords(st, ShellBasis(loop_operator(1), 3))) == 14


# ---------------------------------------------------------------------------
# The action gradient


def test_gradient_identity_for_quadratic_norm():
    spec = quadratic_hamiltonian(1, [1.0, 1.0], 0.5)
    rng = np.random.default_rng(1)
    st = LoopState(1, rng.standard_normal(2), rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    out = hamiltonian_gradient(spec, st)
    assert np.allclose(out.constant, st.constant, atol=1e-12)
    assert np.allclose(out.cos, st.cos, atol=1e-12)
    assert np.allclose(out.sin, st.sin, atol=1e-12)


def test_gradient_quadratic_applies_matrix_coefficientwise():
    # H = <Sz, z>/2 acts as S on every Fourier coefficient
    dof = 1
    S = np.array([[1.3, 0.4], [0.4, 0.7]])
    spec = HamiltonianSpec.from_terms(
        dof, [((2, 0), 0.5 * S[0, 0]), ((0, 2), 0.5 * S[1, 1]), ((1, 1), S[0, 1])], 1.0
    )
    rng = np.random.default_rng(2)
    st = LoopState(dof, rng.standard_normal(2), rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    out = hamiltonian_gradient(spec, st)
    assert np.allclose(out.constant, S @ st.constant, atol=1e-12)
    assert np.allclose(out.cos, st.cos @ S.T, atol=1e-12)
    assert np.allclose(out.sin, st.sin @ S.T, atol=1e-12)


def test_gradient_constant_loop():
    spec = quartic_hamiltonian(1, 1.0)
    c = np.array([0.7, -0.2])
    st = LoopState.constant_loop(1, c)
    out = hamiltonian_gradient(spec, st)
    assert np.allclose(out.constant, spec.potential.gradient(c), atol=1e-13)
    assert out.modes == 0


def test_gradient_is_a_gradient_of_the_quadrature_action():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dof = int(rng.integers(1, 3))
        nv = 2 * dof
        terms = []
        for _ in range(4):
            exps = rng.integers(0, 3, size=nv)
            if sum(exps) == 0:
                continue
            terms.append((tuple(int(x) for x in exps), float(rng.uniform(-0.8, 0.8))))
        spec = HamiltonianSpec.from_terms(dof, terms or [((2,) + (0,) * (nv - 1), 0.5)], 1.0)
        modes = int(rng.integers(1, 4))
        u = LoopState(dof, rng.standard_normal(nv), rng.standard_normal((modes, nv)),
                      rng.standard_normal((modes, nv)))
        v = LoopState(dof, rng.standard_normal(nv), rng.standard_normal((modes, nv)),
                      rng.standard_normal((modes, nv)))
        M = default_quadrature_size(spec.potential.degree + 1, modes)
        t_weights = 2.0 * math.pi / M

        def action(state):
            return float(np.sum(spec.potential.value(state.values_on_grid(M)))) * t_weights

        h = 1e-5
        up = LoopState(dof, u.constant + h * v.constant, u.cos + h * v.cos, u.sin + h * v.sin)
        dn = LoopState(dof, u.constant - h * v.constant, u.cos - h * v.cos, u.sin - h * v.sin)
        fd = (action(up) - action(dn)) / (2 * h)
        inner = l2_pairing(hamiltonian_gradient(spec, u), v)
        assert abs(inner - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_equivariance_under_time_shift():
    rng = np.random.default_rng(4)
    spec = quartic_hamiltonian(1, 1.0, quartic_coeff=0.7)
    st = LoopState(1, rng.standard_normal(2), rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        a = hamiltonian_gradient(spec, st.shift_time(theta))
        b = hamiltonian_gradient(spec, st).shift_time(theta)
        assert np.allclose(a.constant, b.constant, atol=1e-10)
        assert np.allclose(a.cos, b.cos, atol=1e-10)
        assert np.allclose(a.sin, b.sin, atol=1e-10)


# ---------------------------------------------------------------------------
# Existence certificates


def test_existence_certificate_subcritical():
    cert = periodic_existence(quadratic_hamiltonian(1, [1.0, 1.0], 0.5), 1.0)
    assert cert.result.value == ONE
    assert cert.certified
    assert np.isclose(cert.period, math.pi)


def test_existence_rejected_at_crossing():
    with pytest.raises((NoncompactZeroSet, DegenerateZero, ZeroOutsideFixedSpace, MarginFailure)):
        periodic_existence(quadratic_hamiltonian(1, [1.0, 1.0], 1.0), 1.0)


def test_existence_with_a_vanishing_field_is_a_noncompact_zero_set():
    # H = 0 with no kernel potential at level 0: f vanishes everywhere, the
    # boundary included, and the certificate names the noncompact zero set
    with pytest.raises(NoncompactZeroSet, match=r"sampled \|f\| = 0\.000e\+00 on the boundary at level 0"):
        periodic_existence(HamiltonianSpec.from_terms(1, [], 0.5), 1.0, level=0)


def test_existence_no_zero_in_small_ball():
    # grad H(0) != 0: the only constant zero sits outside a small ball
    spec = HamiltonianSpec.from_terms(
        1, [((2, 0), 0.5), ((0, 2), 0.5), ((1, 0), 0.8)], 0.5
    )
    cert = periodic_existence(spec, 0.3)
    assert cert.result.value.is_zero
    assert not cert.certified


def test_quadratic_closed_form_matches_pipeline():
    cases = [
        (1, [((2, 0), 0.5), ((0, 2), 0.5)], 0.5),
        (1, [((2, 0), 0.5), ((0, 2), 0.5)], 1.5),
        (1, [((2, 0), 0.8), ((0, 2), 0.3), ((1, 1), 0.25)], 0.9),
        (2, [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 0.25), ((0, 0, 2, 0), 1.0), ((0, 0, 0, 2), 0.25)], 0.7),
        (1, [((2, 0), -0.5), ((0, 2), -0.5)], 0.6),
        (3, [(tuple(2 if j == i else 0 for j in range(6)), 0.5 * c)
             for i, c in enumerate([1.5, 0.7, 1.1, 1.5, 0.7, 1.1])], 0.8),
    ]
    for dof, terms, lam in cases:
        spec = HamiltonianSpec.from_terms(dof, terms, lam)
        cert = periodic_existence(spec, 1.0)
        assert cert.result.value == quadratic_spectral_degree(spec), (dof, terms, lam)


def test_quadratic_closed_form_frozen_values():
    assert quadratic_spectral_degree(quadratic_hamiltonian(1, [1.0, 1.0], 0.5)) == ONE
    assert quadratic_spectral_degree(quadratic_hamiltonian(1, [1.0, 1.0], 1.5)) == ONE - e(1)


# ---------------------------------------------------------------------------
# Parameter sweeps


def test_degree_jump_constant_segment():
    spec = quadratic_hamiltonian(1, [1.0, 1.0], 0.5)
    table = degree_jump(spec, [0.25, 0.75], 1.0)
    assert table.entries[0][1] == table.entries[1][1] == ONE
    assert table.segments == ((0, 1),)
    assert table.jumps == ()


def test_degree_jump_across_mode_one_crossing():
    spec = quadratic_hamiltonian(1, [1.0, 1.0], 0.5)
    table = degree_jump(spec, [0.5, 1.5], 1.0)
    assert table.entries[0][1] == ONE
    assert table.entries[1][1] == ONE - e(1)
    assert len(table.jumps) == 1
    assert table.segments == ((0,), (1,))


def test_degree_jump_singleton():
    spec = quadratic_hamiltonian(1, [1.0, 1.0], 0.5)
    table = degree_jump(spec, [0.4], 1.0)
    assert table.entries == ((0.4, ONE),)


def test_degree_jump_rejects_crossing_lambda():
    spec = quadratic_hamiltonian(1, [1.0, 1.0], 0.5)
    with pytest.raises(NearSingular):
        degree_jump(spec, [1.0], 1.0)


# ---------------------------------------------------------------------------
# Validation


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec.from_terms(1, [((2, 0), 0.5)], -1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(1, Polynomial.from_terms(3, [((2, 0, 0), 1.0)]), 1.0)


@pytest.mark.parametrize(
    "dof, lam, message",
    [
        (True, 0.5, "dof must be an integer >= 1, got True"),
        (1.5, 0.5, "dof must be an integer >= 1, got 1.5"),
        (1, float("inf"), "lambda must be a finite number > 0, got inf"),
        (1, float("nan"), "lambda must be a finite number > 0, got nan"),
    ],
)
def test_a_spec_never_coerces_dof_or_lambda(dof, lam, message):
    with pytest.raises(ValueError) as info:
        HamiltonianSpec.from_terms(dof, [((2, 0), 0.5), ((0, 2), 0.5)], lam)
    assert str(info.value) == message


def test_a_spec_keeps_numpy_scalars_as_python_numbers():
    spec = HamiltonianSpec.from_terms(np.int64(1), [((2, 0), 0.5), ((0, 2), 0.5)], np.float32(0.5))
    assert (type(spec.dof), type(spec.lam), spec.lam) == (int, float, 0.5)


def test_loop_operator_dof_must_be_an_integer():
    with pytest.raises(ValueError, match="dof must be an integer >= 1, got 1.5"):
        loop_operator(1.5)


def test_state_to_coords_rejects_active_high_modes():
    basis = ShellBasis(loop_operator(1), 1)
    st = LoopState(1, np.zeros(2), np.ones((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        state_to_coords(st, basis)
