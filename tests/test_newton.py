"""Newton on a compacted active set against the loop it replaced, and the
merge of one zero that Newton found twice."""

import numpy as np
import pytest

import eqdeg.finite_degree as finite_degree
from eqdeg.domains import Ball
from eqdeg.errors import DegenerateZero, UnresolvedZeroCluster
from eqdeg.euler_ring import CIRCLE, FULL, basis_element
from eqdeg.finite_degree import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SEED_FRACTION,
    GradientField,
    _newton_batch,
    field_from_operator,
    finite_values,
    fixed_space_field,
    grad_degree,
)
from eqdeg.galerkin import shell_field
from eqdeg.hamiltonian import local_map
from eqdeg.reps import Rep
from eqdeg.selftest import corpus_local_maps, quartic_hamiltonian, random_sym_op

S1_S1 = basis_element(CIRCLE, FULL)


def newton_batch_as_it_was(fld, seeds, *, max_iter=NEWTON_MAX_ITER, scale=1.0):
    """_newton_batch as it was: a status per seed, and the running rows
    gathered from the full arrays at every iteration."""
    X = np.array(np.atleast_2d(seeds), dtype=float)
    values = np.array(finite_values(fld.evaluate, X, f"{fld.name}: field not finite at a Newton seed"))
    status = np.zeros(len(X), dtype=np.int8)  # 0 running, 1 converged, 2 dead
    cutoff = 50.0 * (scale + 1.0)
    for _it in range(max_iter):
        run = np.where(status == 0)[0]
        if not len(run):
            break
        Xa, F = X[run], values[run]
        fn = np.linalg.norm(F, axis=1)
        done = fn <= NEWTON_TOL
        status[run[done]] = 1
        run, Xa, F, fn = run[~done], Xa[~done], F[~done], fn[~done]
        if not len(run):
            break
        J = finite_degree._full_jacobians(fld, Xa, step=1e-6)
        steps = finite_degree._solve_steps(J, F)
        finite = np.isfinite(steps).all(axis=1)
        status[run[~finite]] = 2
        run, Xa, F, fn, steps = run[finite], Xa[finite], F[finite], fn[finite], steps[finite]
        if not len(run):
            continue
        alpha = np.ones(len(run))
        pending = np.ones(len(run), dtype=bool)
        Xn, Fn = Xa.copy(), F.copy()
        for _bt in range(12):
            act = np.where(pending)[0]
            if not len(act):
                break
            Xtry = Xa[act] - alpha[act][:, None] * steps[act]
            Ftry = fld.evaluate(Xtry)
            ft = np.linalg.norm(Ftry, axis=1)
            ok = ft <= fn[act] * (1.0 - 1e-4 * alpha[act]) + 1e-300
            Xn[act[ok]] = Xtry[ok]
            Fn[act[ok]] = Ftry[ok]
            pending[act[ok]] = False
            alpha[act[~ok]] *= 0.5
        status[run[pending]] = 2  # no descent direction found
        moved = ~pending
        far = np.max(np.abs(Xn), axis=1) > cutoff
        status[run[moved & far]] = 2
        good = moved & ~far
        X[run[good]] = Xn[good]
        values[run[good]] = Fn[good]
    return X[status == 1]


def exact_jacobian_fields():
    corpus = {inst.name: inst for inst in corpus_local_maps()}
    return {
        "abstract-a fixed space": fixed_space_field(shell_field(corpus["abstract-a"].build(), 1)),
        "operator": field_from_operator(random_sym_op(np.random.default_rng(5)), radius=2.0),
        "loop fixed space": fixed_space_field(
            shell_field(local_map(quartic_hamiltonian(2, 0.4), radius=0.8), 2)
        ),
    }


@pytest.mark.parametrize("max_iter", [NEWTON_MAX_ITER, 2])
@pytest.mark.parametrize("name", sorted(exact_jacobian_fields()))
def test_compacted_newton_is_the_loop_it_replaced_bit_for_bit(name, max_iter):
    fld = exact_jacobian_fields()[name]
    assert fld.jacobian is not None
    rng = np.random.default_rng(3)
    seeds = np.vstack([fld.domain.seed_points(SEED_FRACTION), fld.domain.interior_samples(40, rng)])
    scale = fld.domain.scale
    want = newton_batch_as_it_was(fld, seeds, max_iter=max_iter, scale=scale)
    got, values = _newton_batch(fld, seeds, max_iter=max_iter)
    assert len(want) and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.all(np.linalg.norm(values, axis=1) <= NEWTON_TOL)
    assert np.allclose(values, fld.evaluate(got), rtol=0.0, atol=NEWTON_TOL)
    if max_iter == 2 and not fld.affine:  # rows still running at the cutoff are dropped
        assert len(got) < len(_newton_batch(fld, seeds)[0])


def flat_cubic_field(dim, eps):
    """x^3 - eps x in each coordinate of R^dim: 3^dim nondegenerate zeros,
    degree [S1/S1], and a Jacobian of smallest singular value about 2 eps
    at the zeros off the origin."""
    return GradientField(Rep(dim), lambda X: X**3 - eps * X, Ball(np.zeros(dim), 1.0), name="flat cubic")


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_zero_found_twice_counts_once(dim, eps):
    # Newton stops at |f| <= 1e-10, which leaves copies of the zeros at
    # +-sqrt(eps) farther apart than MERGE_TOL: 3 * [S1/S1] at d = 1 before.
    # From eps = 1e-6 on, one Newton correction of each copy no longer
    # brings the copies within MERGE_TOL (51 * [S1/S1] at d = 3 before)
    value, zeros = grad_degree(flat_cubic_field(dim, eps), return_zeros=True)
    assert value == S1_S1
    assert len(zeros) == 3**dim


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_flatter_zero_is_still_degenerate(dim):
    # at eps = 1e-9 the Hessian at the origin falls below the singular floor
    with pytest.raises(DegenerateZero):
        grad_degree(flat_cubic_field(dim, 1e-9))


def test_newton_from_zeros_that_do_not_settle_is_an_unresolved_cluster():
    # x^2 + 1 has no zero, so Newton steps from the points handed in never settle
    sub = GradientField(Rep(1), lambda X: X**2 + 1.0, Ball(np.zeros(1), 1.0), name="no zero")
    Y = np.array([[0.5], [-0.5]])
    with pytest.raises(UnresolvedZeroCluster, match="no zero: Newton from the zeros found does not settle"):
        finite_degree._polished(sub, Y, 2.0 * Y[:, :, None], Y**2 + 1.0)


def test_copies_that_classify_differently_are_an_unresolved_cluster():
    zeros = np.array([[0.0], [1e-6], [1.0]])
    corrected = np.array([[5e-7], [5e-7 + 1e-8], [1.0]])
    plus, minus = S1_S1, -S1_S1
    tol = finite_degree.MERGE_TOL  # the merge distance on a domain of scale 1
    assert finite_degree._merged_copies(zeros, corrected, [plus, plus, minus], "f", tol) == [0, 2]
    with pytest.raises(UnresolvedZeroCluster):
        finite_degree._merged_copies(zeros, corrected, [plus, minus, minus], "f", tol)


def test_zeros_whose_corrected_points_differ_stay_apart():
    # two zeros 1e-6 apart whose Newton corrections are as large as their
    # gap but point away from each other: their corrected points differ
    zeros = np.array([[0.0], [1e-6]])
    corrected = np.array([[-1e-6], [2e-6]])
    tol = finite_degree.MERGE_TOL  # the merge distance on a domain of scale 1
    assert finite_degree._merged_copies(zeros, corrected, [S1_S1, S1_S1], "f", tol) == [0, 1]
