import numpy as np
import pytest

from eqdeg.domains import Ball, UnionDomain
from eqdeg.errors import (
    BoundaryZero,
    DegenerateZero,
    DimensionLimit,
    EquivarianceFailure,
    NonFiniteField,
    ZeroOutsideFixedSpace,
)
from eqdeg.euler_ring import CIRCLE, FULL, SubgroupClass, basis_element, unit, unit_class
from eqdeg.finite_degree import (
    MERGE_TOL,
    GradientField,
    _dedupe,
    _fd_jacobian,
    _full_jacobians,
    OrbitNormalForm,
    brouwer_oracle,
    field_from_operator,
    fixed_space_field,
    grad_degree,
    linear_degree,
    orbit_normal_form_degree,
    orbit_normal_form_field,
    product_degree,
    product_field,
)
from eqdeg.galerkin import shell_field
from eqdeg.hamiltonian import local_map
from eqdeg.reps import EquivariantSymOp, Rep
from eqdeg.selftest import quartic_hamiltonian, random_fixed_space_field, random_sym_op

ONE = unit(CIRCLE)


def e(k):
    return basis_element(CIRCLE, SubgroupClass.finite(k))


def double_well_field(radius=2.0, dim=1):
    """grad of |x|^4/4 - |x|^2/2 on R^dim: zeros at 0 and the unit sphere
    (for dim 1: three signed zeros)."""

    def value(X):
        X = np.atleast_2d(X)
        return X**3 - X if dim == 1 else (np.sum(X**2, axis=1) - 1.0)[:, None] * X

    return GradientField(Rep(dim), value, Ball(np.zeros(dim), radius),
                         name="double well")


# ---------------------------------------------------------------------------
# Brouwer oracle


def test_oracle_identity_r2():
    f = lambda X: np.atleast_2d(X)
    assert brouwer_oracle(f, Ball(np.zeros(2), 1.0)) == 1


def test_oracle_minus_identity_parity():
    f = lambda X: -np.atleast_2d(X)
    assert brouwer_oracle(f, Ball(np.zeros(2), 1.0)) == 1
    assert brouwer_oracle(f, Ball(np.zeros(3), 1.0)) == -1


def test_oracle_double_well_1d():
    # zeros -1, 0, 1 with derivative signs +, -, +
    fld = double_well_field(radius=2.0, dim=1)
    assert brouwer_oracle(fld) == 1


def test_oracle_boundary_zero_detected():
    fld = double_well_field(radius=1.0, dim=1)  # zeros at +-1 sit on the boundary
    with pytest.raises(BoundaryZero):
        brouwer_oracle(fld)


def test_oracle_shifted_no_zero():
    f = lambda X: np.atleast_2d(X) - 5.0
    assert brouwer_oracle(f, Ball(np.zeros(2), 1.0)) == 0


# ---------------------------------------------------------------------------
# Linear degree


def test_linear_degree_identity():
    op = EquivariantSymOp.scalar(Rep(2, ((1, 1), (4, 2))), 1.0)
    assert linear_degree(op) == ONE


def test_linear_degree_minus_one_on_line():
    op = EquivariantSymOp(Rep(1), [[-1.0]], {})
    assert linear_degree(op) == -ONE
    fld = field_from_operator(op)
    assert brouwer_oracle(fld) == -1


def test_linear_degree_minus_identity_on_mode_plane():
    op = EquivariantSymOp.scalar(Rep(0, ((1, 1),)), -1.0)
    assert linear_degree(op) == ONE - e(1)
    # fixed space is 0-dimensional: the unit coefficient is the degree there
    assert brouwer_oracle(field_from_operator(op)) == 1


def test_linear_degree_multiplicative_on_block_sums():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = random_sym_op(rng), random_sym_op(rng)
        assert linear_degree(a.direct_sum(b)) == linear_degree(a) * linear_degree(b)


def test_linear_degree_always_invertible():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = linear_degree(random_sym_op(rng))
        assert d.coeff(FULL) in (1, -1)
        assert d.invert() is not None


def test_linear_degree_depends_only_on_negative_part():
    rng = np.random.default_rng(2)
    for _ in range(50):
        op = random_sym_op(rng)
        scaled = EquivariantSymOp(
            op.rep,
            float(rng.uniform(0.5, 3.0)) * op.trivial_block,
            {k: float(rng.uniform(0.5, 3.0)) * blk for k, blk in op.mode_blocks.items()},
        )
        assert linear_degree(scaled) == linear_degree(op)


# ---------------------------------------------------------------------------
# Gradient degree


def test_grad_degree_of_linear_field():
    rng = np.random.default_rng(3)
    for _ in range(20):
        op = random_sym_op(rng)
        if op.rep.dim == 0:
            continue
        fld = field_from_operator(op)
        assert grad_degree(fld, seed=int(rng.integers(0, 1 << 31))) == linear_degree(op)


def test_grad_degree_double_well_matches_oracle():
    fld = double_well_field(radius=2.0, dim=1)
    deg = grad_degree(fld)
    oracle = brouwer_oracle(fld)
    assert deg.coeff(unit_class(CIRCLE)) == oracle
    assert deg == oracle * ONE


def test_grad_degree_disjoint_union_additive():
    def value(X):
        X = np.atleast_2d(X)
        return X**3 - X

    # two disjoint balls around the zeros at +-1: contributions add
    left = Ball(np.array([-1.0]), 0.4)
    right = Ball(np.array([1.0]), 0.4)
    both = GradientField(Rep(1), value, UnionDomain([left, right]))
    single = GradientField(Rep(1), value, right)
    assert grad_degree(both) == 2 * grad_degree(single)


def test_grad_degree_rejects_a_field_not_finite_on_the_boundary():
    def value(X):
        X = np.atleast_2d(X)
        return np.where(np.abs(X) > 0.5, np.inf, X)

    fld = GradientField(Rep(1), value, Ball(np.zeros(1), 1.0), name="blows up")
    with pytest.raises(NonFiniteField, match="not finite on the boundary"):
        grad_degree(fld)
    assert issubclass(NonFiniteField, ValueError)


def nan_inside(radius):
    """The identity field, with NaN wherever |x| < radius."""

    def value(X):
        X = np.array(np.atleast_2d(X), dtype=float)
        X[np.linalg.norm(X, axis=1) < radius] = np.nan
        return X

    return value


@pytest.mark.parametrize("seed", range(4))
def test_grad_degree_rejects_a_field_not_finite_at_a_newton_seed(seed):
    # the seed grid holds the origin; Newton would take the pseudo-inverse
    # of a NaN Jacobian there
    fld = GradientField(Rep(1, ((1, 1),)), nan_inside(0.3), Ball(np.zeros(3), 1.0))
    with pytest.raises(NonFiniteField, match="not finite at a Newton seed"):
        grad_degree(fld, seed=seed)


def test_grad_degree_rejects_a_field_not_finite_at_an_equivariance_sample():
    # a NaN difference would compare below the tolerance and pass the check
    fld = GradientField(Rep(0, ((1, 1),)), nan_inside(0.9), Ball(np.zeros(2), 1.0))
    with pytest.raises(NonFiniteField, match="not finite at an equivariance sample"):
        grad_degree(fld)


def test_grad_degree_empty_zero_set_is_zero():
    def value(X):
        return np.atleast_2d(X) - 3.0

    fld = GradientField(Rep(1), value, Ball(np.zeros(1), 1.0))
    assert grad_degree(fld).is_zero


@pytest.mark.parametrize("exact", [False, True], ids=["differences", "exact jacobian"])
@pytest.mark.parametrize("affine", [False, True], ids=["general", "affine"])
def test_a_zero_dimensional_field_has_the_origin_as_its_one_zero(exact, affine):
    jacobian = (lambda X, idx: np.zeros((len(X), 0, 0))) if exact else None
    fld = GradientField(
        Rep(0), lambda X: np.zeros((len(X), 0)), Ball(np.zeros(0), 1.0),
        jacobian=jacobian, affine=affine,
    )
    value, zeros = grad_degree(fld, return_zeros=True)
    assert value == ONE and zeros.shape == (1, 0)
    assert brouwer_oracle(fld) == 1


def test_grad_degree_boundary_zero():
    fld = double_well_field(radius=1.0, dim=1)
    with pytest.raises(BoundaryZero):
        grad_degree(fld)


def test_grad_degree_degenerate_zero():
    def value(X):
        X = np.atleast_2d(X)
        return X**3

    fld = GradientField(Rep(1), value, Ball(np.zeros(1), 1.0))
    with pytest.raises(DegenerateZero):
        grad_degree(fld)


def test_grad_degree_rejects_orbit_zeros():
    # radial double well on a mode-1 plane: the unit circle is a zero orbit
    def value(X):
        X = np.atleast_2d(X)
        return (np.sum(X**2, axis=1) - 1.0)[:, None] * X

    fld = GradientField(Rep(0, ((1, 1),)), value, Ball(np.zeros(2), 1.6))
    with pytest.raises(ZeroOutsideFixedSpace):
        grad_degree(fld)


def test_grad_degree_equivariance_check_fires():
    def value(X):
        X = np.atleast_2d(X)
        out = X.copy()
        out[:, 0] = X[:, 0] + 0.5 * X[:, 1] ** 2  # breaks rotation equivariance
        return out

    fld = GradientField(Rep(0, ((1, 1),)), value, Ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        grad_degree(fld)


def test_grad_degree_homotopy_constant():
    # 10-step linear homotopy between fields with equal zero structure
    rng = np.random.default_rng(4)
    op0 = EquivariantSymOp(Rep(1, ((2, 1),)), [[-1.0]], {2: [[1.0 + 0j]]})
    op1 = EquivariantSymOp(Rep(1, ((2, 1),)), [[-2.5]], {2: [[0.3 + 0j]]})
    values = []
    for t in np.linspace(0.0, 1.0, 11):
        blend = EquivariantSymOp(
            Rep(1, ((2, 1),)),
            (1 - t) * op0.trivial_block + t * op1.trivial_block,
            {2: (1 - t) * op0.mode_blocks[2] + t * op1.mode_blocks[2]},
        )
        values.append(grad_degree(field_from_operator(blend)))
    assert all(v == values[0] for v in values)


def test_fixed_space_coefficient_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        fld = random_fixed_space_field(rng, d)
        deg = grad_degree(fld, seed=7)
        assert deg.coeff(unit_class(CIRCLE)) == brouwer_oracle(fld, seed=11)


# ---------------------------------------------------------------------------
# The fixed-space field


def sliced_restriction(fld):
    """The restriction that fixed_space_field replaced: the full field at
    points embedded with zeros off the trivial coordinates, its values
    sliced to them, and the Newton derivative that grad_degree took there."""
    fixed = list(fld.layout.trivial)

    def embed(Y):
        X = np.zeros((len(Y), fld.layout.size))
        X[:, fixed] = Y
        return X

    def value(Y):
        return fld.evaluate(embed(Y))[:, fixed]

    def jacobian(Y):
        X = embed(Y)
        return fld.jacobian(X, fixed) if fld.jacobian is not None else _fd_jacobian(fld, X, fixed)

    return value, jacobian


def loop_shell_field():
    return shell_field(local_map(quartic_hamiltonian(1, 0.4), radius=0.8), 2)


def restriction_cases():
    plane = field_from_operator(EquivariantSymOp.scalar(Rep(0, ((1, 1),)), -1.0))
    return {
        "loop shell field": loop_shell_field(),
        "random fixed-space field": random_fixed_space_field(np.random.default_rng(3), 3),
        "product": product_field(plane, loop_shell_field()),
        "no trivial coordinates": plane,
    }


@pytest.mark.parametrize("name", sorted(restriction_cases()))
def test_fixed_space_field_equals_the_sliced_restriction(name):
    fld = restriction_cases()[name]
    sub = fixed_space_field(fld)
    assert sub.domain.dim == sub.rep.dim == len(fld.layout.trivial)
    assert (sub.jacobian is None) == (fld.jacobian is None) and sub.affine == fld.affine
    rng = np.random.default_rng(2)
    Y = np.vstack([sub.domain.interior_samples(5, rng), sub.domain.boundary_samples(3, rng)])
    value, jacobian = sliced_restriction(fld)
    for got, want in ((sub.evaluate(Y), value(Y)), (_full_jacobians(sub, Y, step=1e-6), jacobian(Y))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_nonzero_origin_without_fixed_coordinates_is_an_equivariance_failure():
    # x -> x + c near the origin on a mode-1 plane: equivariant at every
    # spot-check sample, but f(0) = c, and the origin is forced to be a zero
    def field(c):
        def value(X):
            X = np.atleast_2d(X)
            return X + np.exp(-np.sum(X**2, axis=1) / 1e-6)[:, None] * np.asarray(c)

        return GradientField(Rep(0, ((1, 1),)), value, Ball(np.zeros(2), 1.0))

    with pytest.raises(EquivarianceFailure, match="does not map the fixed space to itself"):
        grad_degree(field([3e-8, 4e-8]))  # |f(0)| = 5e-8
    assert grad_degree(field([3e-9, 4e-9])) == ONE


# ---------------------------------------------------------------------------
# Products


def test_product_with_identity_is_identity_on_degree():
    fld = double_well_field(radius=2.0, dim=1)
    ident = field_from_operator(EquivariantSymOp.scalar(Rep(1), 1.0))
    assert product_degree(fld, ident) == grad_degree(fld)


def test_product_of_two_reflections():
    minus = field_from_operator(EquivariantSymOp(Rep(1), [[-1.0]], {}))
    prod = product_field(minus, minus)
    assert grad_degree(prod) == ONE
    assert brouwer_oracle(prod) == 1


def test_product_degree_matches_ring_product_linear():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = random_sym_op(rng), random_sym_op(rng)
        if a.rep.dim == 0 or b.rep.dim == 0:
            continue
        fa, fb = field_from_operator(a), field_from_operator(b)
        assert product_degree(fa, fb) == linear_degree(a) * linear_degree(b)


def test_product_degree_matches_ring_product_nonlinear():
    fld = double_well_field(radius=2.0, dim=1)
    mode_op = EquivariantSymOp.scalar(Rep(0, ((2, 1),)), -1.0)
    linear = field_from_operator(mode_op)
    got = product_degree(fld, linear)
    assert got == grad_degree(fld) * linear_degree(mode_op)
    assert got == ONE - e(2)


@pytest.mark.parametrize("dims, s", [((3, 3), 1), ((3, 3), 4), ((2, 3), 12)])
def test_product_of_fixed_space_fields_finds_every_zero(dims, s):
    # inputs on which a product seed grid cut to a corner of each factor's
    # grid gave 2*[S1/S1], 0 and 0, with zeros missed
    rng = np.random.default_rng(1000 + s)
    f, g = (random_fixed_space_field(rng, d) for d in dims)
    (vf, zf), (vg, zg) = (grad_degree(h, return_zeros=True) for h in (f, g))
    value, zeros = grad_degree(product_field(f, g), return_zeros=True)
    assert value == vf * vg
    assert len(zeros) == len(zf) * len(zg)


# ---------------------------------------------------------------------------
# Orbit normal forms


def test_orbit_normal_form_degree_full_isotropy():
    o = OrbitNormalForm(FULL, Rep(2))
    assert orbit_normal_form_degree(o) == ONE
    # the fully symmetric case is computable by the pipeline as well
    assert grad_degree(orbit_normal_form_field(o)) == ONE


def test_orbit_normal_form_degree_finite_isotropy():
    o = OrbitNormalForm(SubgroupClass.finite(3), Rep(0, ((3, 1),)))
    assert orbit_normal_form_degree(o) == e(3)


def test_orbit_normal_form_additivity_with_linear_piece():
    o = OrbitNormalForm(SubgroupClass.finite(2), Rep(1, ((2, 1),)))
    lin = EquivariantSymOp.scalar(Rep(1), -1.0)
    total = orbit_normal_form_degree(o) + linear_degree(lin)
    assert total == e(2) - ONE


def test_orbit_normal_form_field_is_out_of_pipeline_scope():
    o = OrbitNormalForm(SubgroupClass.finite(1), Rep(0, ((1, 1),)), orbit_radius=1.0)
    fld = orbit_normal_form_field(o)
    with pytest.raises(ZeroOutsideFixedSpace):
        grad_degree(fld)


def test_orbit_normal_form_validation():
    with pytest.raises(ValueError):
        OrbitNormalForm(SubgroupClass.finite(2), Rep(2))  # no mode-2 plane
    with pytest.raises(ValueError):
        OrbitNormalForm(FULL, Rep(0, ((1, 1),)))  # no trivial part


def test_free_orbit_plus_origin_consistency():
    # On a mode-1 plane the origin contributes 1 - [S1/Z1] and a free orbit
    # contributes [S1/Z1]; together they give the unit, consistent with the
    # product identity (1 - e1)(1 + e1) = 1.
    origin = linear_degree(EquivariantSymOp.scalar(Rep(0, ((1, 1),)), -1.0))
    orbit = orbit_normal_form_degree(OrbitNormalForm(SubgroupClass.finite(1), Rep(0, ((1, 1),))))
    assert origin + orbit == ONE
    assert (ONE - e(1)) * (ONE + e(1)) == ONE


def dedupe_loop(points, tol=MERGE_TOL):
    """The greedy all-pairs merge that the vectorized _dedupe replaced."""
    pts = points[np.lexsort(points.T[::-1])]
    kept = []
    for p in pts:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_dedupe_keeps_the_points_of_the_greedy_loop(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        centers = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), dim))
        parts = []
        for c in centers:
            spread = MERGE_TOL * rng.uniform(0.1, 3.0)
            parts.append(c + spread * rng.standard_normal((int(rng.integers(1, 30)), dim)))
            u = rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            for factor in (1.0 - 1e-6, 1.0 + 1e-6):  # just inside and just outside
                parts.append(np.stack([c, c + factor * MERGE_TOL * u]))
        pts = rng.permutation(np.vstack(parts))
        assert np.array_equal(_dedupe(pts), dedupe_loop(pts))


def test_dedupe_pairs_at_the_tolerance():
    inside = np.array([[0.0], [(1.0 - 1e-6) * MERGE_TOL]])
    outside = np.array([[0.0], [(1.0 + 1e-6) * MERGE_TOL]])
    assert len(_dedupe(inside)) == 1
    assert len(_dedupe(outside)) == 2


def test_seed_dimension_cliff_raises_a_typed_error():
    # 17 fixed coordinates need more Halton dimensions than the sampler has
    fld = random_fixed_space_field(np.random.default_rng(0), 17)
    with pytest.raises(DimensionLimit):
        grad_degree(fld)


def test_affine_field_has_no_seed_dimension_cliff():
    # a linear field needs no seed grid, so 17 fixed coordinates are fine
    op = EquivariantSymOp(Rep(17), np.diag([-1.0] * 9 + [2.0] * 8))
    assert grad_degree(field_from_operator(op)) == -ONE == linear_degree(op)
