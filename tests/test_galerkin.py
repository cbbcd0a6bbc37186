import dataclasses
import gc
import weakref

import numpy as np
import pytest

import eqdeg.galerkin
from eqdeg.errors import (
    BoundaryZero,
    MarginFailure,
    NonFiniteField,
    SliceMarginFailure,
    StabilizationFailure,
)
from eqdeg.euler_ring import (
    CIRCLE,
    DirectLimitClass,
    SubgroupClass,
    basis_element,
    limit_class_equal,
    unit,
)
from eqdeg.finite_degree import grad_degree
from eqdeg.galerkin import (
    BallSpec,
    LocalMapSpec,
    OtopyPath,
    RegionSpec,
    ShellBasis,
    certify_margin,
    correction_factor,
    deg_along_otopy,
    deg_infinite,
    degree_result_from_json,
    direct_sum_local_maps,
    normalization_map,
    potential_nonlinearity,
    scalar_nonlinearity,
    shell_degrees,
    shell_field,
    zero_nonlinearity,
)
from eqdeg.hamiltonian import loop_operator
from eqdeg.polynomials import Polynomial
from eqdeg.reps import Rep, SpectralOperator
from eqdeg.selftest import (
    corpus_local_maps,
    normalization_operators,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    synthetic_operator_a,
)
from eqdeg.hamiltonian import local_map as hamiltonian_local_map

from declarations import declared
import oracles

ONE = unit(CIRCLE)


def e(k):
    return basis_element(CIRCLE, SubgroupClass.finite(k))


def zero_tail(X, basis):
    """The tail of a nonlinearity that maps V_n into itself: exactly 0."""
    return np.zeros(len(X))


def heavy(X, basis):
    """A tail of 5 per coordinate of V_n: at every level it outweighs the
    part of the heavy-tail maps below inside V_n, at most 5 per coordinate."""
    return np.full(len(X), 5.0 * basis.dim)


def half_shift_map(radius=1.0):
    """x -> Ax - x/2 on the integer-spectrum loop operator (kernel R^2)."""
    return LocalMapSpec(
        operator=loop_operator(1),
        nonlinearity=scalar_nonlinearity(0.5),
        region=RegionSpec.ball(radius),
        name="A - id/2",
    )


# ---------------------------------------------------------------------------
# Correction factors


def test_correction_factor_empty_product():
    assert correction_factor(loop_operator(1), 0) == ONE


def test_correction_factor_single_shell():
    op = SpectralOperator(
        {0: [], 1: [(1.0, Rep(0, ((1, 1),))), (-1.0, Rep(0, ((1, 1),)))]}, max_level=1
    )
    assert shell_degrees(op, 1) == (ONE - e(1),)
    assert correction_factor(op, 1) == ONE + e(1)


def test_correction_factor_recursion():
    op = loop_operator(2)
    for n in range(1, 5):
        a_next = shell_degrees(op, n + 1)[-1]
        inv = a_next.invert()
        assert correction_factor(op, n + 1) == correction_factor(op, n) * inv


# ---------------------------------------------------------------------------
# Margin certification


def test_certify_linear_diagonal_tail_vanishes():
    f = half_shift_map()
    for n in (1, 2, 3):
        eps, tail = certify_margin(f, n)
        assert tail < 1e-12
        assert eps > 0


def test_certify_zero_nonlinearity():
    op = loop_operator(1)
    f = LocalMapSpec(op, zero_nonlinearity, RegionSpec.ball(1.0), name="A only")
    # A has a kernel, so boundary samples with kernel components keep |Ax|
    # away from zero only off the kernel; the minimum is still positive on
    # random samples, and the tail is exactly zero.
    eps, tail = certify_margin(f, 2)
    assert tail == 0.0
    assert eps > 0


def test_certify_cubic_tail_decreases_until_certified():
    f = hamiltonian_local_map(quartic_hamiltonian(1, 0.4, quartic_coeff=0.8), radius=0.9)
    tails = []
    for n in (1, 2, 3):
        _, tail = certify_margin(f, n)
        tails.append(tail)
    assert tails[0] > tails[1] > tails[2]


def test_certify_margin_failure_when_tail_dominates():
    # a nonlinearity acting purely on the reference-level tail coordinates:
    # certification at low level must fail
    op = loop_operator(1)

    def heavy_tail(X, basis):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        d1 = basis.prefix_dim(min(1, basis.level))
        out[:, d1:] = 5.0
        return out

    f = LocalMapSpec(op, declared(heavy_tail, tail=heavy), RegionSpec.ball(1.0), name="tail heavy")
    with pytest.raises(MarginFailure):
        certify_margin(f, 1)


def test_certify_margin_rejects_a_nonlinearity_not_finite_on_samples():
    def overflowing(X, basis):
        return np.full_like(np.atleast_2d(X), np.nan)

    f = LocalMapSpec(loop_operator(1), declared(overflowing, tail=zero_tail), RegionSpec.ball(1.0), name="nan")
    with pytest.raises(NonFiniteField, match="not finite on boundary samples"):
        certify_margin(f, 1)
    # and so is a declared tail
    g = dataclasses.replace(f, nonlinearity=declared(halve, tail=lambda X, basis: np.full(len(X), np.inf)))
    with pytest.raises(NonFiniteField, match="not finite on boundary samples"):
        certify_margin(g, 1)


# ---------------------------------------------------------------------------
# The stabilized degree


def test_normalization_loop_and_synthetic():
    for name, op in normalization_operators():
        res = deg_infinite(normalization_map(op))
        assert res.value == ONE, name
        level = res.level
        assert oracles.telescoped_normalization(op, level) == ONE


def test_half_shift_telescopes_to_unit():
    res = deg_infinite(half_shift_map(), stabilization_depth=2)
    assert res.value == ONE
    # independent sign-count telescoping at every checked level
    for n in res.diagnostics["levels_checked"]:
        assert oracles.telescoped_linear_degree(loop_operator(1), 0.5, n) == ONE


def test_empty_domain_zero_degree():
    # f = Ax - grad(|x0|^2/2) has its only zero at the origin; a small ball
    # away from it contains no zeros and the degree vanishes
    op = synthetic_operator_a()
    poly = Polynomial.from_terms(2, [((2, 0), 0.5), ((0, 2), 0.5)])
    f = LocalMapSpec(
        op,
        potential_nonlinearity(poly),
        RegionSpec.ball(0.2, center=(0.9, 0.0), center_level=0),
        name="off-center",
    )
    res = deg_infinite(f)
    assert res.value.is_zero
    assert res.diagnostics["zero_counts"][0] == 0


def test_existence_nonzero_degree_locates_a_zero():
    for inst in corpus_local_maps():
        res = deg_infinite(inst.build())
        if not res.value.is_zero:
            assert res.diagnostics["zero_counts"][0] >= 1


def test_corpus_stabilizes_three_levels():
    for inst in corpus_local_maps():
        res = deg_infinite(inst.build(), stabilization_depth=2)
        assert len(res.stabilization) == 3
        assert all(v == res.value for v in res.stabilization)
        if inst.expected is not None:
            assert res.value == inst.expected, inst.name


def test_forced_level_matches_auto():
    f = half_shift_map()
    auto = deg_infinite(f)
    forced = deg_infinite(f, level=auto.level + 2)
    assert forced.value == auto.value


def test_value_independent_of_sampling_seed():
    inst = next(i for i in corpus_local_maps() if i.name == "loop1-quartic")
    values = {deg_infinite(inst.build(), seed=s).value for s in (0, 1, 2)}
    assert len(values) == 1


def test_auto_level_escalates_past_margin_failures():
    # a strong quartic tail swamps level 1; certification succeeds at 2
    f = hamiltonian_local_map(quartic_hamiltonian(1, 0.4, quartic_coeff=5.0), radius=1.3)
    with pytest.raises(MarginFailure):
        certify_margin(f, 1)
    res = deg_infinite(f)
    assert res.level == 2
    assert res.value == ONE


def test_auto_level_exhaustion_reports_margin_failure():
    op = loop_operator(1)

    def heavy_tail(X, basis):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, basis.prefix_dim(min(1, basis.level)) :] = 5.0
        return out

    f = LocalMapSpec(op, declared(heavy_tail, tail=heavy), RegionSpec.ball(1.0), name="tail heavy")
    with pytest.raises(MarginFailure):
        deg_infinite(f)


def sphere_zero_map(offset=0.0, radius=0.8):
    """f(x) = ((|x|_w^2 - r^2) w + offset) x, the gradient of
    (|x|_w^2 - r^2)^2 / 4 + offset |x|^2 / 2 in the graph norm |x|_w: with
    offset 0 it vanishes on the whole sphere |x|_w = r, the domain's
    boundary, and otherwise it stays within offset * |x| of zero there."""

    def F(X, basis):
        X = np.atleast_2d(X)
        w = basis.graph_weights
        shrink = np.sum(w * X * X, axis=1) - radius**2
        return X * basis.eigenvalues - (shrink[:, None] * w + offset) * X

    return LocalMapSpec(
        loop_operator(1), declared(F, tail=zero_tail), RegionSpec.ball(radius), name="sphere zeros"
    )


@pytest.mark.parametrize("offset", [0.0, 5e-9], ids=["on the sphere", "below the margin"])
def test_a_zero_on_the_boundary_stops_every_certificate(offset):
    # |f| <= 5e-9 * 0.8 on the boundary: below finite_degree.BOUNDARY_MARGIN
    f = sphere_zero_map(offset)
    with pytest.raises(BoundaryZero):
        certify_margin(f, 1)
    with pytest.raises(BoundaryZero):
        deg_infinite(f)
    with pytest.raises(SliceMarginFailure) as err:
        deg_along_otopy(OtopyPath.uniform(lambda t: f, steps=2))
    assert err.value.t == 0.0


def test_a_ball_center_above_the_level_asks_for_a_higher_level():
    f = normalization_map(synthetic_operator_a()).with_region(
        RegionSpec.ball(1.0, center=[0.1] + [0.0] * 7, center_level=2)
    )
    with pytest.raises(MarginFailure, match="raise the level"):
        deg_infinite(f, level=1)
    res = deg_infinite(f)
    assert res.level == 2 and res.value == ONE


def short_table(last=3):
    """Shells 0..last, one trivial line each."""
    return SpectralOperator({n: [(float(n), Rep(1))] for n in range(last + 1)})


def no_degree(*args, **kwargs):
    raise AssertionError("a zero search ran")


def halve(X, basis):
    """x/2, a nonlinearity that keeps V_n."""
    return 0.5 * np.atleast_2d(X)


def test_a_spectrum_too_short_for_its_reference_shells_fails_before_any_degree(monkeypatch):
    # at depth 3, level 1 would need level 4 certified, and the table ends
    # at shell 3
    f = LocalMapSpec(short_table(), declared(halve, tail=zero_tail), RegionSpec.ball(1.0), name="short")
    monkeypatch.setattr(eqdeg.galerkin, "search_zeros", no_degree)
    with pytest.raises(MarginFailure, match="the declared spectrum is too short"):
        deg_infinite(f, stabilization_depth=3)
    # an otopy certifies at depth 1, so level 1 needs shell 2
    g = LocalMapSpec(short_table(1), declared(halve, tail=zero_tail), RegionSpec.ball(1.0), name="short")
    with pytest.raises(SliceMarginFailure, match="the declared spectrum is too short"):
        deg_along_otopy(OtopyPath.uniform(lambda t: g, steps=1))


def test_an_explicit_level_on_a_short_spectrum_fails_before_any_degree(monkeypatch):
    f = LocalMapSpec(short_table(), declared(halve, tail=zero_tail), RegionSpec.ball(1.0), name="short")
    monkeypatch.setattr(eqdeg.galerkin, "search_zeros", no_degree)
    with pytest.raises(MarginFailure, match="the declared spectrum is too short"):
        deg_infinite(f, level=3)
    # level 2 at depth 2 needs shell 4
    with pytest.raises(MarginFailure, match="the declared spectrum is too short"):
        deg_infinite(f, level=2, stabilization_depth=2)


def test_one_level_rule_serves_explicit_levels_the_search_and_the_otopy(monkeypatch):
    # depth 1 on a table to shell 3: levels 1 and 2 hold their next level, 3 does not
    f = LocalMapSpec(short_table(), declared(halve, tail=lambda X, basis: np.full(len(X), 10.0)),
                     RegionSpec.ball(1.0), name="short")
    tried = []
    original = eqdeg.galerkin.certify_margin

    def certify_margin(g, n, **kwargs):
        tried.append(n)
        return original(g, n, **kwargs)

    monkeypatch.setattr(eqdeg.galerkin, "certify_margin", certify_margin)
    with pytest.raises(MarginFailure, match="too short to certify level 3 at depth 1"):
        deg_infinite(f, level=3)
    assert tried == []
    with pytest.raises(MarginFailure, match="no truncation level up to 2 certified"):
        deg_infinite(f)  # the tail of 10 fails every margin
    assert tried == [1, 2]
    with pytest.raises(MarginFailure, match="tail bound") as explicit:
        deg_infinite(f, level=2)
    assert explicit.type is MarginFailure and tried == [1, 2, 2]
    # the otopy reads the same rule and names its first slice
    g = LocalMapSpec(short_table(1), declared(halve, tail=zero_tail), RegionSpec.ball(1.0), name="short")
    with pytest.raises(MarginFailure) as search:
        deg_infinite(g)
    with pytest.raises(SliceMarginFailure) as otopy:
        deg_along_otopy(OtopyPath.uniform(lambda t: g, steps=1))
    assert otopy.value.t == 0.0 and str(otopy.value) == f"slice t=0: {search.value}"
    assert tried == [1, 2, 2]


def test_a_map_with_a_tail_searches_up_to_the_last_declared_level():
    # |x|^2 / 4 in 3 variables, which V_1 (dim 2) does not hold: the search
    # moves past level 1 and settles on 2, the last whose level 3 the table holds
    poly = Polynomial.from_terms(3, [((2, 0, 0), 0.25), ((0, 2, 0), 0.25), ((0, 0, 2), 0.25)])
    f = LocalMapSpec(short_table(), potential_nonlinearity(poly), RegionSpec.ball(1.0), name="short")
    res = deg_infinite(f)
    assert res.level == 2 and res.diagnostics["levels_checked"] == [2, 3]
    assert res.value == deg_infinite(f, level=2).value
    with pytest.raises(MarginFailure, match="raise the level"):
        deg_infinite(f, level=1)
    with pytest.raises(MarginFailure, match="the declared spectrum is too short"):
        deg_infinite(f, stabilization_depth=3)


def test_a_budget_below_one_is_a_value_error():
    f = half_shift_map()
    with pytest.raises(ValueError, match="budget"):
        certify_margin(f, 1, budget=0)
    with pytest.raises(ValueError, match="budget"):
        deg_infinite(f, budget=0)
    assert certify_margin(f, 1, budget=1).tail == 0.0


def no_shell_field(f, n):
    raise AssertionError(f"a boundary pass at level {n} was built")


def test_a_budget_past_the_sample_bound_is_a_value_error_before_any_draw(monkeypatch):
    # 10**12 samples once asked numpy for 43.7 TiB of boundary samples
    monkeypatch.setattr(eqdeg.galerkin, "shell_field", no_shell_field)
    f = half_shift_map()
    with pytest.raises(ValueError, match="a budget of 1000000000000 samples at level 1 hold .* MAX_SAMPLE_VALUES"):
        certify_margin(f, 1, budget=10**12)
    with pytest.raises(ValueError, match="more than MAX_SAMPLE_VALUES = 134217728"):
        deg_infinite(f, budget=10**12)


def test_the_sample_bound_counts_samples_times_the_dimension(monkeypatch):
    f = half_shift_map()
    monkeypatch.setattr(eqdeg.galerkin, "MAX_SAMPLE_VALUES", 10 * f.operator.basis(1).dim)
    assert certify_margin(f, 1, budget=10).tail == 0.0
    with pytest.raises(ValueError, match="a budget of 11 samples at level 1"):
        certify_margin(f, 1, budget=11)


@pytest.mark.parametrize(
    "name, value",
    [
        ("level", 2.7),
        ("level", True),
        ("level", -1),
        ("level", "2"),
        ("stabilization_depth", 1.5),
        ("stabilization_depth", 0),
        ("stabilization_depth", np.True_),
        ("budget", 2.5),
        ("budget", False),
        ("budget", np.int64(0)),
    ],
)
def test_levels_depths_and_budgets_must_be_integers_in_range(monkeypatch, name, value):
    monkeypatch.setattr(eqdeg.galerkin, "search_zeros", no_degree)
    f = half_shift_map()
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        deg_infinite(f, **{name: value})
    if name == "level":
        with pytest.raises(ValueError, match="n must be an integer"):
            certify_margin(f, value)
    if name == "budget":
        with pytest.raises(ValueError, match="budget must be an integer"):
            certify_margin(f, 1, budget=value)


def test_numpy_integers_are_levels_depths_and_budgets():
    f = half_shift_map()
    res = deg_infinite(f, level=np.int64(2), stabilization_depth=np.int32(2), budget=np.int64(40))
    assert type(res.level) is int and res.diagnostics["levels_checked"] == [2, 3, 4]
    assert res.value == deg_infinite(f, level=2, stabilization_depth=2, budget=40).value
    assert certify_margin(f, np.int64(1), budget=np.int16(40)).tail == 0.0


@pytest.mark.parametrize(
    "tail",
    [lambda X, basis: -5.0 * np.ones(len(X)), lambda X, basis: np.zeros((len(X), 1))],
    ids=["negative", "a column"],
)
def test_a_declared_tail_must_be_one_value_at_least_zero_per_sample(tail):
    F = declared(scalar_nonlinearity(0.5), tail=tail)
    f = LocalMapSpec(loop_operator(1), F, RegionSpec.ball(1.0), name="odd tail")
    with pytest.raises(ValueError, match="odd tail: the tail must be") as err:
        certify_margin(f, 1)
    assert not isinstance(err.value, NonFiniteField)
    with pytest.raises(ValueError, match="odd tail: the tail must be"):
        deg_infinite(f)


def test_stabilization_failure_is_detected():
    # a non-gradient-consistent nonlinearity that changes the truncated
    # degree with the level: F acts only on the top shell of each basis
    op = loop_operator(1)

    def level_dependent(X, basis):
        X = np.atleast_2d(X)
        out = 0.5 * X
        top = basis.prefix_dim(basis.level - 1)
        out[:, top:] = 3.0 * X[:, top:]
        return out

    f = LocalMapSpec(op, declared(level_dependent, tail=zero_tail), RegionSpec.ball(1.0), name="level dependent")
    with pytest.raises(StabilizationFailure):
        deg_infinite(f)


# ---------------------------------------------------------------------------
# Domain independence


def test_restriction_same_region():
    f = half_shift_map()
    assert deg_infinite(f.with_region(f.region)).value == deg_infinite(f.with_region(f.region)).value


def test_restriction_nested_radii():
    f = half_shift_map()
    inner = deg_infinite(f.with_region(RegionSpec.ball(1.0)))
    outer = deg_infinite(f.with_region(RegionSpec.ball(2.0)))
    assert inner.value == outer.value


def test_restriction_overlapping_corollary():
    f = half_shift_map()
    u = RegionSpec.ball(0.8, center=(0.15, 0.0))
    v = RegionSpec.ball(0.8, center=(-0.15, 0.0))
    both = RegionSpec((u.balls[0], v.balls[0]), mode="intersection")
    r_u = deg_infinite(f.with_region(u))
    r_v = deg_infinite(f.with_region(v))
    r_i = deg_infinite(f.with_region(both))
    assert r_u.value == r_v.value == r_i.value == ONE


def test_additivity_over_disjoint_balls():
    inst = next(i for i in corpus_local_maps() if i.name == "abstract-a")
    f = inst.build()
    well = BallSpec(0.3, (0.5, 0.0), 0)
    other = BallSpec(0.3, (-0.5, 0.0), 0)
    origin = BallSpec(0.3, (0.0, 0.0), 0)
    single = deg_infinite(f.with_region(RegionSpec((well,))))
    both = deg_infinite(f.with_region(RegionSpec((well, other))))
    at_zero = deg_infinite(f.with_region(RegionSpec((origin,))))
    assert both.value == 2 * single.value
    assert both.value + at_zero.value == deg_infinite(f).value


# ---------------------------------------------------------------------------
# Products on operator direct sums


def test_product_property_on_direct_sums():
    insts = {i.name: i for i in corpus_local_maps()}
    f = insts["loop2-quadratic-mixed"].build()
    g = insts["abstract-b"].build()
    fg = direct_sum_local_maps(f, g)
    rf, rg, rfg = deg_infinite(f), deg_infinite(g), deg_infinite(fg)
    assert rfg.value == rf.value * rg.value
    assert rfg.value == ONE - e(1) - e(2)


# ---------------------------------------------------------------------------
# Otopies


def test_otopy_constant_path():
    path = OtopyPath.uniform(lambda t: half_shift_map(), steps=4)
    results = deg_along_otopy(path)
    assert len(results) == 5
    assert all(r.value == ONE for r in results)


def test_otopy_certifies_each_slice_level_once(monkeypatch):
    # five slices at level 1: one certificate there, one at level 2 each
    calls = []
    certify = eqdeg.galerkin.certify_margin

    def counted(f, n, **kwargs):
        calls.append(n)
        return certify(f, n, **kwargs)

    monkeypatch.setattr(eqdeg.galerkin, "certify_margin", counted)
    results = deg_along_otopy(OtopyPath.uniform(lambda t: half_shift_map(), steps=4))
    assert [r.level for r in results] == [1] * 5
    assert sorted(calls) == [1] * 5 + [2] * 5


def test_otopy_between_equal_negative_parts():
    # interpolate the shift between 0.4 and 0.6: no eigenvalue of A crosses
    def family(t):
        return LocalMapSpec(
            loop_operator(1),
            scalar_nonlinearity(0.4 + 0.2 * t),
            RegionSpec.ball(1.0),
            name=f"shift {0.4 + 0.2 * t:.2f}",
        )

    results = deg_along_otopy(OtopyPath.uniform(family, steps=10))
    assert all(r.value == results[0].value for r in results)


def test_otopy_crossing_raises_slice_failure():
    # the path passes t=1 where A - t id has the mode-1 eigenspace as kernel
    def family(u):
        t = 0.5 + u
        return LocalMapSpec(
            loop_operator(1),
            scalar_nonlinearity(t),
            RegionSpec.ball(1.0),
            name=f"shift {t:.2f}",
        )

    with pytest.raises(SliceMarginFailure) as err:
        deg_along_otopy(OtopyPath.uniform(family, steps=10))
    assert abs(err.value.t - 0.5) < 1e-12  # the slice with shift exactly 1


def test_otopy_across_a_degree_jump_names_the_slice_that_deviates():
    # H = |z|^2 / 2 with lambda = 0.5 + t: both ends certify, but lambda
    # passes 1, where the degree of the loop map changes
    def family(t):
        return hamiltonian_local_map(quadratic_hamiltonian(1, [1.0, 1.0], 0.5 + t), radius=1.0)

    with pytest.raises(SliceMarginFailure, match="degree deviates along the path") as err:
        deg_along_otopy(OtopyPath.uniform(family, steps=1))
    assert err.value.t == 1.0


def test_an_empty_otopy_grid_is_a_value_error():
    with pytest.raises(ValueError, match="empty otopy grid"):
        deg_along_otopy(OtopyPath(lambda t: None, ()))


def test_an_otopy_with_no_common_level_names_the_last_slice_that_failed():
    # a tail of 10 fails the margin at every level the table holds
    f = LocalMapSpec(short_table(), declared(halve, tail=lambda X, basis: np.full(len(X), 10.0)),
                     RegionSpec.ball(1.0), name="short")
    with pytest.raises(SliceMarginFailure, match=r"no common level certified \(short: tail bound") as err:
        deg_along_otopy(OtopyPath.uniform(lambda t: f, steps=1))
    assert err.value.t == 0.0


# ---------------------------------------------------------------------------
# Results: limit classes and serialization


def test_limit_class_consistency_across_corpus():
    for inst in corpus_local_maps():
        res = deg_infinite(inst.build())
        assert res.limit_class_consistent()
        anchor = DirectLimitClass(0, res.value, ())
        assert limit_class_equal(anchor, res.limit_class)


def test_degree_result_json_round_trip():
    res = deg_infinite(half_shift_map())
    data = res.to_json()
    back = degree_result_from_json(data)
    assert back["value"] == res.value
    assert back["level"] == res.level
    assert back["stabilization"] == list(res.stabilization)
    assert back["limit_class"]["value"] == res.limit_class.value


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("level", 1.9, "level must be an integer >= 0, got 1.9"),
        ("epsilon", "0.5", "epsilon must be a finite number, got '0.5'"),
        ("tail_bound", float("nan"), "tail_bound must be a finite number, got nan"),
    ],
)
def test_degree_result_from_json_never_coerces_a_number(field, value, message):
    data = dict(deg_infinite(half_shift_map()).to_json(), **{field: value})
    with pytest.raises(ValueError) as info:
        degree_result_from_json(data)
    assert str(info.value) == message


def test_a_region_with_a_radius_that_is_not_finite_is_refused():
    # a NaN radius once reached the boundary samples and was blamed on the field (NonFiniteField)
    f = half_shift_map().with_region(RegionSpec.ball(float("nan")))
    with pytest.raises(ValueError, match="radius must be a finite number > 0, got nan"):
        deg_infinite(f)


def test_region_spec_checks_its_mode_and_its_balls():
    # one ball never reaches the mode in realize_region, so the spec checks it
    with pytest.raises(ValueError, match="uniom"):
        RegionSpec((BallSpec(1.0),), mode="uniom")
    with pytest.raises(ValueError, match="uniom"):
        RegionSpec((BallSpec(1.0), BallSpec(0.5)), mode="uniom")
    with pytest.raises(ValueError, match="at least one ball"):
        RegionSpec(())
    assert RegionSpec((BallSpec(1.0),), mode="intersection").mode == "intersection"


def test_region_validation_rejects_center_off_fixed_space():
    op = loop_operator(1)
    basis = ShellBasis(op, 1)
    bad = RegionSpec.ball(1.0, center=(0.0, 0.0, 0.3, 0.0, 0.0, 0.0), center_level=1)
    f = LocalMapSpec(op, zero_nonlinearity, bad, name="bad center")
    with pytest.raises(ValueError):
        deg_infinite(f)


def test_potential_nonlinearity_requires_enough_coordinates():
    # the potential touches 8 coordinates; V_1 of the loop operator has 6,
    # so forcing level 1 must ask for a higher level
    op = loop_operator(1)
    poly = Polynomial.from_terms(8, [((2,) + (0,) * 7, 1.0)])
    f = LocalMapSpec(op, potential_nonlinearity(poly), RegionSpec.ball(1.0), name="wide")
    with pytest.raises(MarginFailure, match="potential uses 8 coordinates, V_1 has 6; raise the level"):
        deg_infinite(f, level=1)


def wide_potential_map():
    """|x|^2 / 2 in 4 variables over a kernel line and shells 1..5 of two
    trivial lines each, at -(n - 0.3) and n - 0.3: V_1 (dim 3) does not
    hold the potential's variables, V_2 (dim 5) does."""
    pairs = [(0.0, Rep(1))]
    for n in range(1, 6):
        pairs += [(-(n - 0.3), Rep(1)), (n - 0.3, Rep(1))]
    poly = Polynomial.from_terms(4, [(tuple(2 * (j == i) for j in range(4)), 0.5) for i in range(4)])
    return LocalMapSpec(
        SpectralOperator.from_eigenvalues(pairs), potential_nonlinearity(poly), RegionSpec.ball(1.0), name="wide"
    )


def test_the_level_search_starts_at_one_and_moves_past_a_level_too_small_for_the_potential():
    f = wide_potential_map()
    for depth in (1, 2):
        res = deg_infinite(f, stabilization_depth=depth)
        assert res.level == 2 and res.value == ONE
        assert res.diagnostics["zero_counts"] == [1] * (depth + 1)
    assert [r.level for r in deg_along_otopy(OtopyPath.uniform(lambda t: f, steps=1))] == [2, 2]
    # in a direct sum, on either side
    a = next(i for i in corpus_local_maps() if i.name == "abstract-a").build()
    for pair in ((f, a), (a, f)):
        res = deg_infinite(direct_sum_local_maps(*pair))
        assert res.level == 2 and res.value == ONE


# ---------------------------------------------------------------------------
# The level ladder: bases and shell degrees shared across levels


@pytest.mark.parametrize("depth", [1, 2])
def test_deg_infinite_computes_each_shell_degree_once(monkeypatch, depth):
    calls = []
    original = eqdeg.galerkin.shell_operator

    def counting(op, n):
        calls.append(n)
        return original(op, n)

    monkeypatch.setattr(eqdeg.galerkin, "shell_operator", counting)
    res = deg_infinite(half_shift_map(), stabilization_depth=depth)
    assert sorted(calls) == list(range(1, res.level + depth + 1))


def test_stabilization_values_are_the_per_level_corrected_degrees():
    for inst in corpus_local_maps():
        f = inst.build()
        res = deg_infinite(f, stabilization_depth=2)
        for n, value in zip(res.diagnostics["levels_checked"], res.stabilization):
            d = grad_degree(shell_field(f, n), seed=0)
            assert value == correction_factor(f.operator, n) * d, (inst.name, n)
        assert res.limit_class.multipliers == shell_degrees(f.operator, res.level)


def test_operator_and_its_bases_are_collected_after_deg_infinite():
    f = hamiltonian_local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
    op = weakref.ref(f.operator)
    res = deg_infinite(f)
    assert op().basis(res.level) is op().basis(res.level)
    del f
    gc.collect()
    assert op() is None
    assert res.value == ONE
