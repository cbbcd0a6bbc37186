import itertools

import numpy as np
import pytest

from eqdeg.domains import (
    Ball,
    IntersectionDomain,
    ProductDomain,
    ShellDomain,
    UnionDomain,
    _halton,
)
from eqdeg.errors import DimensionLimit
from eqdeg.polynomials import Polynomial


def test_ball_membership_and_boundary():
    rng = np.random.default_rng(0)
    ball = Ball([1.0, 0.0], 2.0)
    assert ball.contains(np.array([1.5, 0.5]))
    assert not ball.contains(np.array([3.5, 0.0]))
    pts = ball.boundary_samples(200, rng)
    assert np.allclose(ball.metric_norm(pts), 2.0)
    inner = ball.interior_samples(200, rng)
    assert np.all(ball.metric_norm(inner) <= 2.0)


def test_weighted_ball_is_an_ellipsoid():
    rng = np.random.default_rng(1)
    ball = Ball([0.0, 0.0], 1.0, weights=[1.0, 25.0])
    pts = ball.boundary_samples(100, rng)
    # the second axis is squeezed by the weight
    assert np.max(np.abs(pts[:, 1])) <= 0.2 + 1e-9
    assert np.max(np.abs(pts[:, 0])) > 0.5


def test_ball_seed_grid_respects_spacing_and_membership():
    ball = Ball([0.0], 2.0)
    seeds = ball.seed_points(fraction=0.125)
    vals = np.sort(seeds[:, 0])
    assert len(vals) == 18  # 17 grid points plus the center
    assert np.isclose(vals[0], -2.0) and np.isclose(vals[-1], 2.0)
    assert np.all(ball.metric_norm(seeds) <= 2.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ball_seed_grid_rows_follow_the_product_order(dim):
    ball = Ball(np.linspace(-0.2, 0.3, dim), 1.5, weights=np.linspace(1.0, 2.0, dim))
    indices = list(range(dim))[::-1] if dim > 2 else list(range(dim))
    per_axis = 2 * int(round(1.0 / 0.25)) + 1
    axes = [
        ball.center[i] + ball.radius / np.sqrt(ball.weights[i]) * np.linspace(-1.0, 1.0, per_axis)
        for i in indices
    ]
    mesh = np.array(list(itertools.product(*axes)))
    pts = np.tile(ball.center, (len(mesh), 1))
    pts[:, indices] = mesh
    expected = np.vstack([ball.center[None, :], pts[ball.metric_norm(pts) <= ball.radius]])
    seeds = ball.section(indices).seed_points(fraction=0.25)
    got = np.tile(ball.center, (len(seeds), 1))
    got[:, indices] = seeds
    assert np.array_equal(got, expected)


def test_ball_seed_grid_falls_back_to_halton_in_high_dim():
    ball = Ball(np.zeros(5), 1.0)
    seeds = ball.seed_points(fraction=0.125)
    assert len(seeds) <= 4097
    assert np.all(ball.metric_norm(seeds) <= 1.0)


def test_halton_is_deterministic_and_in_cube():
    a = _halton(64, 3)
    b = _halton(64, 3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    # built once and shared, so no caller may write to it
    assert a is b and not a.flags.writeable


def halton_loop(count, dims, skip=20):
    """The scalar radical-inverse loop that the vectorized sampler replaced."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    out = np.empty((count, dims))
    for j in range(dims):
        base = primes[j]
        for i in range(count):
            n, f, x = i + skip + 1, 1.0, 0.0
            while n > 0:
                f /= base
                n, r = divmod(n, base)
                x += f * r
            out[i, j] = x
    return out


def test_halton_is_bit_identical_to_the_scalar_loop():
    # columns of the loop are independent, so one 16-column reference
    # serves every dimension
    ref = halton_loop(4096, 16)
    for dims in range(1, 17):
        assert np.array_equal(_halton(4096, dims), ref[:, :dims])


def test_halton_refuses_more_than_16_dimensions_with_a_typed_error():
    with pytest.raises(DimensionLimit):
        _halton(8, 17)


def test_union_requires_disjoint_parts():
    with pytest.raises(ValueError):
        UnionDomain([Ball([0.0], 1.0), Ball([1.5], 1.0)])
    dom = UnionDomain([Ball([-2.0], 0.5), Ball([2.0], 0.5)])
    assert dom.contains(np.array([2.2]))
    assert not dom.contains(np.array([0.0]))


def test_intersection_domain():
    dom = IntersectionDomain([Ball([-0.5, 0.0], 1.0), Ball([0.5, 0.0], 1.0)])
    assert dom.contains(np.array([0.0, 0.0]))
    assert not dom.contains(np.array([-1.2, 0.0]))
    rng = np.random.default_rng(2)
    pts = dom.boundary_samples(64, rng)
    assert np.all(dom.parts[0].metric_norm(pts) <= 1.0 + 1e-9)
    assert np.all(dom.parts[1].metric_norm(pts) <= 1.0 + 1e-9)


def test_shell_domain_excludes_core():
    dom = ShellDomain([0.0, 0.0], 0.5, 1.5)
    assert dom.contains(np.array([1.0, 0.0]))
    assert not dom.contains(np.array([0.1, 0.0]))
    assert not dom.contains(np.array([2.0, 0.0]))
    rng = np.random.default_rng(3)
    inner = dom.interior_samples(50, rng)
    r = dom.outer.metric_norm(inner)
    assert np.all((r > 0.5) & (r < 1.5))


# The draw-and-keep loops that the shared rejection sampler replaced.


def shell_interior_loop(dom, count, rng):
    got = []
    need = count
    for _ in range(200):
        cand = dom.outer.interior_samples(max(need * 4, 16), rng)
        sel = cand[dom.contains(cand)]
        if len(sel):
            got.append(sel[:need])
            need -= len(sel[:need])
        if need <= 0:
            break
    return np.vstack(got) if got else np.zeros((0, dom.dim))


def intersection_interior_loop(dom, count, rng):
    got = []
    need = count
    for _ in range(200):
        cand = dom.parts[0].interior_samples(max(need * 4, 16), rng)
        sel = cand[dom.contains(cand)]
        if len(sel):
            got.append(sel[:need])
            need -= len(sel[:need])
        if need <= 0:
            break
    if not got:
        raise ValueError("intersection appears to have empty interior")
    return np.vstack(got)


def intersection_boundary_loop(dom, count, rng):
    out = []
    share = max(1, count // len(dom.parts))
    for i, b in enumerate(dom.parts):
        got = []
        need = share
        for _ in range(60):
            cand = b.boundary_samples(max(need * 4, 16), rng)
            mask = np.ones(len(cand), dtype=bool)
            for j, other in enumerate(dom.parts):
                if j != i:
                    mask &= other.metric_norm(cand) <= other.radius
            sel = cand[mask]
            if len(sel):
                got.append(sel[:need])
                need -= len(sel[:need])
            if need <= 0:
                break
        if got:
            out.append(np.vstack(got))
    if not out:
        raise ValueError("could not sample the boundary of the intersection")
    return np.vstack(out)


def lens(dim, gap):
    """Two unit balls whose centers are ``gap`` apart along the first axis."""
    shift = np.zeros(dim)
    shift[0] = gap / 2
    return IntersectionDomain([Ball(-shift, 1.0), Ball(shift, 1.0, np.linspace(1.0, 2.0, dim))])


SAMPLER_CASES = [
    ("shell interior", ShellDomain(np.zeros(3), 0.5, 1.5), ShellDomain.interior_samples, shell_interior_loop),
    ("thin shell interior", ShellDomain(np.zeros(6), 0.99, 1.0), ShellDomain.interior_samples, shell_interior_loop),
    ("empty shell interior", ShellDomain(np.zeros(8), 1.0, 1.0 + 1e-9), ShellDomain.interior_samples, shell_interior_loop),
    ("lens interior", lens(3, 1.0), IntersectionDomain.interior_samples, intersection_interior_loop),
    ("thin lens interior", lens(4, 1.9), IntersectionDomain.interior_samples, intersection_interior_loop),
    ("lens boundary", lens(3, 1.0), IntersectionDomain.boundary_samples, intersection_boundary_loop),
    ("thin lens boundary", lens(5, 1.6), IntersectionDomain.boundary_samples, intersection_boundary_loop),
    ("one-ball boundary", IntersectionDomain([Ball([0.3, 0.0], 0.7)]), IntersectionDomain.boundary_samples, intersection_boundary_loop),
    ("disjoint lens boundary", lens(2, 2.5), IntersectionDomain.boundary_samples, intersection_boundary_loop),
    ("three-ball interior", IntersectionDomain([Ball([0.0, 0.0], 1.0), Ball([0.8, 0.0], 1.0), Ball([0.4, 0.6], 1.0)]), IntersectionDomain.interior_samples, intersection_interior_loop),
]


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
@pytest.mark.parametrize("seed", [0, 7, 301])
def test_rejection_samples_are_bit_identical_to_the_former_loops(case, seed):
    _, dom, method, loop = case

    def outcome(sample, rng, count):
        try:
            out = sample(dom, count, rng)
            return out.shape, out.tobytes()
        except ValueError as exc:
            return str(exc)

    for count in (1, 5, 64, 500):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert outcome(method, rng_a, count) == outcome(loop, rng_b, count)
        assert rng_a.random() == rng_b.random()  # the same number of draws


def test_rejection_sampler_keeps_each_empty_result():
    rng = np.random.default_rng(0)
    empty = ShellDomain(np.zeros(8), 1.0, 1.0 + 1e-9).interior_samples(10, rng)
    assert empty.shape == (0, 8)
    apart = IntersectionDomain([Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)])
    with pytest.raises(ValueError, match="empty interior"):
        apart.interior_samples(10, rng)
    with pytest.raises(ValueError, match="could not sample the boundary"):
        apart.boundary_samples(10, rng)


def test_one_ball_intersection_keeps_every_candidate():
    ball = Ball([0.3, -0.2, 0.1], 0.7, [1.0, 2.0, 3.0])
    got = IntersectionDomain([ball]).boundary_samples(40, np.random.default_rng(5))
    assert np.array_equal(got, ball.boundary_samples(160, np.random.default_rng(5))[:40])


def test_product_domain_split_and_samples():
    dom = ProductDomain([0, 2], Ball(np.zeros(2), 1.0), [1], Ball([0.0], 0.5))
    assert dom.contains(np.array([0.5, 0.2, 0.5]))
    assert not dom.contains(np.array([0.5, 0.6, 0.5]))
    rng = np.random.default_rng(4)
    pts = dom.boundary_samples(100, rng)
    a = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
    b = np.abs(pts[:, 1])
    on_a = np.isclose(a, 1.0)
    on_b = np.isclose(b, 0.5)
    assert np.all(on_a | on_b)
    assert on_a.any() and on_b.any()


def test_product_domain_requires_partition():
    with pytest.raises(ValueError):
        ProductDomain([0, 1], Ball(np.zeros(2), 1.0), [1], Ball([0.0], 1.0))


# ---------------------------------------------------------------------------
# Polynomials


def test_polynomial_value_and_degree():
    p = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 1), -3.0), ((1, 1), 0.5)])
    assert p.degree == 2
    x = np.array([2.0, 1.0])
    assert np.isclose(p.value(x), 4.0 - 3.0 + 1.0)
    X = np.array([[2.0, 1.0], [0.0, 0.0]])
    assert np.allclose(p.value(X), [2.0, 0.0])


def test_polynomial_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nv = int(rng.integers(1, 5))
        terms = [
            (tuple(int(e) for e in rng.integers(0, 4, size=nv)), float(rng.uniform(-2, 2)))
            for _ in range(5)
        ]
        p = Polynomial.from_terms(nv, terms)
        x = rng.uniform(-1, 1, size=nv)
        g = p.gradient(x)
        h = 1e-6
        for i in range(nv):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (p.value(xp) - p.value(xm)) / (2 * h)
            assert abs(g[i] - fd) < 1e-6 * max(1.0, abs(fd))


def test_polynomial_hessian_matches_gradient_differences():
    rng = np.random.default_rng(6)
    p = Polynomial.from_terms(
        3, [((2, 1, 0), 1.5), ((0, 0, 4), -0.5), ((1, 1, 1), 2.0), ((3, 0, 0), 0.25)]
    )
    x = rng.uniform(-1, 1, size=3)
    H = p.hessian(x)
    assert np.allclose(H, H.T)
    h = 1e-6
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (p.gradient(xp) - p.gradient(xm)) / (2 * h)
        assert np.allclose(H[:, i], fd, atol=1e-5)


def test_polynomial_merges_and_drops_terms():
    p = Polynomial.from_terms(1, [((2,), 1.0), ((2,), -1.0), ((1,), 3.0)])
    assert p.terms == (((1,), 3.0),)


def test_polynomial_json_round_trip():
    p = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 3), -0.25)])
    assert Polynomial.from_json(2, p.to_json()) == p


def section_chain(domain, fixed):
    """The isinstance chain that Domain.section replaced."""
    if isinstance(domain, Ball):
        return Ball(domain.center[fixed], domain.radius, domain.weights[fixed])
    if isinstance(domain, UnionDomain):
        return UnionDomain([section_chain(b, fixed) for b in domain.parts])
    if isinstance(domain, IntersectionDomain):
        return IntersectionDomain([section_chain(b, fixed) for b in domain.parts])
    if isinstance(domain, ShellDomain):
        inner = domain.inner
        return ShellDomain(
            inner.center[fixed], inner.radius, domain.outer.radius, inner.weights[fixed]
        )
    if isinstance(domain, ProductDomain):
        pos_a = {int(g): j for j, g in enumerate(domain.ia)}
        pos_b = {int(g): j for j, g in enumerate(domain.ib)}
        sub_a = [pos_a[i] for i in fixed if i in pos_a]
        sub_b = [pos_b[i] for i in fixed if i in pos_b]
        da = section_chain(domain.da, sub_a)
        db = section_chain(domain.db, sub_b)
        ia = [j for j, i in enumerate(fixed) if i in pos_a]
        ib = [j for j, i in enumerate(fixed) if i in pos_b]
        return ProductDomain(ia, da, ib, db)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def assert_same_domain(a, b):
    assert type(a) is type(b)
    assert a.__dict__.keys() == b.__dict__.keys()
    for key, x in a.__dict__.items():
        y = b.__dict__[key]
        if isinstance(x, list):
            assert len(x) == len(y)
            for p, q in zip(x, y):
                assert_same_domain(p, q)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        elif hasattr(x, "__dict__"):
            assert_same_domain(x, y)
        else:
            assert x == y


def test_section_matches_the_isinstance_chain():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    ball = Ball([0.5, 0.0, -0.25, 0.0], 2.0, w)
    shell = ShellDomain(np.zeros(4), 0.5, 1.5, w)
    union = UnionDomain([Ball([-3.0, 0, 0, 0], 1.0, w), Ball([3.0, 0, 0, 0], 1.0, w)])
    inter = IntersectionDomain([Ball([0.2, 0, 0, 0], 1.0), Ball([-0.2, 0, 0, 0], 1.0, w)])
    product = ProductDomain([0, 3, 5], Ball([0.1, 0.0, 0.2], 1.0), [1, 2, 4, 6], shell)
    nested = ProductDomain([1, 2, 4, 6], union, [0, 3, 5], product.da)
    for domain in (ball, shell, union, inter, product, nested):
        # every section keeps coordinate 0 of the union, which separates its balls
        for fixed in ([0, 1], [1, 2, 0], list(range(domain.dim)), [3, 1, 0]):
            assert_same_domain(domain.section(fixed), section_chain(domain, fixed))


def former_seed_points(domain, indices, fraction):
    """The seeds on the given axes of the full space that seed_points(indices,
    fraction) made before sections restricted domains."""
    if isinstance(domain, Ball):
        indices = list(indices)
        per_axis = 2 * int(round(1.0 / fraction)) + 1
        half = domain.radius / np.sqrt(domain.weights[indices])
        if per_axis ** len(indices) <= 20000:
            axes = [
                domain.center[i] + h * np.linspace(-1.0, 1.0, per_axis)
                for i, h in zip(indices, half)
            ]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        else:
            u = _halton(4096, len(indices))
            mesh = domain.center[indices] + (2.0 * u - 1.0) * half
        pts = np.tile(domain.center, (len(mesh), 1))
        pts[:, indices] = mesh
        pts = pts[domain.metric_norm(pts) <= domain.radius]
        return np.vstack([domain.center[None, :], pts])
    if isinstance(domain, ShellDomain):
        pts = former_seed_points(domain.outer, indices, fraction)
        kept = pts[domain.contains(pts)]
        if not len(kept):
            mid = domain.outer.center.copy()
            i = list(indices)[0]
            mid[i] += 0.5 * (domain.inner.radius + domain.outer.radius) / np.sqrt(
                domain.outer.weights[i]
            )
            kept = mid[None, :]
        return kept
    if isinstance(domain, UnionDomain):
        return np.vstack([former_seed_points(b, indices, fraction) for b in domain.parts])
    pts = former_seed_points(domain.parts[0], indices, fraction)
    keep = np.ones(len(pts), dtype=bool)
    for b in domain.parts[1:]:
        keep &= b.metric_norm(pts) <= b.radius
    kept = pts[keep]
    return kept if len(kept) else pts[:1]


def test_section_seeds_equal_the_former_seeds_on_the_axes():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    domains = {
        "ball": Ball([0.5, 0.0, 0.0, 0.0], 2.0, w),
        "shell": ShellDomain(np.zeros(4), 0.5, 1.5, w),
        "thin shell": ShellDomain(np.zeros(4), 0.9, 1.0),  # no seed in its 1-D section
        "union": UnionDomain([Ball([-3.0, 0, 0, 0], 1.0, w), Ball([3.0, 0, 0, 0], 1.0, w)]),
        "intersection": IntersectionDomain([Ball([0.2, 0, 0, 0], 1.0), Ball([-0.2, 0, 0, 0], 1.0, w)]),
    }
    for name, domain in domains.items():
        # the centers vanish off every section, as on an invariant domain's normal space
        for fixed in ([0, 2], [2, 0, 3], [0], list(range(4))):
            for fraction in (0.125, 0.25):
                seeds = domain.section(fixed).seed_points(fraction)
                got = np.zeros((len(seeds), domain.dim))
                got[:, fixed] = seeds
                want = former_seed_points(domain, fixed, fraction)
                assert got.tobytes() == want.tobytes(), (name, fixed, fraction)


def _old_boundary_samples(ball, count, rng):
    """The expression Ball.boundary_samples evaluated before it scaled in place."""
    y = rng.standard_normal((count, ball.dim))
    y /= np.sqrt(np.sum(ball.weights * y * y, axis=1))[:, None]
    return ball.center + ball.radius * y


def _old_interior_samples(ball, count, rng):
    """The expression Ball.interior_samples evaluated before it scaled in place."""
    y = rng.standard_normal((count, ball.dim))
    y /= np.sqrt(np.sum(ball.weights * y * y, axis=1))[:, None]
    radii = ball.radius * rng.random(count) ** (1.0 / ball.dim)
    return ball.center + radii[:, None] * y


@pytest.mark.parametrize("dim", [1, 3, 50])
@pytest.mark.parametrize("kind", ["boundary", "interior"])
def test_ball_samples_scaled_in_place_keep_every_bit(dim, kind):
    center = np.linspace(-0.7, 0.4, dim)
    ball = Ball(center, 1.3, weights=np.linspace(0.5, 3.0, dim))
    new, old = (
        (ball.boundary_samples, _old_boundary_samples)
        if kind == "boundary"
        else (ball.interior_samples, _old_interior_samples)
    )
    for seed in range(3):
        got = new(97, np.random.default_rng(seed))
        want = old(ball, 97, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "coeff",
    ["0.5", True, np.bool_(True), None, float("inf"), float("-inf"), float("nan"), np.float64("nan"), 10**400, 1j],
)
def test_a_coefficient_must_be_a_finite_real_number(coeff):
    with pytest.raises(ValueError, match=r"terms\[1\]\.coeff must be a finite number, got "):
        Polynomial.from_terms(1, [((2,), 0.5), ((4,), coeff)])


@pytest.mark.parametrize(
    "center, radius, weights, message",
    [
        ([0.0, 0.0], float("nan"), None, "radius must be a finite number > 0, got nan"),
        ([0.0, 0.0], float("inf"), None, "radius must be a finite number > 0, got inf"),
        ([0.0, 0.0], "1.0", None, "radius must be a finite number > 0, got '1.0'"),
        ([float("nan"), 0.0], 1.0, None, "center must be finite"),
        ([0.0, 0.0], 1.0, [1.0, float("nan")], "weights must be finite and > 0"),
        ([0.0, 0.0], 1.0, [1.0, float("inf")], "weights must be finite and > 0"),
    ],
)
def test_a_ball_is_finite(center, radius, weights, message):
    # each of these was once a ball, whose samples then blamed the field
    with pytest.raises(ValueError, match=message):
        Ball(center, radius, weights)


def test_integer_and_numpy_coefficients_are_read_as_floats():
    p = Polynomial.from_terms(2, [((2, 0), 3), ((0, 2), np.int64(-2)), ((1, 1), np.float32(0.5))])
    assert p.terms == (((0, 2), -2.0), ((1, 1), 0.5), ((2, 0), 3.0))
    assert all(type(c) is float for _, c in p.terms)
