"""Spectral Galerkin truncation of gradient perturbations and the stabilized degree.

A local map is f(x) = Ax - F(x) with A a self-adjoint operator with
discrete spectrum and F a (compact) gradient nonlinearity.  Its truncation
to the cumulative eigenspace V_n is a finite-dimensional equivariant
gradient field; the degree of the full map is the truncated degree times a
correction factor m_n, the product of the inverted linear degrees of A on
the first n spectral shells.  The correction makes the value independent
of n, which this module verifies empirically by recomputing at n+1 (and
deeper on request) instead of trusting the asymptotic argument.

Boundary margins are estimated by sampling, not proved.  At each level
one pass evaluates f_n and the map's declared tail t, |(I - P_n) F| or
a bound of it, on seeded samples of the truncated domain's boundary in
V_n.  epsilon is half the smallest sqrt(|f_n|^2 + t^2), |f| of the
untruncated map or a bound of it, and the level certifies when the
largest sampled tail stays below epsilon, which keeps the true tail
below min |f_n| / sqrt(3).  The finite-dimensional degree at the level
reuses the same pass for its boundary checks.  Diagnostics always
record the sample budget and the margin ratio.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .domains import Ball, IntersectionDomain, ProductDomain, UnionDomain
from .errors import (
    BoundaryZero,
    DegreeError,
    MarginFailure,
    SliceMarginFailure,
    StabilizationFailure,
)
from .euler_ring import (
    CIRCLE,
    DirectLimitClass,
    RingElement,
    limit_class_equal,
    ring_element_from_json,
    ring_element_to_json,
    unit,
)
from .finite_degree import (
    BOUNDARY_MARGIN,
    BOUNDARY_PER_DIM,
    GradientField,
    block_diagonal_jacobian,
    finite_values,
    grad_degree,
    linear_degree,
)
from .polynomials import Polynomial
from .reps import Rep, ShellBasis, SpectralOperator, shell_operator

MAX_LEVEL = 10  # the automatic level search stops here


@dataclass(frozen=True)
class BallSpec:
    """A graph-norm ball; the center lives in V_{center_level} and must be
    supported on trivial (fixed) coordinates."""

    radius: float
    center: tuple[float, ...] = ()
    center_level: int = 0


@dataclass(frozen=True)
class RegionSpec:
    balls: tuple[BallSpec, ...]
    mode: str = "union"  # or "intersection"

    def __post_init__(self):
        if self.mode not in ("union", "intersection"):
            raise ValueError(f"unknown region mode {self.mode!r}")
        if not self.balls:
            raise ValueError("a region needs at least one ball")

    @staticmethod
    def ball(radius: float, center: Sequence[float] = (), center_level: int = 0) -> "RegionSpec":
        return RegionSpec((BallSpec(radius, tuple(center), center_level),))


def realize_region(region, basis: ShellBasis):
    """Instantiate a region as a concrete domain over the basis coordinates."""
    if callable(region):
        return region(basis)
    balls = []
    fixed = set(basis.layout.trivial)
    for spec in region.balls:
        center = np.zeros(basis.dim)
        if spec.center:
            if spec.center_level > basis.level:
                raise MarginFailure(f"ball center lies above V_{basis.level}; raise the level")
            d = basis.prefix_dim(spec.center_level)
            if len(spec.center) != d:
                raise ValueError(
                    f"center has {len(spec.center)} coordinates, V_{spec.center_level} has {d}"
                )
            center[:d] = spec.center
            bad = [i for i in np.nonzero(center)[0] if i not in fixed]
            if bad:
                raise ValueError("ball centers must lie in the fixed-point space")
        balls.append(Ball(center, spec.radius, basis.graph_weights))
    if len(balls) == 1:
        return balls[0]
    return (UnionDomain if region.mode == "union" else IntersectionDomain)(balls)


@dataclass
class LocalMapSpec:
    """A gradient perturbation f = Ax - F(x) of a spectral operator.

    ``nonlinearity(X, basis)`` receives an (m, basis.dim) batch of
    eigencoordinates of V_{basis.level} and must return the projection of
    F onto that space in the same coordinates.  ``jacobian(X, basis, idx)``
    optionally returns the exact derivative of that projection on the rows
    and columns idx, as an (m, |idx|, |idx|) array; it defaults to the
    nonlinearity's own ``jacobian`` attribute, which the nonlinearities of
    this module and the Hamiltonian local map carry.  Without one, Newton
    and the Hessians at zeros use central differences.  ``affine``, the
    declaration that F is affine, likewise defaults to the nonlinearity's
    ``affine`` attribute; grad_degree checks it.  ``tail(X, basis)``
    returns, for each row x of X in V_{basis.level}, the norm
    |(I - P_n) F(x)| of the part of F that the truncation drops, or an
    upper bound of it, as a finite (m,) array >= 0.  It defaults to the
    nonlinearity's ``tail`` attribute, which the nonlinearities of this
    module (whose F stays in V_n, so the tail is 0) and the Hamiltonian
    local map carry; a map with neither is a ValueError.  ``region``
    bounds the invariant domain in the graph norm.  ``min_level`` is the
    first truncation level at which the nonlinearity is meaningful.  The
    truncated fields are always spot-checked for equivariance.
    """

    operator: SpectralOperator
    nonlinearity: Callable
    region: object
    min_level: int = 1
    name: str = "local map"
    jacobian: Optional[Callable] = None
    affine: bool = False
    tail: Optional[Callable] = None

    def __post_init__(self):
        if self.jacobian is None:
            self.jacobian = getattr(self.nonlinearity, "jacobian", None)
        if not self.affine:
            self.affine = getattr(self.nonlinearity, "affine", False)
        if self.tail is None:
            self.tail = getattr(self.nonlinearity, "tail", None)
        if self.tail is None:
            raise ValueError(f"{self.name}: declare tail(X, basis), a bound of |(I - P_n) F| per row")

    def with_region(self, region) -> "LocalMapSpec":
        return dataclasses.replace(self, region=region)


def shell_field(f: LocalMapSpec, n: int) -> GradientField:
    """The truncated field f_n = Ax - P_n F(x) on V_n as a gradient field."""
    basis = f.operator.basis(n)
    eigs = basis.eigenvalues

    def value(X):
        X = np.atleast_2d(X)
        F = f.nonlinearity(X, basis)
        return X * eigs - F

    jacobian = None
    if f.jacobian is not None:

        def jacobian(X, idx):
            return np.diag(eigs[idx]) - f.jacobian(np.atleast_2d(X), basis, idx)

    return GradientField(
        rep=basis.rep,
        value=value,
        domain=realize_region(f.region, basis),
        layout=basis.layout,
        name=f"{f.name} | V_{n}",
        jacobian=jacobian,
        affine=f.affine,
    )


def shell_degrees(op: SpectralOperator, n: int) -> tuple[RingElement, ...]:
    """Linear degrees a_1 .. a_n of the operator on its first n shells."""
    return tuple(linear_degree(shell_operator(op, i)) for i in range(1, n + 1))


def correction_factor(op: SpectralOperator, n: int) -> RingElement:
    """m_n: the product of the inverses of the shell degrees a_1 .. a_n."""
    return _inverse_product(shell_degrees(op, n))


def _inverse_product(degrees: Sequence[RingElement]) -> RingElement:
    out = unit(CIRCLE)
    for a in degrees:
        inv = a.invert()
        assert inv is not None  # unit coefficient of a linear degree is +-1
        out = out * inv
    return out


def _check_counts(**counts) -> None:
    """ValueError naming the argument unless each count is an integer
    (numpy integers included, bool not) of at least 0 for a level and 1
    otherwise; a budget of None, the default, passes."""
    for name, value in counts.items():
        least = 0 if name in ("n", "level") else 1
        if value is None and name == "budget":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Margin:
    """The certified boundary margin at one level, with the pass behind it.

    ``epsilon`` is half the smallest sqrt(|f_n|^2 + t^2) over the boundary
    samples, with t the declared tail, and ``tail`` the largest sampled t.
    ``samples`` are the boundary samples of the truncated domain in V_n and
    ``values`` the truncated field f_n at them.  A Margin unpacks as
    (epsilon, tail).
    """

    epsilon: float
    tail: float
    samples: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __iter__(self):
        return iter((self.epsilon, self.tail))


def certify_margin(
    f: LocalMapSpec,
    n: int,
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> Margin:
    """Certify the boundary margin against the projection tail at level n.

    Evaluates ``shell_field(f, n)`` once at seeded samples of the boundary
    of the truncated domain in V_n (``budget`` of them, 64 per dimension by
    default) and the map's declared tail t, |(I - P_n) F| or a bound of
    it, at the same samples.  Since f_n and the tail are orthogonal,
    sqrt(|f_n|^2 + t^2) is |f| of the untruncated map or bounds it; epsilon
    is half its smallest sampled value and the level certifies when the
    largest sampled tail stays below epsilon.  Raises MarginFailure when it
    does not (raise n), BoundaryZero when a sample sits numerically on the
    zero set, NonFiniteField when the field or the tail is not finite at a
    sample, and ValueError for a tail not one value >= 0 per sample, an n
    not an integer >= 0 or a budget not an integer >= 1.
    """
    _check_counts(n=n, budget=budget)
    basis = f.operator.basis(n)
    if basis.dim == 0:
        raise MarginFailure(f"{f.name}: V_{n} is zero-dimensional; raise the level")
    fld = shell_field(f, n)
    rng = np.random.default_rng(seed)
    count = budget if budget is not None else BOUNDARY_PER_DIM * basis.dim
    samples = fld.domain.boundary_samples(count, rng)
    message = f"{f.name}: nonlinearity not finite on boundary samples"
    values = finite_values(fld.value, samples, message)
    tails = finite_values(lambda X: f.tail(X, basis), samples, message)
    if tails.shape != (len(samples),) or np.any(tails < 0):
        shape, least = tails.shape, tails.min(initial=np.inf)
        raise ValueError(f"{f.name}: the tail must be one value >= 0 per sample, got shape {shape}, least {least:.3g}")
    with np.errstate(over="ignore"):
        smallest = float(np.hypot(np.linalg.norm(values, axis=1), tails).min())
    if smallest <= BOUNDARY_MARGIN:
        raise BoundaryZero(f"{f.name}: sampled |f| = {smallest:.3e} on the boundary at level {n}")
    epsilon = 0.5 * smallest
    tail = float(tails.max())
    if tail >= epsilon:
        raise MarginFailure(
            f"{f.name}: tail bound {tail:.3e} >= epsilon {epsilon:.3e} at level {n}"
        )
    return Margin(epsilon, tail, samples, values)


@dataclass(frozen=True)
class DegreeResult:
    """A stabilized degree with its certification evidence.

    ``stabilization`` holds the corrected values at consecutive levels
    (all equal by construction); ``limit_class`` is the level-N
    representative (N, deg f_N) with the shell degrees as multipliers.
    """

    value: RingElement
    level: int
    epsilon: float
    tail_bound: float
    stabilization: tuple[RingElement, ...]
    limit_class: DirectLimitClass
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if any(v != self.value for v in self.stabilization):
            raise StabilizationFailure("stabilization values disagree with the result")
        if not self.limit_class_consistent():
            raise StabilizationFailure("limit class inconsistent with the corrected value")

    def limit_class_consistent(self) -> bool:
        anchor = DirectLimitClass(0, self.value, ())
        return limit_class_equal(anchor, self.limit_class)

    def to_json(self) -> dict:
        return {
            "value": ring_element_to_json(self.value),
            "level": self.level,
            "epsilon": self.epsilon,
            "tail_bound": self.tail_bound,
            "stabilization": [ring_element_to_json(v) for v in self.stabilization],
            "limit_class": {
                "level": self.limit_class.level,
                "value": ring_element_to_json(self.limit_class.value),
            },
        }


def degree_result_from_json(data: Mapping, group=CIRCLE) -> dict:
    """Decode the JSON form back into ring elements (round-trip helper)."""
    return {
        "value": ring_element_from_json(data["value"], group),
        "level": int(data["level"]),
        "epsilon": float(data["epsilon"]),
        "tail_bound": float(data["tail_bound"]),
        "stabilization": [ring_element_from_json(v, group) for v in data["stabilization"]],
        "limit_class": {
            "level": int(data["limit_class"]["level"]),
            "value": ring_element_from_json(data["limit_class"]["value"], group),
        },
    }


def _last_level(op: SpectralOperator, depth: int) -> Optional[int]:
    """The last level N whose levels N .. N+depth the declared spectrum
    holds; None when the operator declares no last level."""
    return None if op.max_level is None else op.max_level - depth


def _search_levels(op: SpectralOperator, start: int, depth: int) -> range:
    """The levels N from start up to MAX_LEVEL that an automatic search may settle on."""
    top = _last_level(op, depth)
    return range(start, (MAX_LEVEL if top is None else min(MAX_LEVEL, top)) + 1)


def _too_short(f: LocalMapSpec, what: str) -> MarginFailure:
    return MarginFailure(
        f"{f.name}: the declared spectrum is too short to certify {what} (the levels "
        f"N .. N+depth are needed; declared max level {f.operator.max_level})"
    )


def _stabilized(
    f: LocalMapSpec, N: int, margin: Margin, *, depth: int, seed: int, budget
) -> DegreeResult:
    """The degree at level N, whose margin is certified: the values
    m_n deg(f_n) at n = N .. N+depth, each level above N certified first,
    must agree exactly (StabilizationFailure otherwise).  Without a budget,
    each level's certified pass holds the 64 samples per dimension that
    grad_degree would draw, and grad_degree takes its boundary checks from
    it instead of sampling the boundary again."""
    per_level = []
    for n in range(N, N + depth + 1):
        level = margin if n == N else certify_margin(f, n, seed=seed, budget=budget)
        shared = (level.samples, level.values) if budget is None else None
        per_level.append(
            grad_degree(shell_field(f, n), seed=seed, return_zeros=True, _boundary=shared)
        )
    degrees = [d for d, _ in per_level]
    shells = shell_degrees(f.operator, N + depth)
    values = [_inverse_product(shells[: N + j]) * d for j, d in enumerate(degrees)]
    if any(v != values[0] for v in values[1:]):
        raise StabilizationFailure(
            f"{f.name}: corrected degree changed between levels {N} and {N + depth}: "
            + " vs ".join(str(v) for v in values)
        )
    epsilon, tail = margin
    return DegreeResult(
        value=values[0],
        level=N,
        epsilon=epsilon,
        tail_bound=tail,
        stabilization=tuple(values),
        limit_class=DirectLimitClass(N, degrees[0], shells[:N]),
        diagnostics={
            "levels_checked": list(range(N, N + depth + 1)),
            "zero_counts": [len(zeros) for _, zeros in per_level],
            "sample_budget": budget or BOUNDARY_PER_DIM * f.operator.basis(N).dim,
            "margin_ratio": (tail / epsilon) if epsilon > 0 else float("inf"),
        },
    )


def deg_infinite(
    f: LocalMapSpec,
    *,
    level="auto",
    stabilization_depth: int = 1,
    seed: int = 0,
    budget: Optional[int] = None,
) -> DegreeResult:
    """The stabilized degree m_N * deg(f_N) of a local map.

    With ``level="auto"`` the truncation level N is the first one up to
    MAX_LEVEL whose margin certifies, among those whose levels N .. N+depth
    the declared spectrum holds (N <= max_level - depth).  An explicit
    level above that raises MarginFailure before any degree is computed.
    The value is recomputed at N+1 .. N+depth and exact agreement is
    required (StabilizationFailure otherwise).  ``budget`` sets the number
    of boundary samples of each margin certificate.  ValueError unless an
    explicit level is an integer >= 0 and the depth and budget integers
    >= 1 (numpy integers count, bools do not).
    """
    _check_counts(stabilization_depth=stabilization_depth, budget=budget)
    step = dict(depth=stabilization_depth, seed=seed, budget=budget)
    if level != "auto":
        _check_counts(level=level)
        N, top = int(level), _last_level(f.operator, stabilization_depth)
        if top is not None and N > top:
            raise _too_short(f, f"level {N} at depth {stabilization_depth}")
        return _stabilized(f, N, certify_margin(f, N, seed=seed, budget=budget), **step)

    levels = _search_levels(f.operator, max(f.min_level, 1), stabilization_depth)
    if not levels:
        raise _too_short(f, "any truncation level")
    last: Optional[DegreeError] = None
    for n in levels:
        try:
            margin = certify_margin(f, n, seed=seed, budget=budget)
        except MarginFailure as exc:
            last = exc
            continue
        return _stabilized(f, n, margin, **step)
    raise MarginFailure(f"{f.name}: no truncation level up to {levels[-1]} certified ({last})")


@dataclass
class OtopyPath:
    """A family t -> local map over a uniform grid on [0, 1], sharing the
    operator of the slice at t = 0."""

    family: Callable[[float], LocalMapSpec]
    grid: tuple[float, ...]

    @staticmethod
    def uniform(family: Callable[[float], LocalMapSpec], steps: int = 10) -> "OtopyPath":
        return OtopyPath(family, tuple(np.linspace(0.0, 1.0, steps + 1)))


def deg_along_otopy(path: OtopyPath, *, seed: int = 0) -> list[DegreeResult]:
    """Degrees along an otopy: all slices certified at one common level,
    all values asserted equal; SliceMarginFailure names the offending t."""
    slices = [(t, path.family(t)) for t in path.grid]
    if not slices:
        raise ValueError("empty otopy grid")
    start = max(max(s.min_level for _, s in slices), 1)
    levels = _search_levels(slices[0][1].operator, start, 1)

    last_fail: tuple[float, object] = (path.grid[0], "the declared spectrum is too short")
    for n in levels:
        margins = []
        for t, s in slices:
            try:
                margins.append(certify_margin(s, n, seed=seed))
            except BoundaryZero as exc:
                raise SliceMarginFailure(t, str(exc)) from exc
            except MarginFailure as exc:
                last_fail = (t, exc)
                break
        if len(margins) == len(slices):
            break
    else:
        t, exc = last_fail
        raise SliceMarginFailure(t, f"no common level from {start} certified ({exc})")

    results = []
    for (t, s), margin in zip(slices, margins):
        try:
            results.append(_stabilized(s, n, margin, depth=1, seed=seed, budget=None))
        except DegreeError as exc:
            raise SliceMarginFailure(t, str(exc)) from exc
    for (t, _), r in zip(slices, results):
        if r.value != results[0].value:
            raise SliceMarginFailure(t, "degree deviates along the path")
    return results


# ---------------------------------------------------------------------------
# Common nonlinearities and products


def _diagonal_jacobian(X, diag) -> np.ndarray:
    """One diagonal matrix repeated for each point of the batch X."""
    return np.repeat(np.diag(diag)[None], len(np.atleast_2d(X)), axis=0)


def _no_tail(X, basis) -> np.ndarray:
    """The tail of a nonlinearity that maps V_n into itself: exactly 0."""
    return np.zeros(len(np.atleast_2d(X)))


def zero_nonlinearity(X, basis):
    return np.zeros_like(np.atleast_2d(X))


zero_nonlinearity.jacobian = lambda X, basis, idx: _diagonal_jacobian(X, np.zeros(len(idx)))
zero_nonlinearity.affine = True
zero_nonlinearity.tail = _no_tail


def scalar_nonlinearity(c: float):
    """F(x) = c x; diagonal in the eigenbasis, so projections are exact."""

    def F(X, basis):
        return c * np.atleast_2d(X)

    F.jacobian = lambda X, basis, idx: _diagonal_jacobian(X, np.full(len(idx), float(c)))
    F.affine = True
    F.tail = _no_tail
    return F


def kernel_projection_nonlinearity():
    """F(x) = -P_0 x, so that Ax - F(x) = Ax + P_0 x (the normalization map)."""

    def F(X, basis):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        d0 = basis.prefix_dim(0)
        out[:, :d0] = -X[:, :d0]
        return out

    def jacobian(X, basis, idx):
        return _diagonal_jacobian(X, -(np.asarray(idx) < basis.prefix_dim(0)).astype(float))

    F.jacobian = jacobian
    F.affine = True
    F.tail = _no_tail
    return F


def potential_nonlinearity(poly: Polynomial):
    """F = grad of a polynomial potential in the leading eigencoordinates
    (affine for degree <= 2); F stays in every V_n that holds those
    coordinates, so its tail is 0."""

    def check(basis):
        if basis.dim < poly.nvars:
            raise ValueError(
                f"potential uses {poly.nvars} coordinates, basis has {basis.dim}"
            )

    def F(X, basis):
        X = np.atleast_2d(X)
        check(basis)
        out = np.zeros_like(X)
        out[:, : poly.nvars] = poly.gradient(X[:, : poly.nvars])
        return out

    def jacobian(X, basis, idx):
        X = np.atleast_2d(X)
        check(basis)
        idx = np.asarray(idx)
        J = np.zeros((len(X), len(idx), len(idx)))
        rows = np.flatnonzero(idx < poly.nvars)
        if len(rows):
            var = idx[rows]
            H = poly.hessian(X[:, : poly.nvars])
            J[:, rows[:, None], rows] = H[:, var[:, None], var]
        return J

    F.jacobian = jacobian
    F.affine = poly.degree <= 2
    F.tail = _no_tail
    return F


def normalization_map(op: SpectralOperator) -> LocalMapSpec:
    """The map Ax + P_0 x on the unit ball, whose degree is the ring unit."""
    return LocalMapSpec(
        operator=op,
        nonlinearity=kernel_projection_nonlinearity(),
        region=RegionSpec.ball(1.0),
        name=f"normalization({op.label})",
    )


def _embedding_indices(
    opA: SpectralOperator, opB: SpectralOperator, basis: ShellBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate indices of the two summands inside a direct-sum basis."""
    ia: list[int] = []
    ib: list[int] = []
    for shell, lam, rep, offset in basis.entries:
        repA = dict(opA.shell(shell)).get(lam, Rep())
        repB = dict(opB.shell(shell)).get(lam, Rep())
        assert repA + repB == rep
        pos = offset
        ia.extend(range(pos, pos + repA.trivial))
        pos += repA.trivial
        ib.extend(range(pos, pos + repB.trivial))
        pos += repB.trivial
        for k, n in rep.modes:
            na = repA.mode_mult(k)
            ia.extend(range(pos, pos + 2 * na))
            pos += 2 * na
            ib.extend(range(pos, pos + 2 * (n - na)))
            pos += 2 * (n - na)
    return np.asarray(ia, dtype=int), np.asarray(ib, dtype=int)


def direct_sum_local_maps(f: LocalMapSpec, g: LocalMapSpec) -> LocalMapSpec:
    """The product map f x g on the direct sum of the operators.

    Its Jacobian, present when both summands have one, is block diagonal;
    it is affine when both summands are.  Its tail is the hypot of theirs:
    the summands' tails are orthogonal.
    """
    op = f.operator.direct_sum(g.operator)
    levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # level -> (ia, ib), built on first use

    def split(basis):
        """The (ascending) indices of each summand's coordinates and the summand bases."""
        if basis.level not in levels:
            levels[basis.level] = _embedding_indices(f.operator, g.operator, basis)
        ia, ib = levels[basis.level]
        return ia, f.operator.basis(basis.level), ib, g.operator.basis(basis.level)

    def nonlinearity(X, basis):
        X = np.atleast_2d(X)
        ia, basisA, ib, basisB = split(basis)
        out = np.zeros_like(X)
        out[:, ia] = f.nonlinearity(X[:, ia], basisA)
        out[:, ib] = g.nonlinearity(X[:, ib], basisB)
        return out

    jacobian = None
    if f.jacobian is not None and g.jacobian is not None:

        def jacobian(X, basis, idx):
            ia, basisA, ib, basisB = split(basis)
            blocks = (
                (lambda Y, sub: f.jacobian(Y, basisA, sub), ia),
                (lambda Y, sub: g.jacobian(Y, basisB, sub), ib),
            )
            return block_diagonal_jacobian(X, idx, blocks)

    def tail(X, basis):
        X = np.atleast_2d(X)
        ia, basisA, ib, basisB = split(basis)
        return np.hypot(f.tail(X[:, ia], basisA), g.tail(X[:, ib], basisB))

    def region(basis):
        ia, basisA, ib, basisB = split(basis)
        return ProductDomain(
            ia, realize_region(f.region, basisA), ib, realize_region(g.region, basisB)
        )

    return LocalMapSpec(
        operator=op,
        nonlinearity=nonlinearity,
        region=region,
        min_level=max(f.min_level, g.min_level),
        name=f"{f.name} x {g.name}",
        jacobian=jacobian,
        affine=f.affine and g.affine,
        tail=tail,
    )
