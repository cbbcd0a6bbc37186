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

A map whose nonlinearity declares ``blocks`` of the leading s
eigencoordinates reads and writes only those, and each block only itself,
so f_n = g_1 x .. x g_k + Ax on V_n = W + W^perp, with W those coordinates
(blocks that share a rotation plane merged, one more block per ball center
coordinate beyond them) and the same g_i at every level n >= N.  Each g_i
is searched once per certificate over its block's section of the ball (W
whole where a split cannot pay or hold), and deg f_n is the sum over the
zero tuples in the region of the products of their blocks' degrees, times
the linear degree of A on W^perp: degrees multiply over products (Geba,
1997).  W splits on one ball only, whose squared graph distance from the
center is the sum of its blocks' ones, so the tuples are counted block by
block by their running distance.  Each level's pass checks the blocks
(SupportFailure otherwise).

Without blocks, a map searches its fixed space once per certificate too.
Where shells N+1 .. n add no trivial coordinate
(``SpectralOperator.adds_fixed``), Fix(V_n) = Fix(V_N) lies in V_N; there
P_N P_n = P_N gives P_N f_n = f_N, and (P_n - P_N) F(x) is a fixed vector
of those shells, 0, so f_n = f_N (Browder & Petryshyn, J. Funct. Anal.
1969) on the same section of the region (a product's is the product of
its factors' sections).  Level n takes the zeros of the last level
searched, padded with 0, checks that f_n vanishes there
(StabilizationFailure otherwise) and takes their Hessians on V_n.  A loop
map's fixed space, the constant loops, lies in shell 0.
``diagnostics["zeros_from"]`` records per level the level searched (N for blocks).

A zero of f_n off the fixed space lies on a whole orbit of zeros, which
the zero search rejects; a map that declares a bound L on |DF| over its region
(``lipschitz``) proves there is none at a level n where L < mu_n, the
least |eigenvalue| of A on the rotation planes of V_n (``SpectralOperator.gap``).
Write x = x_F + x_N with x_F the fixed part of x in V_n.  Ball centers lie
in the fixed space and the graph norm is diagonal, so x_F lies in every
ball that x does, and so does the segment between them; in a product,
x_F lies in each factor's region, its factors being the fixed parts of
x's, so the segment does too, and L is the larger factor bound (DF is
block diagonal).  Equivariance maps the fixed space into itself, so the
normal part P_N f_n(x_F) is 0, and along the segment

    |P_N f_n(x)| = |A x_N - P_N (F(x) - F(x_F))| >= (mu_n - L) |x_N|,

which is > 0 off the fixed space (the non-resonance argument of Amann &
Zehnder, Ann. Sc. Norm. Sup. Pisa 1980).  The degree then skips its
probes for such zeros, and ``diagnostics["off_space"]`` records per level
{"proved": True, "bound": L, "gap": mu_n} or {"proved": False}.  For a
loop map the eigencoordinates are L^2 coordinates of loops, with graph
weights 1 + k^2 on mode k, and by Cauchy-Schwarz against those weights a
loop c + v, with c constant and v in the graph-norm ball of radius r, has

    sup_t |c + v(t)| <= |c| / sqrt(2 pi)
                        + r sqrt(1 / (2 pi) + sum_{k >= 1} 1 / (pi (1 + k^2)))
                      = |c| / sqrt(2 pi) + r sqrt(coth(pi) / 2) = rho,

since sum_{k >= 1} 1 / (1 + k^2) = (pi coth(pi) - 1) / 2.  Then
|DF| <= lambda sup_{|z| <= rho} |hess H(z)| at every level, which
``hamiltonian.local_map`` bounds term by term.

The level floor is derived, not declared: every level search starts at
n = 1, and a nonlinearity evaluated on a V_n too small to hold its
variables raises MarginFailure ("raise the level"), as a ball center
above V_n does, so the search moves on to the next level.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .domains import Ball, IntersectionDomain, ProductDomain, UnionDomain
from .errors import (
    BoundaryZero,
    DegenerateZero,
    DegreeError,
    DimensionLimit,
    MarginFailure,
    NearSingular,
    SliceMarginFailure,
    StabilizationFailure,
    SupportFailure,
)
from .euler_ring import (
    CIRCLE,
    DirectLimitClass,
    RingElement,
    limit_class_equal,
    ring_element_from_json,
    ring_element_to_json,
    unit,
    zero as ring_zero,
)
from .finite_degree import (
    BOUNDARY_MARGIN,
    BOUNDARY_PER_DIM,
    GradientField,
    block_diagonal_jacobian,
    blocks_from_matrix,
    check_declared,
    classify_zeros,
    finite_values,
    linear_degree,
    restricted_field,
    search_zeros,
)
from .polynomials import Polynomial
from .reps import ShellBasis, SpectralOperator, _json_count, _json_number, shell_operator

MAX_LEVEL = 10  # the automatic level search stops here
MAX_SAMPLE_VALUES = 2**27  # float64 values one boundary pass may hold: 1 GiB
MAX_ZERO_TUPLES = 2**24  # rows of zero tuples one count of a split W may build
SPLIT_WIDTH = 3  # the least number of coordinates W splits into its blocks from


@dataclass(frozen=True)
class BallSpec:
    """A graph-norm ball; the center lives in V_{center_level} and must be
    supported on trivial (fixed) coordinates."""

    radius: float
    center: tuple[float, ...] = ()
    center_level: int = 0


@dataclass(frozen=True)
class RegionSpec:
    """The union or intersection of graph-norm balls, or the product of two
    regions, a direct sum's: ``parts`` holds its summands' regions, in the
    summands' order (ValueError for anything else)."""

    balls: tuple[BallSpec, ...] = ()
    mode: str = "union"  # or "intersection"
    parts: tuple["RegionSpec", ...] = ()

    def __post_init__(self):
        if self.mode not in ("union", "intersection"):
            raise ValueError(f"unknown region mode {self.mode!r}")
        if bool(self.balls) == bool(self.parts) or len(self.parts) not in (0, 2):
            raise ValueError("a region needs at least one ball or else two parts")
        if not all(isinstance(part, RegionSpec) for part in self.parts):
            raise ValueError(f"a region's parts must be RegionSpecs, got {self.parts!r}")

    @staticmethod
    def ball(radius: float, center: Sequence[float] = (), center_level: int = 0) -> "RegionSpec":
        return RegionSpec((BallSpec(radius, tuple(center), center_level),))


def realize_region(region: RegionSpec, basis: ShellBasis):
    """Instantiate a region as a concrete domain over the basis coordinates,
    a product's parts each over its summand's coordinates and basis
    (``ShellBasis.parts``)."""
    if region.parts:
        (ia, basis_a), (ib, basis_b) = basis.parts
        return ProductDomain(ia, realize_region(region.parts[0], basis_a), ib, realize_region(region.parts[1], basis_b))
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


def _nests(region: RegionSpec, op: SpectralOperator) -> bool:
    """Whether a product region's parts nest like the operator's summands
    (any region of balls nests)."""
    return not region.parts or (bool(op.summands) and all(map(_nests, region.parts, op.summands)))


def _is_partition(blocks) -> bool:
    """Whether ``blocks`` is a tuple of nonempty tuples of integers >= 0 (a
    ValueError for one that is not) that partition 0 .. s-1 for some s."""
    tuples = isinstance(blocks, tuple) and all(isinstance(b, tuple) and b for b in blocks)
    return tuples and sorted(_json_count(i, "blocks", 0) for b in blocks for i in b) == list(range(sum(map(len, blocks))))


# What a nonlinearity declares as attributes: name -> (default, check, what
# the check asks).  LocalMapSpec reads and checks each of them.
_DECLARATIONS = {
    "tail": (None, callable, "a callable tail(X, basis), a bound of |(I - P_n) F| per row"),
    "jacobian": (None, lambda v: v is None or callable(v), "a callable jacobian(X, basis, idx) or None"),
    "affine": (False, lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
    "blocks": (None, lambda v: v is None or _is_partition(v), "None or a tuple of nonempty tuples that partition 0 .. s-1"),
    "lipschitz": (None, lambda v: v is None or callable(v), "a callable lipschitz(region) or None"),
}


@dataclass
class LocalMapSpec:
    """A gradient perturbation f = Ax - F(x) of a spectral operator on a
    region, a RegionSpec whose parts, if it has any, nest like the
    operator's direct summands (ValueError naming the map otherwise), which
    bounds the invariant domain in the graph norm.

    ``nonlinearity(X, basis)`` receives an (m, basis.dim) batch of
    eigencoordinates of V_{basis.level} and returns the projection of F
    onto that space in the same coordinates; on a V_n too small for F's
    variables it raises MarginFailure, as ``potential_nonlinearity`` does.
    Its attributes declare the rest, read and checked once here (ValueError
    naming the map), and again by ``with_region``:

    - ``tail(X, basis)``, required: per row x of X in V_{basis.level}, the
      norm |(I - P_n) F(x)| of the part of F that the truncation drops, or
      an upper bound of it, as a finite (m,) array >= 0;
    - ``jacobian(X, basis, idx)``, or None, the default, for finite
      differences (see ``finite_degree.GradientField``): the exact
      derivative of the projection on the rows and columns idx, as an
      (m, |idx|, |idx|) array;
    - ``affine``, a bool, False by default: F is affine (grad_degree checks);
    - ``blocks``, a tuple of nonempty tuples of coordinates (numpy integers
      count, bools do not) that partition the leading s eigencoordinates, or
      None, the default, for all of V_n: F reads and writes only those s, and
      each block only itself (see the module docstring); each level checks
      them on its boundary, so two or more blocks need ``jacobian``;
    - ``lipschitz(region)``, or None, the default: a bound L >= 0 on the
      operator norm of DF(x) in eigencoordinates, for x in the region (a
      RegionSpec) and at every level, or None for no bound.  Where L is
      below the least |eigenvalue| of A on the rotation planes of V_n, no
      zero of f_n lies off the fixed space (see the module docstring), and
      the degree skips its probes for one.

    The nonlinearities of this module and the Hamiltonian local map carry
    their declarations.
    """

    operator: SpectralOperator
    nonlinearity: Callable
    region: RegionSpec
    name: str = "local map"
    jacobian: Optional[Callable] = field(init=False, repr=False)
    affine: bool = field(init=False)
    tail: Callable = field(init=False, repr=False)
    blocks: Optional[tuple[tuple[int, ...], ...]] = field(init=False)
    lipschitz: Optional[Callable] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.region, RegionSpec):
            raise ValueError(f"{self.name}: region must be a RegionSpec, got {self.region!r}")
        if not _nests(self.region, self.operator):
            raise ValueError(f"{self.name}: the region's parts do not nest like the summands of {self.operator.label}")
        for attr, (default, valid, what) in _DECLARATIONS.items():
            value = getattr(self.nonlinearity, attr, default)
            try:
                ok = valid(value)
            except ValueError:  # a count check (reps._json_count) raises for a non-count
                ok = False
            if not ok:
                raise ValueError(f"{self.name}: {attr} must be {what}, got {value!r}")
            setattr(self, attr, value)
        if self.blocks is not None and len(self.blocks) > 1 and self.jacobian is None:
            raise ValueError(f"{self.name}: {len(self.blocks)} blocks need a jacobian to check them, got None")

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
    return _corrections(shell_degrees(op, n))[-1]


def _corrections(degrees: Sequence[RingElement]) -> list[RingElement]:
    """m_0 = 1 .. m_n for the shell degrees a_1 .. a_n: m_i = m_{i-1} a_i^{-1}."""
    out = [unit(CIRCLE)]
    for a in degrees:
        inv = a.invert()
        assert inv is not None  # unit coefficient of a linear degree is +-1
        out.append(out[-1] * inv)
    return out


@dataclass(frozen=True, eq=False)
class Margin:
    """The certified boundary margin at one level, with the pass behind it.

    ``epsilon`` is half the smallest sqrt(|f_n|^2 + t^2) over the boundary
    samples, with t the declared tail, and ``tail`` the largest sampled t.
    ``samples`` are the boundary samples of the truncated domain in V_n,
    ``values`` the truncated field f_n at them and ``field`` f_n itself,
    which the level's degree takes.  A Margin unpacks as (epsilon, tail).
    """

    epsilon: float
    tail: float
    samples: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    field: GradientField = field(repr=False)  # last: it shadows dataclasses.field below it

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
    does not (raise n), and before drawing a sample when V_n is empty or
    narrower than the map's declared blocks, BoundaryZero when a sample
    sits numerically on the zero set, NonFiniteField when the field or the
    tail is not finite at a sample, and ValueError for a tail not one value
    >= 0 per sample, an n not an integer >= 0, a budget not an integer >= 1
    or, before drawing, more than MAX_SAMPLE_VALUES sampled coordinates.
    """
    _json_count(n, "n", 0)
    if budget is not None:
        _json_count(budget, "budget", 1)
    basis = f.operator.basis(n)
    if basis.dim == 0:
        raise MarginFailure(f"{f.name}: V_{n} is zero-dimensional; raise the level")
    held = 0 if f.blocks is None else sum(map(len, f.blocks))
    if held > basis.dim:
        raise MarginFailure(f"{f.name}: potential uses {held} coordinates, V_{n} has {basis.dim}; raise the level")
    count = budget if budget is not None else BOUNDARY_PER_DIM * basis.dim
    if count * basis.dim > MAX_SAMPLE_VALUES:
        held = f"{count} samples at level {n} hold {count * basis.dim} values"
        raise ValueError(f"{f.name}: a budget of {held}, more than MAX_SAMPLE_VALUES = {MAX_SAMPLE_VALUES}")
    fld = shell_field(f, n)
    rng = np.random.default_rng(seed)
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
    return Margin(epsilon, tail, samples, values, fld)


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
    """Decode the JSON form back into ring elements (round-trip helper); a
    BadNumber names a level not an integer >= 0 or a bound not finite."""
    return {
        "value": ring_element_from_json(data["value"], group),
        "level": _json_count(data["level"], "level", 0),
        "epsilon": _json_number(data["epsilon"], "epsilon"),
        "tail_bound": _json_number(data["tail_bound"], "tail_bound"),
        "stabilization": [ring_element_from_json(v, group) for v in data["stabilization"]],
        "limit_class": {
            "level": _json_count(data["limit_class"]["level"], "limit_class.level", 0),
            "value": ring_element_from_json(data["limit_class"]["value"], group),
        },
    }


def _levels(f: LocalMapSpec, level, depth: int) -> range:
    """The levels N a certificate of f may settle on: an explicit level
    alone, or 1 .. MAX_LEVEL for "auto", keeping those whose levels
    N .. N+depth the declared spectrum holds.  MarginFailure, before any
    certificate runs, when none is left; ValueError for an explicit level
    not an integer >= 0."""
    first, last = (1, MAX_LEVEL) if level == "auto" else (_json_count(level, "level", 0),) * 2
    levels = f.operator.levels(first, last, depth)
    if not levels:
        what = "any truncation level" if level == "auto" else f"level {first} at depth {depth}"
        raise MarginFailure(
            f"{f.name}: the declared spectrum is too short to certify {what} (the levels "
            f"N .. N+depth are needed; declared max level {f.operator.max_level})"
        )
    return levels


def _search_blocks(f: LocalMapSpec, basis: ShellBasis) -> Optional[np.ndarray]:
    """Each coordinate's block, named by one of its coordinates, in W, the
    leading coordinates of V_n that hold the declared blocks, merged where
    they share a rotation plane, and one block per coordinate beyond them
    up to the last ball center (W fits in V_n: the margin refuses wider
    blocks, the region a center above V_n).  W is one block where a split
    cannot pay or hold: an affine W is one solve, one under SPLIT_WIDTH
    seeds fewer points than a second search costs, and disjoint balls may
    overlap in a block.  None, for all of V_n, without blocks."""
    if f.blocks is None:
        return None
    centers = [int(np.flatnonzero(b.center).max(initial=-1)) + 1 for b in f.region.balls]
    label = np.arange(max([sum(map(len, f.blocks))] + centers))
    for block in f.blocks:
        label[list(block)] = block[0]
    for _, base in basis.layout.pairs:
        if base == len(label) - 1:
            label = np.append(label, label[base])
        elif base < len(label) - 1:
            label[label == label[base + 1]] = label[base]
    split = not f.affine and len(label) >= SPLIT_WIDTH and len(f.region.balls) == 1
    return label if split else np.zeros_like(label)


def _zero_tuples(searches) -> tuple[RingElement, int]:
    """The degree and number of zeros of a field on W that splits into
    blocks over one ball, from each block's ``search_zeros`` on its section
    of the ball: the zero tuples whose squared graph distances from the
    center, one per block, add up to less than the squared radius.  A zero
    is classified only where its distance and the other blocks' nearest do.
    The tuples are built block by block as rows of (running distance, code
    of the product of their degrees, looked up in one table per block from
    the distinct products of the blocks before it), a row dropped once its
    distance reaches the squared radius; DimensionLimit past MAX_ZERO_TUPLES
    rows."""

    def distances(fld, zeros):
        return np.sum(fld.domain.weights * (zeros - fld.domain.center) ** 2, axis=1)

    near = [distances(fld, zeros).min(initial=np.inf) for fld, zeros, _, _ in searches]
    kept = []
    for i, (fld, zeros, values, floor) in enumerate(searches):
        used = distances(fld, zeros) + sum(near[:i] + near[i + 1 :]) < fld.domain.radius**2
        kept.append((fld, *classify_zeros(fld, zeros[used], values[used], floor)))
    values, reach, code = [unit(CIRCLE)], np.zeros(1), np.zeros(1, dtype=int)
    for fld, zeros, degrees in kept:
        index: dict = {}
        rows = [[index.setdefault(v * d, len(index)) for d in degrees] for v in values]
        table, values = np.array(rows, dtype=int).reshape(len(values), len(degrees)), list(index)
        total = len(reach) * len(zeros)
        if total > MAX_ZERO_TUPLES:
            raise DimensionLimit(f"{total} zero tuples of {len(kept)} blocks, more than MAX_ZERO_TUPLES = {MAX_ZERO_TUPLES}")
        reach = (reach[:, None] + distances(fld, zeros)).ravel()
        inside = reach < fld.domain.radius**2
        code = table[code].ravel()[inside]  # one step at a time: the peak holds fewer rows
        reach = reach[inside]
    tally = np.bincount(code, minlength=len(values))
    return sum((int(k) * v for k, v in zip(tally, values)), ring_zero(CIRCLE)), int(tally.sum())


def _outside_degree(f: LocalMapSpec, basis: ShellBasis, w: int) -> RingElement:
    """The linear degree of A on the coordinates of V_n beyond the leading
    w; DegenerateZero when A is singular there, since f_n's zeros are then
    not isolated."""
    rest = basis.layout.section(range(w, basis.dim))
    try:
        return linear_degree(blocks_from_matrix(np.diag(basis.eigenvalues[w:]), rest))
    except NearSingular as exc:
        raise DegenerateZero(
            f"{f.name}: A is singular beyond the blocks at level {basis.level}: {exc}"
        ) from exc


def _lipschitz_bound(f: LocalMapSpec) -> Optional[float]:
    """The map's declared bound L on |DF| over its region; None without a
    declaration or when it returns None, and a ValueError naming the map
    unless it is a finite number >= 0."""
    bound = None if f.lipschitz is None else f.lipschitz(f.region)
    if bound is None:
        return None
    bound = _json_number(bound, f"{f.name}: lipschitz(region)")
    if bound < 0:
        raise ValueError(f"{f.name}: lipschitz(region) must be >= 0 or None, got {bound!r}")
    return bound


def _level_degrees(
    f: LocalMapSpec, N: int, margin: Margin, *, depth: int, seed: int, budget
) -> list[tuple[RingElement, int, dict]]:
    """deg(f_n), the number of zeros of f_n in V_n and a record, the
    off-space proof and the level whose search gave the zeros, at
    n = N .. N+depth, each level above N certified first.  The proof is
    {"proved": True, "bound": L, "gap": mu_n} where the map's bound L is
    below ``SpectralOperator.gap`` (module docstring), else {"proved": False}.
    Every level takes its zeros and their degrees from ``search_zeros`` and
    ``classify_zeros``.  Without blocks, the search runs on the field its
    margin certified (``Margin.field``) with the boundary values of that one
    pass, whatever the budget set its size to, and skips its off-space
    probes where the proof holds, and a level with the fixed space of the
    last level searched takes its zeros (module docstring).
    With blocks, each block of W (``_search_blocks``) is searched once, on
    level N's field restricted to it, with level N's proof, and each level
    n checks them (f_n = Ax beyond them; where W splits, J is 0 between its
    blocks; SupportFailure otherwise; without a Jacobian there is one
    declared block) and multiplies the degree of the zero tuples in the
    region (``_zero_tuples``, or W's zeros where it is one block) by the
    linear degree of A beyond W in V_n."""
    label = _search_blocks(f, f.operator.basis(N))
    bound = _lipschitz_bound(f)
    tuples = None  # (degree, count) of the zero tuples of f_N on W, shared by the levels
    found = None  # (level, zeros) of the last search of the fixed space
    per_level = []
    for n in range(N, N + depth + 1):
        level = margin if n == N else certify_margin(f, n, seed=seed, budget=budget)
        basis = f.operator.basis(n)
        gap = f.operator.gap(n)
        proof = {"proved": True, "bound": bound, "gap": gap} if bound is not None and bound < gap else {"proved": False}
        if label is None:
            reuse = found is not None and not f.operator.adds_fixed(found[0], n)
            known = np.pad(found[1], ((0, 0), (0, basis.dim - found[1].shape[1]))) if reuse else None
            boundary = (level.samples, level.values)
            zeros, degrees = classify_zeros(*search_zeros(
                level.field, seed=seed, boundary=boundary, off_space_proved=proof["proved"], fixed_zeros=known
            ))
            found = found if reuse else (n, zeros)
            per_level.append((sum(degrees, ring_zero(CIRCLE)), len(zeros), {"off_space": proof, "zeros_from": found[0]}))
            continue
        s = sum(map(len, f.blocks))
        claim = f"{f.name}: declared blocks {f.blocks}, but at level {n}"
        outside = level.values[:, s:] - level.samples[:, s:] * basis.eigenvalues[s:]
        check_declared(SupportFailure, f"{claim} |f_n - Ax| beyond coordinate {s}", outside, level.values)
        if f.jacobian is not None and (label != label[:1]).any():  # W splits: J must be 0 between its blocks
            J = level.field.jacobian(level.samples, np.arange(len(label))).reshape(len(level.samples), -1)
            check_declared(SupportFailure, f"{claim} the Jacobian between blocks", J * (label[:, None] != label).ravel(), J)
        if tuples is None:
            blocks = [np.flatnonzero(label == k) for k in dict.fromkeys(label.tolist())]
            how = dict(off_space_proved=proof["proved"], on_boundary_ok=len(blocks) > 1)
            searches = [search_zeros(restricted_field(level.field, b), seed=seed, **how) for b in blocks]
            if len(blocks) == 1:  # W searched whole: its zeros are the tuples
                zeros, degrees = classify_zeros(*searches[0])
                tuples = sum(degrees, ring_zero(CIRCLE)), len(zeros)
            else:
                tuples = _zero_tuples(searches)
        degree, count = tuples
        if count:
            degree = degree * _outside_degree(f, basis, len(label))
        per_level.append((degree, count, {"off_space": proof, "zeros_from": N}))
    return per_level


def _stabilized(
    f: LocalMapSpec, N: int, margin: Margin, *, depth: int, seed: int, budget
) -> DegreeResult:
    """The degree at level N, whose margin is certified: the values
    m_n deg(f_n) at n = N .. N+depth (``_level_degrees``) must agree
    exactly (StabilizationFailure otherwise)."""
    per_level = _level_degrees(f, N, margin, depth=depth, seed=seed, budget=budget)
    degrees = [d for d, _, _ in per_level]
    shells = shell_degrees(f.operator, N + depth)
    values = [m * d for m, d in zip(_corrections(shells)[N:], degrees)]
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
            "zero_counts": [count for _, count, _ in per_level],
            "sample_budget": budget or BOUNDARY_PER_DIM * f.operator.basis(N).dim,
            "margin_ratio": (tail / epsilon) if epsilon > 0 else float("inf"),
            "off_space": [record["off_space"] for _, _, record in per_level],
            "zeros_from": [record["zeros_from"] for _, _, record in per_level],
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

    The truncation level N is the explicit ``level``, or under "auto" the
    first from 1 up to MAX_LEVEL whose margin certifies, among the levels
    whose N .. N+depth the declared spectrum holds (``_levels``, which
    raises MarginFailure before any certificate when none does).  An
    explicit level's MarginFailure propagates as it is.  The value is
    recomputed at N+1 .. N+depth and exact agreement is required
    (StabilizationFailure otherwise).  ``budget`` sets the size of each
    level's one boundary pass, which serves its margin and its degree.
    ValueError unless an explicit level is an integer >= 0 and the depth
    and budget integers >= 1 (numpy integers count, bools do not).
    """
    _json_count(stabilization_depth, "stabilization_depth", 1)
    if budget is not None:
        _json_count(budget, "budget", 1)
    levels = _levels(f, level, stabilization_depth)
    last: Optional[DegreeError] = None
    for n in levels:
        try:
            margin = certify_margin(f, n, seed=seed, budget=budget)
        except MarginFailure as exc:
            if level != "auto":
                raise
            last = exc
            continue
        return _stabilized(f, n, margin, depth=stabilization_depth, seed=seed, budget=budget)
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
    try:
        levels = _levels(slices[0][1], "auto", 1)
    except MarginFailure as exc:
        raise SliceMarginFailure(path.grid[0], str(exc)) from exc

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
        raise SliceMarginFailure(t, f"no common level certified ({exc})")

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


def _no_tail(X, basis) -> np.ndarray:
    """The tail of a nonlinearity that maps V_n into itself: exactly 0."""
    return np.zeros(len(np.atleast_2d(X)))


def _diagonal_nonlinearity(diagonal: Callable, bound: float):
    """F(x) = d x with d = diagonal(basis), one number or one per
    eigencoordinate of V_n: diagonal in the eigenbasis, so F maps V_n into
    itself (no tail), affine, with Jacobian diag(d) and |DF| <= bound."""

    def F(X, basis):
        return diagonal(basis) * np.atleast_2d(X)

    def jacobian(X, basis, idx):
        d = np.asarray(diagonal(basis), dtype=float)
        d = np.full(len(idx), d) if d.ndim == 0 else d[np.asarray(idx, dtype=int)]
        return np.repeat(np.diag(d)[None], len(np.atleast_2d(X)), axis=0)

    F.jacobian = jacobian
    F.affine = True
    F.tail = _no_tail
    F.lipschitz = lambda region: bound
    return F


zero_nonlinearity = _diagonal_nonlinearity(lambda basis: 0.0, 0.0)
zero_nonlinearity.blocks = ()


def scalar_nonlinearity(c: float):
    """F(x) = c x."""
    return _diagonal_nonlinearity(lambda basis: float(c), abs(float(c)))


def kernel_projection_nonlinearity():
    """F(x) = -P_0 x, so that Ax - F(x) = Ax + P_0 x (the normalization map);
    P_0 projects onto the kernel of A, whose coordinates are those of shell 0."""
    return _diagonal_nonlinearity(lambda basis: np.where(basis.eigenvalues == 0.0, -1.0, 0.0), 1.0)


def potential_nonlinearity(poly: Polynomial):
    """F = grad of a polynomial potential in the leading eigencoordinates
    (affine for degree <= 2); F stays in every V_n that holds those
    coordinates, so its tail is 0, and its blocks are the connected
    components of the variables that its terms share.  On a V_n too small
    to hold them it raises MarginFailure ("raise the level")."""

    def check(basis):
        if basis.dim < poly.nvars:
            raise MarginFailure(
                f"potential uses {poly.nvars} coordinates, V_{basis.level} has {basis.dim}; raise the level"
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
    label = list(range(poly.nvars))  # each variable's block, named by its least variable
    for exps, _ in poly.terms:
        shared = {label[i] for i, e in enumerate(exps) if e}
        label = [min(shared) if k in shared else k for k in label]
    F.blocks = tuple(tuple(i for i, k in enumerate(label) if k == j) for j in dict.fromkeys(label))
    return F


def normalization_map(op: SpectralOperator) -> LocalMapSpec:
    """The map Ax + P_0 x on the unit ball, whose degree is the ring unit.

    Its nonlinearity declares no blocks, so its degree takes the zero
    search over all of V_n, and the CLI's normalization check keeps
    exercising that unrestricted search."""
    return LocalMapSpec(
        operator=op,
        nonlinearity=kernel_projection_nonlinearity(),
        region=RegionSpec.ball(1.0),
        name=f"normalization({op.label})",
    )


def direct_sum_local_maps(f: LocalMapSpec, g: LocalMapSpec) -> LocalMapSpec:
    """The product map f x g on the direct sum of the operators.

    Each summand reads and writes its own coordinates of the sum's V_n,
    over its own basis (``ShellBasis.parts``).  Its Jacobian, present when
    both summands have one, is block diagonal; it is affine when both
    summands are.  Its tail is the hypot of theirs: the summands' tails are
    orthogonal.  Its region is their product, ``RegionSpec(parts=(f.region,
    g.region))``, and its ``lipschitz`` the larger of their bounds (DF is
    block diagonal) or None.
    """
    op = f.operator.direct_sum(g.operator)

    def nonlinearity(X, basis):
        X = np.atleast_2d(X)
        (ia, basis_a), (ib, basis_b) = basis.parts
        out = np.zeros_like(X)
        out[:, ia] = f.nonlinearity(X[:, ia], basis_a)
        out[:, ib] = g.nonlinearity(X[:, ib], basis_b)
        return out

    def jacobian(X, basis, idx):
        (ia, basis_a), (ib, basis_b) = basis.parts
        blocks = (
            (lambda Y, sub: f.jacobian(Y, basis_a, sub), ia),
            (lambda Y, sub: g.jacobian(Y, basis_b, sub), ib),
        )
        return block_diagonal_jacobian(X, idx, blocks)

    def tail(X, basis):
        X = np.atleast_2d(X)
        (ia, basis_a), (ib, basis_b) = basis.parts
        return np.hypot(f.tail(X[:, ia], basis_a), g.tail(X[:, ib], basis_b))

    def lipschitz(region):
        bounds = [_lipschitz_bound(s.with_region(part)) for s, part in zip((f, g), region.parts)]
        return max(bounds) if bounds and None not in bounds else None

    nonlinearity.jacobian = jacobian if f.jacobian is not None and g.jacobian is not None else None
    nonlinearity.affine = f.affine and g.affine
    nonlinearity.tail = tail
    nonlinearity.lipschitz = lipschitz
    region = RegionSpec(parts=(f.region, g.region))
    return LocalMapSpec(operator=op, nonlinearity=nonlinearity, region=region, name=f"{f.name} x {g.name}")
