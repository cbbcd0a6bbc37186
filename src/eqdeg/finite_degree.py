"""Finite-dimensional equivariant gradient degree for circle-group actions.

The degree of an equivariant gradient field with nondegenerate zeros in
the fixed-point space is the sum over those zeros of the closed-form
degree of the Hessian: a sign from the Morse index on the fixed space and
one first-order coefficient per rotation mode (higher products vanish by
nilpotency of the mode classes).  Zeros are located by batched multi-start
damped Newton, which evaluates each point once, on ``fixed_space_field``:
the field restricted to its trivial coordinates and to its domain's
section there, seeded by that section's deterministic grid.  A field's
one derivative source, for Newton steps and Hessians at zeros alike, is
its exact Jacobian; a field without one takes finite differences, forward
ones against the values Newton holds for its steps (one evaluation per
iteration) and central ones for the Hessians.  The search runs on f / V, V
the largest |f| sampled on the boundary, which has f's zeros and degree, and
reads every length as a share of R, the scale of the field's domain:
NEWTON_TOL and every check read a field of boundary size 1, while the
difference steps, the merge distance MERGE_TOL R that tells one zero found
twice, the off-space threshold and Newton's cutoff read R.  So y -> c f(s y)
on the domain shrunk by s gives f's answer for every c, s > 0.  Only the
boundary-zero floor BOUNDARY_MARGIN stays absolute: a uniformly small
boundary has no size to compare to.  Equivariance is spot-checked, and
zeros off the fixed-point space are rejected, since slice linearization
around free orbits is out of scope: a Galerkin level whose map declares a
derivative bound L below the least |eigenvalue| of A on its rotation planes
excludes them by proof (see ``galerkin``), and every other field is
searched for them by randomized full-space probes.  A field declared affine
with a nonsingular Jacobian has one zero, in the fixed space, found by
Newton from the origin with no seed grid or probe (AffinityFailure if not).

An independent Brouwer-degree oracle (zero enumeration plus the sign of
the finite-difference Jacobian determinant, with absolute tolerances of its
own) on the same fixed_space_field checks the fixed-space coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .domains import Ball, ProductDomain, ShellDomain
from .errors import (
    AffinityFailure,
    BoundaryZero,
    DegenerateZero,
    EquivarianceFailure,
    NearSingular,
    NonFiniteField,
    NotAGradient,
    StabilizationFailure,
    UnresolvedZeroCluster,
    ZeroOutsideFixedSpace,
)
from .euler_ring import CIRCLE, FULL, RingElement, SubgroupClass, basis_element, zero as ring_zero
from .reps import EquivariantSymOp, Layout, Rep, canonical_layout, concat_layouts

SEED_FRACTION = 0.125          # Newton seed grid spacing, as a fraction of the radius
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10             # |f| at a zero, as a share of the largest sampled boundary |f|
MERGE_TOL = 1e-7               # merge distance, as a share of the domain scale
SINGULAR_LOG_RATIO = np.log(1e-12)  # Newton solves below this |det J| / Hadamard bound use pinv
BOUNDARY_PER_DIM = 64
BOUNDARY_MARGIN = 1e-8         # sampled boundary |f| at or below this is a boundary zero
SINGULAR_RATIO = 1e-9  # share of the field's scale: singular floor, affinity bound
RESIDUAL_RATIO = 1e-8  # share of the boundary |f|: equivariance, normal-residual and reuse checks
GRADIENT_RATIO = 1e-6  # share of |J| at a zero: the part of J that is not symmetric equivariant


@dataclass
class GradientField:
    """An equivariant gradient field on an invariant domain.

    ``value`` maps an (m, dim) batch of coordinate vectors to the (m, dim)
    batch of gradient vectors.  ``layout`` describes how coordinates carry
    the circle action and defaults to the canonical layout of ``rep``.
    ``jacobian(X, idx)``, when given, returns the exact derivative of
    ``value`` at an (m, dim) batch X, restricted to the rows and columns
    idx, as an (m, |idx|, |idx|) array; Newton steps and the Hessians at
    zeros then use it.  A field without one falls back to finite
    differences: forward ones against the values Newton holds, for its
    steps, and central ones for the Hessians.  ``affine`` declares that
    ``value`` is x -> f(0) + Jx, which grad_degree checks (AffinityFailure)
    and uses to solve from one start.
    """

    rep: Rep
    value: Callable
    domain: object
    layout: Optional[Layout] = None
    name: str = "field"
    jacobian: Optional[Callable] = None
    affine: bool = False

    def __post_init__(self):
        if self.layout is None:
            self.layout = canonical_layout(self.rep)
        if self.layout.size != self.rep.dim:
            raise ValueError("layout size does not match representation dimension")
        if self.domain.dim != self.rep.dim:
            raise ValueError("domain dimension does not match representation")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, dim) batch."""
        return np.asarray(self.value(np.atleast_2d(np.asarray(x, dtype=float))), dtype=float)


def linear_degree(op: EquivariantSymOp, *, singular_floor: float = 0.0) -> RingElement:
    """Degree of an equivariant self-adjoint isomorphism.

    With negative part (m0, {k: m_k}) the value is
    (-1)^m0 * (unit - sum_k m_k [S1/Z_k]); its unit coefficient is +-1, so
    the result is always invertible.
    """
    neg = op.negative_part(singular_floor)
    sign = -1 if neg.trivial % 2 else 1
    coeffs = {FULL: sign}
    for k, n in neg.modes:
        coeffs[SubgroupClass.finite(k)] = -sign * n
    return RingElement.make(CIRCLE, coeffs)


def field_from_operator(op: EquivariantSymOp, radius: float = 1.0) -> GradientField:
    """The linear field x -> Bx of a blockwise operator, on a ball."""
    lay = canonical_layout(op.rep)
    mat = _full_matrix(op, lay)

    return GradientField(
        rep=op.rep,
        value=lambda X: X @ mat.T,
        domain=Ball(np.zeros(op.rep.dim), radius),
        layout=lay,
        name="linear field",
        jacobian=lambda X, idx: np.broadcast_to(
            mat[np.ix_(idx, idx)], (len(X), len(idx), len(idx))
        ),
        affine=True,
    )


def _full_matrix(op: EquivariantSymOp, lay: Layout) -> np.ndarray:
    """The matrix of a blockwise operator: mode-k entry a + ib becomes [[a, -b], [b, a]]."""
    mat = np.zeros((lay.size, lay.size))
    t = np.asarray(lay.trivial, dtype=int)
    mat[np.ix_(t, t)] = op.trivial_block
    for k, b in lay.planes.items():
        blk = op.mode_blocks[k]
        r = b[:, None]
        mat[r, b] += blk.real
        mat[r + 1, b + 1] += blk.real
        mat[r, b + 1] += -blk.imag
        mat[r + 1, b] += blk.imag
    return mat


def finite_values(evaluate: Callable, X: np.ndarray, message: str) -> np.ndarray:
    """evaluate(X), which must be finite everywhere: NonFiniteField(message)
    otherwise.  Overflow on the way is not warned about, since a value it
    spoils fails this check."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(evaluate(X), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteField(message)
    return values


def check_declared(error: type, claim: str, defects: np.ndarray, values: np.ndarray) -> None:
    """The check of a declared structure on one boundary pass: ``error``
    unless the largest row norm of ``defects``, the samples' departure from
    the declaration, stays <= SINGULAR_RATIO times the largest |f| of the
    field ``values`` there; NaN fails.  The message opens with ``claim``."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.linalg.norm(defects, axis=1).max(initial=0.0))
        size = float(np.linalg.norm(values, axis=1).max(initial=0.0))
    if not defect <= SINGULAR_RATIO * size:
        raise error(f"{claim} reaches {defect:.2e} on the boundary, where |f| reaches {size:.2e}")


# ---------------------------------------------------------------------------
# Newton machinery


def _fd_jacobian(
    fld: GradientField, X: np.ndarray, idx, step: float = 1e-6, values: Optional[np.ndarray] = None
) -> np.ndarray:
    """Finite-difference Jacobian at an (m, dim) batch X, restricted to
    idx x idx; the step at a point x is step * (R + max|x|), R the scale of
    fld's domain.  Central differences take one evaluation of all the points
    shifted up and one of all those shifted down.  A caller that holds
    ``values``, fld's values at X, gets forward differences against them
    instead, from the one evaluation of the points shifted up."""
    idx = np.asarray(idx, dtype=int)
    k = len(idx)
    h = step * (fld.domain.scale + np.max(np.abs(X), axis=1))

    def shifted(sign):
        Y = np.repeat(X[None], k, axis=0)  # (k, m, dim): block j shifts coordinate idx[j]
        Y[np.arange(k), :, idx] += sign * h
        return fld.evaluate(Y.reshape(-1, X.shape[1]))[:, idx].reshape(k, len(X), k)

    if values is not None:
        return ((shifted(1.0) - values[:, idx]) / h[:, None]).transpose(1, 2, 0)
    Fp = shifted(1.0)
    return ((Fp - shifted(-1.0)) / (2 * h)[:, None]).transpose(1, 2, 0)


def _full_jacobians(
    fld: GradientField, X: np.ndarray, step: float = 1e-5, values: Optional[np.ndarray] = None
) -> np.ndarray:
    """The (m, dim, dim) Jacobians at an (m, dim) batch, from one call:
    the exact ones, or else _fd_jacobian's with ``values`` passed on."""
    idx = list(range(X.shape[1]))
    if fld.jacobian is not None:
        return fld.jacobian(X, idx)
    return _fd_jacobian(fld, X, idx, step, values=values)


def _solve_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    steps = np.empty_like(F)
    # |det J| against Hadamard's bound, the product of the row norms: a
    # ratio at rounding level marks a matrix that is singular but for
    # rounding, which the pseudo-inverse handles like an exact zero
    sign, logdet = np.linalg.slogdet(J)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = logdet - np.sum(np.log(np.linalg.norm(J, axis=2)), axis=1)
    ok = (sign != 0) & (ratio > SINGULAR_LOG_RATIO)
    if ok.any():
        try:
            steps[ok] = np.linalg.solve(J[ok], F[ok][..., None])[..., 0]
        except np.linalg.LinAlgError:
            ok = np.zeros(len(F), dtype=bool)
    if (~ok).any():
        steps[~ok] = (np.linalg.pinv(J[~ok]) @ F[~ok][..., None])[..., 0]
    return steps


def _newton_batch(
    fld: GradientField, seeds: np.ndarray, *, max_iter: int = NEWTON_MAX_ITER
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on all coordinates of fld; returns the points that
    converge within max_iter iterations, in seed order, and fld's values
    there.  Each point is evaluated once: the seeds up front
    (NonFiniteField if one is not finite), every later point in the line
    search that accepts it.  The running rows live in contiguous arrays
    that shrink as rows converge or die; a row dies on a non-finite step,
    a line search with no descent, or a step beyond 100 R, R the scale of
    fld's domain.  A row converges at |f| <= NEWTON_TOL; the
    fields grad_degree passes are divided by their largest boundary |f|, so
    that there the tolerance is a share of it."""
    X = np.array(np.atleast_2d(seeds), dtype=float)
    F = finite_values(fld.evaluate, X, f"{fld.name}: field not finite at a Newton seed")
    fn = np.linalg.norm(F, axis=1)
    order = np.arange(len(X))  # the seed of each running row
    found = []  # (seeds, points, values) of the rows converged at each iteration
    cutoff = 100.0 * fld.domain.scale
    for _it in range(max_iter):
        done = fn <= NEWTON_TOL
        found.append((order[done], X[done], F[done]))
        X, F, fn, order = X[~done], F[~done], fn[~done], order[~done]
        if not len(X):
            break
        steps = _solve_steps(_full_jacobians(fld, X, step=1e-6, values=F), F)
        finite = np.isfinite(steps).all(axis=1)
        X, F, fn, order, steps = X[finite], F[finite], fn[finite], order[finite], steps[finite]
        alpha = np.ones(len(X))
        pending = np.ones(len(X), dtype=bool)
        for _bt in range(12):
            act = np.flatnonzero(pending)
            if not len(act):
                break
            Xtry = X[act] - alpha[act][:, None] * steps[act]
            Ftry = fld.evaluate(Xtry)
            ft = np.linalg.norm(Ftry, axis=1)
            ok = ft <= fn[act] * (1.0 - 1e-4 * alpha[act]) + 1e-300
            took = act[ok]
            X[took], F[took], fn[took] = Xtry[ok], Ftry[ok], ft[ok]
            pending[took] = False
            alpha[act[~ok]] *= 0.5
        good = ~pending & (np.max(np.abs(X), axis=1) <= cutoff)
        X, F, fn, order = X[good], F[good], fn[good], order[good]
    seed, points, values = (np.concatenate(parts) for parts in zip(*found))
    first = np.argsort(seed, kind="stable")
    return points[first], values[first]


def _dedupe(points: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """The points _dedupe_rows keeps, in its order."""
    return points[_dedupe_rows(points, tol)]


def _dedupe_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Greedy merge in lexicographic order: keep the first remaining point,
    drop every point within tol of it, repeat; the rows kept."""
    rest = np.lexsort(points.T[::-1])
    kept: list[int] = []
    while len(rest):
        kept.append(rest[0])
        rest = rest[np.linalg.norm(points[rest] - points[rest[0]], axis=1) > tol]
    return np.array(kept, dtype=int)


def _polished(sub: GradientField, Y: np.ndarray, J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Newton steps on ``sub`` from its zeros Y, with Jacobians J and values F
    there, evaluating only the points still stepping, until each one's last
    step is <= MERGE_TOL R / 2; UnresolvedZeroCluster past NEWTON_MAX_ITER."""
    Y = Y.copy()
    rows = np.arange(len(Y))
    settled = 0.5 * MERGE_TOL * sub.domain.scale
    for _ in range(NEWTON_MAX_ITER):
        if not (np.isfinite(J).all() and np.isfinite(F).all()):
            break
        steps = _solve_steps(J, F)
        Y[rows] -= steps
        rows = rows[~(np.linalg.norm(steps, axis=1) <= settled)]
        if not len(rows):
            return Y
        with np.errstate(all="ignore"):
            F = sub.evaluate(Y[rows])
            J = _full_jacobians(sub, Y[rows])
    raise UnresolvedZeroCluster(f"{sub.name}: Newton from the zeros found does not settle in {NEWTON_MAX_ITER} steps")


def _merged_copies(zeros: np.ndarray, corrected: np.ndarray, degrees: list, name: str, tol: float) -> list[int]:
    """The zeros that stand for all: Newton stops at |f| <= NEWTON_TOL, so
    where J is nearly singular two copies of one zero can lie farther
    apart than the merge distance ``tol``, while the points that Newton
    steps from them settle at, ``corrected`` (``_polished``), agree.  Two
    zeros whose corrected points lie within tol are one zero found twice: the
    first in order absorbs the later ones, which must classify alike, with
    the same ``degrees`` (UnresolvedZeroCluster otherwise)."""
    kept = []
    alive = np.ones(len(zeros), dtype=bool)
    for i in range(len(zeros)):
        if not alive[i]:
            continue
        kept.append(i)
        gap = np.linalg.norm(corrected[i + 1 :] - corrected[i], axis=1)
        copies = i + 1 + np.flatnonzero(alive[i + 1 :] & (gap <= tol))
        for j in copies:
            if degrees[j] != degrees[i]:
                raise UnresolvedZeroCluster(
                    f"{name}: zeros at {np.round(zeros[i], 8)} and {np.round(zeros[j], 8)} settle at one "
                    f"point under Newton but classify as {degrees[i]} and {degrees[j]}"
                )
        alive[copies] = False
    return kept


# ---------------------------------------------------------------------------
# Equivariance and zero location


def _spot_check_equivariance(fld: GradientField, rng: np.random.Generator):
    """f(g x) = g f(x) at 8 interior samples x and 4 random rotations g, all
    40 points evaluated in one call."""
    samples = fld.domain.interior_samples(8, rng)
    if not len(samples):
        return
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=4)
    batch = np.concatenate([samples] + [fld.layout.rotate(theta, samples) for theta in thetas])
    message = f"{fld.name}: field not finite at an equivariance sample"
    vals, *rotated = np.split(finite_values(fld.evaluate, batch, message), 1 + len(thetas))
    for theta, rhs in zip(thetas, rotated):
        err = np.max(np.linalg.norm(fld.layout.rotate(theta, vals) - rhs, axis=1))
        if err > RESIDUAL_RATIO:
            raise EquivarianceFailure(
                f"{fld.name}: equivariance spot-check failed (|g f(x) - f(g x)| = {err:.2e})"
            )


def _embed(size: int, coords: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The points with coordinates ``coords`` Y and zeros on the others."""
    X = np.zeros((len(Y), size))
    X[:, coords] = Y
    return X


def restricted_field(fld: GradientField, coords) -> GradientField:
    """fld restricted to the coordinates ``coords``, which must hold each
    rotation plane they touch whole: a field on them, with the layout
    ``fld.layout.section`` and the domain ``fld.domain.section`` of them,
    affine when fld is.  Its value calls fld's ``value`` once at the points
    embedded with zeros on the other coordinates, and its Jacobian, when
    fld has one, is fld's restricted to ``coords``.  It is a field of its
    own when fld maps the zero set of the other coordinates into itself."""
    coords = np.asarray(coords, dtype=int)
    layout = fld.layout.section(coords)
    size = fld.layout.size

    def jacobian(Y, idx):
        return fld.jacobian(_embed(size, coords, Y), coords[idx])

    return GradientField(
        rep=layout.rep(),
        value=lambda Y: np.asarray(fld.value(_embed(size, coords, Y)), dtype=float)[:, coords],
        domain=fld.domain.section(coords),
        layout=layout,
        name=fld.name,
        jacobian=jacobian if fld.jacobian is not None else None,
        affine=fld.affine,
    )


def fixed_space_field(fld: GradientField) -> GradientField:
    """fld restricted to its fixed-point space, its trivial coordinates."""
    return restricted_field(fld, fld.layout.trivial)


def _located_fixed_zeros(fld: GradientField, *, unique: bool) -> tuple[np.ndarray, np.ndarray]:
    """Newton on fixed_space_field(fld) from its domain's seeds (the origin
    alone when ``unique``): the zeros, and fld's values there on the fixed
    coordinates; fld's normal part, where it has rotation planes, must
    vanish at each zero."""
    sub = fixed_space_field(fld)
    seeds = np.zeros((1, sub.domain.dim)) if unique else sub.domain.seed_points(SEED_FRACTION)
    fixed = np.asarray(fld.layout.trivial, dtype=int)
    found, values = _newton_batch(sub, seeds)
    pts = _embed(fld.layout.size, fixed, found)
    inside = fld.domain.contains(pts)
    pts, values = pts[inside], values[inside]
    kept = _dedupe_rows(pts, MERGE_TOL * fld.domain.scale)
    pts, values = pts[kept], values[kept]
    if len(pts) and fld.layout.pairs:
        normals = fld.evaluate(pts)[:, fld.layout.normal_indices()]
        resid = np.max(np.linalg.norm(normals, axis=1))
        if resid > RESIDUAL_RATIO:
            raise EquivarianceFailure(
                f"{fld.name}: field does not map the fixed space to itself "
                f"(normal residual {resid:.2e})"
            )
    return pts, values


def _scan_off_space_zeros(fld: GradientField, rng: np.random.Generator):
    count = 16 + 8 * min(fld.layout.size, 16)
    probes = fld.domain.interior_samples(count, rng)
    pts, _ = _newton_batch(fld, probes, max_iter=30)
    pts = pts[fld.domain.contains(pts)]
    normal_idx = fld.layout.normal_indices()
    norms = np.linalg.norm(pts[:, normal_idx], axis=1)
    off = norms > 1e-6 * (fld.domain.scale + np.max(np.abs(pts), axis=1))
    if off.any():
        where = pts[off][0]
        raise ZeroOutsideFixedSpace(
            f"{fld.name}: located a zero with nontrivial normal component at {np.round(where, 6)}"
        )


def blocks_from_matrix(S: np.ndarray, layout: Layout) -> EquivariantSymOp:
    """Extract the isotypic blocks of a symmetric equivariant matrix.

    Mode-k entry (a, b) is the complex-linear part of the 2x2 sub-block of
    planes a and b of ``layout.planes[k]``, so finite-difference noise in
    the anti-equivariant directions is averaged away.
    """
    t = np.asarray(layout.trivial, dtype=int)
    trivial = S[np.ix_(t, t)]
    trivial = 0.5 * (trivial + trivial.T)
    blocks = {}
    for k, b in layout.planes.items():
        r = b[:, None]
        blk = np.empty((len(b), len(b)), dtype=complex)
        blk.real = 0.5 * (S[r, b] + S[r + 1, b + 1])
        blk.imag = 0.5 * (S[r + 1, b] - S[r, b + 1])
        blocks[k] = 0.5 * (blk + blk.conj().T)
    return EquivariantSymOp(layout.rep(), trivial, blocks)


def _hessian_op(J: np.ndarray, layout: Layout) -> EquivariantSymOp:
    return blocks_from_matrix(0.5 * (J + J.T), layout)


def _unique_zero(fld: GradientField, bsamples: np.ndarray, bvalues: np.ndarray, floor: float) -> bool:
    """Whether a field declared affine has a nonsingular Jacobian J, hence one
    zero x*, fixed since every g x* is a zero too.  The declaration is checked
    on the boundary samples: f(x) - f(0) - Jx must stay at rounding level."""
    origin = np.zeros((1, fld.layout.size))
    J = _full_jacobians(fld, origin)[0]
    try:
        linear_degree(_hessian_op(J, fld.layout), singular_floor=floor)
    except NearSingular:
        return False
    if len(bsamples):
        defects = bvalues - fld.evaluate(origin) - bsamples @ J.T
        check_declared(AffinityFailure, f"{fld.name}: declared affine, but |f(x) - f(0) - J x|", defects, bvalues)
    return True


# ---------------------------------------------------------------------------
# Degree of a gradient field


def grad_degree(fld: GradientField, *, seed: int = 0, return_zeros: bool = False):
    """Equivariant gradient degree over the field's domain.

    All zeros must be nondegenerate and lie in the fixed-point space; the
    result is the sum of linear degrees of the Hessians there.  An affine
    field with nonsingular Jacobian is solved from the origin alone, with no
    probe and no dimension limit.  Raises EquivarianceFailure when the field
    breaks the circle action's contract, AffinityFailure when a field
    declared affine is not, NonFiniteField when it is not finite at a
    boundary sample, an equivariance sample or a Newton seed,
    BoundaryZero when the sampled boundary margin collapses,
    DegenerateZero for near-singular Hessians, NotAGradient when J at a
    zero departs from its symmetric equivariant part, which the Hessian's
    degree reads, by more than GRADIENT_RATIO |J|, UnresolvedZeroCluster
    when Newton steps from the zeros do not settle, or two zeros that they
    bring to one point classify differently, and
    ZeroOutsideFixedSpace when a probe finds a zero orbit off the fixed
    space.

    The boundary checks run on BOUNDARY_PER_DIM seeded samples per
    dimension and the field's values there; past the boundary-zero check,
    all else runs on the field divided by the largest |f| among them, which
    has the field's zeros and degree (``search_zeros``, ``classify_zeros``).
    """
    if not fld.domain.dim:  # the origin, when the domain holds it, is the one zero
        zeros = np.zeros((1, 0))[fld.domain.contains(np.zeros((1, 0)))]
        total = basis_element(CIRCLE, FULL) if len(zeros) else ring_zero(CIRCLE)
        return (total, zeros) if return_zeros else total
    zeros, degrees = classify_zeros(*search_zeros(fld, seed=seed))
    total = sum(degrees, ring_zero(CIRCLE))
    return (total, zeros) if return_zeros else total


def search_zeros(fld, *, seed=0, boundary=None, off_space_proved=False, fixed_zeros=None, on_boundary_ok=False):
    """grad_degree up to its Hessians, on a domain of dimension >= 1: the field
    over its boundary scale, its zeros, its values there on the fixed
    coordinates and the singular floor, for ``classify_zeros`` to read.

    ``boundary``, the (samples, values) of a pass already made on this
    field, such as a Galerkin level's margin pass, stands in for the
    field's own pass, with as many samples as it holds.
    ``off_space_proved``, set where a derivative bound proves that no zero
    lies off the fixed space, skips the probes for one.  ``fixed_zeros``,
    the zeros of a lower level with this fixed space, stand in for the
    search; each must be a zero here (StabilizationFailure).
    ``on_boundary_ok``, set for the blocks of a split W, accepts boundary
    samples on zeros, which the open domain leaves out and no tuple of the
    region holds, as long as one sample gives the scale."""
    rng = np.random.default_rng(seed)
    message = f"{fld.name}: field not finite on the boundary"
    if boundary is None:
        bsamples = fld.domain.boundary_samples(BOUNDARY_PER_DIM * max(fld.domain.dim, 1), rng)
        bvalues = finite_values(fld.evaluate, bsamples, message)
    else:
        bsamples, bvalues = boundary
    # finite values can still overflow their norms
    bvals = finite_values(lambda V: np.linalg.norm(V, axis=1), bvalues, message)
    if bvals.min() <= BOUNDARY_MARGIN and not (on_boundary_ok and bvals.max() > BOUNDARY_MARGIN):
        raise BoundaryZero(f"{fld.name}: sampled |f| = {bvals.min():.3e} <= {BOUNDARY_MARGIN:g} on the boundary")
    # f / size has f's zeros and degree, and the boundary size 1 that every
    # tolerance below reads
    size = float(bvals.max())
    jacobian = None if fld.jacobian is None else lambda X, idx, J=fld.jacobian: J(X, idx) / size
    fld = replace(fld, value=lambda X, f=fld.value: np.asarray(f(X), dtype=float) / size, jacobian=jacobian)
    if fld.layout.pairs:
        _spot_check_equivariance(fld, rng)

    # a Hessian eigenvalue far below the field's derivative scale, 1 / domain
    # scale, marks a degenerate zero whose sign rounding (or, without an
    # exact Jacobian, finite-difference error) could flip
    floor = SINGULAR_RATIO / fld.domain.scale
    unique = fld.affine and _unique_zero(fld, bsamples, bvalues / size, floor)
    if fixed_zeros is None:
        zeros, values = _located_fixed_zeros(fld, unique=unique)
    else:
        zeros = fixed_zeros
        values = fld.evaluate(zeros) if len(zeros) else np.zeros_like(zeros)
        if not np.linalg.norm(values, axis=1).max(initial=0.0) <= RESIDUAL_RATIO:
            raise StabilizationFailure(f"{fld.name}: a fixed-space zero of a lower level is not a zero here")
        values = values[:, np.asarray(fld.layout.trivial, dtype=int)]
    if fld.layout.pairs and not unique and not off_space_proved:
        _scan_off_space_zeros(fld, rng)
    return fld, zeros, values, floor


def classify_zeros(fld: GradientField, zeros: np.ndarray, values: np.ndarray, floor: float) -> tuple[np.ndarray, list]:
    """The zeros of a ``search_zeros`` that stand for all and their degrees."""
    fixed = np.asarray(fld.layout.trivial, dtype=int)
    jacobians = _full_jacobians(fld, zeros) if len(zeros) else ()
    degrees = []
    for z, J in zip(zeros, jacobians):
        hessian = _hessian_op(J, fld.layout)
        # |J - H|, H the matrix of hessian: H is J's orthogonal projection, so |J|^2 - |H|^2
        held = np.sum(hessian.trivial_block**2) + 2 * sum(np.sum(np.abs(b) ** 2) for b in hessian.mode_blocks.values())
        drop = np.sqrt(max(np.sum(J**2) - held, 0.0))
        if not drop <= GRADIENT_RATIO * np.linalg.norm(J):
            what = f"J less its symmetric equivariant part reaches {drop / np.linalg.norm(J):.2e} |J|"
            raise NotAGradient(f"{fld.name}: zero at {np.round(z, 8)}: {what}, past GRADIENT_RATIO = {GRADIENT_RATIO:g}")
        try:
            degrees.append(linear_degree(hessian, singular_floor=floor))
        except NearSingular as exc:
            raise DegenerateZero(f"{fld.name}: zero at {np.round(z, 8)}: {exc}") from exc
    if len(zeros) > 1:
        corrected = zeros.copy()
        J = jacobians[:, fixed[:, None], fixed]
        corrected[:, fixed] = _polished(fixed_space_field(fld), zeros[:, fixed], J, values)
        kept = _merged_copies(zeros, corrected, degrees, fld.name, MERGE_TOL * fld.domain.scale)
        zeros, degrees = zeros[kept], [degrees[i] for i in kept]
    return zeros, degrees


# ---------------------------------------------------------------------------
# Independent Brouwer oracle


def _oracle_newton(func, seeds: np.ndarray, *, scale: float) -> np.ndarray:
    X = np.array(seeds, dtype=float)
    alive = np.ones(len(X), dtype=bool)
    d = X.shape[1]
    converged = np.zeros(len(X), dtype=bool)
    for _ in range(60):
        run = np.where(alive & ~converged)[0]
        if not len(run):
            break
        F = func(X[run])
        fn = np.linalg.norm(F, axis=1)
        hit = fn <= 1e-11
        converged[run[hit]] = True
        run = run[~hit]
        if not len(run):
            break
        J = _oracle_jacobian(func, X[run])
        dets = np.abs(np.linalg.det(J))
        sing = dets < 1e-300
        alive[run[sing]] = False
        run = run[~sing]
        if not len(run):
            break
        step = np.linalg.solve(J[~sing], func(X[run])[..., None])[..., 0]
        X[run] -= step
        far = np.max(np.abs(X[run]), axis=1) > 50.0 * (scale + 1.0)
        alive[run[far]] = False
    return X[converged]


def _oracle_jacobian(func, X: np.ndarray) -> np.ndarray:
    m, d = X.shape
    h = 1e-6 * (1.0 + np.max(np.abs(X), axis=1))
    J = np.empty((m, d, d))
    for c in range(d):
        Xp = X.copy()
        Xp[:, c] += h
        Xm = X.copy()
        Xm[:, c] -= h
        J[:, :, c] = (func(Xp) - func(Xm)) / (2 * h)[:, None]
    return J


def brouwer_oracle(target, domain=None, *, seed: int = 0) -> int:
    """Brouwer degree by exhaustive zero location and Jacobian signs.

    ``target`` is either a GradientField, whose fixed_space_field supplies
    the map and the domain, or a plain callable on (m, d) batches with
    ``domain`` supplied.  The fixed space must have dimension at most 4.
    This routine shares no degree logic with grad_degree: signs come from
    determinants of finite-difference Jacobians at enumerated zeros.
    """
    func = target
    if isinstance(target, GradientField):
        sub = fixed_space_field(target)
        func, domain = sub.evaluate, sub.domain
    elif domain is None:
        raise ValueError("domain required for a bare callable")
    d = domain.dim
    if d > 4:
        raise ValueError(f"oracle supports fixed-space dimension <= 4, got {d}")
    if d == 0:
        return 1

    rng = np.random.default_rng(seed)
    bsamples = domain.boundary_samples(128 * d, rng)
    bvals = np.linalg.norm(func(bsamples), axis=1)
    if bvals.min() <= 1e-8:
        raise BoundaryZero(f"oracle: |f| = {bvals.min():.3e} on a boundary sample")

    scale = domain.scale
    det_scale = (float(bvals.max()) / max(scale, 1e-300)) ** d
    for attempt in range(3):
        fraction = 0.1 / (2**attempt)
        seeds = domain.seed_points(fraction)
        pts = _oracle_newton(func, seeds, scale=scale)
        pts = _dedupe(pts[domain.contains(pts)])
        if not len(pts):
            return 0
        J = _oracle_jacobian(func, pts)
        dets = np.linalg.det(J)
        floor = 1e-8 * max(np.max(np.abs(dets)), det_scale)
        if np.min(np.abs(dets)) > floor:
            return int(np.sum(np.sign(dets)).round())
    raise UnresolvedZeroCluster(
        "oracle: Jacobian signs could not be resolved after grid refinement"
    )


# ---------------------------------------------------------------------------
# Products and orbit normal forms


def block_diagonal_jacobian(X: np.ndarray, idx, blocks) -> np.ndarray:
    """The idx x idx Jacobian of a product map at the (m, dim) batch X.

    ``blocks`` holds one (jacobian, coords) pair per factor: its ascending
    coordinates in X, and its Jacobian, which is called on X[:, coords]
    with the factor's own indices of the entries of idx it holds.
    """
    X = np.atleast_2d(X)
    idx = np.asarray(idx, dtype=int)
    J = np.zeros((len(X), len(idx), len(idx)))
    for jacobian, coords in blocks:
        rows = np.flatnonzero(np.isin(idx, coords))
        J[:, rows[:, None], rows] = jacobian(X[:, coords], np.searchsorted(coords, idx[rows]))
    return J


def product_field(f: GradientField, g: GradientField) -> GradientField:
    """The product field (x, y) -> (f(x), g(y)) on the concatenated layout,
    with a block-diagonal Jacobian when both factors have one; it is affine
    when both factors are."""
    da, db = f.rep.dim, g.rep.dim

    def value(X):
        X = np.atleast_2d(X)
        return np.concatenate([f.evaluate(X[:, :da]), g.evaluate(X[:, da:])], axis=1)

    jacobian = None
    if f.jacobian is not None and g.jacobian is not None:
        blocks = ((f.jacobian, np.arange(da)), (g.jacobian, np.arange(da, da + db)))
        jacobian = lambda X, idx: block_diagonal_jacobian(X, idx, blocks)
    return GradientField(
        rep=f.rep + g.rep,
        value=value,
        domain=ProductDomain(range(da), f.domain, range(da, da + db), g.domain),
        layout=concat_layouts([f.layout, g.layout]),
        name=f"{f.name} x {g.name}",
        jacobian=jacobian,
        affine=f.affine and g.affine,
    )


def product_degree(f: GradientField, g: GradientField, **kwargs) -> RingElement:
    """Degree of the product field on the direct-sum representation."""
    return grad_degree(product_field(f, g), **kwargs)


@dataclass(frozen=True)
class OrbitNormalForm:
    """A nondegenerate orbit of zeros with prescribed isotropy.

    The ambient representation must realize the isotropy: a point with
    stabilizer Z_k lives on a mode-k rotation plane, while a fully
    symmetric point lies in the trivial part (or is the origin).
    """

    isotropy: SubgroupClass
    ambient: Rep
    orbit_radius: float = 1.0
    slice_radius: float = 0.5

    def __post_init__(self):
        if self.isotropy.kind == "divisor":
            raise ValueError("orbit normal forms are defined for circle-group actions")
        if self.isotropy.kind == "finite" and self.ambient.mode_mult(self.isotropy.index) < 1:
            raise ValueError(
                f"ambient representation has no mode-{self.isotropy.index} plane"
            )
        if self.isotropy.kind == "full" and self.ambient.trivial < 1:
            raise ValueError("a fully symmetric orbit needs a nonzero trivial part")


def orbit_normal_form_degree(o: OrbitNormalForm) -> RingElement:
    """Degree contributed by the normal-form orbit: the class [G/G_x0].

    This is the general normalization rule, adopted as stated rather than
    re-derived here.  The degree pipeline never calls it (grad_degree
    rejects zeros off the fixed space instead), so no computed degree
    depends on it.
    """
    return basis_element(CIRCLE, o.isotropy)


def orbit_normal_form_field(o: OrbitNormalForm) -> GradientField:
    """A gradient field whose zero set inside its domain is one orbit.

    For finite isotropy the domain is an invariant annulus around the
    orbit (the origin, which equivariance forces to be a zero of any field
    on a rotation plane, is excluded).  grad_degree deliberately rejects
    these fields; orbit_normal_form_degree supplies their value.
    """
    rep = o.ambient
    lay = canonical_layout(rep)
    r2 = o.orbit_radius**2
    if o.isotropy.kind == "full":
        x0 = np.zeros(rep.dim)
        x0[lay.trivial[0]] = o.orbit_radius

        def value(X):
            return np.atleast_2d(X) - x0

        domain = Ball(x0, o.slice_radius)
        return GradientField(
            rep, value, domain, layout=lay, name="normal form (fixed orbit)",
            jacobian=lambda X, idx: np.broadcast_to(np.eye(len(idx)), (len(X), len(idx), len(idx))),
            affine=True,
        )

    k = o.isotropy.index
    base = int(lay.planes[k][0])
    plane = [base, base + 1]

    def value(X):
        X = np.atleast_2d(X)
        out = X.copy()
        w2 = np.sum(X[:, plane] ** 2, axis=1)
        out[:, plane] = (w2 - r2)[:, None] * X[:, plane]
        return out

    center = np.zeros(rep.dim)
    domain = ShellDomain(
        center, max(o.orbit_radius - o.slice_radius, o.orbit_radius * 0.25),
        o.orbit_radius + o.slice_radius
    )
    return GradientField(rep, value, domain, layout=lay, name=f"normal form (isotropy Z{k})")
