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
its exact Jacobian or else central differences.
Equivariance is spot-checked, and zeros off the fixed-point space are
rejected, since slice linearization around free orbits is out of scope:
a Galerkin level whose map declares a derivative bound L below the least
|eigenvalue| of A on its rotation planes excludes them by proof (see
``galerkin``), and every other field is searched for them by randomized
full-space probes.  A field declared affine with a
nonsingular Jacobian has one zero, in the fixed space, which Newton finds
from the origin with no seed grid or probe (AffinityFailure if it is not).

An independent Brouwer-degree oracle (zero enumeration plus the sign of
the finite-difference Jacobian determinant) on the same fixed_space_field
provides the verification channel for the fixed-space coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    StabilizationFailure,
    UnresolvedZeroCluster,
    ZeroOutsideFixedSpace,
)
from .euler_ring import CIRCLE, FULL, RingElement, SubgroupClass, basis_element, zero as ring_zero
from .reps import EquivariantSymOp, Layout, Rep, canonical_layout, concat_layouts

SEED_FRACTION = 0.125          # Newton seed grid spacing, as a fraction of the radius
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10
MERGE_TOL = 1e-7
SINGULAR_LOG_RATIO = np.log(1e-12)  # Newton solves below this |det J| / Hadamard bound use pinv
BOUNDARY_PER_DIM = 64
EQUIV_TOL = 1e-8
BOUNDARY_MARGIN = 1e-8         # sampled boundary |f| at or below this is a boundary zero
SINGULAR_RATIO = 1e-9  # share of the field's scale: singular floor, affinity bound


@dataclass
class GradientField:
    """An equivariant gradient field on an invariant domain.

    ``value`` maps an (m, dim) batch of coordinate vectors to the (m, dim)
    batch of gradient vectors.  ``layout`` describes how coordinates carry
    the circle action and defaults to the canonical layout of ``rep``.
    ``jacobian(X, idx)``, when given, returns the exact derivative of
    ``value`` at an (m, dim) batch X, restricted to the rows and columns
    idx, as an (m, |idx|, |idx|) array; Newton steps and the Hessians at
    zeros then use it.  A field without one falls back to central
    differences.  ``affine`` declares that ``value`` is x -> f(0) + Jx, which
    grad_degree checks (AffinityFailure) and uses to solve from one start.
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


def _fd_jacobian(fld: GradientField, X: np.ndarray, idx, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian at an (m, dim) batch X, restricted to
    idx x idx, from one evaluation of all the points shifted up and one of
    all those shifted down; the step at a point x is step * (1 + max|x|)."""
    idx = np.asarray(idx, dtype=int)
    k = len(idx)
    h = step * (1.0 + np.max(np.abs(X), axis=1))
    Xp = np.repeat(X[None], k, axis=0)  # (k, m, dim): block j shifts coordinate idx[j]
    Xm = Xp.copy()
    Xp[np.arange(k), :, idx] += h
    Xm[np.arange(k), :, idx] -= h
    Fp = fld.evaluate(Xp.reshape(-1, X.shape[1]))[:, idx].reshape(k, len(X), k)
    Fm = fld.evaluate(Xm.reshape(-1, X.shape[1]))[:, idx].reshape(k, len(X), k)
    return ((Fp - Fm) / (2 * h)[:, None]).transpose(1, 2, 0)


def _full_jacobians(fld: GradientField, X: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """The (m, dim, dim) Jacobians at an (m, dim) batch, from one call."""
    idx = list(range(X.shape[1]))
    return fld.jacobian(X, idx) if fld.jacobian is not None else _fd_jacobian(fld, X, idx, step)


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
    fld: GradientField,
    seeds: np.ndarray,
    *,
    max_iter: int = NEWTON_MAX_ITER,
    scale: float = 1.0,
) -> np.ndarray:
    """Damped Newton on all coordinates of fld; returns converged points.
    Each point is evaluated once: the seeds up front (NonFiniteField if one
    is not finite), every later point in the line search that accepts it."""
    X = np.array(np.atleast_2d(seeds), dtype=float)
    # a copy, since it is updated in place and a field's value may return its input
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
        J = _full_jacobians(fld, Xa, step=1e-6)
        steps = _solve_steps(J, F)
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


def _dedupe(points: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """Greedy merge in lexicographic order: keep the first remaining point,
    drop every point within tol of it, repeat."""
    if not len(points):
        return points
    rest = points[np.lexsort(points.T[::-1])]
    kept: list[np.ndarray] = []
    while len(rest):
        kept.append(rest[0])
        rest = rest[np.linalg.norm(rest - rest[0], axis=1) > tol]
    return np.array(kept)


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
        if err > EQUIV_TOL:
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


def _located_fixed_zeros(fld: GradientField, *, probe_scale: float, unique: bool) -> np.ndarray:
    """Newton on fixed_space_field(fld) from its domain's seeds (the origin
    alone when ``unique``); fld's normal part, where it has rotation planes,
    must vanish at each zero."""
    sub = fixed_space_field(fld)
    seeds = np.zeros((1, sub.domain.dim)) if unique else sub.domain.seed_points(SEED_FRACTION)
    fixed = np.asarray(fld.layout.trivial, dtype=int)
    pts = _embed(fld.layout.size, fixed, _newton_batch(sub, seeds, scale=probe_scale))
    pts = _dedupe(pts[fld.domain.contains(pts)])
    if len(pts) and fld.layout.pairs:
        normals = fld.evaluate(pts)[:, fld.layout.normal_indices()]
        resid = np.max(np.linalg.norm(normals, axis=1))
        if resid > 1e-8 * (1.0 + probe_scale):
            raise EquivarianceFailure(
                f"{fld.name}: field does not map the fixed space to itself "
                f"(normal residual {resid:.2e})"
            )
    return pts


def _scan_off_space_zeros(fld: GradientField, rng: np.random.Generator, *, probe_scale: float):
    count = 16 + 8 * min(fld.layout.size, 16)
    probes = fld.domain.interior_samples(count, rng)
    pts = _newton_batch(fld, probes, scale=probe_scale, max_iter=30)
    pts = pts[fld.domain.contains(pts)]
    normal_idx = fld.layout.normal_indices()
    norms = np.linalg.norm(pts[:, normal_idx], axis=1)
    off = norms > 1e-6 * (1.0 + np.max(np.abs(pts), axis=1))
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


def grad_degree(
    fld: GradientField,
    *,
    seed: int = 0,
    return_zeros: bool = False,
    _boundary: Optional[tuple[np.ndarray, np.ndarray]] = None,
    _off_space_proved: bool = False,
    _fixed_zeros: Optional[np.ndarray] = None,
):
    """Equivariant gradient degree over the field's domain.

    All zeros must be nondegenerate and lie in the fixed-point space; the
    result is the sum of linear degrees of the Hessians there.  An affine
    field with nonsingular Jacobian is solved from the origin alone, with no
    probe and no dimension limit.  Raises EquivarianceFailure when the field
    breaks the circle action's contract, AffinityFailure when a field
    declared affine is not, NonFiniteField when it is not finite at a
    boundary sample, an equivariance sample or a Newton seed,
    BoundaryZero when the sampled boundary margin collapses,
    DegenerateZero for near-singular Hessians, and ZeroOutsideFixedSpace
    when a probe finds a zero orbit off the fixed space.

    The boundary checks run on BOUNDARY_PER_DIM seeded samples per
    dimension and the field's values there.  ``_boundary`` is internal: the
    Galerkin level step passes the (samples, values) of the pass its margin
    certificate made on this field, in place of a second pass, with as
    many samples as its budget set.  ``_off_space_proved`` is internal
    too: the level step sets it where its map's derivative bound proves
    that no zero lies off the fixed space, and the probes for one are
    skipped.  So is ``_fixed_zeros``: the level step's zeros of a lower
    level with this fixed space, in place of a search; each must be a
    zero here (StabilizationFailure).
    """
    if not fld.domain.dim:  # the origin, when the domain holds it, is the one zero
        zeros = np.zeros((1, 0))[fld.domain.contains(np.zeros((1, 0)))]
        total = basis_element(CIRCLE, FULL) if len(zeros) else ring_zero(CIRCLE)
        return (total, zeros) if return_zeros else total
    rng = np.random.default_rng(seed)
    scale = fld.domain.scale
    if fld.layout.pairs:
        _spot_check_equivariance(fld, rng)

    message = f"{fld.name}: field not finite on the boundary"
    if _boundary is None:
        bsamples = fld.domain.boundary_samples(BOUNDARY_PER_DIM * max(fld.domain.dim, 1), rng)
        bvalues = np.zeros_like(bsamples)
        if len(bsamples):
            bvalues = finite_values(fld.evaluate, bsamples, message)
    else:
        bsamples, bvalues = _boundary
    derivative_scale = 0.0
    if len(bsamples):
        # finite values can still overflow their norms
        bvals = finite_values(lambda V: np.linalg.norm(V, axis=1), bvalues, message)
        if bvals.min() <= BOUNDARY_MARGIN:
            raise BoundaryZero(
                f"{fld.name}: sampled |f| = {bvals.min():.3e} <= {BOUNDARY_MARGIN:g} on the boundary"
            )
        derivative_scale = float(bvals.max()) / max(scale, 1e-300)

    # a Hessian eigenvalue far below the field's own derivative scale marks
    # a degenerate zero whose sign rounding (or, without an exact Jacobian,
    # finite-difference error) could flip
    floor = SINGULAR_RATIO * derivative_scale
    unique = fld.affine and _unique_zero(fld, bsamples, bvalues, floor)
    if _fixed_zeros is None:
        zeros = _located_fixed_zeros(fld, probe_scale=scale, unique=unique)
    else:
        zeros = _fixed_zeros
        resid = np.linalg.norm(fld.evaluate(zeros), axis=1).max() if len(zeros) else 0.0
        if not resid <= 1e-8 * (1.0 + scale):
            raise StabilizationFailure(f"{fld.name}: a fixed-space zero of a lower level is not a zero here")
    if fld.layout.pairs and not unique and not _off_space_proved:
        _scan_off_space_zeros(fld, rng, probe_scale=scale)

    total = ring_zero(CIRCLE)
    for z, J in zip(zeros, _full_jacobians(fld, zeros) if len(zeros) else ()):
        try:
            total = total + linear_degree(_hessian_op(J, fld.layout), singular_floor=floor)
        except NearSingular as exc:
            raise DegenerateZero(f"{fld.name}: zero at {np.round(z, 8)}: {exc}") from exc
    if return_zeros:
        return total, zeros
    return total


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
