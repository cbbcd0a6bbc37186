"""Periodic-orbit existence certificates for autonomous Hamiltonian systems.

On the loop space L^2(S^1, R^{2n}) the operator Az = -J dz/dt (J the
standard symplectic matrix) is equivariant for the time-shift circle
action and has spectrum Z: the kernel consists of constant loops and the
eigenvalues +-k pair the mode-k Fourier coefficients.  One orthogonal Q
(``_mode_transform``) takes a mode's eigencoordinates to them, and one
product with Q or Q^T converts every mode of a batch.  A 2*pi*lambda
periodic solution of dz/dt = J grad H(z) corresponds to a zero of
f(z) = Az - lambda * grad H(z), so a nonzero stabilized degree of f on an
invariant ball certifies existence.

Hamiltonians are polynomials.  The local map keeps the Galerkin projection
of the affine gradient of the terms of degree <= 2 as an exact matrix per
truncation level.  The remaining terms depend only on their active
variables; their gradient is evaluated pointwise on a uniform time grid
over those variables and projected back by quadrature on the same grid,
both through the active rows of one synthesis matrix per level.  Each
level has one grid, of M = 2 max(deg(H) - 1, 1) N + 1 points for N
retained modes (``default_quadrature_size``), and everything the level
computes is exact (no aliasing) on it.  The projections of grad R (the
values) and of lambda * hess R along the loop (with the affine matrix, the
exact Jacobian) reach frequency deg(H) N, and the affine matrix 2N.  The
projection tail |(I - P_N) F| is exact too: the affine part keeps V_N, and
|grad R|^2 along a loop of V_N reaches 2(deg(H) - 1)N, the largest of these.
``hamiltonian_gradient`` is the local map's nonlinearity at lambda = 1,
read on a single loop.

The grid work of a batch of loops runs over consecutive row blocks
(``_row_blocks``): each block holds as many loops as keep its largest grid
array under ``_BLOCK_BYTES``, so a boundary pass of 64 dim V_N loops never
holds all of their grids at once.  Each loop's values are computed from
that loop alone, so blocks cannot change an answer: at most the last bits
of a row move, where a matrix product rounds a block of another height
differently.  A batch that fits one block is computed as a single call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .errors import BoundaryZero, DegreeError, NearSingular, NoncompactZeroSet
from .euler_ring import CIRCLE, FULL, RingElement, SubgroupClass, unit
from .galerkin import DegreeResult, LocalMapSpec, RegionSpec, deg_infinite
from .polynomials import Polynomial
from .reps import Rep, ShellBasis, SpectralOperator, _json_count, _json_number


@dataclass(frozen=True)
class HamiltonianSpec:
    """A polynomial Hamiltonian on R^{2 dof} with a period parameter lambda > 0;
    a BadNumber names dof unless an integer >= 1, lambda unless finite > 0."""

    dof: int
    potential: Polynomial
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "dof", _json_count(self.dof, "dof", 1))
        object.__setattr__(self, "lam", _json_number(self.lam, "lambda", positive=True))
        if self.potential.nvars != 2 * self.dof:
            raise ValueError(
                f"Hamiltonian must use {2 * self.dof} variables, got {self.potential.nvars}"
            )

    @classmethod
    def from_terms(cls, dof: int, terms, lam: float) -> "HamiltonianSpec":
        dof = _json_count(dof, "dof", 1)
        return cls(dof, Polynomial.from_terms(2 * dof, terms), lam)


def symplectic_matrix(dof: int) -> np.ndarray:
    n = dof
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def loop_operator(dof: int) -> SpectralOperator:
    """-J d/dt on loops in R^{2 dof}: kernel = constants, eigenvalues +-k.

    Each eigenvalue +-k carries a mode-k eigenspace of complex multiplicity
    dof (real dimension 2*dof), so shell k is 4*dof dimensional.
    """
    dof = _json_count(dof, "dof", 1)

    def shells(n: int):
        if n == 0:
            return [(0.0, Rep(2 * dof))]
        return [
            (-float(n), Rep(0, ((n, dof),))),
            (float(n), Rep(0, ((n, dof),))),
        ]

    return SpectralOperator(shells, max_level=None, label=f"loop(dof={dof})")


@lru_cache(maxsize=None)
def _mode_transform(dof: int) -> np.ndarray:
    """Orthogonal map Q, read-only, from shell-k eigencoordinates to the Fourier
    coordinates (a, b) of cos(kt) a + sin(kt) b, the same for every k.  With
    e_j (j < dof) the first unit vectors of R^{2 dof}, columns 2j, 2j + 1 are
    the -k eigenvectors ((Je_j, e_j), (e_j, -Je_j)) / sqrt(2), then columns
    2 dof + 2j, 2 dof + 2j + 1 the +k ones ((e_j, Je_j), (Je_j, -e_j)) / sqrt(2):
    the time shift by theta rotates each such pair by +k*theta."""
    E = np.eye(2 * dof)[:, :dof]
    JE = symplectic_matrix(dof) @ E
    first = np.block([[JE, E], [E, JE]])  # first column of each pair: -k pairs, then +k
    second = np.block([[E, JE], [-JE, -E]])
    Q = np.stack([first, second], axis=-1).reshape(4 * dof, 4 * dof) / math.sqrt(2.0)
    Q.setflags(write=False)
    return Q


@dataclass
class LoopState:
    """A truncated loop: constant term and per-mode cosine/sine coefficients."""

    dof: int
    constant: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    def __post_init__(self):
        n2 = 2 * self.dof
        self.constant = np.asarray(self.constant, dtype=float).reshape(n2)
        self.cos = np.asarray(self.cos, dtype=float).reshape(-1, n2)
        self.sin = np.asarray(self.sin, dtype=float).reshape(-1, n2)
        if self.cos.shape != self.sin.shape:
            raise ValueError("cosine and sine coefficient arrays must match")

    @classmethod
    def constant_loop(cls, dof: int, value) -> "LoopState":
        return cls(dof, np.asarray(value, dtype=float), np.zeros((0, 2 * dof)), np.zeros((0, 2 * dof)))

    @property
    def modes(self) -> int:
        return self.cos.shape[0]

    def l2_norm(self) -> float:
        return math.sqrt(
            2 * math.pi * float(self.constant @ self.constant)
            + math.pi * float(np.sum(self.cos**2) + np.sum(self.sin**2))
        )

    def graph_norm(self) -> float:
        """Norm of the inner product (u|v) = int uv + int u'v' (H^1)."""
        k2 = (np.arange(1, self.modes + 1) ** 2)[:, None]
        deriv = math.pi * float(np.sum(k2 * (self.cos**2 + self.sin**2)))
        return math.sqrt(self.l2_norm() ** 2 + deriv)

    def shift_time(self, theta: float) -> "LoopState":
        ks = np.arange(1, self.modes + 1)
        c = np.cos(ks * theta)[:, None]
        s = np.sin(ks * theta)[:, None]
        return LoopState(
            self.dof,
            self.constant.copy(),
            c * self.cos + s * self.sin,
            -s * self.cos + c * self.sin,
        )

    def values_on_grid(self, size: int) -> np.ndarray:
        """Evaluate the loop on a uniform grid of the given size."""
        return _grid_values(self.constant, self.cos, self.sin, size)


def _grid_values(c0: np.ndarray, C: np.ndarray, S: np.ndarray, size: int) -> np.ndarray:
    """Loops with constant terms c0 (..., 2dof) and mode coefficients C, S
    (..., modes, 2dof), evaluated on a uniform grid: shape (..., size, 2dof)."""
    t = 2.0 * math.pi * np.arange(size) / size
    ks = np.arange(1, C.shape[-2] + 1)
    cosmat = np.cos(np.outer(t, ks))
    sinmat = np.sin(np.outer(t, ks))
    return c0[..., None, :] + cosmat @ C + sinmat @ S


def _fourier_batches(X: np.ndarray, dof: int, level: int):
    """Split (m, dim V_level) eigencoordinates into classical Fourier data:
    constant terms (m, 2dof) and mode coefficients C, S (m, level, 2dof)."""
    n2 = 2 * dof
    ab = (X[:, n2:].reshape(len(X), level, 2 * n2) @ _mode_transform(dof).T) / math.sqrt(math.pi)
    return X[:, :n2] / math.sqrt(2.0 * math.pi), ab[..., :n2], ab[..., n2:]


def _coords_batches(c0: np.ndarray, C: np.ndarray, S: np.ndarray, dof: int) -> np.ndarray:
    """The eigencoordinates of Fourier data, inverse to ``_fourier_batches``."""
    ab = (math.sqrt(math.pi) * np.concatenate([C, S], axis=2)) @ _mode_transform(dof)
    return np.concatenate([c0 * math.sqrt(2.0 * math.pi), ab.reshape(len(C), -1)], axis=1)


def _check_fit(count: int, dof: int, basis: ShellBasis):
    """A ValueError unless count = basis.dim = 2 dof (2 level + 1)."""
    dim = 2 * dof * (2 * basis.level + 1)
    if not count == dim == basis.dim:
        raise ValueError(
            f"{count} coordinates of dof-{dof} loops (dimension {dim} at level {basis.level}) "
            f"do not fit a basis of dimension {basis.dim}"
        )


def state_to_coords(state: LoopState, basis: ShellBasis) -> np.ndarray:
    """Eigencoordinates of a loop state in a loop-operator shell basis."""
    level = basis.level
    _check_fit(2 * state.dof * (2 * level + 1), state.dof, basis)
    if np.any(state.cos[level:]) or np.any(state.sin[level:]):
        raise ValueError(f"state has active modes beyond truncation level {level}")
    pad = ((0, max(level - state.modes, 0)), (0, 0))
    C, S = (np.pad(a[:level], pad)[None] for a in (state.cos, state.sin))
    return _coords_batches(state.constant[None, :], C, S, state.dof)[0]


def coords_to_state(coords: np.ndarray, basis: ShellBasis, dof: int) -> LoopState:
    _check_fit(np.size(coords), dof, basis)
    c0, C, S = _fourier_batches(np.reshape(coords, (1, -1)), dof, basis.level)
    return LoopState(dof, c0[0], C[0], S[0])


# sup_t |v(t)| per unit of graph norm of a loop v: sqrt(coth(pi) / 2)
_SUP_PER_GRAPH = math.sqrt(0.5 / math.tanh(math.pi))
_OUTWARD = 1.0 + 1e-12  # rounds a derivative bound up past its rounding error


def _loop_sup_bound(region: RegionSpec) -> float:
    """rho: a bound of sup_t |u(t)| over the loops u of the region's balls,
    each centered at a constant loop c, |c| / sqrt(2 pi) + r sqrt(coth(pi) / 2)
    for a ball of radius r (the ``galerkin`` module docstring)."""
    return max(
        math.hypot(*b.center) / math.sqrt(2.0 * math.pi) + b.radius * _SUP_PER_GRAPH
        for b in region.balls
    )


def default_quadrature_size(poly_degree: int, modes: int) -> int:
    """M = 2 max(p - 1, 1) max(modes, 1) + 1 for H of degree p = poly_degree:
    the fewest points of a uniform grid that integrates exactly every
    product a level of the local map forms on loops of the given modes.
    A grid of M points sums a trigonometric polynomial of frequencies below
    M exactly.  The projection of grad H(u) and of hess H(u) onto the modes
    reaches frequency p modes, the affine Galerkin matrix 2 modes, and
    |grad H(u)|^2 of the tail 2(p - 1) modes, the largest of the three."""
    return 2 * max(poly_degree - 1, 1) * max(modes, 1) + 1


def _synthesis_matrix(dof: int, level: int, size: int) -> np.ndarray:
    """Grid values of the eigencoordinate basis loops of V_level.

    Row t * 2dof + j, column i holds component j at time 2*pi*t/size of the
    loop whose eigencoordinates are the i-th unit vector.  The rows form a
    (size * 2dof, dim V_level) read-only matrix B: a batch X of
    eigencoordinates has grid values X B^T, and since the basis loops are
    orthonormal in L^2, grid values W project back to (2*pi/size) W B.
    """
    dim = 2 * dof * (2 * level + 1)
    loops = _grid_values(*_fourier_batches(np.eye(dim), dof, level), size)
    B = np.moveaxis(loops, 0, -1).reshape(size * 2 * dof, dim)
    B.setflags(write=False)
    return B


_BLOCK_BYTES = 1 << 18  # the largest grid array of one row block stays under this


def _row_blocks(kernel, X: np.ndarray, row_bytes: int) -> np.ndarray:
    """kernel(X), computed over consecutive row blocks of X.

    ``row_bytes`` is the size of the kernel's largest grid array per row;
    each block holds as many rows as keep that array under _BLOCK_BYTES
    (at least one), and its result is written into the block's output
    rows.  The kernel computes each row on its own, so the blocks give the
    rows of kernel(X) up to rounding; a batch that fits one block is
    kernel(X) itself.
    """
    size = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    if len(X) <= size:
        return kernel(X)
    out = None
    for start in range(0, len(X), size):
        part = kernel(X[start : start + size])
        if out is None:
            out = np.empty((len(X),) + part.shape[1:], dtype=part.dtype)
        out[start : start + len(part)] = part
    return out


def hamiltonian_gradient(spec: HamiltonianSpec, state: LoopState) -> LoopState:
    """Gradient of the action integrand: grad H applied along the loop,
    projected back onto the retained modes.

    This is the nonlinearity of ``local_map`` at lambda = 1 on the level of
    the loop's modes, so it is exact (up to rounding) for polynomial H.
    """
    lm = local_map(dataclasses.replace(spec, lam=1.0), radius=1.0)  # the radius only sets the region
    basis = lm.operator.basis(state.modes)
    grad = lm.nonlinearity(state_to_coords(state, basis), basis)[0]
    return coords_to_state(grad, basis, spec.dof)


def local_map(spec: HamiltonianSpec, radius: float) -> LocalMapSpec:
    """The local map f(z) = Az - lambda grad H(z) on a graph-norm ball,
    with the exact Jacobian of its nonlinearity.

    H splits into its terms of degree <= 2, whose gradient g0 + S z is
    affine, and the rest R, which depends only on the active variables of
    the terms of degree >= 3.  With the synthesis matrix B of a level, its
    rows B_a for the active components and w = lambda * 2*pi/M, the map
    keeps per level the exact Galerkin matrix L = w B^T (I_M x S) B and
    vector f0 = w (1_M x g0)^T B of the affine part, so that

        F(X) = X L + f0 + w grad R(X B_a^T) B_a,

    and the idx-block of the Jacobian is
    L[idx, idx] + w B_a[:, idx]^T hess R B_a[:, idx].  Only R is evaluated
    on the grid, of the size M of ``default_quadrature_size`` for deg H.
    With no terms of degree >= 3 the map is affine.

    The tail of F on V_n is lambda |(I - P_n) grad R(u)|, since the affine
    part maps V_n into itself; on the same grid it is
    lambda sqrt(|grad R(u)|^2 - |P_n grad R(u)|^2), both terms exact, plus
    a bound on their rounding under the square root, so that cancellation
    never makes it an underestimate.  The values, the Jacobian and the tail
    read the one synthesis matrix of a level, through its active rows B_a,
    and each map builds it and its L and f0 once (``functools.cache``).

    The nonlinearity, the Jacobian and the tail each run their grid work
    through ``_row_blocks``, over blocks of rows whose largest grid array
    stays under ``_BLOCK_BYTES``: 8 M |active| bytes per row for the values
    and the tail, 8 M |active| (|active| + |idx|) for the Jacobian, whose
    Hessians and their products with B_a[:, idx] are the largest arrays.
    Every row is computed from its own loop alone, so the blocks give the
    rows of the whole batch up to rounding; the calls and the rows that
    reach the map are the same as without blocks.

    Its ``lipschitz(region)`` bounds |DF| by lambda sup |hess H(z)| over
    |z| <= rho, rho the sup-norm bound of the region's loops (the
    ``galerkin`` module docstring): |S|_2 plus, for each term c z^e of
    degree p >= 3, |c| |hess z^e(1, .., 1)|_F rho^(p - 2), since each entry
    of hess z^e is its integer coefficient times a monomial of degree
    p - 2.  ``_OUTWARD`` covers the rounding of these few operations.
    """
    op = loop_operator(spec.dof)
    poly = spec.potential
    n2 = 2 * spec.dof
    affine = Polynomial(n2, tuple(t for t in poly.terms if sum(t[0]) <= 2))
    higher = [t for t in poly.terms if sum(t[0]) > 2]
    active = sorted({j for exps, _ in higher for j, e in enumerate(exps) if e})
    rest = Polynomial(len(active), tuple((tuple(e[j] for j in active), c) for e, c in higher))
    origin = np.zeros(n2)
    g0, S = affine.gradient(origin), affine.hessian(origin)
    # (p - 2, |c| |hess z^e(1, .., 1)|_F) of each term c z^e of degree p >= 3
    hessian_growth = [
        (sum(e) - 2, abs(c) * float(np.linalg.norm(Polynomial(n2, ((e, 1.0),)).hessian(np.ones(n2)))))
        for e, c in higher
    ]
    hessian_base = float(np.abs(np.linalg.eigvalsh(S)).max(initial=0.0))  # |S|_2, S symmetric
    na = len(active)

    @cache
    def matrices(level):
        """The level's grid size M, weight w, affine L and f0, and active rows B_a."""
        M = default_quadrature_size(poly.degree, level)
        B = _synthesis_matrix(spec.dof, level, M).reshape(M, n2, -1)
        w = spec.lam * 2.0 * math.pi / M
        L = w * B.reshape(M * n2, -1).T @ (S @ B).reshape(M * n2, -1)
        # symmetric up to rounding; made exact so that L[idx, idx] is the derivative of X L
        L = 0.5 * (L + L.T)
        return M, w, L, w * g0 @ B.sum(axis=0), B[:, active, :].reshape(M * na, B.shape[2])

    def on_grid(X, M, Ba):
        """The (m, M, |active|) grid values of the active variables of the loops X."""
        return (X @ Ba.T).reshape(len(X), M, na)

    def nonlinearity(X, basis):
        M, w, L, f0, Ba = matrices(basis.level)

        def block(X):
            return X @ L + f0 + w * rest.gradient(on_grid(X, M, Ba)).reshape(len(X), -1) @ Ba

        return _row_blocks(block, np.atleast_2d(X), 8 * M * na)

    def jacobian(X, basis, idx):
        M, w, L, f0, Ba = matrices(basis.level)
        k = len(idx)
        Bi, Li = Ba[:, idx], L[np.ix_(idx, idx)]

        def block(X):
            m = len(X)
            # Hessian of R times B_a[:, idx], laid out (grid time, component, point,
            # idx) so that one product with B_a[:, idx]^T sums over the grid
            HB = rest.hessian(on_grid(X, M, Ba)).transpose(1, 2, 0, 3) @ Bi.reshape(M, 1, na, k)
            J = (Bi.T @ HB.reshape(M * na, m * k)).reshape(k, m, k)
            return Li + w * J.transpose(1, 0, 2)

        return _row_blocks(block, np.atleast_2d(X), 8 * M * na * (na + k))

    def tail(X, basis):
        X = np.atleast_2d(X)
        if not higher:
            return np.zeros(len(X))
        M, _, _, _, Ba = matrices(basis.level)
        h = 2.0 * math.pi / M
        # each coefficient of P_n grad R is a K-term sum, K = M |active|, with
        # rounding below K eps |grad R|; this bounds the rounding of total - kept
        rounding = 2.0 * (M * na + 2) * (math.sqrt(basis.dim) + 1.0) * np.finfo(float).eps

        def block(X):
            g = rest.gradient(on_grid(X, M, Ba)).reshape(len(X), -1)
            total = h * np.einsum("ij,ij->i", g, g)
            coeffs = g @ Ba
            kept = h * h * np.einsum("ij,ij->i", coeffs, coeffs)
            return spec.lam * np.sqrt(np.maximum(total - kept, 0.0) + rounding * total)

        return _row_blocks(block, X, 8 * M * na)

    def lipschitz(region):
        rho = _loop_sup_bound(region)
        return _OUTWARD * spec.lam * (hessian_base + sum(g * rho**p for p, g in hessian_growth))

    nonlinearity.jacobian = jacobian
    nonlinearity.affine = not higher
    nonlinearity.tail = tail
    nonlinearity.lipschitz = lipschitz
    return LocalMapSpec(
        operator=op,
        nonlinearity=nonlinearity,
        region=RegionSpec.ball(radius),
        name=f"hamiltonian(dof={spec.dof}, lambda={spec.lam:g})",
    )


@dataclass(frozen=True)
class PeriodicCertificate:
    """Outcome of a degree-based existence test for periodic solutions."""

    result: DegreeResult
    certified: bool
    period: float
    message: str


def periodic_existence(spec: HamiltonianSpec, radius: float, **kwargs) -> PeriodicCertificate:
    """Existence certificate: a nonzero degree of f = Az - lambda grad H on
    the ball certifies a periodic solution of period 2*pi*lambda.

    Boundary near-zeros found while sampling mean the zero set cannot be
    taken compact; NoncompactZeroSet is raised in that case.
    """
    lm = local_map(spec, radius)
    try:
        result = deg_infinite(lm, **kwargs)
    except BoundaryZero as exc:
        raise NoncompactZeroSet(str(exc)) from exc
    certified = not result.value.is_zero
    period = 2.0 * math.pi * spec.lam
    if certified:
        message = (
            f"degree {result.value} is nonzero: the system has a periodic solution "
            f"of period {period:.6g}"
        )
    else:
        message = f"degree vanishes on the ball of radius {radius:g}: no certificate"
    return PeriodicCertificate(result, certified, period, message)


# ---------------------------------------------------------------------------
# Parameter sweeps and the quadratic closed form


def _linearization_eigs(spec: HamiltonianSpec, lam: float, top_mode: int) -> list[np.ndarray]:
    """Eigenvalues of the linearization of Az - lam S0 z at the origin,
    S0 = hess H(0): entry 0 holds those of -lam S0 on the constant loops,
    entry k those of the block on the mode-k Fourier pair (cos, sin), for
    k = 1 .. top_mode.  The largest |eigenvalue| of entry 0 is lam |S0|."""
    S0 = spec.potential.hessian(np.zeros(2 * spec.dof))
    J = symplectic_matrix(spec.dof)
    return [np.linalg.eigvalsh(-lam * S0)] + [
        np.linalg.eigvalsh(np.block([[-lam * S0, -k * J], [k * J, -lam * S0]]))
        for k in range(1, top_mode + 1)
    ]


def quadratic_spectral_degree(spec: HamiltonianSpec) -> RingElement:
    """Closed-form degree for a quadratic Hamiltonian H = (1/2) <Sz, z>.

    Computed directly from eigenvalue sign counts of the explicit mode
    blocks of A - lambda S, bypassing the truncation pipeline entirely;
    serves as the exact cross-check for the pipeline on quadratic data.
    """
    if spec.potential.degree > 2:
        raise ValueError("closed form applies to quadratic Hamiltonians")
    lam = spec.lam
    level = _top_mode(spec, lam)
    eigs = _linearization_eigs(spec, lam, level)
    lam_norm = float(np.max(np.abs(eigs[0])))
    negative = []
    for k, e in enumerate(eigs):
        if np.min(np.abs(e)) < 1e-9 * max(k + lam_norm, 1.0):
            raise NearSingular("quadratic closed form: block eigenvalue near zero")
        negative.append(int(np.sum(e < 0)))
    value = RingElement.make(CIRCLE, {FULL: -1 if negative[0] % 2 else 1})
    for k in range(1, level + 1):
        # a factor (1 - e_k)^{m_k} from the truncated field, m_k being half the
        # negative count of the real block, and (1 + dof e_k) from the shell correction
        ek = RingElement.make(CIRCLE, {SubgroupClass.finite(k): 1})
        value = value * (unit(CIRCLE) - (negative[k] // 2) * ek) * (unit(CIRCLE) + spec.dof * ek)
    return value


def _top_mode(spec: HamiltonianSpec, lam: float) -> int:
    """ceil(lam |S0|) + 1: no mode above it can cross zero at this lambda."""
    return int(math.ceil(lam * np.max(np.abs(_linearization_eigs(spec, 1.0, 0)[0])))) + 1


@dataclass(frozen=True)
class DegreeJumpTable:
    """Degrees across a lambda grid with crossing-free segments identified."""

    entries: tuple[tuple[float, RingElement], ...]
    segments: tuple[tuple[int, ...], ...]
    jumps: tuple[dict, ...]


def degree_jump(
    spec: HamiltonianSpec, lambdas: Sequence[float], radius: float, **kwargs
) -> DegreeJumpTable:
    """Degrees over a lambda grid, with constancy asserted between crossings.

    Crossings are detected on the linearization at the origin, so the grid
    must avoid eigenvalue crossings of A - lambda * hessian H(0); a lambda
    sitting on a crossing raises NearSingular before any degree runs.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("empty lambda grid")
    top_mode = _top_mode(spec, max(lambdas))
    # the negative counts of every block: a change marks a crossing in between
    signatures = []
    for lam in lambdas:
        eigs = _linearization_eigs(spec, lam, top_mode)
        if min(np.min(np.abs(e)) for e in eigs) < 1e-8 * (1.0 + top_mode):
            raise NearSingular(f"lambda={lam:g} sits at a spectral crossing of the linearization")
        signatures.append(tuple(int(np.sum(e < 0)) for e in eigs))

    entries = []
    for lam in lambdas:
        cert = periodic_existence(dataclasses.replace(spec, lam=lam), radius, **kwargs)
        entries.append((lam, cert.result.value))

    segments: list[list[int]] = [[0]]
    jumps: list[dict] = []
    for i in range(1, len(lambdas)):
        if signatures[i] == signatures[i - 1]:
            segments[-1].append(i)
            if entries[i][1] != entries[segments[-1][0]][1]:
                raise DegreeError(
                    f"degree not constant on the crossing-free segment around "
                    f"lambda={lambdas[i]:g}"
                )
        else:
            jumps.append(
                {
                    "from_lambda": lambdas[i - 1],
                    "to_lambda": lambdas[i],
                    "from_value": entries[i - 1][1],
                    "to_value": entries[i][1],
                }
            )
            segments.append([i])
    return DegreeJumpTable(
        tuple(entries), tuple(tuple(s) for s in segments), tuple(jumps)
    )
