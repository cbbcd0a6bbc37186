"""Finite-dimensional orthogonal circle-group representations.

A representation is recorded by isotypic multiplicities: a trivial part of
real dimension n0 and, for each rotation mode k >= 1, a complex
multiplicity n_k (each contributing a real plane on which the angle theta
acts as rotation by k*theta).  Equivariant self-adjoint operators are
supplied blockwise per isotypic component, which makes equivariance
structural rather than a runtime check.  A spectral operator is an indexed
family of (eigenvalue, eigenspace) pairs binned into unit-width shells
by ``shell_index``; it owns one eigencoordinate basis of each cumulative
space V_n (shells 0 .. n), which every truncation at level n shares, and
answers from those bases how level n relates to the levels above it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import NearSingular

SYMMETRY_RTOL = 1e-12
SINGULAR_RTOL = 1e-9
SHELL_TOL = 1e-12  # |lambda| within this above an integer n still falls in shell n


def shell_index(lam: float) -> int:
    """The spectral shell of an eigenvalue: 0 for lambda = 0, else the n with
    n - 1 < |lambda| <= n, where |lambda| up to SHELL_TOL above n counts as n."""
    lam = float(lam)
    return 0 if lam == 0.0 else int(math.ceil(abs(lam) - SHELL_TOL))


@dataclass(frozen=True)
class Rep:
    """Isotypic multiplicities (trivial real dimension, mode -> complex mult)."""

    trivial: int = 0
    modes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.trivial < 0:
            raise ValueError("trivial multiplicity must be >= 0")
        cleaned: dict[int, int] = {}
        for k, n in self.modes:
            if k < 1:
                raise ValueError(f"mode index must be >= 1, got {k}")
            if n < 0:
                raise ValueError(f"multiplicity must be >= 0, got {n}")
            if n:
                cleaned[k] = cleaned.get(k, 0) + n
        object.__setattr__(self, "modes", tuple(sorted(cleaned.items())))

    @property
    def dim(self) -> int:
        """Total real dimension n0 + 2*sum(n_k)."""
        return self.trivial + 2 * sum(n for _, n in self.modes)

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def mode_mult(self, k: int) -> int:
        for kk, n in self.modes:
            if kk == k:
                return n
        return 0

    def __add__(self, other: "Rep") -> "Rep":
        acc = dict(self.modes)
        for k, n in other.modes:
            acc[k] = acc.get(k, 0) + n
        return Rep(self.trivial + other.trivial, tuple(acc.items()))


ZERO_REP = Rep()


def rep_to_json(rep: Rep) -> dict:
    return {"trivial": rep.trivial, "modes": [[k, n] for k, n in rep.modes]}


def _json_count(raw, name: str, least: int) -> int:
    """An integer >= least (numpy integers count, bool does not); anything else is a ValueError."""
    if isinstance(raw, (int, np.integer)) and not isinstance(raw, bool) and raw >= least:
        return int(raw)
    raise ValueError(f"{name} must be an integer >= {least}, got {raw!r}")


def rep_from_json(data: Mapping) -> Rep:
    """The Rep of ``rep_to_json``'s form; counts are never coerced: a count that
    is not an integer, or a trivial count or multiplicity < 0 or a mode < 1,
    is a ValueError."""
    return Rep(
        _json_count(data["trivial"], "trivial", 0),
        tuple(
            (_json_count(k, "mode", 1), _json_count(n, f"multiplicity of mode {k!r}", 0))
            for k, n in data["modes"]
        ),
    )


@dataclass(frozen=True)
class Layout:
    """Coordinate layout of a representation on a real coordinate vector.

    ``trivial`` lists the fixed (trivial-action) coordinate indices, and
    ``pairs`` lists (mode k, base index) for each rotation plane occupying
    coordinates (base, base+1).  ``planes`` groups the pairs by mode; every
    reader of the plane structure gathers or scatters through it.
    """

    size: int
    trivial: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    @functools.cached_property
    def planes(self) -> Mapping[int, np.ndarray]:
        """Mode k -> read-only int array of the base indices of its planes,
        modes ascending and each mode's planes in their order in ``pairs``."""
        pairs = np.array(self.pairs, dtype=int).reshape(-1, 2)
        out = {}
        for k in sorted({k for k, _ in self.pairs}):
            bases = pairs[pairs[:, 0] == k, 1]
            bases.setflags(write=False)
            out[k] = bases
        return MappingProxyType(out)

    def rep(self) -> Rep:
        return Rep(len(self.trivial), tuple((k, len(b)) for k, b in self.planes.items()))

    @functools.cached_property
    def _rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """Each plane's base index, in ``planes`` order, and its mode (for a layout with planes)."""
        bases = list(self.planes.values())
        return np.concatenate(bases), np.repeat(list(self.planes), [len(b) for b in bases])

    def rotate(self, theta: float, x: np.ndarray) -> np.ndarray:
        """Apply the group element theta; acts on single vectors or batches."""
        out = np.array(x, dtype=float, copy=True)
        if self.pairs:
            i, modes = self._rotation
            c, s = np.cos(theta * modes), np.sin(theta * modes)
            u, v = out[..., i], out[..., i + 1]
            out[..., i] = c * u - s * v
            out[..., i + 1] = s * u + c * v
        return out

    def normal_indices(self) -> tuple[int, ...]:
        fixed = set(self.trivial)
        return tuple(i for i in range(self.size) if i not in fixed)

    def section(self, indices: Sequence[int]) -> "Layout":
        """The layout of the coordinates ``indices``, numbered by their
        position there.  A rotation plane they touch must be whole, its two
        coordinates adjacent and in order; ValueError otherwise."""
        pos = {int(i): j for j, i in enumerate(indices)}
        pairs = []
        for k, b in self.pairs:
            if b in pos or b + 1 in pos:
                if pos.get(b + 1, -1) != pos.get(b, -2) + 1:
                    raise ValueError(f"coordinates {b}, {b + 1} of a mode-{k} plane are split")
                pairs.append((k, pos[b]))
        trivial = tuple(sorted(pos[i] for i in self.trivial if i in pos))
        return Layout(len(pos), trivial, tuple(pairs))


def canonical_layout(rep: Rep) -> Layout:
    """Trivial coordinates first, then mode planes in ascending mode order."""
    pairs = []
    pos = rep.trivial
    for k, n in rep.modes:
        for _ in range(n):
            pairs.append((k, pos))
            pos += 2
    return Layout(pos, tuple(range(rep.trivial)), tuple(pairs))


def concat_layouts(layouts: Sequence[Layout]) -> Layout:
    size = 0
    trivial: list[int] = []
    pairs: list[tuple[int, int]] = []
    for lay in layouts:
        trivial.extend(i + size for i in lay.trivial)
        pairs.extend((k, i + size) for k, i in lay.pairs)
        size += lay.size
    return Layout(size, tuple(trivial), tuple(pairs))


class EquivariantSymOp:
    """An equivariant self-adjoint operator given by isotypic blocks.

    The trivial block is real symmetric; each mode block is complex
    Hermitian and acts complex-linearly on the n_k rotation planes.
    """

    __slots__ = ("rep", "trivial_block", "mode_blocks")

    def __init__(self, rep: Rep, trivial_block=None, mode_blocks=None):
        if trivial_block is None:
            trivial_block = np.zeros((rep.trivial, rep.trivial))
        trivial_block = np.asarray(trivial_block, dtype=float)
        if trivial_block.shape != (rep.trivial, rep.trivial):
            raise ValueError(
                f"trivial block shape {trivial_block.shape} does not match "
                f"multiplicity {rep.trivial}"
            )
        _check_symmetric(trivial_block, "trivial block")
        blocks: dict[int, np.ndarray] = {}
        mode_blocks = dict(mode_blocks or {})
        for k, n in rep.modes:
            blk = np.asarray(mode_blocks.pop(k, np.zeros((n, n))), dtype=complex)
            if blk.shape != (n, n):
                raise ValueError(
                    f"mode-{k} block shape {blk.shape} does not match multiplicity {n}"
                )
            _check_symmetric(blk, f"mode-{k} block")
            blk.setflags(write=False)
            blocks[k] = blk
        if mode_blocks:
            raise ValueError(f"blocks given for absent modes {sorted(mode_blocks)}")
        trivial_block.setflags(write=False)
        self.rep = rep
        self.trivial_block = trivial_block
        self.mode_blocks = blocks

    @classmethod
    def scalar(cls, rep: Rep, value: float) -> "EquivariantSymOp":
        """value * identity on the given representation."""
        return cls(
            rep,
            value * np.eye(rep.trivial),
            {k: value * np.eye(n, dtype=complex) for k, n in rep.modes},
        )

    def negative_part(self, singular_floor: float = 0.0) -> Rep:
        """Multiplicities of the negative eigenspace.

        Raises NearSingular when any block eigenvalue sits within
        SINGULAR_RTOL of zero relative to the block's spectral norm (or
        below the absolute ``singular_floor``, when given), since the sign
        count is then unreliable.
        """
        neg_trivial = _count_negative(self.trivial_block, "trivial block", singular_floor)
        modes = []
        for k, _ in self.rep.modes:
            neg = _count_negative(self.mode_blocks[k], f"mode-{k} block", singular_floor)
            if neg:
                modes.append((k, neg))
        return Rep(neg_trivial, tuple(modes))

    def direct_sum(self, other: "EquivariantSymOp") -> "EquivariantSymOp":
        rep = self.rep + other.rep
        n0a, n0b = self.rep.trivial, other.rep.trivial
        trivial = np.zeros((n0a + n0b, n0a + n0b))
        trivial[:n0a, :n0a] = self.trivial_block
        trivial[n0a:, n0a:] = other.trivial_block
        blocks = {}
        for k, n in rep.modes:
            na = self.rep.mode_mult(k)
            blk = np.zeros((n, n), dtype=complex)
            if na:
                blk[:na, :na] = self.mode_blocks[k]
            if n - na:
                blk[na:, na:] = other.mode_blocks[k]
            blocks[k] = blk
        return EquivariantSymOp(rep, trivial, blocks)

    def scale_blocks(self, factor: float) -> "EquivariantSymOp":
        return EquivariantSymOp(
            self.rep,
            factor * self.trivial_block,
            {k: factor * b for k, b in self.mode_blocks.items()},
        )


def _check_symmetric(block: np.ndarray, name: str) -> None:
    if block.size == 0:
        return
    norm = np.linalg.norm(block)
    dev = np.linalg.norm(block - block.conj().T)
    if dev > SYMMETRY_RTOL * max(norm, 1e-300):
        raise ValueError(f"{name} is not symmetric/Hermitian (relative deviation {dev / norm:.2e})")


def _count_negative(block: np.ndarray, name: str, floor: float = 0.0) -> int:
    if block.size == 0:
        return 0
    eigs = np.linalg.eigvalsh(block)
    scale = np.max(np.abs(eigs))
    if scale == 0.0 or np.min(np.abs(eigs)) < max(SINGULAR_RTOL * scale, floor):
        raise NearSingular(f"{name} has an eigenvalue too close to zero")
    return int(np.sum(eigs < 0))


class SpectralOperator:
    """A self-adjoint operator with purely discrete spectrum, given shellwise.

    ``shells`` is either a mapping {level -> [(eigenvalue, Rep), ...]} or a
    callable producing the list for any requested level.  Shell 0 holds the
    kernel; shell n >= 1 holds the eigenvalues whose ``shell_index`` is n.
    An explicit table has a finite ``max_level``; requesting shells beyond
    it is an error, which bounds how far a truncation can be pushed.
    """

    def __init__(self, shells, *, max_level: int | None = None, label: str = "operator"):
        if isinstance(shells, Mapping):
            table = {int(n): tuple(v) for n, v in shells.items()}
            if max_level is None:
                max_level = max(table) if table else 0
            self._fn = lambda n: table.get(n, ())
        else:
            self._fn = shells
        self.max_level = max_level
        self.label = label
        self._cache: dict[int, tuple[tuple[float, Rep], ...]] = {}
        self._bases: dict[int, ShellBasis] = {}

    def shell(self, n: int) -> tuple[tuple[float, Rep], ...]:
        if n < 0:
            raise ValueError("shell level must be >= 0")
        if self.max_level is not None and n > self.max_level:
            raise ValueError(
                f"{self.label}: shell {n} beyond declared max level {self.max_level}"
            )
        if n not in self._cache:
            entries = [(float(lam), rep) for lam, rep in self._fn(n)]
            entries = [(lam, rep) for lam, rep in entries if not rep.is_zero]
            seen = set()
            for lam, _ in entries:
                if lam in seen:
                    raise ValueError(f"{self.label}: eigenvalue {lam} listed twice in shell {n}")
                seen.add(lam)
                if n == 0 and lam != 0.0:
                    raise ValueError(
                        f"{self.label}: shell 0 may only contain eigenvalue 0, got {lam}"
                    )
                if shell_index(lam) != n:
                    raise ValueError(
                        f"{self.label}: eigenvalue {lam} belongs to shell "
                        f"{shell_index(lam)}, not {n}"
                    )
            entries.sort(key=lambda t: t[0])
            self._cache[n] = tuple(entries)
        return self._cache[n]

    @classmethod
    def from_eigenvalues(
        cls, pairs: Sequence[tuple[float, Rep]], *, max_level: int | None = None, label: str = "operator"
    ) -> "SpectralOperator":
        """Bin an eigenvalue list into unit-width shells."""
        table: dict[int, dict[float, Rep]] = {}
        top = 0
        for lam, rep in pairs:
            lam = float(lam)
            n = shell_index(lam)
            top = max(top, n)
            slot = table.setdefault(n, {})
            slot[lam] = slot[lam] + rep if lam in slot else rep
        shells = {n: [(lam, rep) for lam, rep in slot.items()] for n, slot in table.items()}
        return cls(shells, max_level=max_level if max_level is not None else top, label=label)

    def eigenspace(self, lam: float) -> Rep:
        """The eigenspace V(lambda); the zero representation if absent."""
        lam = float(lam)
        for ev, rep in self.shell(shell_index(lam)):
            if ev == lam:
                return rep
        return ZERO_REP

    def basis(self, n: int) -> "ShellBasis":
        """The eigencoordinate basis of V_n, built on first use and kept."""
        if n not in self._bases:
            self._bases[n] = ShellBasis(self, n)
        return self._bases[n]

    def levels(self, first: int, last: int, depth: int) -> range:
        """The levels N in first .. last whose levels N .. N+depth the
        declared spectrum holds (all of them without a max level)."""
        top = last if self.max_level is None else min(last, self.max_level - depth)
        return range(first, top + 1)

    def gap(self, n: int) -> float:
        """mu_n: the least |eigenvalue| on the rotation planes of V_n, inf without any."""
        basis = self.basis(n)
        normal = np.asarray(basis.layout.normal_indices(), dtype=int)
        return float(np.abs(basis.eigenvalues[normal]).min(initial=np.inf))

    def adds_fixed(self, N: int, n: int) -> bool:
        """Whether shells N+1 .. n add a fixed (trivial) coordinate to V_N."""
        return self.basis(n).rep.trivial > self.basis(N).rep.trivial

    def direct_sum(self, other: "SpectralOperator") -> "SpectralOperator":
        tops = [top for top in (self.max_level, other.max_level) if top is not None]
        max_level = min(tops) if tops else None

        def shells(n: int):
            acc: dict[float, Rep] = {}
            for lam, rep in list(self.shell(n)) + list(other.shell(n)):
                acc[lam] = acc[lam] + rep if lam in acc else rep
            return [(lam, rep) for lam, rep in sorted(acc.items())]

        return SpectralOperator(
            shells, max_level=max_level, label=f"{self.label}+{other.label}"
        )


class ShellBasis:
    """Eigencoordinates of the cumulative space V_level, shell by shell.

    Coordinates are ordered by shell, then by eigenvalue within the shell,
    then by the canonical layout of each eigenspace, so the coordinates of
    V_n are a prefix of those of V_m for n <= m and orthogonal projection
    onto V_n is coordinate truncation.  ``SpectralOperator.basis`` builds
    one per level and shares it, so its arrays are read-only.
    """

    def __init__(self, operator: SpectralOperator, level: int):
        self.level = int(level)
        entries = []
        layouts = []
        eigs: list[float] = []
        prefix = []
        offset = 0
        rep = ZERO_REP
        for n in range(self.level + 1):
            for lam, r in operator.shell(n):
                entries.append((n, lam, r, offset))
                layouts.append(canonical_layout(r))
                eigs.extend([lam] * r.dim)
                offset += r.dim
                rep = rep + r
            prefix.append(offset)
        self.entries = tuple(entries)
        self.layout = concat_layouts(layouts)
        self.dim = offset
        self.rep = rep
        self.eigenvalues = np.asarray(eigs, dtype=float)
        self.graph_weights = 1.0 + self.eigenvalues**2
        self.eigenvalues.setflags(write=False)
        self.graph_weights.setflags(write=False)
        self._prefix = prefix

    def prefix_dim(self, lower_level: int) -> int:
        """Dimension of V_lower inside this basis."""
        return self._prefix[lower_level]


def shell_operator(op: SpectralOperator, n: int) -> EquivariantSymOp:
    """The restriction of the operator to shell n, as blockwise lambda*I."""
    entries = op.shell(n)
    rep = ZERO_REP
    for _, r in entries:
        rep = rep + r
    trivial_diag: list[float] = []
    mode_diags: dict[int, list[float]] = {k: [] for k, _ in rep.modes}
    for lam, r in entries:
        trivial_diag.extend([lam] * r.trivial)
        for k, nk in r.modes:
            mode_diags[k].extend([lam] * nk)
    return EquivariantSymOp(
        rep,
        np.diag(trivial_diag) if trivial_diag else np.zeros((0, 0)),
        {k: np.diag(np.asarray(d, dtype=complex)) for k, d in mode_diags.items()},
    )
