"""Invariant domains for zero counting: weighted balls and combinations.

A ball may carry per-coordinate weights so that ellipsoids (for instance
graph-norm balls over an eigencoordinate basis) are expressed in plain
coordinates.  Degree computations only need membership tests, boundary
samples and interior seed points, so unions, intersections and products
are supported through that interface.  ``section(indices)``, the one way
to restrict a domain, cuts it to the coordinate subspace on the given axes
through the center; ``seed_points(fraction)`` seeds every axis of its own
domain, and ``contains`` maps an (m, d) batch to (m,) booleans.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import DimensionLimit
from .reps import _json_number

_SEED_CAP = 20000
_HALTON_COUNT = 4096
_HALTON_SKIP = 20  # leading indices left out of every Halton set
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@functools.lru_cache(maxsize=None)
def _halton(count: int, dims: int) -> np.ndarray:
    """Deterministic low-discrepancy points in the unit cube, as a read-only
    array built once per argument set.

    The radical inverse of every index is built one digit at a time, in the
    same order of operations for all indices at once.
    """
    if dims > len(_PRIMES):
        raise DimensionLimit(
            f"halton sampler supports at most {len(_PRIMES)} dimensions, got {dims}"
        )
    out = np.empty((count, dims))
    for j in range(dims):
        base = _PRIMES[j]
        n = np.arange(_HALTON_SKIP + 1, _HALTON_SKIP + 1 + count)
        f, x = 1.0, np.zeros(count)
        while n.any():
            f /= base
            n, r = np.divmod(n, base)
            x += f * r
        out[:, j] = x
    out.setflags(write=False)
    return out


def _rejection_sample(draw, accept, count: int, tries: int) -> list[np.ndarray]:
    """Up to ``count`` accepted candidates, as the chunks kept from each draw.

    Each try draws max(4 * need, 16) candidates, need being the number still
    missing, and keeps the first ``need`` that ``accept`` marks; after
    ``tries`` draws the chunks kept so far are returned, maybe none.
    """
    got: list[np.ndarray] = []
    need = count
    for _ in range(tries):
        cand = draw(max(need * 4, 16))
        sel = cand[accept(cand)]
        if len(sel):
            got.append(sel[:need])
            need -= len(sel[:need])
        if need <= 0:
            break
    return got


class Ball:
    """{x : sum w_i (x_i - c_i)^2 <= R^2}; weights default to 1.  A ValueError
    names the radius, center or weights unless all are finite and R, w > 0."""

    def __init__(self, center, radius: float, weights=None):
        self.center = np.asarray(center, dtype=float)
        self.radius = _json_number(radius, "radius", positive=True)
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        if weights is None:
            weights = np.ones_like(self.center)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != self.center.shape:
            raise ValueError("weights shape does not match center")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("weights must be finite and > 0")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def scale(self) -> float:
        return self.radius + float(np.sqrt(np.sum(self.weights * self.center**2)))

    def metric_norm(self, x: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(x) - self.center
        return np.sqrt(np.sum(self.weights * d * d, axis=-1))

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.metric_norm(x) < self.radius

    def _directions(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count standard normal rows, each scaled in place to norm 1 in the ball metric."""
        y = rng.standard_normal((count, self.dim))
        t = self.weights * y
        t *= y
        y /= np.sqrt(np.sum(t, axis=1))[:, None]
        return y

    def boundary_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((0, 0))
        y = self._directions(count, rng)
        y *= self.radius
        y += self.center
        return y

    def interior_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((count, 0))
        y = self._directions(count, rng)
        y *= self.radius * rng.random(count)[:, None] ** (1.0 / self.dim)
        y += self.center
        return y

    def section(self, indices: Sequence[int]) -> "Ball":
        idx = np.asarray(indices, dtype=int)
        return Ball(self.center[idx], self.radius, self.weights[idx])

    def seed_points(self, fraction: float) -> np.ndarray:
        """Deterministic grid of Newton seeds, the center first.

        Spacing is ``fraction * radius`` in the ball metric.  When the full
        grid would be unreasonably large the grid is replaced by a Halton
        set of the same coverage, capped in size.
        """
        if not self.dim:
            return self.center[None, :].copy()
        per_axis = 2 * int(round(1.0 / fraction)) + 1
        half = self.radius / np.sqrt(self.weights)
        if per_axis**self.dim <= _SEED_CAP:
            axes = [c + h * np.linspace(-1.0, 1.0, per_axis) for c, h in zip(self.center, half)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        else:
            pts = self.center + (2.0 * _halton(_HALTON_COUNT, self.dim) - 1.0) * half
        pts = pts[self.metric_norm(pts) <= self.radius]
        return np.vstack([self.center[None, :], pts])


class ShellDomain:
    """An annulus {r_in < |x - c|_w < r_out}; invariant and avoids the center."""

    def __init__(self, center, inner_radius: float, outer_radius: float, weights=None):
        if not 0 < inner_radius < outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        self.inner = Ball(center, inner_radius, weights)
        self.outer = Ball(center, outer_radius, weights)

    @property
    def dim(self) -> int:
        return self.outer.dim

    @property
    def scale(self) -> float:
        return self.outer.scale

    def contains(self, x: np.ndarray) -> np.ndarray:
        r = self.outer.metric_norm(x)
        return (self.inner.radius < r) & (r < self.outer.radius)

    def boundary_samples(self, count: int, rng) -> np.ndarray:
        half = max(1, count // 2)
        return np.vstack(
            [self.outer.boundary_samples(half, rng), self.inner.boundary_samples(half, rng)]
        )

    def interior_samples(self, count: int, rng) -> np.ndarray:
        draw = lambda m: self.outer.interior_samples(m, rng)
        got = _rejection_sample(draw, self.contains, count, 200)
        return np.vstack(got) if got else np.zeros((0, self.dim))

    def section(self, indices) -> "ShellDomain":
        inner = self.inner.section(indices)
        return ShellDomain(inner.center, inner.radius, self.outer.radius, inner.weights)

    def seed_points(self, fraction: float) -> np.ndarray:
        pts = self.outer.seed_points(fraction)
        kept = pts[self.contains(pts)]
        if not len(kept):  # a point midway across the shell on the first axis, if any
            mid = self.outer.center.copy()
            mid[:1] += 0.5 * (self.inner.radius + self.outer.radius) / np.sqrt(self.outer.weights[:1])
            kept = mid[None, :]
        return kept


class UnionDomain:
    """A disjoint union of balls sharing one weight vector."""

    def __init__(self, parts: Sequence[Ball]):
        if not parts:
            raise ValueError("union of no balls")
        self.parts = list(parts)
        w0 = self.parts[0].weights
        for b in self.parts[1:]:
            if not np.allclose(b.weights, w0):
                raise ValueError("union parts must share weights")
        for a, b in itertools.combinations(self.parts, 2):
            dist = np.sqrt(np.sum(w0 * (a.center - b.center) ** 2))
            if dist <= a.radius + b.radius:
                raise ValueError("union parts must be pairwise disjoint")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def scale(self) -> float:
        return max(b.scale for b in self.parts)

    def contains(self, x: np.ndarray) -> np.ndarray:
        acc = self.parts[0].contains(x)
        for b in self.parts[1:]:
            acc = acc | b.contains(x)
        return acc

    def boundary_samples(self, count: int, rng) -> np.ndarray:
        share = max(1, count // len(self.parts))
        return np.vstack([b.boundary_samples(share, rng) for b in self.parts])

    def interior_samples(self, count: int, rng) -> np.ndarray:
        share = max(1, count // len(self.parts))
        return np.vstack([b.interior_samples(share, rng) for b in self.parts])

    def section(self, indices) -> "UnionDomain":
        return UnionDomain([b.section(indices) for b in self.parts])

    def seed_points(self, fraction: float) -> np.ndarray:
        return np.vstack([b.seed_points(fraction) for b in self.parts])


class IntersectionDomain:
    """An intersection of balls (assumed to have nonempty interior)."""

    def __init__(self, parts: Sequence[Ball]):
        if not parts:
            raise ValueError("intersection of no balls")
        self.parts = list(parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def scale(self) -> float:
        return min(b.scale for b in self.parts)

    def contains(self, x: np.ndarray) -> np.ndarray:
        acc = self.parts[0].contains(x)
        for b in self.parts[1:]:
            acc = acc & b.contains(x)
        return acc

    def boundary_samples(self, count: int, rng) -> np.ndarray:
        # The boundary lies on the union of the spheres; keep sphere points
        # that the other balls accept.
        out: list[np.ndarray] = []
        share = max(1, count // len(self.parts))
        for i, b in enumerate(self.parts):
            others = self.parts[:i] + self.parts[i + 1:]

            def accept(cand):
                mask = np.ones(len(cand), dtype=bool)
                for other in others:
                    mask &= other.metric_norm(cand) <= other.radius
                return mask

            out += _rejection_sample(lambda m: b.boundary_samples(m, rng), accept, share, 60)
        if not out:
            raise ValueError("could not sample the boundary of the intersection")
        return np.vstack(out)

    def interior_samples(self, count: int, rng) -> np.ndarray:
        draw = lambda m: self.parts[0].interior_samples(m, rng)
        got = _rejection_sample(draw, self.contains, count, 200)
        if not got:
            raise ValueError("intersection appears to have empty interior")
        return np.vstack(got)

    def section(self, indices) -> "IntersectionDomain":
        return IntersectionDomain([b.section(indices) for b in self.parts])

    def seed_points(self, fraction: float) -> np.ndarray:
        pts = self.parts[0].seed_points(fraction)
        keep = np.ones(len(pts), dtype=bool)
        for b in self.parts[1:]:
            keep &= b.metric_norm(pts) <= b.radius
        kept = pts[keep]
        return kept if len(kept) else pts[:1]


class ProductDomain:
    """A product of two domains living on disjoint coordinate index sets."""

    def __init__(self, indices_a, domain_a, indices_b, domain_b):
        self.ia = np.asarray(indices_a, dtype=int)
        self.ib = np.asarray(indices_b, dtype=int)
        self.da = domain_a
        self.db = domain_b
        total = len(self.ia) + len(self.ib)
        if sorted(list(self.ia) + list(self.ib)) != list(range(total)):
            raise ValueError("product index sets must partition the coordinates")
        self._dim = total

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def scale(self) -> float:
        return max(self.da.scale, self.db.scale)

    def _split(self, x):
        x = np.atleast_2d(x)
        return x[:, self.ia], x[:, self.ib]

    def _join(self, xa, xb):
        out = np.empty((len(xa), self._dim))
        out[:, self.ia] = xa
        out[:, self.ib] = xb
        return out

    def contains(self, x: np.ndarray) -> np.ndarray:
        xa, xb = self._split(x)
        return self.da.contains(xa) & self.db.contains(xb)

    def boundary_samples(self, count: int, rng) -> np.ndarray:
        half = max(1, count // 2)
        out = []
        if len(self.ia):
            xa = self.da.boundary_samples(half, rng)
            xb = self.db.interior_samples(len(xa), rng)
            out.append(self._join(xa, xb))
        if len(self.ib):
            xb = self.db.boundary_samples(half, rng)
            xa = self.da.interior_samples(len(xb), rng)
            out.append(self._join(xa, xb))
        return np.vstack(out)

    def interior_samples(self, count: int, rng) -> np.ndarray:
        xa = self.da.interior_samples(count, rng)
        xb = self.db.interior_samples(count, rng)
        return self._join(xa, xb)

    def _split_indices(self, indices):
        """For each factor, the positions in ``indices`` of the coordinates it
        holds and their indices within the factor: (at_a, sub_a, at_b, sub_b)."""
        out = []
        for own in (self.ia, self.ib):
            pos = {int(g): j for j, g in enumerate(own)}
            at = [j for j, i in enumerate(indices) if i in pos]
            out += [at, [pos[i] for i in indices if i in pos]]
        return out

    def section(self, indices) -> "ProductDomain":
        at_a, sub_a, at_b, sub_b = self._split_indices(indices)
        return ProductDomain(at_a, self.da.section(sub_a), at_b, self.db.section(sub_b))

    def seed_points(self, fraction: float) -> np.ndarray:
        """Every pair of the factors' seeds while there are at most _SEED_CAP
        pairs; beyond that, the _HALTON_COUNT pairs that the 2-D Halton set
        picks, which spread over both factors' seeds."""
        seeds_a = self.da.seed_points(fraction)
        seeds_b = self.db.seed_points(fraction)
        counts = (len(seeds_a), len(seeds_b))
        if counts[0] * counts[1] <= _SEED_CAP:
            pick = np.indices(counts).reshape(2, -1)
        else:
            pick = (_halton(_HALTON_COUNT, 2) * counts).astype(int).T
        return self._join(seeds_a[pick[0]], seeds_b[pick[1]])
