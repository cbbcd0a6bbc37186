"""Multivariate polynomials with vectorized value, gradient and Hessian evaluation.

Used for declarative problem nonlinearities (potentials) and Hamiltonians:
a polynomial is a list of (exponent multi-index, coefficient) terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reps import _json_count, _json_number


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        for exps, _ in self.terms:
            if len(exps) != self.nvars:
                raise ValueError(f"term {exps} has {len(exps)} exponents, expected {self.nvars}")

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[tuple[Sequence[int], float]]) -> "Polynomial":
        """The sum of the terms c * x^e, (e, c) in ``terms``; a BadNumber names
        an exponent not an integer >= 0 or a coefficient not finite."""
        merged: dict[tuple[int, ...], float] = {}
        for i, (exps, coeff) in enumerate(terms):
            key = tuple(_json_count(e, f"terms[{i}].exps", 0) for e in exps)
            merged[key] = merged.get(key, 0.0) + _json_number(coeff, f"terms[{i}].coeff")
        cleaned = tuple((e, c) for e, c in sorted(merged.items()) if c != 0.0)
        return cls(nvars, cleaned)

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def _powers(self, x: np.ndarray, monomials) -> list[list[np.ndarray]]:
        """Powers by repeated multiplication: entry [j][p - 1] is x_j^p, for
        p up to the largest exponent of variable j among ``monomials``, the
        exponent tuples that are to be evaluated."""
        tops = [max((exps[j] for exps in monomials), default=0) for j in range(self.nvars)]
        powers = []
        for j, top in enumerate(tops):
            column = [x[..., j]] if top else []
            while len(column) < top:
                column.append(column[-1] * x[..., j])
            powers.append(column)
        return powers

    @staticmethod
    def _monomial(powers, factor: float, exps, shape) -> np.ndarray:
        """factor * prod_j x_j^exps[j], from the table of powers."""
        term = None
        for j, p in enumerate(exps):
            if p:
                term = factor * powers[j][p - 1] if term is None else term * powers[j][p - 1]
        return np.full(shape, factor) if term is None else term

    def value(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at x with shape (..., nvars); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        powers = self._powers(x, [exps for exps, _ in self.terms])
        out = np.zeros(x.shape[:-1])
        for exps, coeff in self.terms:
            out += self._monomial(powers, coeff, exps, x.shape[:-1])
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at x with shape (..., nvars); same output shape."""
        x = np.asarray(x, dtype=float)
        parts = [
            (i, coeff * e, exps[:i] + (e - 1,) + exps[i + 1 :])
            for exps, coeff in self.terms
            for i, e in enumerate(exps)
            if e
        ]
        powers = self._powers(x, [lowered for _, _, lowered in parts])
        out = np.zeros_like(x)
        for i, factor, lowered in parts:
            out[..., i] += self._monomial(powers, factor, lowered, x.shape[:-1])
        return out

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian at x with shape (..., nvars); returns shape (..., nvars, nvars).

        Each off-diagonal term is computed once and written to both
        triangles, so the result is exactly symmetric."""
        x = np.asarray(x, dtype=float)
        powers = self._powers(x, [exps for exps, _ in self.terms])
        out = np.zeros(x.shape + (self.nvars,))
        for exps, coeff in self.terms:
            for i, ei in enumerate(exps):
                if not ei:
                    continue
                for j in range(i, self.nvars):
                    lowered = list(exps)
                    lowered[i] -= 1
                    lowered[j] -= 1
                    if lowered[j] < 0:
                        continue
                    factor = coeff * ei * (ei - 1) if i == j else coeff * ei * exps[j]
                    term = self._monomial(powers, factor, lowered, x.shape[:-1])
                    out[..., i, j] += term
                    if i != j:
                        out[..., j, i] += term
        return out

    def to_json(self) -> list:
        return [{"exps": list(e), "coeff": c} for e, c in self.terms]

    @classmethod
    def from_json(cls, nvars: int, data: Sequence[dict]) -> "Polynomial":
        return cls.from_terms(nvars, [(rec["exps"], rec["coeff"]) for rec in data])
