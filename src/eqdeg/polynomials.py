"""Multivariate polynomials with vectorized value, gradient and Hessian evaluation.

Used for declarative problem nonlinearities (potentials) and Hamiltonians:
a polynomial is a list of (exponent multi-index, coefficient) terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        for exps, _ in self.terms:
            if len(exps) != self.nvars:
                raise ValueError(f"term {exps} has {len(exps)} exponents, expected {self.nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be >= 0")

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[tuple[Sequence[int], float]]) -> "Polynomial":
        merged: dict[tuple[int, ...], float] = {}
        for exps, coeff in terms:
            key = tuple(int(e) for e in exps)
            merged[key] = merged.get(key, 0.0) + float(coeff)
        cleaned = tuple((e, c) for e, c in sorted(merged.items()) if c != 0.0)
        return cls(nvars, cleaned)

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at x with shape (..., nvars); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for exps, coeff in self.terms:
            term = np.full(x.shape[:-1], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out += term
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at x with shape (..., nvars); same output shape."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for exps, coeff in self.terms:
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                term = np.full(x.shape[:-1], coeff * e)
                for j, ej in enumerate(exps):
                    p = ej - 1 if j == i else ej
                    if p:
                        term = term * x[..., j] ** p
                out[..., i] += term
        return out

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian at x with shape (..., nvars); returns shape (..., nvars, nvars)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.nvars,))
        for exps, coeff in self.terms:
            for i, ei in enumerate(exps):
                if ei == 0:
                    continue
                for j, ej in enumerate(exps):
                    if i == j:
                        if ei < 2:
                            continue
                        factor = coeff * ei * (ei - 1)
                    else:
                        if ej == 0:
                            continue
                        factor = coeff * ei * ej
                    term = np.full(x.shape[:-1], factor)
                    for l, el in enumerate(exps):
                        p = el - (l == i) - (l == j)
                        if p:
                            term = term * x[..., l] ** p
                    out[..., i, j] += term
        return out

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        """Exact Hessian matrix at a single point."""
        return self.hessian(x)

    def to_json(self) -> list:
        return [{"exps": list(e), "coeff": c} for e, c in self.terms]

    @classmethod
    def from_json(cls, nvars: int, data: Sequence[dict]) -> "Polynomial":
        return cls.from_terms(nvars, [(rec["exps"], rec["coeff"]) for rec in data])
