"""Exact arithmetic in the Euler ring U(G) for G = S^1 and G = Z_m.

Additively U(G) is the free abelian group on orbit classes [G/H], H a
closed subgroup, with unit [G/G].  For the circle group the closed
subgroups are S^1 itself and the finite cyclic Z_k, and the product of two
finite-cyclic classes vanishes: the product orbit is a union of circles,
every fixed-set quotient of which has Euler characteristic zero.  For a
finite cyclic group the ring is the Burnside ring of Z_m with the
double-coset product [Z_m/Z_d][Z_m/Z_e] = (m/lcm(d,e)) [Z_m/Z_gcd(d,e)].

All coefficients are Python integers, so products can grow without
overflow.  Elements are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Optional

from .errors import GroupMismatch, MultiplierMismatch
from .reps import _json_count

_CIRCLE = "circle"
_CYCLIC = "cyclic"


@dataclass(frozen=True)
class GroupDescriptor:
    """The acting group: the circle S^1 or a finite cyclic group Z_m."""

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind == _CIRCLE:
            if self.order != 0:
                raise ValueError("circle group carries no order")
        elif self.kind == _CYCLIC:
            if self.order < 1:
                raise ValueError(f"cyclic group order must be >= 1, got {self.order}")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def circle() -> "GroupDescriptor":
        return GroupDescriptor(_CIRCLE)

    @staticmethod
    def cyclic(m: int) -> "GroupDescriptor":
        return GroupDescriptor(_CYCLIC, int(m))

    @property
    def is_circle(self) -> bool:
        return self.kind == _CIRCLE

    def divisors(self) -> tuple[int, ...]:
        """Divisors of the cyclic order, descending (unit class first)."""
        if self.is_circle:
            raise ValueError("divisors are defined for cyclic groups only")
        m = self.order
        return tuple(d for d in range(m, 0, -1) if m % d == 0)

    def __str__(self) -> str:
        return "S1" if self.is_circle else f"Z{self.order}"


CIRCLE = GroupDescriptor.circle()

_FULL = "full"
_FINITE = "finite"
_DIVISOR = "divisor"


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of closed subgroups, indexing a basis orbit [G/H].

    For S^1 the classes are the full group and the finite cyclic Z_k
    (k = 1 is the trivial subgroup); for Z_m each divisor d names the
    unique subgroup of order d.
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind == _FULL:
            if self.index != 0:
                raise ValueError("full subgroup class carries no index")
        elif self.kind == _FINITE:
            if self.index < 1:
                raise ValueError("finite cyclic index must be >= 1")
        elif self.kind == _DIVISOR:
            if self.index < 1:
                raise ValueError("divisor must be >= 1")
        else:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")

    @staticmethod
    def full() -> "SubgroupClass":
        return SubgroupClass(_FULL)

    @staticmethod
    def finite(k: int) -> "SubgroupClass":
        return SubgroupClass(_FINITE, int(k))

    @staticmethod
    def divisor(d: int) -> "SubgroupClass":
        return SubgroupClass(_DIVISOR, int(d))

    def label(self, group: GroupDescriptor) -> str:
        if self.kind == _FULL:
            return "[S1/S1]"
        if self.kind == _FINITE:
            return f"[S1/Z{self.index}]"
        return f"[Z{group.order}/Z{self.index}]"


FULL = SubgroupClass.full()


def unit_class(group: GroupDescriptor) -> SubgroupClass:
    """The class [G/G] indexing the ring unit."""
    if group.is_circle:
        return FULL
    return SubgroupClass.divisor(group.order)


def _validate_class(group: GroupDescriptor, cls: SubgroupClass) -> None:
    if group.is_circle:
        if cls.kind == _DIVISOR:
            raise ValueError(f"{cls} is not a subgroup class of S1")
    else:
        if cls.kind != _DIVISOR or group.order % cls.index != 0:
            raise ValueError(f"{cls} is not a subgroup class of Z{group.order}")


def _sort_key(group: GroupDescriptor, cls: SubgroupClass):
    # Canonical order: [G/G] first, then Z_k ascending for S1 /
    # divisors descending for Z_m.
    if group.is_circle:
        return (0, 0) if cls.kind == _FULL else (1, cls.index)
    return (0, -cls.index)


@dataclass(frozen=True)
class RingElement:
    """An element of U(G) in canonical form: sorted support, no zeros."""

    group: GroupDescriptor
    terms: tuple[tuple[SubgroupClass, int], ...] = ()

    @staticmethod
    def make(group: GroupDescriptor, coeffs: Mapping[SubgroupClass, int]) -> "RingElement":
        """Build an element from a coefficient map, dropping zeros."""
        items = []
        for cls, c in coeffs.items():
            _validate_class(group, cls)
            c = int(c)
            if c != 0:
                items.append((cls, c))
        items.sort(key=lambda t: _sort_key(group, t[0]))
        return RingElement(group, tuple(items))

    def coeff(self, cls: SubgroupClass) -> int:
        for c, v in self.terms:
            if c == cls:
                return v
        return 0

    def coeff_map(self) -> dict[SubgroupClass, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_group(self, other: "RingElement") -> None:
        if self.group != other.group:
            raise GroupMismatch(f"cannot combine elements over {self.group} and {other.group}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._require_same_group(other)
        acc = self.coeff_map()
        for cls, c in other.terms:
            acc[cls] = acc.get(cls, 0) + c
        return RingElement.make(self.group, acc)

    def __neg__(self) -> "RingElement":
        return RingElement(self.group, tuple((c, -v) for c, v in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return RingElement(self.group)
            return RingElement(self.group, tuple((c, v * other) for c, v in self.terms))
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_group(other)
        if self.group.is_circle:
            return self._mul_circle(other)
        return self._mul_cyclic(other)

    __rmul__ = __mul__

    def _mul_circle(self, other: "RingElement") -> "RingElement":
        af, bf = self.coeff(FULL), other.coeff(FULL)
        acc: dict[SubgroupClass, int] = {FULL: af * bf}
        for cls, c in self.terms:
            if cls.kind == _FINITE:
                acc[cls] = acc.get(cls, 0) + bf * c
        for cls, c in other.terms:
            if cls.kind == _FINITE:
                acc[cls] = acc.get(cls, 0) + af * c
        return RingElement.make(self.group, acc)

    def _mul_cyclic(self, other: "RingElement") -> "RingElement":
        m = self.group.order
        acc: dict[SubgroupClass, int] = {}
        for h, ca in self.terms:
            for k, cb in other.terms:
                d, e = h.index, k.index
                g = gcd(d, e)
                cls = SubgroupClass.divisor(g)
                acc[cls] = acc.get(cls, 0) + ca * cb * (m * g // (d * e))
        return RingElement.make(self.group, acc)

    def invert(self) -> Optional["RingElement"]:
        """Multiplicative inverse, or None when no inverse exists.

        For S^1 an element is invertible iff its [G/G]-coefficient is +-1;
        the inverse then negates every finite-cyclic coefficient.  For Z_m
        the candidate inverse is solved from the triangular system of
        fixed-point marks and rejected if any coefficient is non-integer.
        """
        if self.group.is_circle:
            af = self.coeff(FULL)
            if af not in (1, -1):
                return None
            coeffs = {FULL: af}
            for cls, c in self.terms:
                if cls.kind == _FINITE:
                    coeffs[cls] = -c
            return RingElement.make(self.group, coeffs)
        return self._invert_cyclic()

    def _invert_cyclic(self) -> Optional["RingElement"]:
        m = self.group.order
        divs = self.group.divisors()
        marks = {j: cyclic_mark(self, j) for j in divs}
        if any(mu not in (1, -1) for mu in marks.values()):
            return None
        coeffs: dict[int, int] = {}
        for j in divs:  # descending, so proper multiples are done first
            rest = sum(coeffs[d] * (m // d) for d in divs if d > j and d % j == 0)
            num = marks[j] - rest
            if (num * j) % m != 0:
                return None
            coeffs[j] = num * j // m
        inv = RingElement.make(
            self.group, {SubgroupClass.divisor(d): c for d, c in coeffs.items()}
        )
        assert (self * inv) == unit(self.group)
        return inv

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for cls, c in self.terms:
            lbl = cls.label(self.group)
            if c == 1:
                term = lbl
            elif c == -1:
                term = f"-{lbl}"
            else:
                term = f"{c}*{lbl}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def cyclic_mark(a: RingElement, j: int) -> int:
    """Number of Z_j-fixed points of a virtual Z_m-set: the mark at Z_j.

    Marks are ring homomorphisms, since fixed points of a product set are
    products of fixed points; they separate elements of the Burnside ring.
    """
    m = a.group.order
    total = 0
    for cls, c in a.terms:
        d = cls.index
        if d % j == 0:
            total += c * (m // d)
    return total


def zero(group: GroupDescriptor) -> RingElement:
    return RingElement(group)


def unit(group: GroupDescriptor) -> RingElement:
    """The ring unit [G/G]."""
    return RingElement.make(group, {unit_class(group): 1})


def basis_element(group: GroupDescriptor, cls: SubgroupClass) -> RingElement:
    return RingElement.make(group, {cls: 1})


@dataclass(frozen=True)
class DirectLimitClass:
    """A level-n representative of the direct limit of copies of U(G).

    The bonding map from level i to level i+1 is multiplication by the
    invertible element ``multipliers[i]``, so ``multipliers`` holds the
    first ``level`` multipliers a_1 .. a_level.
    """

    level: int
    value: RingElement
    multipliers: tuple[RingElement, ...] = ()

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if len(self.multipliers) != self.level:
            raise ValueError(
                f"need {self.level} multipliers for a level-{self.level} class, "
                f"got {len(self.multipliers)}"
            )
        for a in self.multipliers:
            if a.group != self.value.group:
                raise GroupMismatch("multiplier group differs from value group")


def limit_class_equal(c1: DirectLimitClass, c2: DirectLimitClass) -> bool:
    """Whether two representatives name the same direct-limit class.

    Pushing the lower-level value up through the bonding multiplications
    must reproduce the higher-level value exactly.
    """
    lo, hi = (c1, c2) if c1.level <= c2.level else (c2, c1)
    if hi.multipliers[: lo.level] != lo.multipliers:
        raise MultiplierMismatch("classes built over different multiplier sequences")
    v = lo.value
    for i in range(lo.level, hi.level):
        v = v * hi.multipliers[i]
    return v == hi.value


# Serialization: a sorted list of {"subgroup": ..., "coeff": ...} records.

def _class_to_json(cls: SubgroupClass):
    if cls.kind == _FULL:
        return "S1"
    if cls.kind == _FINITE:
        return {"Zk": cls.index}
    return {"divisor": cls.index}


def _class_from_json(data, name: str) -> SubgroupClass:
    if data == "S1":
        return FULL
    if isinstance(data, dict) and "Zk" in data:
        return SubgroupClass.finite(_json_count(data["Zk"], f"{name}.Zk", 1))
    if isinstance(data, dict) and "divisor" in data:
        return SubgroupClass.divisor(_json_count(data["divisor"], f"{name}.divisor", 1))
    raise ValueError(f"unrecognized subgroup encoding {data!r}")


def ring_element_to_json(a: RingElement) -> list:
    return [{"subgroup": _class_to_json(cls), "coeff": c} for cls, c in a.terms]


def ring_element_from_json(data: Iterable, group: GroupDescriptor) -> RingElement:
    """The element of ``ring_element_to_json``'s form; a BadNumber names a
    coefficient not an integer or a subgroup index not an integer >= 1."""
    coeffs: dict[SubgroupClass, int] = {}
    for i, rec in enumerate(data):
        cls = _class_from_json(rec["subgroup"], f"terms[{i}].subgroup")
        coeffs[cls] = coeffs.get(cls, 0) + _json_count(rec["coeff"], f"terms[{i}].coeff", None)
    return RingElement.make(group, coeffs)
