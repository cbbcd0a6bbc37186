"""Spans and counters recorded around calls into eqdeg's public functions.

Nothing here edits the library: wrappers are installed on module and class
attributes from outside, so the same library code runs traced and untraced.
A span's self time is its duration minus the durations of its direct
children; calls of one process never overlap, so the children of a span
cover disjoint parts of it.  Counts go into a ``defaultdict(float)`` that
the caller owns and passes in.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from eqdeg.galerkin import LocalMapSpec

# (span name, owner, attribute): the layer boundaries that get a span.
# Owners are given by module path, optionally followed by a class name.
SPANS = (
    ("euler_ring.mul", "eqdeg.euler_ring:RingElement", "__mul__"),
    ("euler_ring.mul", "eqdeg.euler_ring:RingElement", "__rmul__"),
    ("reps.shell_operator", "eqdeg.reps", "shell_operator"),
    ("polynomials.gradient", "eqdeg.polynomials:Polynomial", "gradient"),
    ("finite_degree.grad_degree", "eqdeg.finite_degree", "grad_degree"),
    ("finite_degree.evaluate", "eqdeg.finite_degree:GradientField", "evaluate"),
    ("galerkin.deg_infinite", "eqdeg.galerkin", "deg_infinite"),
    ("galerkin.certify_margin", "eqdeg.galerkin", "certify_margin"),
    ("galerkin.correction_factor", "eqdeg.galerkin", "correction_factor"),
    ("galerkin.shell_basis", "eqdeg.galerkin:ShellBasis", "__init__"),
    ("hamiltonian.periodic_existence", "eqdeg.hamiltonian", "periodic_existence"),
    ("cli.compute", "eqdeg.cli", "cmd_compute"),
    ("cli.checks", "eqdeg.cli", "_run_checks"),
) + tuple(
    (f"domains.{method}", f"eqdeg.domains:{cls}", method)
    for cls in ("Ball", "ShellDomain", "UnionDomain", "IntersectionDomain", "ProductDomain")
    for method in ("seed_points", "boundary_samples")
)


class SpanTable:
    """Running per-name totals of spans: calls, inclusive time, self time.

    Spans are aggregated as they close, so memory does not grow with the
    number of calls.  ``by_parent`` keeps inclusive time per (parent name,
    name) pair for metrics that depend on the caller.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.by_parent: dict[tuple, float] = defaultdict(float)

    def enter(self, name: str, t: float | None = None) -> None:
        """Open a span at time t (now by default; tests pass their own)."""
        self.stack.append([name, time.perf_counter() if t is None else t, 0.0])

    def exit(self, t: float | None = None) -> None:
        end = time.perf_counter() if t is None else t
        name, start, children = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        parent = self.stack[-1][0] if self.stack else None
        self.by_parent[(parent, name)] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self.stack[-1][0] if self.stack else None


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


def _points(x) -> int:
    x = np.asarray(x)
    return int(x.size // x.shape[-1]) if x.ndim and x.shape[-1] else 1


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def set_everywhere(self, original, value) -> None:
        """Rebind every eqdeg module attribute that refers to ``original``."""
        for name, module in list(sys.modules.items()):
            if name != "eqdeg" and not name.startswith("eqdeg."):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def count_field_points(patches: Patches, counters: dict) -> None:
    """Count the points at which any LocalMapSpec nonlinearity is evaluated.

    The wrapper is attached when a LocalMapSpec is constructed, so maps that
    the library builds internally (loop maps, CLI problems, normalization
    maps) are counted too.  ``dataclasses.replace`` passes an already
    wrapped nonlinearity back in, which is left as it is.
    """
    original_init = LocalMapSpec.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if not getattr(self.nonlinearity, "bench_counted", False):
            self.nonlinearity = counted_nonlinearity(self.nonlinearity, counters)

    patches.set(LocalMapSpec, "__init__", init)


def counted_nonlinearity(fn, counters: dict):
    @functools.wraps(fn)
    def wrapper(X, basis):
        rows = _rows(X)
        counters["field_points"] += rows
        counters["galerkin.field_points"] += rows
        return fn(X, basis)

    wrapper.bench_counted = True
    return wrapper


def counted_value(fn, counters: dict):
    """Count the points at which a GradientField value callable runs."""

    @functools.wraps(fn)
    def wrapper(X):
        counters["field_points"] += _rows(X)
        return fn(X)

    return wrapper


# Counts taken as a span closes: span name -> (counter, amount of one call).
# Nested seed_points calls (a union asking its balls) are left out, so the
# row count is the number of Newton seeds a caller received.
_SPAN_COUNTS = {
    "domains.seed_points": (
        "domains.seed_points.rows",
        lambda args, kwargs, out, nested: 0 if nested else len(out),
    ),
    "finite_degree.grad_degree": (
        "finite_degree.zeros",
        lambda args, kwargs, out, nested: len(out[1]) if kwargs.get("return_zeros") else 0,
    ),
    "finite_degree.evaluate": (
        "finite_degree.field_points",
        lambda args, kwargs, out, nested: _rows(args[1]),
    ),
    "polynomials.gradient": (
        "polynomials.gradient.points",
        lambda args, kwargs, out, nested: _points(args[1]),
    ),
}


def _span_wrapper(fn, name: str, table: SpanTable, counters: dict):
    count = _SPAN_COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nested = table.parent() == name
        table.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            table.exit()
        if count is not None:
            counters[count[0]] += count[1](args, kwargs, out, nested)
        return out

    return wrapper


def install_spans(patches: Patches, table: SpanTable, counters: dict) -> None:
    """Put a span around every layer boundary in SPANS, and around the
    nonlinearity of every map that ``hamiltonian.local_map`` returns."""
    for name, owner, attr in SPANS:
        obj = _resolve(owner)
        original = obj.__dict__[attr]
        wrapped = _span_wrapper(original, name, table, counters)
        if isinstance(obj, type):
            patches.set(obj, attr, wrapped)
        else:
            patches.set_everywhere(original, wrapped)

    hamiltonian = sys.modules["eqdeg.hamiltonian"]
    original_local_map = hamiltonian.local_map

    def local_map(*args, **kwargs):
        spec = original_local_map(*args, **kwargs)
        inner = _span_wrapper(spec.nonlinearity, "hamiltonian.nonlinearity", table, counters)
        inner.bench_counted = True
        spec.nonlinearity = inner
        return spec

    patches.set_everywhere(original_local_map, functools.wraps(original_local_map)(local_map))


def layer_metrics(table: SpanTable, counters: dict, degrees: int) -> dict[str, float]:
    """Per-layer metrics per degree computed, by the names BENCHMARK.json lists."""
    per = 1.0 / max(degrees, 1)
    seeds = counters.get("domains.seed_points.rows", 0.0)
    zeros = counters.get("finite_degree.zeros", 0.0)

    def calls(name):
        return table.calls.get(name, 0) * per

    def self_s(name):
        return table.self_time.get(name, 0.0) * per

    def count(name):
        return counters.get(name, 0.0) * per

    return {
        "galerkin.deg_infinite.calls": calls("galerkin.deg_infinite"),
        "galerkin.certify_margin.calls": calls("galerkin.certify_margin"),
        "galerkin.certify_margin.self_s": self_s("galerkin.certify_margin"),
        "galerkin.shell_basis.builds": calls("galerkin.shell_basis"),
        "galerkin.correction_factor.self_s": self_s("galerkin.correction_factor"),
        "galerkin.field_points": count("galerkin.field_points"),
        "finite_degree.grad_degree.self_s": self_s("finite_degree.grad_degree"),
        "finite_degree.field_points": count("finite_degree.field_points"),
        "finite_degree.seed_yield": zeros / seeds if seeds else 0.0,
        "domains.seed_points.self_s": self_s("domains.seed_points"),
        "domains.seed_points.rows": count("domains.seed_points.rows"),
        "domains.boundary_samples.self_s": self_s("domains.boundary_samples"),
        "hamiltonian.nonlinearity.self_s": self_s("hamiltonian.nonlinearity"),
        "hamiltonian.nonlinearity.calls": calls("hamiltonian.nonlinearity"),
        "polynomials.gradient.self_s": self_s("polynomials.gradient"),
        "polynomials.gradient.points": count("polynomials.gradient.points"),
        "euler_ring.mul.calls": calls("euler_ring.mul"),
        "euler_ring.mul.self_s": self_s("euler_ring.mul"),
        "reps.shell_operator.calls": calls("reps.shell_operator"),
        "cli.core_s": table.by_parent.get(("cli.compute", "galerkin.deg_infinite"), 0.0) * per,
        "cli.checks_s": table.total.get("cli.checks", 0.0) * per,
    }
