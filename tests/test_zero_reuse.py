"""Galerkin levels that add no fixed coordinate take the fixed-space zeros of
the last level searched instead of searching again; a level whose shells add
a fixed coordinate searches on its own.
Also the floor of a declared support and the batched equivariance check."""

import json

import numpy as np
import pytest

import eqdeg.finite_degree as finite_degree
from eqdeg.cli import EXIT_CERTIFICATION, main
from eqdeg.domains import Ball
from eqdeg.errors import EquivarianceFailure, MarginFailure, StabilizationFailure
from eqdeg.euler_ring import CIRCLE, unit, zero as ring_zero
from eqdeg.finite_degree import GradientField, classify_zeros, grad_degree, search_zeros
from eqdeg.galerkin import (
    LocalMapSpec,
    RegionSpec,
    _no_tail,
    certify_margin,
    deg_infinite,
    direct_sum_local_maps,
    normalization_map,
    shell_field,
)
from eqdeg.hamiltonian import local_map, loop_operator
from eqdeg.reps import Rep, SpectralOperator, canonical_layout
from eqdeg.selftest import corpus_local_maps, quartic_hamiltonian, synthetic_operator_a

from declarations import declared
from test_galerkin import wide_potential_map


def count_fixed_space_searches(monkeypatch):
    """The fields, by dimension, on which Newton runs without rotation planes:
    the fixed-space searches (the off-space probes run on planes)."""
    dims = []
    original = finite_degree._newton_batch

    def counting(fld, seeds, **kwargs):
        if not fld.layout.pairs:
            dims.append(fld.rep.dim)
        return original(fld, seeds, **kwargs)

    monkeypatch.setattr(finite_degree, "_newton_batch", counting)
    return dims


def cubic_nonlinearity(c):
    """F(x) = c |x|^2 x, the gradient of c |x|^4 / 4: equivariant, and it
    maps V_n into itself, so f_n = P_n F on V_n with no tail."""

    def F(X, basis):
        X = np.atleast_2d(X)
        return c * np.sum(X**2, axis=1)[:, None] * X

    F.tail = _no_tail
    return F


def widening_operator():
    """No kernel; shell 1 holds a fixed line and a mode-1 plane, shell 2 a
    second fixed line, shell 3 a mode-2 plane and shell 4 a mode-3 plane:
    level 2 widens the fixed space, levels 3 and 4 do not."""
    return SpectralOperator.from_eigenvalues([
        (0.6, Rep(1)), (-0.8, Rep(0, ((1, 1),))),
        (-1.5, Rep(1)),
        (2.5, Rep(0, ((2, 1),))),
        (-3.5, Rep(0, ((3, 1),))),
    ])


@pytest.mark.parametrize("depth", [1, 2])
def test_a_loop_map_searches_its_fixed_space_once_per_certificate(monkeypatch, depth):
    dims = count_fixed_space_searches(monkeypatch)
    f = local_map(quartic_hamiltonian(1, 0.4), radius=0.8)
    res = deg_infinite(f, stabilization_depth=depth)
    assert res.level == 1 and res.value == unit(CIRCLE)
    assert dims == [2]  # the constant loops, searched at level 1 only
    assert res.diagnostics["zeros_from"] == [1] * (depth + 1)
    assert res.diagnostics["zero_counts"] == [1] * (depth + 1)


def test_reused_zeros_equal_a_fresh_search_at_each_level():
    f = local_map(quartic_hamiltonian(2, 0.4), radius=0.8)
    _, base = grad_degree(shell_field(f, 1), return_zeros=True)
    for n in (2, 3):
        fld = shell_field(f, n)
        known = np.pad(base, ((0, 0), (0, fld.rep.dim - base.shape[1])))
        zeros, degrees = classify_zeros(*search_zeros(fld, fixed_zeros=known))
        degree = sum(degrees, ring_zero(CIRCLE))
        fresh_degree, fresh = grad_degree(fld, return_zeros=True)
        assert degree == fresh_degree
        assert zeros.shape == fresh.shape and np.abs(zeros - fresh).max() < 1e-8


def test_a_level_that_adds_a_fixed_line_searches_again(monkeypatch):
    dims = count_fixed_space_searches(monkeypatch)
    f = LocalMapSpec(widening_operator(), cubic_nonlinearity(0.5), RegionSpec.ball(0.5), name="widening")
    res = deg_infinite(f, stabilization_depth=3)
    assert res.level == 1
    assert res.diagnostics["zeros_from"] == [1, 2, 2, 2]
    assert dims == [1, 2]
    assert res.diagnostics["zero_counts"] == [1] * 4


def test_a_direct_sum_whose_summand_adds_a_fixed_line_in_every_shell_searches_at_every_level(monkeypatch):
    # synthetic_operator_a adds a trivial coordinate at every level, so no
    # level may take the zeros of the one below
    dims = count_fixed_space_searches(monkeypatch)
    f = direct_sum_local_maps(
        local_map(quartic_hamiltonian(1, 0.4), radius=0.8), normalization_map(synthetic_operator_a())
    )
    res = deg_infinite(f, stabilization_depth=2)
    assert res.diagnostics["zeros_from"] == [res.level + j for j in range(3)]
    assert len(dims) == 3


def test_support_maps_report_level_n_as_the_source_of_their_zeros():
    f = next(i for i in corpus_local_maps() if i.name == "abstract-a").build()
    assert deg_infinite(f, stabilization_depth=2).diagnostics["zeros_from"] == [1, 1, 1]


def drifting_nonlinearity():
    """A nonlinearity that is no projection of one F: on the constant loops
    of V_n, f_n(x) = x - (n / 10, 0), so its zero moves with the level."""

    def F(X, basis):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, :2] = -X[:, :2]
        out[:, 0] += 0.1 * basis.level
        return out

    F.tail = _no_tail
    return F


def test_a_zero_that_moves_with_the_level_is_refused():
    f = LocalMapSpec(loop_operator(1), drifting_nonlinearity(), RegionSpec.ball(1.0), name="drift")
    for level in ("auto", 2):
        with pytest.raises(StabilizationFailure, match=r"drift \| V_\d+: a fixed-space zero of a lower level"):
            deg_infinite(f, level=level)


# ---------------------------------------------------------------------------
# The floor of a declared support


def recording(f: LocalMapSpec):
    """f with a nonlinearity that records the level of each call."""
    levels = []

    def F(X, basis):
        levels.append(basis.level)
        return f.nonlinearity(X, basis)

    declarations = {k: getattr(f, k) for k in ("tail", "jacobian", "affine", "blocks")}
    return LocalMapSpec(f.operator, declared(F, **declarations), f.region, f.name), levels


def test_a_support_wider_than_v_n_is_refused_before_any_sample():
    f, levels = recording(wide_potential_map())
    with pytest.raises(MarginFailure, match="wide: potential uses 4 coordinates, V_1 has 3; raise the level"):
        certify_margin(f, 1)
    assert levels == []
    assert deg_infinite(f).level == 2
    assert 1 not in levels


def test_a_support_wider_than_the_forced_level_exits_3(tmp_path, capsys):
    spectrum = [{"eigenvalue": 0.0, "rep": {"trivial": 1, "modes": []}}]
    for n in range(1, 6):
        spectrum += [{"eigenvalue": s * (n - 0.3), "rep": {"trivial": 1, "modes": []}} for s in (-1, 1)]
    terms = [{"exps": [2 * (j == i) for j in range(4)], "coeff": 0.5} for i in range(4)]
    problem = {
        "kind": "abstract", "group": "S1", "spectrum": spectrum,
        "nonlinearity": {"variables": 4, "terms": terms}, "radius": 1.0, "truncation": "auto",
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(problem))
    assert main(["compute", str(path), "--truncation", "1"]) == EXIT_CERTIFICATION
    assert "potential uses 4 coordinates, V_1 has 3; raise the level" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The equivariance spot check


def test_the_spot_check_evaluates_its_samples_and_rotations_in_one_call():
    rep = Rep(1, ((1, 1), (2, 1)))
    rows = []

    def value(X):
        rows.append(len(X))
        return -X

    fld = GradientField(rep, value, Ball(np.zeros(rep.dim), 1.0))
    finite_degree._spot_check_equivariance(fld, np.random.default_rng(0))
    assert rows == [40]


def test_the_spot_check_still_catches_a_field_that_breaks_the_action():
    rep = Rep(0, ((1, 1),))
    fld = GradientField(rep, lambda X: X**2, Ball(np.zeros(2), 1.0), name="squares")
    with pytest.raises(EquivarianceFailure, match="squares: equivariance spot-check failed"):
        finite_degree._spot_check_equivariance(fld, np.random.default_rng(0))


def test_rotation_arrays_are_built_once_per_layout():
    layout = canonical_layout(Rep(1, ((1, 2), (3, 1))))
    assert layout._rotation is layout._rotation
    x = np.arange(1.0, 8.0)
    turned = layout.rotate(0.3, x)
    assert turned[0] == 1.0
    assert np.allclose(turned[5:7], [np.cos(0.9) * 6 - np.sin(0.9) * 7, np.sin(0.9) * 6 + np.cos(0.9) * 7])
