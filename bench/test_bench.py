"""Tests of the benchmark's own answer checks and span arithmetic."""

import itertools
from collections import defaultdict

import numpy as np
import pytest

from eqdeg import FULL, Ball, brouwer_oracle, selftest

import tracing
import workloads


def _eligible(dim, count):
    return [s for s in itertools.islice(itertools.count(), 60)
            if workloads.fixed_space_case(s, dim) is not None][:count]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fixed_space_enumeration_matches_brouwer_oracle(dim):
    for s in _eligible(dim, 4):
        expected, _ = workloads.fixed_space_case(s, dim)
        fld = selftest.random_fixed_space_field(np.random.default_rng(s), dim)
        assert brouwer_oracle(fld) == expected.coeff(FULL)


def test_fixed_space_redraws_zeros_near_the_sphere():
    for s in range(40):
        zeros = workloads.separable_zeros(s, 7)
        near = any(abs(r - workloads.FIELD_RADIUS) < 0.125 for r, _ in zeros)
        assert (workloads.fixed_space_case(s, 7) is None) == near


def test_abstract_expected_matches_brouwer_oracle_on_the_kernel():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 6:
        problem, expected = workloads._abstract_problem(rng, "lww"[: 1 + checked % 3])
        nvars = problem["nonlinearity"]["variables"]
        terms = problem["nonlinearity"]["terms"]

        def minus_gradient(X):
            out = np.zeros_like(X)
            for t in terms:
                i = int(np.argmax(t["exps"]))
                e = t["exps"][i]
                out[:, i] -= t["coeff"] * e * X[:, i] ** (e - 1)
            return out

        ball = Ball(np.zeros(nvars), problem["radius"])
        assert brouwer_oracle(minus_gradient, ball) == expected.coeff(FULL)
        checked += 1


def test_quadratic_hessian_reads_mixed_terms():
    S0 = workloads.quadratic_hessian(1, [((2, 0), 0.5), ((1, 1), 0.3), ((0, 2), -1.0), ((4, 0), 9.0)])
    assert np.array_equal(S0, [[1.0, 0.3], [0.3, -2.0]])


def test_self_time_subtracts_direct_children_only():
    table = tracing.SpanTable()
    table.enter("a", 0.0)
    table.enter("b", 1.0)
    table.enter("c", 2.0)
    table.exit(3.0)  # c: 1
    table.exit(4.0)  # b: 3, child c covers 1
    table.enter("b", 5.0)
    table.exit(6.0)  # b: 1
    table.exit(10.0)  # a: 10, children b cover 4
    assert table.calls == {"a": 1, "b": 2, "c": 1}
    assert table.total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert table.self_time == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert table.by_parent[(None, "a")] == 10.0
    assert table.by_parent[("a", "b")] == 4.0
    assert table.by_parent[("b", "c")] == 1.0


def test_recursive_span_self_time_is_not_counted_twice():
    table = tracing.SpanTable()
    table.enter("m", 0.0)
    table.enter("m", 1.0)
    table.exit(2.0)
    table.exit(4.0)
    assert table.self_time["m"] == 4.0
    assert table.calls["m"] == 2


def test_spans_wrap_and_restore_library_functions():
    import eqdeg
    import eqdeg.galerkin

    original = eqdeg.galerkin.correction_factor
    op = selftest.synthetic_operator_a()
    want = original(op, 2)
    patches, table, counters = tracing.Patches(), tracing.SpanTable(), defaultdict(float)
    tracing.install_spans(patches, table, counters)
    try:
        assert eqdeg.correction_factor is eqdeg.galerkin.correction_factor
        assert eqdeg.galerkin.correction_factor is not original
        assert eqdeg.correction_factor(op, 2) == want
    finally:
        patches.undo()
    assert eqdeg.galerkin.correction_factor is original
    assert eqdeg.correction_factor is original
    assert table.calls["galerkin.correction_factor"] == 1
    assert table.calls["reps.shell_operator"] == 2
    assert table.stack == []
